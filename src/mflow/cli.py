"""Command-line entry point: training, distillation, sampling, verification.

Every run resolves its configuration (file + dotted-key overrides), writes
the resolved config next to its outputs, and is reproducible from that file
alone. Exit codes: 0 success, 1 usage error, 2 numerical abort or failed
verification, 3 I/O error or a checkpoint that is corrupt, truncated, of the
wrong kind, or does not fit the config. ``mflow inspect CKPT`` prints a
checkpoint's kind, step, parameter count and digests as one JSON line.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .data import build_sr_pool, write_manifest, write_pgm
from .oracle import AnalyticFlow, identity_residual_grid, write_residual_csv
from .sampling import sample_student, sr_restore, steps_sweep, write_sweep_csv
from .training import (CheckpointError, NumericalAbort, RunConfig, check_net,
                       describe_checkpoint, distill_student, load_student, pin_heap,
                       train_teacher)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _at_least(minimum: int):
    """argparse type: an integer no smaller than ``minimum``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value
    return parse


def _resolve_config(args) -> RunConfig:
    data: dict = {}
    if args.config:
        with open(args.config) as fh:
            try:
                data = json.load(fh)
            except ValueError as exc:  # malformed JSON or text that is not UTF-8
                raise UsageError(f"{args.config} is not valid JSON ({exc})") from exc
        if not isinstance(data, dict):
            raise UsageError(f"{args.config} does not hold a JSON object")
    for item in args.set or []:
        if "=" not in item:
            raise UsageError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        target = data
        parts = key.split(".")
        for part in parts[:-1]:
            target = target.setdefault(part, {})
            if not isinstance(target, dict):
                raise UsageError(f"--set {key}: {part!r} is not an object")
        target[parts[-1]] = _parse_value(value)
    if args.seed is not None:
        data["seed"] = args.seed
    try:
        return RunConfig.from_dict(data)
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc)) from exc


@functools.cache
def build_parser() -> _Parser:
    """The one parser of the process: argparse's objects reference each other,
    so a parser built per command would wait for the cyclic collector."""
    parser = _Parser(prog="mflow", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    for name, help_text in [
        ("train-teacher", "train the rectified-flow teacher"),
        ("distill", "distill the teacher into an average-velocity student"),
        ("sample", "draw samples from a trained student"),
        ("eval", "step-count sweep with metrics CSV"),
        ("verify", "check the average-velocity identity against the analytic oracle"),
        ("gen-data", "emit dataset samples for inspection"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", type=str, default="out", help="output directory")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="dotted-key config override (repeatable)")
        if name in ("sample", "eval"):
            p.add_argument("--ckpt", type=str, default=None,
                           help="student checkpoint (default: OUT/student.ckpt)")
            # eval's Gaussian moments need two samples
            p.add_argument("--n", type=_at_least(1 if name == "sample" else 2),
                           default=4 if name == "sample" else 512, help="number of samples")
        if name == "sample":
            p.add_argument("--steps", type=_at_least(1), default=1, help="sampling steps N")
        if name == "eval":
            p.add_argument("--steps", type=_at_least(1), nargs="+", default=[1, 2, 4, 8],
                           help="step counts to sweep")
        if name == "verify":
            p.add_argument("--grid", type=_at_least(1), default=10,
                           help="grid resolution per axis")
            p.add_argument("--steps", type=_at_least(1), default=1024, help="integrator steps")
    p = sub.add_parser("inspect", help="print a checkpoint's kind, step, parameter count "
                                       "and digests as one JSON line")
    p.add_argument("ckpt", help="checkpoint file")
    return parser


def _cmd_verify(args, config: RunConfig, out: Path) -> int:
    if config.task != "gaussian":
        raise UsageError(f"verify needs task gaussian, got {config.task!r}")
    flow = AnalyticFlow(dim=len(config.gauss_mu), mu=np.asarray(config.gauss_mu),
                        sigma=config.gauss_sigma)
    k = args.grid
    t_grid = np.linspace(0.0, 0.9, k)
    s_grid = np.linspace(0.05, 1.0, k)
    rng = np.random.default_rng(config.seed)
    probes = rng.normal(0.0, 1.5, size=(10, flow.dim))
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite residual exits 2
        rows = identity_residual_grid(flow, t_grid, s_grid, probes, steps=args.steps)
    write_residual_csv(rows, out / "residual_grid.csv")
    valid = [r for r in rows if not r["skipped"]]
    worst = float(np.max([r["max_resid"] for r in valid]))  # NaN if any cell is NaN
    skipped = sum(r["skipped"] for r in rows)
    print(f"residual grid: {len(valid)} cells, {skipped} skipped (s <= t), "
          f"max residual {worst:.3e}")
    if not np.isfinite(worst):
        print("identity residual is not finite", file=sys.stderr)
        return 2
    if worst >= 1e-3:
        print("identity residual exceeds 1e-3", file=sys.stderr)
        return 2
    return 0


def _cmd_gen_data(args, config: RunConfig, out: Path) -> int:
    dataset = config.dataset()
    if config.task == "toysr":
        pool = build_sr_pool(dataset, 16, config.seed)
        for i, pair in enumerate(pool):
            write_pgm(out / f"hr_{i:03d}.pgm", pair.hr)
            write_pgm(out / f"lr_{i:03d}.pgm", pair.lr)
        write_manifest(out / "manifest.csv", pool, dataset.params)
        print(f"wrote {len(pool)} HR/LR pairs to {out}")
    else:
        rng = np.random.default_rng(config.seed)
        pts = dataset.mu + dataset.sigma * rng.standard_normal((2048, dataset.dim))
        np.savetxt(out / "points.csv", pts, delimiter=",",
                   header=",".join(f"x{i}" for i in range(pts.shape[1])), comments="")
        print(f"wrote {pts.shape[0]} points to {out / 'points.csv'}")
    return 0


def _load_checked_student(args, config: RunConfig, out: Path):
    """(student, dataset, held-out SR pool of ``args.n`` pairs, or None off SR)."""
    ckpt = args.ckpt or str(out / "student.ckpt")
    student = load_student(ckpt)
    dataset = config.dataset()
    check_net(student, config, ckpt)
    pool = build_sr_pool(dataset, args.n, config.seed + 1) if config.task == "toysr" else None
    return student, dataset, pool


def _cmd_sample(args, config: RunConfig, out: Path) -> int:
    student, dataset, pool = _load_checked_student(args, config, out)
    rng = np.random.default_rng(config.seed)
    if pool is not None:
        imgs = sr_restore(student, np.stack([p.lr for p in pool]), [p.label for p in pool],
                          dataset, args.steps, rng)
        for i, (img, pair) in enumerate(zip(imgs, pool)):
            write_pgm(out / f"sr_{i:03d}.pgm", img)
            write_pgm(out / f"sr_{i:03d}_lr.pgm", pair.lr)
        print(f"wrote {len(pool)} restorations to {out}")
    else:
        z0 = rng.standard_normal((args.n, dataset.z_dim))
        z_lr = np.zeros((args.n, 0))
        pts = sample_student(student, z0, z_lr, 0, args.steps)
        np.savetxt(out / "samples.csv", pts, delimiter=",",
                   header=",".join(f"x{i}" for i in range(pts.shape[1])), comments="")
        print(f"wrote {args.n} samples to {out / 'samples.csv'}")
    return 0


def _cmd_eval(args, config: RunConfig, out: Path) -> int:
    student, dataset, pool = _load_checked_student(args, config, out)
    rows = steps_sweep(student, dataset, args.steps, config.seed, args.n, pool=pool)
    write_sweep_csv(out / "sweep.csv", rows)
    for r in rows:
        print(f"N={r['N']:>3} {r['metric_name']}={r['value']:.6g}")
    return 0


def run(argv: list[str]) -> int:
    """Run one command; returns its exit code.

    ``pin_heap`` runs before and after, so free heap pages go back to the OS
    around each command: a process running many commands would keep tens of
    MB of free heap, and whether a later large allocation fits in it or adds
    to the peak memory varies from run to run. Within a command they stay, as
    the heap's thresholds are pinned; they stay pinned after ``run`` returns
    (see ``pin_heap``).
    """
    pin_heap()
    parser = build_parser()
    try:
        if not argv:
            parser.print_usage(sys.stderr)
            return 1
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 1
        if args.command == "inspect":
            print(json.dumps(describe_checkpoint(args.ckpt), sort_keys=True))
            return 0
        config = _resolve_config(args)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "config.json").write_text(
            json.dumps(config.to_dict(), indent=2, sort_keys=True) + "\n")
        if args.command == "train-teacher":
            path = train_teacher(config, out)
            print(f"teacher checkpoint: {path}")
            return 0
        if args.command == "distill":
            teacher = config.teacher_ckpt or str(out / "teacher.ckpt")
            path = distill_student(config, teacher, out)
            print(f"student checkpoint: {path}")
            return 0
        if args.command == "sample":
            return _cmd_sample(args, config, out)
        if args.command == "eval":
            return _cmd_eval(args, config, out)
        if args.command == "verify":
            return _cmd_verify(args, config, out)
        return _cmd_gen_data(args, config, out)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalAbort as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3
    except CheckpointError as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return 3
    finally:
        pin_heap()


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
