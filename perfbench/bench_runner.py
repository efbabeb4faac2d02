"""Rounds, checks and metrics of one benchmark run (see ``run.py`` for the entry point).

A round is the workload's fixed pipeline of CLI commands followed by
closed-loop sampling requests from one client. Calls that a traced round
must see go through module attributes (``mflow.cli.run``,
``mflow.sampling.sr_infer``), so the tracer's wrappers are the ones called.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import math
import os
import resource
import select
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

import mflow.cli
import mflow.sampling
from bench_env import environment
from bench_metrics import END_TO_END, PER_LAYER
from bench_speed import Timed, reference_s, speed_scale
from bench_tracing import Tracer, summarize
from bench_workloads import EVAL_STEPS, VERIFY_LIMIT, round_seed, warm_up, write_configs
from mflow.data import build_sr_pool, read_pgm
from mflow.oracle import AnalyticFlow, flow_map
from mflow.training import RunConfig, load_student

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_ROUNDS = 5  # also the rounds whose one-step error is measured
PROBES_PER_ROUND = 1
PROBE_TIMEOUT_S = 30
WARMUP_REQUESTS = 8
P99_CHUNK = 1000  # requests per p99: ten beyond it


class Tally:
    """Operations attempted and the reasons of those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


@dataclass
class Round:
    label: str
    seed: int
    times: dict = field(default_factory=dict)      # CLI command -> wall seconds
    scales: dict = field(default_factory=dict)     # CLI command or "requests" -> host speed
    latencies: list = field(default_factory=list)  # seconds per timed request
    quality: float | None = None
    sweep: list = field(default_factory=list)
    digest: str | None = None

    @property
    def pipeline_s(self) -> float:
        return sum(self.times.values())


def _cli(argv: list[str], log: Path) -> tuple[bool, Timed, str]:
    """One CLI command, output to ``log``; (exit 0 and no exception, timing, reason)."""
    with open(log, "w") as fh, contextlib.redirect_stdout(fh), contextlib.redirect_stderr(fh):
        with Timed() as timed:
            try:
                rc = mflow.cli.run(argv)
                reason = f"exit code {rc}"
            except Exception as exc:  # a command that raises is a failed operation, not a crash
                rc = None
                reason = f"raised {exc!r}"
                traceback.print_exc(file=fh)
    return rc == 0, timed, reason


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _finite(x) -> bool:
    return bool(np.all(np.isfinite(x)))


def _is_image(x) -> bool:
    return _finite(x) and x.min() >= 0.0 and x.max() <= 1.0


def _check_outputs(wl, out: Path, rnd: Round, tally: Tally) -> None:
    tag = f"{rnd.label}:"
    try:
        rnd.sweep = _read_csv(out / "sweep.csv")
        steps = sorted({int(r["N"]) for r in rnd.sweep})
        tally.check(steps == list(EVAL_STEPS), f"{tag} sweep has N={steps}, want {EVAL_STEPS}")
        tally.check(all(math.isfinite(float(r["value"])) for r in rnd.sweep),
                    f"{tag} non-finite sweep value")
    except (OSError, KeyError, ValueError) as exc:
        tally.check(False, f"{tag} unreadable sweep.csv: {exc!r}")
    try:
        if wl.is_sr:
            imgs = [read_pgm(p) for p in sorted(out.glob("sr_*[0-9].pgm"))]
            tally.check(len(imgs) == 8 and all(_is_image(i) for i in imgs),
                        f"{tag} sample wrote {len(imgs)} valid restorations, want 8")
        else:
            pts = np.loadtxt(out / "samples.csv", delimiter=",", skiprows=1, ndmin=2)
            tally.check(pts.shape[0] == 8 and _finite(pts), f"{tag} bad samples.csv")
    except (OSError, ValueError) as exc:
        tally.check(False, f"{tag} unreadable samples: {exc!r}")
    if not wl.is_sr:
        try:
            grid = _read_csv(out / "verify" / "residual_grid.csv")
            worst = max(float(r["max_resid"]) for r in grid)
            tally.check(worst < VERIFY_LIMIT,
                        f"{tag} verify residual {worst:.3e} >= {VERIFY_LIMIT}")
        except (OSError, KeyError, ValueError) as exc:
            tally.check(False, f"{tag} unreadable residual grid: {exc!r}")
    rnd.digest = hashlib.sha256((out / "student.ckpt").read_bytes()).hexdigest()


def _requests(wl, distill_cfg: dict, seed: int):
    """(request, valid): the workload's sampling entry point on prepared inputs."""
    dataset = RunConfig.from_dict(distill_cfg).dataset()
    rng = np.random.default_rng(seed + 3)
    if wl.is_sr:
        pairs = build_sr_pool(dataset, 16, seed + 2)

        def request(student, i):
            return mflow.sampling.sr_infer(student, pairs[i % len(pairs)], dataset, 1, rng)
        return request, _is_image
    noise = rng.standard_normal((8, wl.request_batch, dataset.z_dim))
    z_lr = np.zeros((wl.request_batch, 0))

    def request(student, i):
        return mflow.sampling.sample_student(student, noise[i % len(noise)], z_lr, 0, 1)
    return request, lambda z: z.shape == noise[0].shape and _finite(z)


def _serve(wl, request, valid, student, rnd: Round, tally: Tally) -> None:
    """Closed loop, one client: each request is sent when the previous one returns."""
    for i in range(WARMUP_REQUESTS + wl.requests):
        start = time.perf_counter()
        try:
            out = request(student, i)
        except Exception as exc:  # counted as a failed request
            tally.check(False, f"{rnd.label}: request {i} raised {exc!r}")
            continue
        elapsed = time.perf_counter() - start
        if tally.check(valid(out), f"{rnd.label}: request {i} returned an invalid output") \
                and i >= WARMUP_REQUESTS:
            rnd.latencies.append(elapsed)


def _onestep_rmse(wl, distill_cfg: dict, student, seed: int) -> float:
    """RMS error of one-step outputs against ground truth.

    SR: restorations of the held-out pool that ``eval`` sweeps, against the HR
    images. Gauss: samples against the oracle's exact flow map of the same noise.
    """
    dataset = RunConfig.from_dict(distill_cfg).dataset()
    rng = np.random.default_rng(seed + 4)
    if wl.is_sr:
        pool = build_sr_pool(dataset, wl.eval_n, seed + 1)
        err = [mflow.sampling.sr_infer(student, pair, dataset, 1, rng) - pair.hr
               for pair in pool]
    else:
        analytic = AnalyticFlow(dim=dataset.dim, mu=dataset.mu, sigma=dataset.sigma)
        z0 = rng.standard_normal((4096, dataset.dim))
        one_step = mflow.sampling.sample_student(student, z0, np.zeros((z0.shape[0], 0)), 0, 1)
        err = [one_step - flow_map(analytic, z0, 0.0, 1.0, steps=256)]
    return float(np.sqrt(np.mean(np.square(err))))


def run_round(wl, seed: int, label: str, run_dir: Path, tally: Tally,
              tracer: Tracer | None = None, quality: bool = False) -> Round:
    """One pipeline plus its sampling requests; the tracer, if any, spans both.

    ``quality`` also measures the one-step error.
    """
    rnd = Round(label=label, seed=seed)
    out = run_dir / label
    _, distill_cfg = write_configs(wl, seed, out / "cfg")
    traced = tracer.installed if tracer else contextlib.nullcontext
    with traced():
        for name, argv in wl.pipeline(out / "cfg", out):
            ok, timed, reason = _cli(argv, out / f"{name}.log")
            rnd.times[name], rnd.scales[name] = timed.wall_s, timed.scale
            if not tally.check(ok, f"{label}: {name} failed: {reason} (see {out / name}.log)"):
                return rnd  # the round directory stays for inspection
    _check_outputs(wl, out, rnd, tally)
    student = load_student(out / "student.ckpt")
    request, valid = _requests(wl, distill_cfg, seed)
    with traced(), Timed() as timed:
        _serve(wl, request, valid, student, rnd, tally)
    rnd.scales["requests"] = timed.scale
    if quality:
        rnd.quality = _onestep_rmse(wl, distill_cfg, student, seed)
        tally.check(math.isfinite(rnd.quality), f"{label}: non-finite one-step quality")
    shutil.rmtree(out)
    return rnd


def _setup_probe(wl, seed: int, out: Path, tally: Tally) -> tuple[float, float] | None:
    """Seconds from spawning a fresh process until it reports ``ready``: (wall, scale)."""
    out.mkdir(parents=True, exist_ok=True)
    before = reference_s()
    with open(out / "probe.log", "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "setup_probe.py"), wl.name,
                                 str(seed), str(out)], cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=err, text=True)
        line = ""
        try:
            if select.select([proc.stdout], [], [], PROBE_TIMEOUT_S)[0]:
                line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            if line:
                proc.communicate(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            line = ""
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.communicate()
    ok = tally.check(line.strip() == "ready" and proc.returncode == 0,
                     f"setup probe failed (see {out / 'probe.log'})")
    return (elapsed, speed_scale(before, reference_s())) if ok else None


def _round_record(r: Round) -> dict:
    rec = asdict(r)
    rec["latencies"] = len(r.latencies)
    rec["pipeline_s"] = r.pipeline_s
    return rec


def _timings(wl, rounds: list[Round], probes: list[tuple[float, float]],
             scaled: bool) -> dict:
    """Timing metrics of a run; ``scaled`` scales each timed section to the nominal host speed.

    Each is a median over the rounds (setup_s: over the probes), except sample_ms_p99.
    Host stalls only ever add latency and hit some chunks of P99_CHUNK requests, so that
    is the lower quartile of the chunks' p99s: the tail in the run's calmer stretches. A
    tail the program itself causes recurs in every chunk and shows.
    """
    def scale(r: Round, name: str) -> float:
        return r.scales[name] if scaled else 1.0

    def took(r: Round, name: str) -> float:
        return r.times[name] * scale(r, name)

    def throughput(cfg: dict, name: str) -> float:
        return statistics.median(cfg["batch_size"] * cfg["steps"] / took(r, name)
                                 for r in rounds)

    teacher_cfg, distill_cfg = wl.configs(0)
    return {
        "setup_s": statistics.median(wall * (speed if scaled else 1.0)
                                     for wall, speed in probes),
        "pipeline_s": statistics.median(sum(took(r, name) for name in r.times)
                                        for r in rounds),
        "teacher_samples_per_s": throughput(teacher_cfg, "train-teacher"),
        "distill_samples_per_s": throughput(distill_cfg, "distill"),
        "sample_per_s": statistics.median(
            len(r.latencies) * wl.request_batch / (sum(r.latencies) * scale(r, "requests"))
            for r in rounds),
        "sample_ms_p99": statistics.quantiles(
            [_percentile(chunk, 99) * scale(r, "requests") * 1e3
             for r in rounds for chunk in _chunks(r.latencies)],
            n=4, method="inclusive")[0],
    }


def _chunks(latencies: list) -> list[list]:
    """Consecutive chunks of P99_CHUNK requests (all of them, if fewer)."""
    return [latencies[i:i + P99_CHUNK]
            for i in range(0, max(len(latencies) - P99_CHUNK, 0) + 1, P99_CHUNK)]


def _percentile(values: list, p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def _untraced(wl, seed: int, seconds: int, run_dir: Path, tally: Tally) -> tuple[dict, dict]:
    probes: list[tuple[float, float] | None] = []
    warm_up(wl.configs(round_seed(seed, 0))[0])
    rounds: list[Round] = []
    walls: list[float] = []
    start = time.perf_counter()
    while True:
        r = len(rounds)
        # The host's speed shifts in phases lasting seconds: probes spread over the run
        # sample many phases, where probes run back to back would all land in one. They
        # precede the pipeline, not the requests, whose p99 a just-ended process disturbs.
        for _ in range(PROBES_PER_ROUND):
            probes.append(_setup_probe(wl, seed, run_dir / f"probe{len(probes)}", tally))
        rounds.append(run_round(wl, round_seed(seed, r), f"round{r}", run_dir, tally,
                                quality=r < MIN_ROUNDS))
        walls.append(time.perf_counter() - start - sum(walls))
        if tally.failures:
            break
        # stop before a round that would not end within the measured time
        if len(rounds) >= MIN_ROUNDS and sum(walls) + statistics.median(walls) > seconds:
            break
    detail = {"setup_probes": [{"wall_s": p[0], "scale": p[1]} if p else None for p in probes],
              "rounds": [_round_record(r) for r in rounds],
              "requests": sum(len(r.latencies) for r in rounds)}
    if tally.failures:
        return {}, detail
    chunks = [chunk for r in rounds for chunk in _chunks(r.latencies)]
    # On a host whose speed shifts in phases the latencies form a fast and a slow mode and
    # the median jumps between them; it is recorded here, sample_per_s (the mean) is reported.
    detail["sample_ms_p50"] = statistics.median(_percentile(c, 50) for c in chunks) * 1e3
    detail["sample_ms_p99_per_chunk"] = [_percentile(c, 99) * 1e3 for c in chunks]
    detail["raw_timings"] = _timings(wl, rounds, probes, scaled=False)
    return {
        **_timings(wl, rounds, probes, scaled=True),
        # a fixed set of rounds, so the value is a function of the seed alone
        "onestep_rmse": statistics.fmean(r.quality for r in rounds[:MIN_ROUNDS]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }, detail


def _traced(wl, seed: int, run_dir: Path, tally: Tally) -> tuple[dict, dict]:
    seed0 = round_seed(seed, 0)
    warm_up(wl.configs(seed0)[0])
    tracer = Tracer(run_id=f"{wl.name}-seed{seed}-{os.getpid()}")
    # untraced rounds on both sides of the traced one, so drift does not read as overhead
    rounds = [run_round(wl, seed0, "round0-untraced-before", run_dir, tally),
              run_round(wl, seed0, "round0-traced", run_dir, tally, tracer=tracer),
              run_round(wl, seed0, "round0-untraced-after", run_dir, tally)]
    tracer.write(run_dir / "spans.jsonl")
    detail = {"rounds": [_round_record(r) for r in rounds],
              "spans_file": str(run_dir / "spans.jsonl")}
    if not tally.failures:
        tally.check(len({r.digest for r in rounds}) == 1,
                    "traced and untraced rounds wrote different student.ckpt bytes")
    untraced_s = statistics.fmean((rounds[0].pipeline_s, rounds[2].pipeline_s))
    # reported after a failure too (correct=false), so the <span>.errors counts show
    # which layer raised
    overhead = rounds[1].pipeline_s / untraced_s if untraced_s else 0.0
    return summarize(tracer.spans, overhead), detail


def run(wl, seed: int, seconds: int, trace: bool, out_root: Path) -> dict:
    """One benchmark run of workload ``wl``; returns the result line and the manifest."""
    run_dir = out_root / f"{wl.name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)
    tally = Tally()
    if trace:
        values, detail = _traced(wl, seed, run_dir, tally)
    else:
        values, detail = _untraced(wl, seed, seconds, run_dir, tally)
    table = PER_LAYER if trace else END_TO_END
    metrics = {m.name: {"value": values[m.name], "unit": m.unit}
               for m in table if m.name in values}
    result = {"correct": not tally.failures, "attempted": tally.attempted,
              "failed": len(tally.failures), "metrics": metrics}
    manifest = {"workload": wl.name, "why": wl.why, "seed": seed, "seconds": seconds,
                "trace": int(trace), "environment": environment(ROOT), **detail,
                "failures": tally.failures, "result": result}
    (run_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return {"result": result, "manifest": manifest, "run_dir": run_dir}


def report(out: dict) -> None:
    """Human-readable lines, then the result as the last line of standard output."""
    result, manifest = out["result"], out["manifest"]
    policy = manifest["environment"]["thread_policy"]
    print(f"perfbench {manifest['workload']} seed={manifest['seed']} trace={manifest['trace']} "
          f"rounds={len(manifest['rounds'])} blas_threads={policy['blas_threads_in_force']} "
          f"requests={manifest.get('requests', '-')}")
    for name, m in result["metrics"].items():
        print(f"  {name:<40} {m['value']:.6g} {m['unit']}")
    if "sample_ms_p50" in manifest:
        print(f"  {'sample_ms_p50 (manifest only)':<40} {manifest['sample_ms_p50']:.6g} ms")
    for name, value in manifest.get("raw_timings", {}).items():
        print(f"  {name + ' (unscaled, manifest only)':<40} {value:.6g}")
    failed, attempted = result["failed"], result["attempted"]
    print(f"  {'failed_share':<40} {failed / max(attempted, 1):.6g} ratio "
          f"({failed}/{attempted})")
    for reason in manifest["failures"][:20]:
        print(f"  FAILED: {reason}")
    print(f"  manifest: {out['run_dir'] / 'manifest.json'}")
    print(json.dumps(result))
