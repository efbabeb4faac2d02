"""The sha256 of every output of one benchmark round, to show that a change keeps them.

Run from the repository root, once on each side of a change, then diff:

    OPENBLAS_NUM_THREADS=1 python3 tools/output_digests.py sr-pool 12345 OUT

The round is the CLI pipeline of ``perfbench/bench_workloads.py`` for the
workload, with the configs of ``write_configs(workload, SEED, OUT/cfg)``,
run in this process through ``mflow.cli.run``. Every file is written under
OUT, which must be empty or absent. The printout names each output file and
its sha256, except the training logs (``*_log.csv``), which hold wall times;
then each checkpoint's ``params_digest`` as ``mflow inspect`` prints it (the
weights alone, which no config field moves); and then the value of
OPENBLAS_NUM_THREADS and the thread count that OpenBLAS reports in force
(read as ``perfbench/bench_env.py`` reads it), since checkpoint bytes depend
on the BLAS thread count.

A text output's digest shows its values bit for bit only to the digits the
file prints. ``samples.csv`` prints ``%.18e``, which round-trips a float64;
``sweep.csv`` prints 10 significant digits, so a change that moves eval's
samples in their last bits keeps its digest. Checkpoints hold raw bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave no cache files beside the modules
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import mflow.cli  # noqa: E402
from mflow.training import describe_checkpoint  # noqa: E402
from bench_env import _openblas  # noqa: E402
from bench_workloads import WORKLOADS, write_configs  # noqa: E402


def run_round(workload: str, seed: int, out: Path) -> None:
    """The workload's pipeline under ``out``; exits with the command's code if one fails."""
    wl = WORKLOADS[workload]
    write_configs(wl, seed, out / "cfg")
    for name, argv in wl.pipeline(out / "cfg", out):
        said = io.StringIO()
        with contextlib.redirect_stdout(said), contextlib.redirect_stderr(said):
            rc = mflow.cli.run(argv)
        if rc != 0:
            sys.exit(f"{name} exited {rc}:\n{said.getvalue()}")


def digests(out: Path) -> list[str]:
    """One "sha256  path" line per output file, paths relative to ``out``, sorted."""
    return [f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out)}"
            for path in sorted(out.rglob("*"))
            if path.is_file() and not path.name.endswith("_log.csv")]


def params_digests(out: Path) -> list[str]:
    """One "params_digest  path:params" line per checkpoint under ``out``, sorted."""
    return [f"{describe_checkpoint(path)['params_digest']}  {path.relative_to(out)}:params"
            for path in sorted(out.rglob("*.ckpt"))]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("workload", choices=list(WORKLOADS))
    p.add_argument("seed", type=int)
    p.add_argument("out", type=Path, help="output directory, empty or absent")
    args = p.parse_args(argv)
    if args.out.exists() and any(args.out.iterdir()):
        p.error(f"{args.out} is not empty")
    run_round(args.workload, args.seed, args.out)
    print("\n".join(digests(args.out) + params_digests(args.out)))
    print(f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')}")
    print(f"openblas_threads_in_force={_openblas()['threads']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
