"""Outside-in benchmark of the mflow pipeline: teacher -> distill -> one-step sampling.

Run from the repository root:

    python3 perfbench/run.py --workload gauss --seed 1 --seconds 55 --trace 0

A run repeats rounds of the workload's fixed pipeline of CLI commands
(``mflow.cli.run``: train-teacher, distill, eval, sample, and verify on
gauss) followed by closed-loop sampling requests from one client, until
``--seconds`` are used (at least five rounds). Fresh-process set-up probes
run before each round's pipeline. Round ``r`` takes its configs from the
seed and ``r``. Every command, request and output check counts as an
operation; failures are reported against the number attempted.

``--trace 0`` prints the end-to-end metrics. Their timings are scaled to a
nominal host speed, measured by a reference kernel right before and after
each timed section (``bench_speed.py``); the manifest keeps the unscaled
ones. ``--trace 1`` runs round 0 untraced, traced, and untraced again, and
prints the per-layer metrics; the three rounds must write byte-identical
student checkpoints. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
Manifests, spans and the logs of failed rounds go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    from bench_workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=list(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    if not (ROOT / "src" / "mflow" / "__init__.py").is_file():
        print(f"perfbench: no mflow sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from bench_runner import report, run

    out = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
              ROOT / ".bench_out")
    report(out)
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
