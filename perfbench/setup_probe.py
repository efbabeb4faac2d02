"""One cold start of a benchmark process: imports, config generation, first-call warm-up.

``run.py`` starts this script several times per run and times each start
until it prints ``ready``; the median is ``setup_s``.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED OUT_DIR
"""

from __future__ import annotations

import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    workload, seed, out = argv
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import mflow.cli  # noqa: F401  -- every layer, as the first CLI call imports them

    from bench_workloads import WORKLOADS, warm_up, write_configs

    teacher, _ = write_configs(WORKLOADS[workload], int(seed), Path(out))
    warm_up(teacher)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
