"""Build one workload's inputs and fixtures in their own process.

Usage: python3 perfbench/fixtures.py WORKLOAD SEED WORK_DIR

``run.py`` starts this before timing, so that building models and caches
leaves nothing behind in the measured process (its peak RSS, warm caches).
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import workloads  # noqa: E402

if __name__ == "__main__":
    name, seed, work = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    workloads.WORKLOADS[name](work, seed).build_fixtures()
