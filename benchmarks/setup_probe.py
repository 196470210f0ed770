"""Time one workload's set-up in a fresh interpreter and print the seconds.

    python3 benchmarks/setup_probe.py <workload> <seed> <work_dir>

``run.py`` starts this several times so that ``setup_s`` is a median of
cold set-ups, each paying the imports again.
"""

import sys
from pathlib import Path

import workloads

if __name__ == "__main__":
    sys.path.insert(0, str(Path.cwd() / "src"))
    name, seed, work_dir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    _, seconds = workloads.set_up(workloads.WORKLOADS[name], seed, work_dir)
    print(repr(seconds))
