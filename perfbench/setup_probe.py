"""Set-up probe: a fresh process, timed until a workload's first trial could run.

    python3 perfbench/setup_probe.py WORKLOAD

Timed: importing lorarake, SimConfig.resolve() and, for the fast
simulator, build_fast_sim. Not timed: interpreter start-up and the
benchmark's own imports. The clock starts before `import lorarake` and no
module of the benchmark is imported before it, so the harness loads
nothing early that the library would otherwise load itself. Prints one
JSON line {"setup_s": ...}; run.py starts this script.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import lorarake  # noqa: E402,F401

IMPORT_S = time.perf_counter() - T_START

import json  # noqa: E402

sys.path.insert(0, HERE)

import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    worker.import_lorarake()  # checks where lorarake was imported from
    workload = WORKLOADS[sys.argv[1]]
    t = time.perf_counter()
    worker.resolve(workload)
    print(json.dumps({"setup_s": IMPORT_S + time.perf_counter() - t}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
