"""Write perfbench/reference.json: the reference SER of every workload point.

    python3 perfbench/make_reference.py

Each workload's sweep is run REFERENCE_SWEEPS times, with master seeds
REFERENCE_SEED + i that no benchmark run uses, so a run's check compares
two independent draws. Every point records its pooled errors and symbols
and its design effect, measured over those sweeps. Rerun only when a
workload's definition changes, and say so in the change that does it.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import worker  # noqa: E402
from workloads import (  # noqa: E402
    REFERENCE_SEED, WORKLOADS, check_run, design_effect, point_key, pool_points)

REFERENCE_SWEEPS = 60


def main() -> int:
    worker.import_lorarake()
    seeds = [REFERENCE_SEED + i for i in range(REFERENCE_SWEEPS)]
    out = {"seed": REFERENCE_SEED, "sweeps": REFERENCE_SWEEPS, "workloads": {}}
    for wl in WORKLOADS.values():
        if wl.kind == "fastsim":
            params, model, _ = worker.resolve(wl)
            sweeps = [worker.fastsim_sweep(wl, params, model, s) for s in seeds]
        else:
            # results do not depend on workers, so sweeps run side by side
            with ProcessPoolExecutor(max_workers=2) as pool:
                sweeps = list(pool.map(functools.partial(worker.ser_sweep, wl, workers=1),
                                       seeds))
        points = pool_points(sweeps)
        for key, pt in points.items():
            pt["ser"] = pt["errors"] / pt["symbols"]
            pt["deff"] = design_effect([(e, n) for rows in sweeps
                                        for d, x, e, n in rows if point_key(d, x) == key])
        attempted, failures = check_run(sweeps, points)
        if failures:
            raise SystemExit(f"{wl.name}: reference sweeps fail their own check: {failures}")
        out["workloads"][wl.name] = {"config": wl.config, "points": points}
        print(f"{wl.name}: {attempted} points", file=sys.stderr)
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
