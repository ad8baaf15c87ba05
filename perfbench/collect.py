"""Run the benchmark over several seeds and summarize it per workload.

    python3 perfbench/collect.py [--workloads a,b]

For every workload: one run with --trace 0 for each of the seeds 1-10,
a repeat set of the same code with seeds 11-20, and one traced run
(seed 1), all with BENCHMARK.json's run_seconds. Prints, per end-to-end
metric and set, the median, quartiles (statistics.quantiles, n=4) and the
spread (q3 - q1) / median next to the metric's bound, and how much worse
the repeat median is than the first. Writes everything, with each run's
environment and digest, to perfbench/baseline.json, replacing only the
entries of the workloads it ran. Use it to record a baseline and to
check that the benchmark is steady before relying on it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

NOTE = (
    "Baseline of the lorarake benchmark at the commit named in `commit`. "
    "`lorarake complexity --bench`, which times the detector kernels on random data, "
    "is superseded by this benchmark for performance claims; it stays in place until a "
    "later change removes it. Each workload's `repeat` holds a second set of runs of the "
    "same code (seeds 11-20), taken right after the first; `agreement` says, per "
    "end-to-end metric, by what share the repeat median is worse than the first and "
    "whether that is within the metric's bound."
)
FIRST_SEEDS = tuple(range(1, 11))
REPEAT_SEEDS = tuple(range(11, 21))
TRACED_SEED = 1
BASELINE = os.path.join(HERE, "baseline.json")


def one_run(name: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{name} seed {seed} trace {trace} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    path = os.path.join(HERE, "out", f"{name}-seed{seed}-trace{trace}.json")
    with open(path, encoding="utf-8") as fh:
        record = json.load(fh)
    return {"seed": seed, "result": result, "digest_sha256": record["digest_sha256"],
            "environment": record["environment"], "unmeasured": record.get("unmeasured", {}),
            "not_exercised": record.get("not_exercised", [])}


def quartiles(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "n": len(values)}


def summarize(runs, metric_units: dict) -> dict:
    out = {}
    for name, unit in metric_units.items():
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        out[name] = {"unit": unit, **quartiles(values), "values": values}
    return out


def run_set(name: str, seeds, seconds: int, e2e: dict) -> dict:
    runs = [one_run(name, seed, seconds, 0) for seed in seeds]
    attempted = sum(r["result"]["attempted"] for r in runs)
    failed = sum(r["result"]["failed"] for r in runs)
    return {
        "seeds": list(seeds),
        "end_to_end": summarize(runs, {k: m["unit"] for k, m in e2e.items()}),
        "failed_frac": failed / attempted,
        "attempted": attempted,
        "failed": failed,
        "digests": {str(r["seed"]): r["digest_sha256"] for r in runs},
        "environment": runs[0]["environment"],
    }


def worse_by(first: float, repeat: float, better: str) -> float:
    """Share by which the repeat median is worse than the first (negative: better)."""
    return (repeat - first) / first if better == "lower" else (first - repeat) / first


def print_set(label: str, entry: dict, e2e: dict) -> None:
    print(f"  {label}: seeds {entry['seeds'][0]}-{entry['seeds'][-1]}, "
          f"failed_frac {entry['failed_frac']:g}")
    for metric, s in entry["end_to_end"].items():
        bound = e2e[metric]["bound"]
        flag = "ok" if s["spread"] < bound / 3 else ("WIDE" if s["spread"] > bound else "near")
        print(f"    {metric:14s} median {s['median']:.6g} q1 {s['q1']:.6g} q3 {s['q3']:.6g} "
              f"spread {s['spread']:.4f} bound {bound} {flag}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in bench["per_layer"]}

    report = {"workloads": {}}
    if os.path.exists(BASELINE):
        # keep the entries of workloads this invocation does not rerun
        with open(BASELINE, encoding="utf-8") as fh:
            report = json.load(fh)
    report.update(note=NOTE, run_seconds=seconds)
    for name in args.workloads.split(","):
        first = run_set(name, FIRST_SEEDS, seconds, e2e)
        repeat = run_set(name, REPEAT_SEEDS, seconds, e2e)
        traced = one_run(name, TRACED_SEED, seconds, 1)
        report["environment"] = first.pop("environment")
        repeat.pop("environment")
        agreement = {}
        for metric, m in e2e.items():
            worse = worse_by(first["end_to_end"][metric]["median"],
                             repeat["end_to_end"][metric]["median"], m["better"])
            agreement[metric] = {"repeat_worse_by": worse, "bound": m["bound"],
                                 "within_bound": worse <= m["bound"]}
        report["workloads"][name] = {
            "why": WORKLOADS[name].why,
            "config": WORKLOADS[name].config,
            **first,
            "repeat": repeat,
            "agreement": agreement,
            "per_layer_seed": TRACED_SEED,
            "per_layer": {k: {"unit": u, "value": traced["result"]["metrics"][k]["value"]}
                          for k, u in layer_units.items()},
            "unmeasured": traced["unmeasured"],
            "not_exercised": traced["not_exercised"],
        }
        print(f"{name}:")
        print_set("first", first, e2e)
        print_set("repeat", repeat, e2e)
        for metric, a in agreement.items():
            print(f"    repeat {metric} worse by {a['repeat_worse_by']:+.4f} "
                  f"(bound {a['bound']}) {'ok' if a['within_bound'] else 'OUT'}")
        sys.stdout.flush()
    report["commit"] = report["environment"]["commit"]
    with open(BASELINE, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
