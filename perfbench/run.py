"""lorarake benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its
src/ directory. With --trace 0 the last stdout line reports the
end-to-end metrics (symbols_per_s, setup_s, peak_rss_mb); with
--trace 1 it reports the per-layer metrics of a traced run. `attempted`
and `failed` count the (detector, Eb/N0) points checked against
reference.json, so failed_frac = failed / attempted. Every run also
writes a full record (environment, sweeps, digest, failures, spans) to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS, check_run, pool_points  # noqa: E402

SETUP_PROBES = 7
SWEEPS_PER_PROCESS = 10**5
TIME_LIMIT_S = 170.0
# Whether numpy's large arrays get transparent huge pages depends on the
# memory fragmentation of a shared machine at the moment a worker starts;
# it moved sweep speed by up to 30% between workers. Workers run with
# numpy's huge-page advice off so every run measures the same thing.
WORKER_ENV = {**os.environ, "NUMPY_MADVISE_HUGEPAGE": "0"}
BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def run_json(argv, timeout: float) -> dict:
    """Run a worker process to completion and parse its last stdout line."""
    if timeout <= 0:
        raise BenchError("time limit reached before a worker could start")
    # a session of its own, so a timeout also ends the worker's pool processes
    with subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=WORKER_ENV, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{' '.join(argv[:3])} exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv[:3])} exited {proc.returncode}:\n{err[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def commit_hash() -> str:
    """HEAD of the checkout read from .git, without starting git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int, worker_env: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        **worker_env,
        "blas_threads": {k: WORKER_ENV.get(k, "unset (library default: one per CPU)")
                         for k in BLAS_THREADS},
        "commit": commit_hash(),
        "seed": seed,
    }


def measure(workload, seed: int, seconds: int, trace: bool, deadline: float) -> dict:
    """Set-up probes, then the run's sweeps spread over fresh worker processes.

    Sweep speed on a shared machine depends on the process (where its
    memory lands), so an untraced run splits its time over the workload's
    `processes` workers and reports the median over all of their sweeps.
    A traced run uses one worker: per-layer numbers are not compared
    across runs.
    """
    setup = []
    if not trace:
        for _ in range(SETUP_PROBES):
            out = run_json([os.path.join(HERE, "setup_probe.py"), workload.name],
                           deadline - time.monotonic())
            setup.append(out["setup_s"])
    parts = []
    n_proc = 1 if trace else workload.processes
    for p in range(n_proc):
        parts.append(run_json(
            [os.path.join(HERE, "worker.py"), "--workload", workload.name, "--seed", str(seed),
             "--first", str(p * SWEEPS_PER_PROCESS), "--seconds", str(seconds / n_proc),
             "--trace", str(int(trace))],
            deadline - time.monotonic()))
    res = parts[0]
    res["sweeps"] = [s for part in parts for s in part["sweeps"]]
    if not trace:
        res["peak_rss_mb"] = statistics.median(part["peak_rss_mb"] for part in parts)
    res["setup_samples_s"] = setup
    return res


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="lorarake benchmark (one run of one workload)")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    deadline = time.monotonic() + TIME_LIMIT_S
    if not os.path.isfile(os.path.join(ROOT, "src", "lorarake", "__init__.py")):
        print(f"error: no lorarake sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)["workloads"]

    workload = WORKLOADS[args.workload]
    try:
        res = measure(workload, args.seed, args.seconds, bool(args.trace), deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    sweeps = res["sweeps"]
    # a traced sweep repeats the seed of an untraced one, so only those count
    timed = [s for s in sweeps if not s["traced"]]
    attempted, failures = check_run([s["rows"] for s in timed],
                                    reference[workload.name]["points"])
    if args.trace:
        metrics = res["layers"]
    else:
        metrics = {
            "symbols_per_s": {"value": statistics.median(s["symbols"] / s["wall_s"] for s in timed),
                              "unit": "1/s"},
            "setup_s": {"value": statistics.median(res["setup_samples_s"]), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    record = {
        "workload": workload.name,
        "why": workload.why,
        "config": workload.config,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed, res["env"]),
        "lorarake": res["lorarake"],
        # the first sweep of a run always has the same master seed
        "digest_sha256": sweeps[0]["digest"],
        "attempted": attempted,
        "failed": len(failures),
        "failed_frac": len(failures) / attempted,
        "failures": failures,
        "metrics": metrics,
        "setup_samples_s": res["setup_samples_s"],
        "sweeps": [{k: v for k, v in s.items() if k != "rows"} for s in sweeps],
        "points": pool_points(s["rows"] for s in timed),
    }
    for key in ("unmeasured", "not_exercised", "spans"):
        if key in res:
            record[key] = res[key]
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{workload.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"# {workload.name}: {len(timed)} timed sweeps, {attempted} points checked, "
          f"{len(failures)} failed, digest {sweeps[0]['digest'][:16]}, record {os.path.relpath(path, ROOT)}")
    for key, why in failures.items():
        print(f"# FAILED {key}: {why}")
    for name, why in res.get("unmeasured", {}).items():
        print(f"# unmeasured {name}: {why}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
