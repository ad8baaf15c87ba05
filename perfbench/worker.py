"""Workload process: measured sweeps of one workload, one JSON line out.

    python3 perfbench/worker.py --workload NAME --seed N --first K --seconds S --trace 0|1

Runs one small untimed warm-up sweep, then repeats the workload's sweep
with master seeds derived from --seed, starting at sweep index --first,
until the next sweep would end past --seconds (at least one sweep). It
reports every sweep's rows, result digest and wall time and the process's
peak memory. With --trace 1 it alternates untraced and traced sweeps on
the same inputs with workers=1 (spans recorded in pool children would be
lost) and adds the per-layer metrics. run.py starts this script.
"""

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

from workloads import FASTSIM_LABEL, WORKLOADS, master_seed  # noqa: E402

# symbols per point of the warm-up sweep, which reaches every code path
WARMUP_N_D = 16


def import_lorarake():
    """Import lorarake from the checkout's src/, never from elsewhere."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import lorarake

    if os.path.dirname(os.path.dirname(os.path.abspath(lorarake.__file__))) != SRC:
        raise ImportError(f"lorarake imported from {lorarake.__file__}, not {SRC}")
    return lorarake


def resolve(workload):
    """Validate the workload's config and build what the first trial needs.

    Returns (params, fast-simulator model or None, model build seconds)."""
    from lorarake import simulate

    cfg = simulate.SimConfig.from_dict({**workload.config, "master_seed": 0})
    params, ch = cfg.resolve()
    if workload.kind != "fastsim":
        return params, None, 0.0
    from lorarake import channel, fastsim

    t = time.perf_counter()
    model = fastsim.build_fast_sim(params, channel.dechirped_gain(params, ch))
    return params, model, time.perf_counter() - t


def ser_sweep(workload, seed, workers):
    from lorarake import simulate

    cfg = simulate.SimConfig.from_dict(
        {**workload.config, "master_seed": seed, "workers": workers})
    return [(p.detector, p.ebn0_db, p.errors, p.symbols) for p in simulate.run_ser_sweep(cfg)]


def fastsim_sweep(workload, params, model, seed):
    import numpy as np
    from lorarake import fastsim, waveform

    cfg = workload.config
    n = cfg["n_trials"] * cfg["n_d"]
    rows = []
    for ebn0 in cfg["ebn0_db"]:
        sigma2 = waveform.noise_variance(waveform.snr_ebn0_convert(params, ebn0, "ebn0_to_snr"))
        rng = np.random.default_rng([seed, int(round(ebn0 * 1000.0)) % 2**32])
        rows.append((FASTSIM_LABEL, float(ebn0), fastsim.simulate_ser(model, sigma2, n, rng), n))
    return rows


def cli_sweep(workload, seed, workers):
    """Run one sweep through the `lorarake ser` command; return its rows and
    the SHA-256 of the CSV bytes it writes, so byte-identical claims can be
    checked against the same seed."""
    from lorarake import cli

    cfg = workload.config
    argv = ["ser", "--sf", str(cfg["sf"]), "--channel", cfg["channel"],
            "--detectors", ",".join(cfg["detectors"]), "--csir", cfg["csir"],
            "--ebn0=" + ",".join(repr(float(e)) for e in cfg["ebn0_db"]),
            "--n-trials", str(cfg["n_trials"]), "--n-d", str(cfg["n_d"]),
            "--seed", str(seed), "--workers", str(workers), "--out", "-"]
    for key, flag in (("n_p", "--n-p"), ("n_c", "--n-c"), ("rho_c", "--rho-c")):
        if key in cfg:
            argv += [flag, str(cfg[key])]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"lorarake ser exited {rc}: {err.getvalue().strip()}")
    text = out.getvalue()
    rows = []
    for line in text.splitlines()[1:]:
        det, ebn0, errors, symbols = line.split(",")[:4]
        rows.append((det, float(ebn0), int(errors), int(symbols)))
    return rows, hashlib.sha256(text.encode()).hexdigest()


def rows_digest(rows) -> str:
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux: this process plus its largest child
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def numpy_info() -> dict:
    import numpy as np

    core = getattr(np, "_core", None) or np.core
    info = {"numpy": np.__version__,
            "numpy_hugepage_advice": bool(core.multiarray._get_madvise_hugepage())}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        info["blas"] = "unknown"
    return info


def cmd_run(workload, seed: int, first: int, seconds: float, trace: bool) -> dict:
    import_lorarake()
    params, model, build_s = resolve(workload)
    workers = 1 if trace else workload.config["workers"]

    def sweep(wl, ms):
        if wl.kind == "fastsim":
            rows = fastsim_sweep(wl, params, model, ms)
            return rows, rows_digest(rows)
        return cli_sweep(wl, ms, workers)

    warmup = dataclasses.replace(
        workload, config={**workload.config, "n_trials": 1, "n_d": WARMUP_N_D})
    sweep(warmup, master_seed(seed, first))

    tracer = counters = None
    if trace:
        from layers import DomainCounters, workload_delays
        from spans import ROOT, Tracer

        counters = DomainCounters(workload_delays(workload))
        tracer = Tracer(observers=counters.observers())

    sweeps = []

    def timed_sweep(ms, traced):
        t = time.perf_counter()
        if traced:
            tracer.install()
            try:
                rows, digest = tracer.call(ROOT, sweep, workload, ms)
            finally:
                tracer.uninstall()
        else:
            rows, digest = sweep(workload, ms)
        wall = time.perf_counter() - t
        sweeps.append({"master_seed": ms, "rows": rows, "digest": digest, "traced": traced,
                       "wall_s": wall, "symbols": workload.symbols_per_sweep})

    start = time.perf_counter()
    rep = first
    while True:
        ms = master_seed(seed, rep)
        if trace:
            # same inputs traced and untraced, alternating which runs first
            for traced in ((False, True) if rep % 2 else (True, False)):
                timed_sweep(ms, traced)
        else:
            timed_sweep(ms, False)
        rep += 1
        done = rep - first
        # stop before a sweep that would end past --seconds
        if (time.perf_counter() - start) * (done + 1) / done > seconds:
            break

    result = {"sweeps": sweeps, "env": numpy_info(),
              "lorarake": sys.modules["lorarake"].__file__}
    if not trace:
        result["peak_rss_mb"] = peak_rss_mb()
        return result

    from layers import PER_LAYER_UNITS, layer_metrics
    from spans import summarize

    traced = [s for s in sweeps if s["traced"]]
    plain = {s["master_seed"]: s["wall_s"] for s in sweeps if not s["traced"]}
    overhead = statistics.median(s["wall_s"] / plain[s["master_seed"]] for s in traced) - 1.0
    model_mb = 0.0
    if model is not None:
        model_mb = sum(v.nbytes for v in vars(model).values() if hasattr(v, "nbytes")) / 2**20
    summary = summarize(tracer.spans)
    metrics, unmeasured, not_exercised = layer_metrics(
        summary, counters, tracer.missing, workload=workload,
        symbols=sum(s["symbols"] for s in traced),
        trials=workload.trials_per_sweep * len(traced),
        overhead_frac=overhead, build_s=build_s, model_mb=model_mb)
    result.update(layers={name: {"value": value, "unit": PER_LAYER_UNITS[name]}
                          for name, value in metrics.items()},
                  unmeasured=unmeasured, not_exercised=not_exercised, spans=summary)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--first", type=int, required=True, help="index of the first sweep")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    out = cmd_run(WORKLOADS[args.workload], args.seed, args.first, args.seconds,
                  bool(args.trace))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
