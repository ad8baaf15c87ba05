"""Tests of the benchmark itself: the correctness check, the span accounting,
the unmeasured listing and the definition file.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import layers  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, check_run, design_effect, point_key  # noqa: E402

from lorarake import fastsim, simulate  # noqa: E402
from lorarake.channel import dechirped_gain  # noqa: E402


def _reference(name):
    with open(os.path.join(BENCH, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)["workloads"][name]["points"]


def _honest_sweeps(ref, n_sweeps, symbols, rng):
    """Binomial re-draws of every reference point, as sweeps of rows."""
    sweeps = []
    for _ in range(n_sweeps):
        rows = []
        for key, pt in ref.items():
            det, ebn0 = key.split("@")
            p = pt["errors"] / pt["symbols"]
            rows.append((det, float(ebn0), int(rng.binomial(symbols, p)), symbols))
        sweeps.append(rows)
    return sweeps


def test_reference_check_passes_honest_redraws_and_rejects_perturbed_ser():
    ref = _reference("sf7-legacy-pool")
    rng = np.random.default_rng(7)
    for _ in range(20):
        attempted, failures = check_run(_honest_sweeps(ref, 20, 4000, rng), ref)
        assert attempted == len(ref) and failures == {}

    sweeps = _honest_sweeps(ref, 20, 4000, rng)
    target = point_key("rake", -2.0)
    for rows in sweeps:
        for i, (det, ebn0, errors, symbols) in enumerate(rows):
            if point_key(det, ebn0) == target:
                rows[i] = (det, ebn0, int(errors * 1.2), symbols)
    _, failures = check_run(sweeps, ref)
    assert set(failures) == {target}


def test_design_effect_widens_the_check_for_clustered_errors():
    # sweeps whose SER varies far beyond binomial noise, as when each
    # trial's detector leans on that trial's noisy pilots
    rng = np.random.default_rng(3)

    def clustered(n_sweeps):
        return [(int(rng.binomial(1000, rng.uniform(0.1, 0.5))), 1000) for _ in range(n_sweeps)]

    ref_counts = clustered(60)
    deff = design_effect(ref_counts)
    assert deff > 10
    assert design_effect([(300, 1000)] * 60) == 1.0
    point = {"errors": sum(e for e, _ in ref_counts), "symbols": 60 * 1000}
    runs = [[[("x", 0.0, e, n)] for e, n in clustered(4)] for _ in range(50)]
    assert all(check_run(sweeps, {"x@0": {**point, "deff": deff}})[1] == {} for sweeps in runs)
    binomial_only = {"x@0": {**point, "deff": 1.0}}
    assert sum(bool(check_run(sweeps, binomial_only)[1]) for sweeps in runs) > 10


def test_reference_check_rejects_mf_rake_mismatch():
    ref = _reference("sf10-mf-perfect")
    sweeps = [[(*key.split("@")[:1], float(key.split("@")[1]), pt["errors"], pt["symbols"])
               for key, pt in ref.items()]]
    assert check_run(sweeps, ref)[1] == {}
    rows = sweeps[0]
    i = next(i for i, r in enumerate(rows) if r[0] == "mf" and r[1] == 0.0)
    det, ebn0, errors, symbols = rows[i]
    rows[i] = (det, ebn0, errors + 1, symbols)
    _, failures = check_run(sweeps, ref)
    assert list(failures) == [point_key("mf", 0.0)]
    assert "rake" in failures[point_key("mf", 0.0)]


def test_self_times_add_up_with_a_fake_clock():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    root = tracer.begin("sweep")          # t=0
    a = tracer.begin("a")                 # t=1
    b = tracer.begin("b")                 # t=2
    tracer.end(b)                         # t=3
    tracer.end(a)                         # t=4
    c = tracer.begin("b")                 # t=5
    tracer.end(c)                         # t=6
    tracer.end(root)                      # t=7
    s = spans.summarize(tracer.spans)
    assert s["sweep"] == {"calls": 1, "total_s": 7.0, "self_s": 3.0}
    assert s["a"] == {"calls": 1, "total_s": 3.0, "self_s": 2.0}
    assert s["b"] == {"calls": 2, "total_s": 2.0, "self_s": 2.0}


def _traced_mini_run():
    """Small traced sweeps that reach every wrapped name."""
    wl = WORKLOADS["sf12-cand-est"]
    counters = layers.DomainCounters((0, 2, 3))
    tracer = spans.Tracer(observers=counters.observers())
    base = dict(sf=6, channel="c1", ebn0_db=(0.0,), n_trials=2, n_d=20, master_seed=3)
    est = simulate.SimConfig(detectors=simulate.DETECTOR_IDS, csir="estimated", n_c=8, **base)
    perfect = simulate.SimConfig(detectors=("mf", "cand-mf"), rho_c=0.3, **base)
    params, ch = perfect.resolve()
    model = fastsim.build_fast_sim(params, dechirped_gain(params, ch))
    tracer.install()
    try:
        tracer.call(spans.ROOT, simulate.run_ser_sweep, est)
        tracer.call(spans.ROOT, simulate.run_ser_sweep, perfect)
        tracer.call(spans.ROOT, fastsim.simulate_ser, model, 0.5, 40,
                    np.random.default_rng(0), batch=16)
    finally:
        tracer.uninstall()
    symbols, trials = 20 * 2 * 2 + 40, 4
    metrics, unmeasured, _ = layers.layer_metrics(
        spans.summarize(tracer.spans), counters, tracer.missing, workload=wl,
        symbols=symbols, trials=trials, overhead_frac=0.0, build_s=0.0, model_mb=0.0)
    return tracer, metrics, unmeasured


def test_layer_self_times_add_up_to_traced_sweep_time():
    tracer, metrics, unmeasured = _traced_mini_run()
    summary = spans.summarize(tracer.spans)
    wrapped = {name for _, _, name, _ in spans.LAYER_TARGETS}
    assert set(summary) == wrapped | {spans.ROOT, spans.OBSERVE}
    assert set(layers.SELF_US_PER_SYM.values()) == set(summary)
    assert unmeasured == {}
    total = sum(metrics[name] for name in layers.SELF_US_PER_SYM)
    assert total == pytest.approx(metrics["trace.sweep_us_per_sym"], rel=1e-9)
    assert metrics["simulate.self_us_per_sym"] > 0
    assert 0 < metrics["detectors.cand_hit_rate"] <= 1
    assert metrics["estimator.paths_mean"] >= 1


def test_missing_wrapped_name_is_unmeasured(monkeypatch):
    monkeypatch.delattr(simulate, "_rake_scores")
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == {"detectors.rake": "lorarake.simulate._rake_scores not found"}
    metrics, unmeasured, _ = layers.layer_metrics(
        {}, layers.DomainCounters((0, 2, 3)), tracer.missing, workload=WORKLOADS["sf12-cand-est"],
        symbols=1, trials=1, overhead_frac=0.0, build_s=0.0, model_mb=0.0)
    assert set(unmeasured) == {"detectors.rake_us_per_sym", "detectors.rake_ns_per_cop",
                               "detectors.cand_rake_ns_per_cop"}
    assert all(metrics[name] == 0.0 for name in unmeasured)
    assert set(metrics) == set(layers.PER_LAYER_UNITS)


def test_benchmark_definition_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == layers.PER_LAYER_UNITS
    assert {m["name"] for m in bench["end_to_end"]} == {"symbols_per_s", "setup_s", "peak_rss_mb"}
    ref = json.load(open(os.path.join(BENCH, "reference.json"), encoding="utf-8"))["workloads"]
    for name, wl in WORKLOADS.items():
        assert len(ref[name]["points"]) == len(wl.config["ebn0_db"]) * (
            len(wl.config["detectors"]) if wl.kind == "ser" else 1)


def test_run_refuses_a_directory_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sf10-fastsim",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
