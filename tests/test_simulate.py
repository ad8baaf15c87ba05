"""Monte Carlo drivers: configuration, determinism, pairing, and reports."""

from __future__ import annotations

import math

import numpy as np
import pytest

from lorarake import simulate
from lorarake.channel import Frame
from lorarake.complexity import op_count
from lorarake.simulate import (
    ConfigError,
    SimConfig,
    run_candidate_sweep,
    run_complexity_report,
    run_delta_report,
    run_estimation_study,
    run_ser_sweep,
)
from lorarake.waveform import LoRaParams


def _small(**kw) -> SimConfig:
    base = dict(sf=7, channel="c2", detectors=("rake",), ebn0_db=(0.0,),
                n_trials=2, n_d=200, master_seed=9)
    base.update(kw)
    return SimConfig.from_dict(base)


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError) as err:
        SimConfig.from_dict({"sf": 7, "bogus_knob": 1})
    assert err.value.field_name == "bogus_knob"


@pytest.mark.parametrize(
    "patch,field",
    [
        (dict(sf=1), "sf"),
        (dict(channel="no-such-thing"), "channel"),
        (dict(channel="0:1,200:0.5"), "channel"),
        (dict(detectors=()), "detectors"),
        (dict(detectors=("rake", "rake")), "detectors"),
        (dict(detectors=("warp",)), "detectors"),
        (dict(ebn0_db=()), "ebn0_db"),
        (dict(ebn0_db=(float("inf"),)), "ebn0_db"),
        (dict(n_trials=0), "n_trials"),
        (dict(n_d=0), "n_d"),
        (dict(n_p=-1), "n_p"),
        (dict(n_p=0, csir="estimated"), "n_p"),
        (dict(n_p=0, detectors=("tdel",)), "n_p"),
        (dict(rho_p=1.0), "rho_p"),
        (dict(k_max=0), "k_max"),
        (dict(k_max=128), "k_max"),
        (dict(csir="psychic"), "csir"),
        (dict(csir="forced"), "forced_khat"),
        (dict(csir="forced", forced_khat=(1, 2)), "forced_khat"),
        (dict(csir="forced", forced_khat=(0, 2, 2)), "forced_khat"),
        (dict(forced_khat=(0, 2)), "forced_khat"),
        (dict(rho_c=0.3, n_c=4, detectors=("cand-rake",)), "rho_c"),
        (dict(rho_c=1.0, detectors=("cand-rake",)), "rho_c"),
        (dict(n_c=0, detectors=("cand-rake",)), "n_c"),
        (dict(n_c=129, detectors=("cand-rake",)), "n_c"),
        (dict(rho_tdel=0.0), "rho_tdel"),
        (dict(master_seed=-1), "master_seed"),
        (dict(workers=0), "workers"),
        (dict(n_trials=1.5), "n_trials"),
        (dict(ebn0_db="3"), "ebn0_db"),
        (dict(detectors="rake"), "detectors"),
        (dict(workers=True), "workers"),
        (dict(ebn0_db=(1.0, 1.0)), "ebn0_db"),
        (dict(ebn0_db=(0.0001, 0.0002)), "ebn0_db"),
    ],
)
def test_resolve_validation(patch, field):
    with pytest.raises(ConfigError) as err:
        _small(**patch).resolve()
    assert err.value.field_name == field


def test_candidate_rule_defaults():
    assert _small().candidate_rule() is None
    assert _small(detectors=("cand-rake",)).candidate_rule() == ("threshold", 0.3)
    assert _small(detectors=("cand-rake",), rho_c=0.5).candidate_rule() == ("threshold", 0.5)
    assert _small(detectors=("cand-mf",), n_c=8).candidate_rule() == ("fixed", 8)


def test_sweep_is_deterministic():
    cfg = _small(detectors=("noncoh", "rake", "tdel"), ebn0_db=(-2.0, 0.0))
    assert run_ser_sweep(cfg) == run_ser_sweep(cfg)


def test_workers_do_not_change_results():
    cfg1 = _small(detectors=("rake", "tdel"), ebn0_db=(0.0, 2.0), n_trials=4)
    cfg2 = _small(detectors=("rake", "tdel"), ebn0_db=(0.0, 2.0), n_trials=4, workers=2)
    assert run_ser_sweep(cfg1) == run_ser_sweep(cfg2)
    assert run_candidate_sweep(cfg1, (0.05, 1.0)) == run_candidate_sweep(cfg2, (0.05, 1.0))


def test_points_pair_across_different_axes():
    # the same (seed, trial, Eb/N0) triple owns the same noise everywhere
    a = run_ser_sweep(_small(ebn0_db=(0.0,)))
    b = run_ser_sweep(_small(ebn0_db=(-2.0, 0.0)))
    at_zero = [p for p in b if p.ebn0_db == 0.0]
    assert at_zero == [p for p in a if p.ebn0_db == 0.0]


def test_mf_and_rake_agree_through_the_batch_paths():
    cfg = _small(detectors=("mf", "rake"), n_trials=3, ebn0_db=(-2.0, 2.0))
    points = run_ser_sweep(cfg)
    by = {(p.detector, p.ebn0_db): p.errors for p in points}
    for e in (-2.0, 2.0):
        assert by[("mf", e)] == by[("rake", e)]


@pytest.mark.parametrize("csir", ["perfect", "estimated"])
def test_sweep_builds_no_samples(monkeypatch, csir):
    # every detector reads the closed-form spectra; a burst's samples are
    # only for the sample-level reference chain
    def refuse(self):
        raise AssertionError("the sweep built the frame's samples")

    monkeypatch.setattr(Frame, "samples", property(refuse))
    points = run_ser_sweep(_small(detectors=simulate.DETECTOR_IDS, csir=csir, n_d=20))
    assert len(points) == len(simulate.DETECTOR_IDS)


def _count_mf_bank_builds(monkeypatch) -> list:
    # start from an empty cache and record the gain set of every bank build
    calls = []
    build = simulate.mf_filter_bank

    def counting(params, g):
        calls.append((params.sf, g.delays, g.gains.tobytes()))
        return build(params, g)

    monkeypatch.setattr(simulate, "mf_filter_bank", counting)
    monkeypatch.setattr(simulate, "_mf_bank_cache", (None, None))
    return calls


def test_perfect_csir_builds_the_mf_bank_once_per_gain_set(monkeypatch):
    calls = _count_mf_bank_builds(monkeypatch)
    run_ser_sweep(_small(detectors=("mf", "cand-mf"), n_trials=3, ebn0_db=(-2.0, 2.0)))
    assert len(calls) == 1
    run_ser_sweep(_small(detectors=("mf",), channel="c1"))
    run_ser_sweep(_small(detectors=("mf",), channel="c1", master_seed=10))
    assert len(calls) == len(set(calls)) == 2


@pytest.mark.parametrize("csir", [
    pytest.param(dict(csir="estimated"), id="estimated"),
    pytest.param(dict(csir="forced", forced_khat=(0, 2, 3)), id="forced"),
])
def test_mf_equals_rake_when_the_gains_change_every_trial(monkeypatch, csir):
    # a bank kept from another trial's gains would make mf differ from rake
    calls = _count_mf_bank_builds(monkeypatch)
    ebn0 = (-2.0, 0.0, 2.0)
    cfg = _small(channel="c1", detectors=("mf", "rake"), n_trials=3, ebn0_db=ebn0, **csir)
    by = {(p.detector, p.ebn0_db): p.errors for p in run_ser_sweep(cfg)}
    for e in ebn0:
        assert by[("mf", e)] == by[("rake", e)]
    assert len(set(calls)) == len(calls) == cfg.n_trials * len(ebn0)


def test_full_candidate_set_reproduces_full_search():
    cfg = _small(detectors=("rake", "cand-rake"), n_c=128, n_trials=3)
    points = run_ser_sweep(cfg)
    by = {p.detector: p for p in points}
    assert by["cand-rake"].errors == by["rake"].errors
    assert by["cand-rake"].nc_avg == 128.0


def test_flat_reference_beats_multipath_legacy():
    cfg = _small(detectors=("coh", "coh-awgn"), n_trials=5, n_d=400)
    points = run_ser_sweep(cfg)
    by = {p.detector: p.errors for p in points}
    assert by["coh-awgn"] < by["coh"]


def test_op_columns_follow_the_formulas():
    cfg = _small(detectors=("noncoh", "rake", "mf", "cand-rake"), rho_c=0.3)
    p = LoRaParams(7)
    by = {pt.detector: pt for pt in run_ser_sweep(cfg)}
    assert by["noncoh"].cmult == 0.0 and by["noncoh"].cadd == 0.0
    assert by["rake"].cmult == op_count("rake", p, 2).cmult
    assert by["mf"].cadd == op_count("mf", p, 2).cadd
    cand = by["cand-rake"]
    assert 1.0 <= cand.nc_avg < 128.0
    # affine in the average candidate count
    base = op_count("cand_rake", p, 2, 0)
    unit = op_count("cand_rake", p, 2, 1)
    expect = base.cmult + (unit.cmult - base.cmult) * cand.nc_avg
    assert cand.cmult == pytest.approx(expect, rel=1e-12)


def test_ser_point_confidence_interval():
    points = run_ser_sweep(_small(n_trials=4))
    pt = points[0]
    assert pt.symbols == 800
    assert pt.ci95 == pytest.approx(
        1.96 * math.sqrt(pt.ser * (1 - pt.ser) / pt.symbols), abs=1e-15
    )


def test_forced_single_tap_equals_estimated_coherent():
    shared = dict(channel="c1", ebn0_db=(0.0,), n_trials=4, n_d=300, master_seed=21)
    forced = run_ser_sweep(_small(detectors=("rake",), csir="forced",
                                  forced_khat=(0,), **shared))
    coh = run_ser_sweep(_small(detectors=("coh",), csir="estimated", **shared))
    assert forced[0].errors == coh[0].errors


def test_estimated_csir_tracks_perfect_at_high_snr():
    shared = dict(ebn0_db=(6.0,), n_trials=4, n_d=400, master_seed=13)
    est = run_ser_sweep(_small(csir="estimated", **shared))
    per = run_ser_sweep(_small(csir="perfect", **shared))
    assert abs(est[0].ser - per[0].ser) < 0.01


def test_delta_report_rows_and_ratio():
    rows, ratio = run_delta_report("c1", 7)
    assert len(rows) == 128
    assert ratio == pytest.approx(1.89, abs=1e-9)
    assert all(r.noncoh == 0.8 for r in rows)
    _, flat_ratio = run_delta_report("0:1", 7)
    assert math.isnan(flat_ratio)


def test_complexity_report_matches_op_count():
    rows = run_complexity_report([7, 10], 3, [4, 16])
    assert len(rows) == 4
    p7 = LoRaParams(7)
    first = rows[0]
    assert first.sf == 7 and first.n_c == 4
    assert first.mf == op_count("mf", p7, 3)
    assert first.cand_rake == op_count("cand_rake", p7, 3, 4)
    assert first.ratio_full == pytest.approx(
        op_count("mf", p7, 3).total / op_count("rake", p7, 3).total
    )
    assert first.wall_us is None
    with pytest.raises(ConfigError):
        run_complexity_report([7], 0, [4])
    with pytest.raises(ConfigError):
        run_complexity_report([7], 3, [0])
    with pytest.raises(ConfigError):
        run_complexity_report([7], 3, [129])


def test_complexity_report_bench_mode():
    rows = run_complexity_report([7], 2, [8], bench_repeats=1, bench_symbols=32)
    wall = rows[0].wall_us
    assert set(wall) == {"mf", "rake", "cand_mf", "cand_rake"}
    assert all(v > 0 for v in wall.values())


def test_estimation_study_structure():
    cfg = SimConfig(sf=7, ebn0_db=(2.0,), n_trials=1, n_d=80, master_seed=5)
    rows = run_estimation_study(cfg)
    studies = {r.study for r in rows}
    assert studies == {"pilots", "rho_p", "khat"}
    pilots = [r.param for r in rows if r.study == "pilots"]
    assert pilots[0] == "perfect"
    assert set(pilots[1:]) == {"1", "2", "3", "4", "6", "8"}
    rho = [r.param for r in rows if r.study == "rho_p"]
    assert rho[0] == "known_k"
    khat = [r.param for r in rows if r.study == "khat"]
    assert khat[:2] == ["perfect", "coh"]
    assert "0-2-3" in khat
    for r in rows:
        assert r.point.symbols == 80


def test_candidate_sweep_pairs_with_full_search():
    cfg = _small(detectors=("rake",), n_trials=3, n_d=300)
    rows = run_candidate_sweep(cfg, (0.05, 0.25, 1.0))
    assert [r.n_c for r in rows] == [6, 32, 128]
    full = run_ser_sweep(cfg)
    assert rows[-1].errors == full[0].errors
    # a richer candidate set should not be meaningfully worse
    for a, b in zip(rows, rows[1:]):
        se = math.sqrt(max(a.ser * (1 - a.ser), 1.0 / a.symbols) / a.symbols)
        assert b.ser <= a.ser + 3.0 * se
    with pytest.raises(ConfigError):
        run_candidate_sweep(cfg, (0.0, 0.5))
    with pytest.raises(ConfigError):
        run_candidate_sweep(cfg, ())
