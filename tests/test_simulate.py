"""Monte Carlo drivers: configuration, determinism, pairing, and reports."""

from __future__ import annotations

import cmath
import itertools
import math
import os
import sys
import threading
import tracemalloc
import weakref
from collections import Counter
from dataclasses import fields, replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lorarake import channel, simulate
from lorarake.channel import Frame, MultipathChannel, dechirped_gain
from lorarake.complexity import op_count
from lorarake.estimator import average_pilot_dft
from lorarake.simulate import (
    ConfigError,
    SimConfig,
    run_candidate_sweep,
    run_complexity_report,
    run_delta_report,
    run_estimation_study,
    run_ser_sweep,
)
from lorarake.waveform import LoRaParams, noise_variance, snr_ebn0_convert


def _small(**kw) -> SimConfig:
    base = dict(sf=7, channel="c2", detectors=("rake",), ebn0_db=(0.0,),
                n_trials=2, n_d=200, master_seed=9)
    base.update(kw)
    return SimConfig.from_dict(base)


def _cand(cfg: SimConfig) -> SimConfig:
    # the candidate sweep picks its detector itself and refuses a config that sets one
    return replace(cfg, detectors=SimConfig.detectors)


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
        (dict(ebn0_db=(-3100.0,)), "ebn0_db"),
        (dict(ebn0_db=(0.0, -3060.0)), "ebn0_db"),
        (dict(ebn0_db=tuple(e / 8 for e in range(simulate.MAX_EBN0_POINTS + 1))), "ebn0_db"),
        (dict(master_seed=2**128), "master_seed"),
    ],
)
def test_resolve_validation(patch, field):
    with pytest.raises(ConfigError) as err:
        _small(**patch).resolve()
    assert err.value.field_name == field


_TEXT = st.text(max_size=4)
_FLOATS = st.floats(allow_nan=False, allow_infinity=False)


def _lists(elems):
    # from_dict turns a JSON list into a tuple
    return st.lists(elems, min_size=1, max_size=3)


# values of a wrong type for each SimConfig annotation
_WRONG_BY_ANNOTATION = {
    "int": st.one_of(_TEXT, st.booleans(), _FLOATS, st.none(), _lists(st.integers(0, 9))),
    "float": st.one_of(_TEXT, st.booleans(), st.none(), _lists(_FLOATS)),
    "bool": st.one_of(st.integers(0, 1), _FLOATS, _TEXT, st.none()),
    "str": st.one_of(st.integers(), _FLOATS, st.booleans(), st.none(), _lists(_TEXT)),
    "object": st.one_of(st.integers(), _FLOATS, st.booleans(), st.none(),
                        _lists(st.integers(0, 9))),
    "tuple[str, ...]": st.one_of(_TEXT, st.integers(), st.none(), _lists(st.integers())),
    "tuple[float, ...]": st.one_of(_TEXT, _FLOATS, st.none(), _lists(_TEXT),
                                   _lists(st.booleans())),
    "tuple[int, ...] | None": st.one_of(_TEXT, st.integers(), _lists(_FLOATS), _lists(_TEXT)),
    "float | None": st.one_of(_TEXT, st.booleans(), _lists(_FLOATS)),
    "int | None": st.one_of(_TEXT, st.booleans(), _FLOATS, _lists(st.integers())),
}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_from_dict_rejects_a_wrongly_typed_value_in_any_field(data):
    f = data.draw(st.sampled_from(fields(SimConfig)), label="field")
    value = data.draw(_WRONG_BY_ANNOTATION[f.type], label="value")
    with pytest.raises(ConfigError) as err:
        SimConfig.from_dict({f.name: value}).resolve()
    assert err.value.field_name == f.name


def test_mf_bank_beyond_physical_memory_is_refused(monkeypatch):
    # mf and cand-mf decide on the rake's scores, so they hold no (2M, M)
    # bank: at sf 15 on one tap they need no table. With shared gains the
    # sweep builds the (2 k_max, M) float64 head table the rake's closed
    # form reads, 15.6 GiB at sf 15 with a tap 32000 chips late, 7.8 GiB
    # with one 16000 chips late; resolve() allocates none of it. Its trial
    # threads share the one table, so 2 workers on 2 cores are charged one
    monkeypatch.setattr(simulate, "_physical_memory", lambda: 8 * 2**30)
    monkeypatch.setattr(simulate, "_usable_cores", lambda: 2)
    wide, half = "0:1,32000:0.5", "0:1,16000:0.5"
    for det in ("mf", "cand-mf"):
        _small(sf=15, channel="0:1", detectors=(det,)).resolve()
        _small(sf=16, channel="0:1,3:0.5", detectors=("rake", det), workers=2,
               n_trials=2).resolve()
        with pytest.raises(ConfigError) as err:
            _small(sf=15, channel=wide, detectors=(det,)).resolve()
        assert err.value.field_name == "detectors"
        assert str(err.value).startswith(f"detectors: {det} at sf 15 holds 15.6 GiB of "
                                         "(2 k_max, M) filter banks, more than the 8.0 GiB")
        _small(sf=15, channel=half, detectors=(det,)).resolve()
        _small(sf=15, channel=half, detectors=(det,), workers=2, n_trials=2).resolve()
        with pytest.raises(ConfigError, match=rf"^detectors: {det} at sf 15 holds 15.6 GiB "):
            _small(sf=15, channel=wide, detectors=(det,), workers=2, n_trials=2).resolve()
    # with estimated or forced gains the rake scores each point's spectra
    # with the point's own gains: no table, whatever the axis
    nine = tuple(float(e) for e in range(9))
    for csir in (dict(csir="estimated"), dict(csir="forced", forced_khat=(0, 2))):
        _small(sf=15, channel=wide, detectors=("mf", "cand-mf"), ebn0_db=nine, workers=2,
               n_trials=2, **csir).resolve()
    monkeypatch.setattr(simulate, "_physical_memory", lambda: None)
    _small(sf=15, channel=wide, detectors=("mf",)).resolve()


def test_rake_head_table_beyond_physical_memory_is_refused(monkeypatch):
    # with perfect CSIR a rake sweep reads the channel's (2 k_max, M) float64
    # head table: 15.6 GiB at sf 15 with a tap 32000 chips late, 1.5 MiB
    # with one 3 chips late. mf decides on the same scores, so a run with
    # both is charged one table
    def refuse(*args, **kwargs):
        raise AssertionError("built the table the guard should refuse")

    monkeypatch.setattr(simulate, "_physical_memory", lambda: 8 * 2**30)
    monkeypatch.setattr(simulate, "mf_filter_bank", refuse)
    wide, narrow = "0:1,32000:0.5", "0:1,3:0.5"
    for dets in (("rake",), ("noncoh", "cand-rake")):
        with pytest.raises(ConfigError) as err:
            _small(sf=15, channel=wide, detectors=dets).resolve()
        assert str(err.value).startswith(f"detectors: {dets[-1]} at sf 15 holds 15.6 GiB of "
                                         "(2 k_max, M) filter banks")
        assert "without one" not in str(err.value)
        _small(sf=15, channel=narrow, detectors=dets).resolve()
    # estimated gains score each point's spectra: no table
    _small(sf=15, channel=wide, detectors=("rake",), csir="estimated", k_max=10).resolve()
    with pytest.raises(ConfigError, match="^detectors: rake at sf 15 holds 15.6 GiB of "
                                          r"\(2 k_max, M\) filter banks, more than"):
        _small(sf=15, channel=wide, detectors=("rake", "mf")).resolve()
    with pytest.raises(ConfigError, match="^detectors: cand-rake at sf 15 "):
        run_candidate_sweep(_cand(_small(sf=15, channel=wide)), (1.0,))


def test_pilots_run_a_block_at_a_time(monkeypatch, capsys):
    # the pilots run before the data, a block of them at a time in the rows
    # the data use later, so no workspace outgrows one block whatever n_p
    # is: 30000 pilots at sf 12 run in 64 rows, where 30001 would take 9.3 GiB
    from lorarake.cli import main

    made = []

    class Recorded(simulate._Workspace):
        def __init__(self, m, rows, *args):
            super().__init__(m, rows, *args)
            made.append((m, rows))

    monkeypatch.setattr(simulate, "_Workspace", Recorded)
    monkeypatch.setattr(simulate, "_physical_memory", lambda: 8 * 2**30)
    argv = ["ser", "--sf", "12", "--channel", "c1", "--n-p", "30000", "--n-trials", "1",
            "--n-d", "10", "--ebn0=0", "--detectors", "rake"]
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("detector,")
    assert made == [(4096, channel.block_rows(4096))]
    # at sf 7 a block holds 2048 windows: 5000 pilots run as 3 blocks, and
    # each point's pilot average is average_pilot_dft's mean of all of its
    # pilots' noisy spectra, bit for bit
    cfg = _small(channel="c1", csir="estimated", n_p=5000, n_d=20, ebn0_db=(-3.0, 4.0))
    params, ch = cfg.resolve()
    seen, estimate = [], simulate.detect_paths
    monkeypatch.setattr(simulate, "detect_paths",
                        lambda p, avg, *a: seen.append(avg.copy()) or estimate(p, avg, *a))
    run_ser_sweep(cfg)
    clean = channel.dechirped_spectra(params, ch, np.zeros(cfg.n_p, dtype=np.int64))
    for k, (trial, e) in enumerate(itertools.product(range(cfg.n_trials), cfg.ebn0_db)):
        z = simulate._burst_normals(cfg.master_seed, trial, params.m, 0,
                                    np.empty((cfg.n_p, params.m), np.complex128))
        var = params.m * noise_variance(snr_ebn0_convert(params, e, "ebn0_to_snr"))
        spectra = (z.view(np.float64) * math.sqrt(var / 2.0)).view(np.complex128) + clean
        assert seen[k].tobytes() == average_pilot_dft(spectra).tobytes()
    assert len(seen) == 4
    # and the sweeps come out as from one block that holds every pilot
    monkeypatch.setattr(simulate, "_usable_cores", lambda: 2)
    for patch in (dict(csir="estimated"), dict(csir="forced", forced_khat=(0, 2)),
                  dict(detectors=("noncoh", "tdel"))):
        cfg = _small(channel="c1", n_p=5000, n_d=20, **patch)
        made.clear()
        rows = run_ser_sweep(cfg)
        assert run_ser_sweep(replace(cfg, workers=2)) == rows
        assert made and all(r <= 2048 for _, r in made)
        with mock.patch.object(channel, "BLOCK_BINS", 5000 * 128):
            assert run_ser_sweep(cfg) == rows
    # nothing guards a workspace's pilot rows now: 64 KiB of physical
    # memory, which still passes c2's 10 KiB head table, passes them too
    monkeypatch.setattr(simulate, "_physical_memory", lambda: 2**16)
    pilots = _small(n_p=3000, n_d=20, workers=2)
    run_ser_sweep(pilots)
    run_ser_sweep(replace(pilots, csir="estimated"))


def test_cli_refuses_an_mf_bank_beyond_physical_memory(monkeypatch, capsys):
    from lorarake.cli import main

    def refuse(*args, **kwargs):
        raise AssertionError("built the table the guard should refuse")

    monkeypatch.setattr(simulate, "_physical_memory", lambda: 8 * 2**30)
    # mf at sf 15 on one tap builds an empty head table and runs
    one = ["--sf", "15", "--channel", "0:1", "--n-trials", "1", "--n-d", "1", "--ebn0", "0"]
    assert main(["ser", "--detectors", "mf", *one]) == 0
    assert capsys.readouterr().out.startswith("detector,")
    # a (2 k_max, M) table at a 32000-chip tap span is 15.6 GiB; a broken
    # guard then fails here instead of allocating it
    monkeypatch.setattr(simulate, "mf_filter_bank", refuse)
    wide = ["--sf", "15", "--channel", "0:1,32000:0.5", "--n-trials", "1", "--n-d", "1"]
    for argv, det in ((["ser", "--detectors", "mf"], "mf"), (["ser", "--detectors", "rake"], "rake"),
                      (["cand-sweep"], "cand-rake")):
        assert main([*argv, *wide]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: detectors: {det} at sf 15 holds 15.6 GiB of "
                                       "(2 k_max, M) filter banks")


def test_mf_bank_build_peaks_at_the_bank_plus_one_slab():
    # the (2M, M) bank is 256 MiB at sf 12; building the complex M x M bank
    # and then its real copy peaked at 640 MiB
    p = LoRaParams(12)
    g = dechirped_gain(p, channel.C1)
    tracemalloc.start()
    try:
        bank = simulate.mf_filter_bank(p, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bank.nbytes == 2**28
    assert peak <= 2**28 + 32 * 2**20


@pytest.mark.parametrize("csir", [
    pytest.param(dict(csir="estimated"), id="estimated"),
    pytest.param(dict(csir="forced", forced_khat=(0, 2)), id="forced"),
])
def test_a_finished_sweep_holds_no_point_bank(csir):
    # mf and cand-mf score each point's spectra with the rake's taps, so a
    # sweep holds no point's (2M, M) bank (4 MiB at sf 9), in its workspace
    # or after it
    cfg = _small(sf=9, channel="c1", detectors=("mf", "cand-mf"), ebn0_db=(-2.0, 0.0, 2.0),
                 n_trials=1, n_d=20, **csir)
    tracemalloc.start()
    try:
        run_ser_sweep(cfg)
        run_ser_sweep(cfg)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 2 * 512 * 512 * 8


def test_physical_memory_probe():
    phys = simulate._physical_memory()
    assert phys is None or phys > 2**20


def test_cand_sweep_scores_the_rake_candidates_whatever_the_detectors(monkeypatch):
    # with 64 KiB of memory the guard passes the rake's 10 KiB head table on
    # c2 at sf 7 and refuses its 200 KiB table with a tap 100 chips late,
    # for mf as for a candidate sweep, which scores cand-rake alone: it
    # refuses a detectors field it would ignore rather than guard it
    monkeypatch.setattr(simulate, "_physical_memory", lambda: 2**16)
    wide = "0:1,100:0.5"
    _small(detectors=("mf",)).resolve()
    with pytest.raises(ConfigError, match=r"^detectors: mf at sf 7 holds 0.0 GiB of \(2 k_max"):
        _small(channel=wide, detectors=("mf",)).resolve()
    with pytest.raises(ConfigError, match="^detectors: cand-rake at sf 7 "):
        run_candidate_sweep(_cand(_small(channel=wide, n_d=50)), (0.05, 1.0))
    with pytest.raises(ConfigError, match="^detectors: the candidate sweep does not use"):
        run_candidate_sweep(_small(detectors=("mf",), n_d=50), (0.05, 1.0))
    rows = run_candidate_sweep(_cand(_small(n_d=50)), (0.05, 1.0))
    assert [r.n_c for r in rows] == [6, 128]


@pytest.mark.parametrize("driver,field,value", [
    *((run_candidate_sweep, f, v) for f, v in (
        ("detectors", ("cand-rake",)), ("n_c", 5), ("rho_c", 0.3), ("rho_tdel", 0.3))),
    *((run_estimation_study, f, v) for f, v in (
        ("channel", "c1"), ("detectors", ("rake",)), ("csir", "estimated"), ("known_k", True),
        ("forced_khat", (0, 2)), ("n_c", 5), ("rho_c", 0.3), ("rho_tdel", 0.3))),
])
def test_drivers_refuse_fields_they_ignore(driver, field, value):
    # a field a driver overrides or never reads could only change the config
    # hash, never the rows; at its default it passes
    cfg = SimConfig(sf=6, ebn0_db=(0.0,), n_trials=1, n_d=10)
    with pytest.raises(ConfigError) as err:
        driver(replace(cfg, **{field: value}))
    assert err.value.field_name == field
    assert driver(replace(cfg, **{field: getattr(SimConfig, field)}))


@settings(max_examples=24, deadline=None)
@given(sf=st.integers(2, 10),
       gain=st.builds(cmath.rect, st.floats(0.1, 10.0), st.floats(-math.pi, math.pi)),
       csir=st.sampled_from(["perfect", "estimated"]),
       n_c=st.sampled_from([None, 1]))
def test_every_detector_decodes_a_noise_free_single_tap_channel(sf, gain, csir, n_c):
    cfg = _small(sf=sf, channel=MultipathChannel((0,), (gain,)), detectors=simulate.DETECTOR_IDS,
                 ebn0_db=(150.0,), csir=csir, n_c=n_c, k_max=min(10, 2**sf - 1),
                 n_trials=1, n_d=64)
    errors = {p.detector: p.errors for p in run_ser_sweep(cfg)}
    assert errors == dict.fromkeys(simulate.DETECTOR_IDS, 0)


def test_candidate_rule_defaults():
    assert _small().candidate_rule() is None
    assert _small(detectors=("cand-rake",)).candidate_rule() == ("threshold", 0.3)
    assert _small(detectors=("cand-rake",), rho_c=0.5).candidate_rule() == ("threshold", 0.5)
    assert _small(detectors=("cand-mf",), n_c=8).candidate_rule() == ("fixed", 8)


def test_sweep_is_deterministic():
    cfg = _small(detectors=("noncoh", "rake", "tdel"), ebn0_db=(-2.0, 0.0))
    assert run_ser_sweep(cfg) == run_ser_sweep(cfg)


def test_workers_do_not_change_results(monkeypatch):
    # on 4 cores 3 lanes share 7 trials unevenly
    monkeypatch.setattr(simulate, "_usable_cores", lambda: 4)
    for n_trials, workers in ((4, 2), (7, 3)):
        cfg1 = _small(detectors=("rake", "tdel"), ebn0_db=(0.0, 2.0), n_trials=n_trials)
        cfg2 = replace(cfg1, workers=workers)
        assert run_ser_sweep(cfg1) == run_ser_sweep(cfg2)
        assert (run_candidate_sweep(_cand(cfg1), (0.05, 1.0))
                == run_candidate_sweep(_cand(cfg2), (0.05, 1.0)))


def _tally_sweep(tally, n_trials: int, workers: int) -> tuple[object, int]:
    """(_map_points' sum of tally over n_trials trials of a small sf 6
    sweep on workers, its tracemalloc peak)."""
    cfg = _small(sf=6, ebn0_db=(-2.0, 0.0, 2.0), n_trials=n_trials, n_d=1, workers=workers)
    params, ch = cfg.resolve()
    tracemalloc.start()
    try:
        total = simulate._map_points(tally, params, ch, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return total, peak


@pytest.mark.parametrize("workers", [1, 2, 8])
def test_a_sweep_holds_no_result_per_trial(monkeypatch, workers):
    # each lane adds a trial's tallies into its own total as the trial
    # finishes, so ten times the trials peak at the same heap; and the lanes,
    # up to four times the cores here, switching often, take every trial
    # once (a trial lost or run twice moves the sums)
    monkeypatch.setattr(simulate, "_usable_cores", lambda: max(2, workers))

    def tally(params, ch, cfg, ws, head, trial):
        return np.array([1, trial, trial * trial], dtype=np.int64)

    peaks = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for n in (2000, 20000):
            total, peak = _tally_sweep(tally, n, workers)
            assert total.tolist() == [n, n * (n - 1) // 2, (n - 1) * n * (2 * n - 1) // 6]
            peaks.append(peak)
    finally:
        sys.setswitchinterval(interval)
    assert abs(peaks[1] - peaks[0]) <= 256 * 2**10


@pytest.mark.parametrize("workers", [1, 2])
def test_a_failing_trial_stops_every_lane(monkeypatch, workers):
    # the lane whose trial raises stops every lane before its next trial,
    # and the sweep raises that error
    monkeypatch.setattr(simulate, "_usable_cores", lambda: 2)
    calls, lock = [], threading.Lock()

    def tally(params, ch, cfg, ws, head, trial):
        with lock:
            calls.append(trial)
            if len(calls) == 3:
                raise RuntimeError("third trial")
        return 1

    with pytest.raises(RuntimeError, match="third trial"):
        _tally_sweep(tally, 10000, workers)
    assert 3 <= len(calls) <= 3 + workers


def test_a_sweep_starts_no_more_trial_threads_than_trials(monkeypatch):
    # a sweep runs its trials on one pool of min(workers, n_trials, cores)
    # threads: on 4 cores 64 workers for 2 trials start 2, and one trial runs
    # on the caller's thread. No trial cuts a burst shorter than a block, so
    # every pool is a sweep's trial pool
    sizes = _thread_pools(monkeypatch)
    monkeypatch.setattr(simulate, "_usable_cores", lambda: 4)
    cfg = _small(detectors=("rake", "mf"), ebn0_db=(-2.0, 0.0, 2.0), n_trials=2, workers=64)
    assert run_ser_sweep(cfg) == run_ser_sweep(replace(cfg, workers=1))
    assert run_candidate_sweep(_cand(cfg), (0.05, 1.0)) == run_candidate_sweep(
        _cand(replace(cfg, workers=1)), (0.05, 1.0))
    run_ser_sweep(replace(cfg, n_trials=5, workers=3))
    run_ser_sweep(replace(cfg, n_trials=1))  # one trial runs on the caller's thread
    assert sizes == [2, 2, 3]


def test_trial_threads_stop_at_the_usable_cores(monkeypatch):
    # each trial thread holds a workspace of its own, so a sweep runs at most
    # one per usable core, however many workers it is given
    sizes = _thread_pools(monkeypatch)
    monkeypatch.setattr(simulate, "_usable_cores", lambda: 2)
    cfg = _small(ebn0_db=(0.0, 2.0), n_trials=4, workers=10**6)
    assert run_ser_sweep(cfg) == run_ser_sweep(replace(cfg, workers=1))
    assert sizes == [2]


def test_trial_threads_give_the_one_thread_rows(monkeypatch):
    # on 4 cores 2 trial threads run 3 trials at once, each trial cutting
    # its blocks into 2 parts (of 5 windows after 3 pilots: 2 data rows,
    # then 5), under a short switch interval that interleaves the threads'
    # Python steps finely; every driver's rows are those of workers=1
    sizes = _thread_pools(monkeypatch)
    monkeypatch.setattr(simulate, "_usable_cores", lambda: 4)
    monkeypatch.setattr(channel, "BLOCK_BINS", 5 * 128 + 3)
    cfg = _small(channel="c1", detectors=simulate.DETECTOR_IDS, ebn0_db=(-2.0, 0.0, 3.0),
                 n_p=3, n_d=17, n_c=5, n_trials=3, workers=2)
    runs = [(run_ser_sweep, replace(cfg, **csir)) for csir in (
        dict(csir="perfect"), dict(csir="estimated"), dict(csir="forced", forced_khat=(0, 2, 3)))]
    runs += [(lambda c: run_candidate_sweep(c, (0.05, 0.5, 1.0)), _cand(replace(c, n_c=None)))
             for _, c in runs[:2]]
    runs.append((run_estimation_study, SimConfig(sf=6, ebn0_db=(0.0,), n_trials=3, n_d=20,
                                                 workers=2)))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for run, c in runs:
            sizes.clear()
            rows = run(c)
            assert sizes[0] == 2 and set(sizes) == {2} and len(sizes) > 1
            assert rows == run(replace(c, workers=1))
    finally:
        sys.setswitchinterval(interval)


def test_no_thread_outlives_a_sweep(monkeypatch):
    # the trial pool and every trial's part pool end before the sweep
    # returns, also when a part raises, and the sweep raises that part's error
    monkeypatch.setattr(simulate, "_usable_cores", lambda: 4)
    monkeypatch.setattr(channel, "BLOCK_BINS", 5 * 128 + 3)
    before = threading.active_count()
    run_ser_sweep(_small(detectors=("noncoh", "cand-rake"), n_c=5, n_trials=3, n_d=40,
                         workers=2))
    assert threading.active_count() == before
    failing = replace(_fail_the_second_part(monkeypatch), n_trials=3, workers=2)
    assert _raised(failing) == ["second part"]
    assert threading.active_count() == before


def _thread_pools(monkeypatch) -> list[int]:
    """The size of every thread pool the sweeps make from now on."""
    sizes = []

    class Recording(simulate.ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(simulate, "ThreadPoolExecutor", Recording)
    return sizes


_CSIRS = [
    pytest.param(dict(csir="perfect"), id="perfect"),
    pytest.param(dict(csir="estimated"), id="estimated"),
    pytest.param(dict(csir="forced", forced_khat=(0, 2, 3)), id="forced"),
]


@pytest.mark.parametrize("threads", [2, 3])
@pytest.mark.parametrize("csir", _CSIRS)
def test_split_rows_are_the_one_thread_rows(monkeypatch, threads, csir):
    # every detector, mf and cand-mf split too (a sweep keeps them on one
    # thread), in both sweeps. At 5 windows per block and 3 pilots the first
    # block holds 2 data rows and the rest 5, an odd count that tdel packs in
    # row pairs; one block of 37 rows; 2 and 1 rows, fewer than the threads.
    # A short switch interval interleaves the parts' Python steps finely
    sizes = _thread_pools(monkeypatch)
    cfg = _small(channel="c1", detectors=simulate.DETECTOR_IDS, ebn0_db=(-2.0, 0.0, 3.0),
                 n_p=3, n_d=37, n_c=5, **csir)
    sweeps = (run_ser_sweep,
              lambda c: run_candidate_sweep(_cand(replace(c, n_c=None)), (0.05, 0.5, 1.0)))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for bins, n_d in ((5 * 128 + 3, 37), (channel.BLOCK_BINS, 37), (channel.BLOCK_BINS, 2),
                          (channel.BLOCK_BINS, 1)):
            monkeypatch.setattr(channel, "BLOCK_BINS", bins)
            for sweep in sweeps:
                monkeypatch.setattr(simulate, "_threads", lambda p, c: 1)
                one = sweep(replace(cfg, n_d=n_d))
                monkeypatch.setattr(simulate, "_threads", lambda p, c: threads)
                assert sweep(replace(cfg, n_d=n_d)) == one
    finally:
        sys.setswitchinterval(interval)
    assert sizes and set(sizes) == {threads}


def test_block_parts_are_even_row_ranges_on_disjoint_workspace_bytes():
    # a region's rows are offset by its own bytes per bin, so a real view of
    # a complex region (the rake's work, the scores' halves) stays in its
    # part's rows: offsets counted in the view's dtype overlapped the parts
    p, n = LoRaParams(5), 11
    names = ("normals", "clean", "spectra", "work", "mag", "scores", "mask")
    ws = simulate._Workspace(p.m, 3 + n)
    cfg = SimConfig(sf=p.sf, channel="c1", ebn0_db=(0.0,))
    block = simulate._Block(p, channel.C1, cfg, ws, 0, 3, 3, np.arange(n),
                            np.zeros((n, 3), complex),
                            ws.take("normals", 3 + n, np.complex128)[3:], [1.0], [None],
                            [dechirped_gain(p, channel.C1)], [None])
    assert [[b.data.size for b in block.parts(k)] for k in (1, 2, 3, 4, 6, 12)] == [
        [11], [6, 5], [4, 4, 3], [4, 4, 3], [2, 2, 2, 2, 2, 1], [2, 2, 2, 2, 2, 1]]

    def span(a):
        return a.ctypes.data, a.ctypes.data + a.nbytes

    def inside(a, own):
        return span(own)[0] <= span(a)[0] and span(a)[1] <= span(own)[1]

    parts = block.parts(3)
    widest = {16: np.complex128, 8: np.float64, 1: bool}
    for name in names:
        size = simulate._REGION_BYTES[name]
        own = [b.region(name, widest[size]) for b in parts]
        # the parts tile the block's rows of the region, a row being size * M bytes
        start, row_bytes = span(own[0])[0], size * p.m
        assert [span(o) for o in own] == [
            (start + row_bytes * (a.row - 3), start + row_bytes * (a.row - 3 + a.data.size))
            for a in parts]
        assert (start, span(own[-1])[1]) == span(block.region(name, widest[size]))
        for a, o in zip(parts, own):
            for dtype in (np.complex128, np.float64, bool):
                if np.dtype(dtype).itemsize <= size:
                    view = a.region(name, dtype)
                    assert span(view)[0] == span(o)[0] and inside(view, o)
    for a, b in zip(parts, parts[1:]):
        assert all(inside(half, a.region("spectra", np.complex128)) for half in a._pair())
        assert inside(a.combined(0), a.region("work", np.complex128))
        np.testing.assert_array_equal(a.normals, block.normals[a.row - 3 : b.row - 3])


def test_a_process_runs_its_blocks_on_the_cores_left_to_it(monkeypatch):
    # cores // trial threads threads a trial, the trial threads being
    # min(workers, n_trials); a pool of 1 is none. A burst shorter than one
    # block (here 5 windows at sf 7 and 10 at sf 6) keeps 1; a sweep that
    # makes no point's spectra (shared gains, linear detectors: mf alone
    # too) splits, its parts drawing their own normals; mf and cand-mf split
    # like every detector
    sizes = _thread_pools(monkeypatch)
    monkeypatch.setattr(simulate, "_usable_cores", lambda: 3)
    monkeypatch.setattr(channel, "BLOCK_BINS", 5 * 128 + 3)
    cfg = _small(detectors=("noncoh", "rake", "cand-rake", "tdel"), n_trials=3, n_d=40)
    run_ser_sweep(replace(cfg, n_d=4))
    assert sizes == []
    run_ser_sweep(replace(cfg, n_d=5))
    assert sizes == [3] * 3
    sizes.clear()
    run_ser_sweep(cfg)
    run_candidate_sweep(_cand(cfg), (0.5,))
    assert sizes == [3] * 6
    sizes.clear()
    for workers in (2, 3, 8):  # 1 part each: 3 // 2, 3 // 3 and 3 // 3
        run_ser_sweep(replace(cfg, workers=workers))
    assert sizes == [2, 3, 3]  # the trial pools alone
    sizes.clear()
    for dets in (("mf",), ("rake",), ("coh", "ideal-mf", "rake")):
        run_ser_sweep(replace(cfg, detectors=dets))
    assert sizes == [3] * 9
    sizes.clear()
    for dets in (("cand-mf", "rake"), simulate.DETECTOR_IDS):
        run_ser_sweep(replace(cfg, detectors=dets))
    assert sizes == [3] * 6
    sizes.clear()
    for dets in (("rake",), ("mf",)):  # each point's own gains
        run_ser_sweep(replace(cfg, detectors=dets, csir="estimated"))
    assert sizes == [3] * 6
    sizes.clear()
    run_ser_sweep(replace(cfg, workers=8, n_trials=1))  # one trial: the caller's thread
    run_ser_sweep(replace(cfg, workers=2, n_trials=5))
    assert sizes == [3, 2]
    monkeypatch.setattr(simulate, "_usable_cores", lambda: 2)
    sizes.clear()
    rows = run_estimation_study(SimConfig(sf=6, ebn0_db=(0.0,), n_trials=2, n_d=20, workers=2))
    assert sizes == [2] * len(rows)  # a trial pool per sweep, 1 part a trial
    sizes.clear()
    run_estimation_study(SimConfig(sf=6, ebn0_db=(0.0,), n_trials=2, n_d=20))
    assert set(sizes) == {2}


@pytest.mark.parametrize("csir", _CSIRS)
def test_split_blocks_make_each_mask_of_the_whole_blocks_rows(monkeypatch, csir):
    # however a block is cut, each candidate mask is one _candidate_masks
    # call over the block's data rows, those of the last frame built (what
    # perfbench's candidate observer reads), and the calls are those of one
    # thread. Blocks of 5 windows hold 2 data rows after 3 pilots, then 5
    frames, calls = [], []
    build, masks = simulate.build_frame, simulate._candidate_masks

    def building(params, n_p, data):
        frames.append(len(data))
        return build(params, n_p, data)

    def making(mag, rule, out, work):
        mask = masks(mag, rule, out=out, work=work)
        calls.append((frames[-1], mask.shape[0], rule, mask.tobytes()))
        return mask

    monkeypatch.setattr(simulate, "build_frame", building)
    monkeypatch.setattr(simulate, "_candidate_masks", making)
    monkeypatch.setattr(channel, "BLOCK_BINS", 5 * 128 + 3)
    cfg = _small(channel="c1", detectors=("noncoh", "rake", "cand-rake"), ebn0_db=(-2.0, 3.0),
                 n_p=3, n_d=17, n_c=5, n_trials=1, **csir)
    sweeps = (run_ser_sweep,
              lambda c: run_candidate_sweep(_cand(replace(c, n_c=None)), (0.05, 0.5)))
    for sweep in sweeps:
        seen = []
        for threads in (1, 2, 3):
            monkeypatch.setattr(simulate, "_threads", lambda p, c: threads)
            calls.clear()
            sweep(cfg)
            seen.append(list(calls))
        assert seen[1] == seen[0] and seen[2] == seen[0]
        assert all(frame == rows for frame, rows, _, _ in seen[0])
        assert [rows for _, rows, _, _ in seen[0]][:2] == [2, 2]


def _fail_the_second_part(monkeypatch) -> SimConfig:
    """A config whose trials run 2 parts, the second failing in noncoh."""
    noncoh = simulate._DETECTORS["noncoh"]

    def failing(b, i, mag):
        if b.row > b.whole.row:
            raise ValueError("second part")
        return noncoh.decide(b, i, mag)

    monkeypatch.setitem(simulate._DETECTORS, "noncoh", noncoh._replace(decide=failing))
    monkeypatch.setattr(simulate, "_threads", lambda p, c: 2)
    return _small(detectors=("noncoh", "cand-rake"), n_c=5, n_trials=1, n_d=40)


def _raised(cfg: SimConfig) -> list[str]:
    """The error a sweep of cfg raises, or [], once it ends within a minute."""
    outcome = []

    def sweep():
        try:
            run_ser_sweep(cfg)
        except Exception as exc:  # noqa: BLE001 - the test reads which one
            outcome.append(str(exc))

    runner = threading.Thread(target=sweep, daemon=True)
    runner.start()
    runner.join(60)
    assert not runner.is_alive()
    return outcome


def test_a_failing_part_raises_its_own_error(monkeypatch):
    # a part that fails before the masks releases the part waiting there for
    # it, and the sweep raises the failure rather than waiting forever
    assert _raised(_fail_the_second_part(monkeypatch)) == ["second part"]


def test_a_failing_draw_raises_its_own_error(monkeypatch):
    # a part draws its normals inside the step that releases the other
    # parts when it fails: here the second of 2 parts, burst rows [26, 46)
    # after 6 pilots and the first part's 20 rows, fails in its draw
    draw = simulate._burst_normals

    def failing(seed, trial, m, first, out):
        if first > 6:
            raise ValueError("second draw")
        return draw(seed, trial, m, first, out)

    monkeypatch.setattr(simulate, "_burst_normals", failing)
    monkeypatch.setattr(simulate, "_threads", lambda p, c: 2)
    assert _raised(_small(detectors=("noncoh", "cand-rake"), n_c=5, n_trials=1, n_d=40)) == [
        "second draw"]


@pytest.mark.parametrize("csir", _CSIRS)
def test_each_part_draws_its_normals_on_its_own_thread(monkeypatch, csir):
    # on 2 threads every data row's normals are drawn on the thread of the
    # part that holds it: rows [6, 26) and [26, 46), the second part first
    # drawing tile 0's 26 earlier rows into its 20 rows and dropping them.
    # The caller's thread draws only the 6 pilots, and only where they are
    # read (estimated or forced CSIR). The parts meet at the candidate masks,
    # so neither thread can run both
    calls = []
    noise = simulate.complex_noise

    def recording(shape, sigma2, rng, out=None):
        calls.append((threading.current_thread(), shape[0]))
        return noise(shape, sigma2, rng, out=out)

    monkeypatch.setattr(simulate, "complex_noise", recording)
    monkeypatch.setattr(simulate, "_threads", lambda p, c: 2)
    cfg = _small(detectors=("noncoh", "cand-rake"), n_c=5, n_trials=1, n_d=40, **csir)
    run_ser_sweep(cfg)
    caller = threading.current_thread()
    by_thread = {}
    for thread, rows in calls:
        by_thread.setdefault(thread, []).append(rows)
    assert by_thread.pop(caller, []) == ([] if cfg.csir == "perfect" else [6])
    assert sorted(by_thread.values()) == [[6, 20], [20, 6, 20]]


@pytest.mark.parametrize("threads", [2, 3])
@pytest.mark.parametrize("csir", _CSIRS)
@pytest.mark.parametrize("det", ["mf", "cand-mf"])
def test_split_trials_build_each_mf_bank_once(monkeypatch, threads, csir, det):
    # with shared gains the sweep builds its head table before its first
    # trial, and the blocks carry it, so no trial or part builds one; with
    # each point's own gains none is built. One block, its 37 data rows cut
    # into parts
    calls = _count_mf_bank_builds(monkeypatch)
    cfg = _small(channel="c1", detectors=(det, "rake"), ebn0_db=(-2.0, 0.0, 3.0), n_p=3,
                 n_d=37, **csir)
    seen = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for count in (1, threads):
            monkeypatch.setattr(simulate, "_threads", lambda p, c: count)
            calls.clear()
            run_ser_sweep(cfg)
            seen.append(list(calls))
    finally:
        sys.setswitchinterval(interval)
    head = (7, channel.C1.delays, channel.C1.k_max)
    assert seen[1] == seen[0] == ([head] if cfg.csir == "perfect" else [])


def test_usable_cores_are_the_affinity_mask(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert simulate._usable_cores() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert simulate._usable_cores() == 5
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert simulate._usable_cores() == 1


@pytest.mark.parametrize("cfg", [
    pytest.param(dict(detectors=("rake",), n_p=0), id="rake"),
    pytest.param(dict(detectors=("rake",), n_p=6, ebn0_db=(-2.0, 0.0, 2.0)), id="rake-pilots"),
    pytest.param(dict(detectors=("mf", "rake")), id="mf-rake"),
])
def test_linear_detectors_with_shared_gains_make_no_spectra(monkeypatch, cfg):
    # rake and mf score the noise-free spectra in closed form and the
    # normals with their kernels, so such a sweep makes neither the
    # noise-free spectra (dechirped_spectra) nor any point's noisy spectra,
    # and its rows are those it has in a run that makes both
    made = Counter()
    spectra = simulate.dechirped_spectra

    def counting(*args, **kwargs):
        made["clean"] += 1
        return spectra(*args, **kwargs)

    monkeypatch.setattr(simulate, "dechirped_spectra", counting)
    cfg = _small(**{"ebn0_db": (0.0,), **cfg})
    alone = run_ser_sweep(replace(cfg, master_seed=10))
    assert made["clean"] == 0
    shared = run_ser_sweep(replace(cfg, master_seed=10, detectors=("noncoh", *cfg.detectors)))
    assert made["clean"] > 0
    assert [p for p in shared if p.detector != "noncoh"] == alone


@settings(max_examples=20, deadline=None)
@given(axis=st.lists(st.sampled_from([-4.0, -1.5, 0.0, 2.0, 5.0]), min_size=1, max_size=3,
                     unique=True),
       rows=st.integers(1, 40),
       csir=st.sampled_from(["perfect", "estimated"]))
def test_points_pair_across_different_axes(axis, rows, csir):
    # a point's rows depend on the seed, the trials and its Eb/N0, not on
    # the other points of the axis, whatever the block size
    cfg = _small(channel="c1", detectors=("noncoh", "coh-awgn", "mf", "rake", "cand-rake", "tdel"),
                 ebn0_db=tuple(axis), csir=csir, n_p=2, n_d=60)
    with mock.patch.object(channel, "BLOCK_BINS", rows * 128 + 5):
        for sweep in (run_ser_sweep, lambda c: run_candidate_sweep(_cand(c), (0.05, 1.0))):
            swept = sweep(cfg)
            for e in axis:
                alone = sweep(replace(cfg, ebn0_db=(e,)))
                assert [p for p in swept if p.ebn0_db == e] == alone != []


def _stream(seed: int, trial: int, key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(trial, key)))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_a_row_range_draws_those_rows_of_the_whole_burst(data):
    # any range [a, b) of a burst of n rows, drawn alone (as a part or the
    # pilots draw it), is rows [a, b) of the whole burst's draw, bit for bit:
    # tile t's stream drawn whole, tile after tile
    sf = data.draw(st.integers(2, 16), label="sf")
    m = 2**sf
    tile = max(1, simulate.TILE_BINS // m)
    n = data.draw(st.integers(1, 3 * tile + 2), label="n")
    a = data.draw(st.integers(0, n - 1), label="a")
    b = data.draw(st.integers(a + 1, n), label="b")
    seed = data.draw(st.integers(0, 2**128 - 1), label="seed")
    trial = data.draw(st.integers(0, 2**32 - 1), label="trial")
    whole = np.concatenate([_stream(seed, trial, 1 + t).standard_normal((tile, m, 2))
                            for t in range(-(-n // tile))])[:n]
    rows = simulate._burst_normals(seed, trial, m, a, np.empty((b - a, m), np.complex128))
    assert rows.view(np.float64).tobytes() == whole[a:b].tobytes()


def test_no_two_seeds_share_a_trial_stream():
    # default_rng([seed, trial]) cut a seed into 32-bit words and padded the
    # shorter key with zeros, so seed 2**32's trial 0 drew seed 0's trial 1.
    # Keyed as SeedSequence(seed, spawn_key=(trial, key)), every (seed,
    # trial, stream) below draws its own numbers
    def head(rng):
        return tuple(rng.integers(0, 2**63, size=4).tolist())

    assert head(np.random.default_rng([2**32, 0])) == head(np.random.default_rng([0, 1]))
    seeds = (0, 1, 2**32, 2**32 + 1, 2**64, 2**96, 2**128 - 1)
    heads = {head(simulate._trial_rng(seed, trial, key))
             for seed in seeds for trial in (0, 1, 2**32) for key in (0, 1, 2)}
    assert len(heads) == len(seeds) * 3 * 3


def test_every_point_scales_the_trials_standard_normals():
    # the trial's stream 0 draws the data symbols, and burst row j (pilots
    # first) takes its standard normals from row j % R of tile j // R, whose
    # stream is 1 + j // R, R = TILE_BINS // M rows (256 at sf 7: this burst
    # of 6 + 600 rows spans 3 tiles). A block fills its rows before its points
    # run; each point scales the same normals to its variance and adds the
    # same noise-free spectra. A block's arrays live in the workspace until
    # the next yield, so each kept point keeps copies: its data, noisy
    # spectra, data-row normals and scale
    cfg = _small(detectors=("rake", "coh-awgn"), ebn0_db=(-3.0, 5.0), n_d=600, master_seed=4)
    params, ch = cfg.resolve()
    blocks, ws = {}, simulate._Workspace(params.m, cfg.n_p + cfg.n_d)
    for block in simulate._trial_setup(params, ch, cfg, ws, None, 3):
        block.draw()
        blocks.update({cfg.ebn0_db[i]: SimpleNamespace(
            data=block.data.copy(), data_spec=spec.copy(), scale=block.scales[i],
            normals=block.normals.view(np.float64).copy()) for i, spec in block.points()})
    assert len(blocks) == 2
    np.testing.assert_array_equal(blocks[-3.0].data, blocks[5.0].data)
    n, tile = cfg.n_p + cfg.n_d, 2**15 // params.m
    frame = channel.build_frame(params, cfg.n_p,
                                _stream(4, 3, 0).integers(0, params.m, size=cfg.n_d))
    z = np.concatenate([_stream(4, 3, 1 + t).standard_normal((tile, params.m, 2))
                        for t in range(-(-n // tile))])[cfg.n_p : n]
    clean = channel.dechirped_spectra(params, ch, frame.symbols)[cfg.n_p:]
    for e, block in blocks.items():
        var = params.m * noise_variance(snr_ebn0_convert(params, e, "ebn0_to_snr"))
        expect = (z * math.sqrt(var / 2.0)).view(np.complex128)[..., 0]
        noise = (block.normals * block.scale).view(np.complex128)
        assert noise.tobytes() == expect.tobytes()
        assert block.data_spec.tobytes() == (clean + noise).tobytes()


_KERNEL_NAMES = ("_rake_scores", "_mf_scores", "_ideal_scores")
_CLOSED_FORM_NAMES = ("clean_rake_scores",)


@pytest.mark.parametrize("points", [1, 3, 5])
@pytest.mark.parametrize("csir", [
    pytest.param(dict(csir="perfect"), id="perfect"),
    pytest.param(dict(csir="estimated"), id="estimated"),
    pytest.param(dict(csir="forced", forced_khat=(0, 2, 3)), id="forced"),
])
def test_linear_kernels_run_once_per_block_with_shared_gains(monkeypatch, csir, points):
    # with perfect CSIR each kernel scores a block's normals, whatever the
    # number of points: ideal-mf (as coh) scores the noise-free spectra with
    # its own kernel, and the rake scores them in closed form, through the
    # head table the sweep builds once; mf and cand-mf decide on the rake's
    # scores, so nothing runs mf_scores or an inverse FFT. With estimated or
    # forced gains each kernel scores each point's spectra and no closed
    # form runs. 5 windows per block at sf 7, 2 pilots and 20 data symbols:
    # blocks of 3, 5, 5, 5 and 2 data symbols. One thread: each part of a
    # block (_Block.parts) runs the kernels, and then a block is one part
    monkeypatch.setattr(simulate, "_usable_cores", lambda: 1)
    calls = Counter()

    def count(owner, name):
        kernel = getattr(owner, name)

        def counting(*args, **kwargs):
            calls[name] += 1
            return kernel(*args, **kwargs)
        monkeypatch.setattr(owner, name, counting)

    for name in (*_KERNEL_NAMES, *_CLOSED_FORM_NAMES, "build_frame", "mf_filter_bank"):
        count(simulate, name)
    count(np.fft, "ifft")
    monkeypatch.setattr(channel, "BLOCK_BINS", 5 * 128 + 3)
    cfg = _small(channel="c1", detectors=("coh", "ideal-mf", "mf", "cand-mf", "rake", "cand-rake"),
                 ebn0_db=tuple(float(e) for e in range(points)), n_p=2, n_d=20, **csir)
    blocks = cfg.n_trials * 5
    per_block, closed = (1, blocks) if cfg.csir == "perfect" else (points, 0)
    heads = 1 if cfg.csir == "perfect" else 0
    run_ser_sweep(cfg)
    assert calls.pop("build_frame") == blocks
    assert calls == Counter({"_rake_scores": per_block * blocks,
                             **dict.fromkeys(_CLOSED_FORM_NAMES, closed),
                             "_ideal_scores": per_block * blocks + closed,
                             "mf_filter_bank": heads})
    calls.clear()
    run_candidate_sweep(_cand(replace(cfg, detectors=SimConfig.detectors)), (0.05, 1.0))
    assert calls == Counter({"build_frame": blocks, "_rake_scores": per_block * blocks,
                             "clean_rake_scores": closed, "mf_filter_bank": heads})


def _abs_terms(kernel, p, g, x, floor=0.0) -> tuple[np.ndarray, int]:
    """(per score, the sum of the magnitudes of the real products a kernel adds
    up for input x, whose entries are sums of terms of magnitude up to
    |x| + floor, how many it adds). |Re(a b)| terms sum to at most |a| |b|."""
    ax = np.abs(x) + floor
    if kernel is simulate._COH:
        return abs(g.gains[0]) * ax, 2
    # score b adds tap d's gain, rotated at b for the rake and at the row's
    # true symbol for ideal-mf, times bin b - d
    return sum(abs(gain) * np.roll(ax, d, axis=1) for d, gain in zip(g.delays, g.gains)), \
        2 * g.n_paths

_LINEAR_KERNELS = (simulate._COH, simulate._RAKE, simulate._IDEAL_MF)


@st.composite
def _block_case(draw):
    """A random sf in 4..10, a channel of one tap or of echoes up to M/4 (so
    k_max = 0 too), a block of 0-3 pilot rows and 1-6 data symbols, and the
    symbol before it: None (the burst's first block) or any."""
    sf = draw(st.integers(4, 10), label="sf")
    m = 2**sf
    echoes = draw(st.lists(st.integers(1, m // 4), max_size=3, unique=True), label="echoes")
    parts = st.floats(-2.0, 2.0, allow_nan=False)
    gains = [complex(draw(parts), draw(parts)) for _ in range(len(echoes) + 1)]
    gains[0] += 3.0
    p = LoRaParams(sf)
    n_p = draw(st.integers(0, 3), label="n_p")
    data = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=6), label="data")
    prev = draw(st.one_of(st.none(), st.integers(0, m - 1)), label="prev")
    return p, MultipathChannel((0, *sorted(echoes)), tuple(gains)), n_p, data, prev


def _clean_floor(block, kernel) -> np.ndarray | float:
    """Per data row, what a bin of its noise-free spectra sums beyond its own
    magnitude in the rake's closed form: the DFT of the head delta. 0 for coh
    and ideal-mf, which score the spectra themselves."""
    if kernel in (simulate._COH, simulate._IDEAL_MF):
        return 0.0
    return np.abs(block.delta).sum(axis=1, keepdims=True)


def _case_block(case, normals=None, scales=(0.0,)) -> simulate._Block:
    """The data rows of case's block as _trial_setup yields them, its normals
    given or zero and its noise-free spectra made."""
    p, ch, n_p, data, prev = case
    symbols = channel.build_frame(p, n_p, data).symbols
    n = symbols.size
    cfg = SimConfig(sf=p.sf, channel=ch, ebn0_db=tuple(float(e) for e in range(len(scales))))
    ws = simulate._Workspace(p.m, n)
    delta = channel.head_deltas(p, ch, symbols, prev)
    w = ws.take("normals", n, np.complex128)
    w[:] = 0.0 if normals is None else normals
    g = dechirped_gain(p, ch)
    block = simulate._Block(p, ch, cfg, ws, 0, n_p, n_p, symbols[n_p:], delta[n_p:], w[n_p:],
                            list(scales), [None] * len(scales), [g] * len(scales),
                            simulate.mf_filter_bank(p, g, cols=g.k_max))
    block.make_clean()
    return block


@settings(max_examples=80, deadline=None)
@given(_block_case())
@example((LoRaParams(4), MultipathChannel((0,), (3.0 - 1.0j,)), 2, [15, 0, 3], None))
@example((LoRaParams(10), MultipathChannel((0, 1, 256), (3.0, 2.0j, -2.0)), 0, [1023, 5], 1023))
@example((LoRaParams(4), MultipathChannel((0, 1), (3 + 0.54296875j, 2.2250738585e-313j)), 0, [0],
          None))
def test_closed_forms_are_the_kernels_on_the_noise_free_spectra(case):
    # each kernel's clean scores against the kernel run on the block's
    # dechirped_spectra, within the bound the
    # split scores keep: (2n + 8) eps times the products' magnitudes, a bin's
    # magnitude counting the head terms the DFT summed into it, and n the
    # larger of the two sums' counts: a closed form adds 2 k_max head
    # products and at most K^2 line terms of 2 per score. A subnormal result
    # is rounded to a multiple of the smallest subnormal, not to eps of
    # itself, so each operation may also err by that much (the subnormal tap)
    block = _case_block(case)
    p, g = block.params, block.gains[0]
    closed_count = 2 * g.k_max + 2 * g.n_paths**2
    x = block.clean
    eps, tiny = np.finfo(float).eps, np.finfo(float).smallest_subnormal
    for kernel in _LINEAR_KERNELS:
        direct = np.empty(x.shape)
        kernel.score(block, 0, x, direct)
        closed = np.empty(x.shape)
        kernel.clean(block, closed)
        t, count = _abs_terms(kernel, p, g, x, _clean_floor(block, kernel))
        n = max(count, closed_count)
        assert np.all(np.abs(closed - direct) <= (2 * n + 8) * (eps * t + tiny))


@settings(max_examples=40, deadline=None)
@given(case=_block_case(), scale=st.one_of(st.just(0.0), st.floats(1e-3, 1e3)),
       seed=st.integers(0, 2**32 - 1))
@example(case=(LoRaParams(8), channel.C1, 2, [255, 0, 9], 17), scale=0.5, seed=1)
@example(case=(LoRaParams(8), MultipathChannel((0, 40), (3.0, 1.0j)), 0, [3, 200], None),
         scale=0.5, seed=1)
@example(case=(LoRaParams(5), MultipathChannel((0, 2, 3), (3 - 2j, 0j, 0j)), 0, [0], None),
         scale=0.0, seed=0)
def test_shared_scores_are_the_kernels_on_each_points_spectra(case, scale, seed):
    # a point's scores, scale * S(W) + S(C), against the kernel run on its
    # spectra scale * W + C, C being the block's
    # noise-free spectra and S(C) their clean scores. Rounding the spectra,
    # each kernel's sums (any order, with or without FMA), the closed
    # form and the combination keeps each within (2n + 8) eps times the
    # products' magnitudes, a bin of C counting the head terms its DFT summed:
    # the closed form adds those terms one by one where the kernel reads
    # their rounded sum. At scale 0 the point's scores are the closed form's
    # values, the sign of a zero aside: 0 * S(W) + (-0.0) is +0.0 where S(W)
    # is positive
    p, ch, n_p, data, _ = case
    m, n = p.m, n_p + len(data)
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    eps = np.finfo(float).eps
    for kernel in _LINEAR_KERNELS:
        block = _case_block(case, w, (0.0, scale))
        g, c = block.gains[0], block.clean.copy()
        s_c = np.empty((len(data), m))
        kernel.clean(block, s_c)
        block.share(kernel)
        at_zero, split = block.combined(0).copy(), block.combined(1).copy()
        ins = [scale * w[n_p:] + c, w[n_p:], c]
        direct = np.empty((len(data), m))
        kernel.score(block, 0, ins[0], direct)
        assert np.array_equal(at_zero, s_c)
        t_w, count = _abs_terms(kernel, p, g, ins[1])
        t_c, _ = _abs_terms(kernel, p, g, ins[2], _clean_floor(block, kernel))
        bound = (2 * count + 8) * eps * (scale * t_w + t_c)
        assert np.all(np.abs(split - direct) <= bound)


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
    # record the sf, delays and width of every filter bank a sweep builds
    calls = []
    build = simulate.mf_filter_bank

    def counting(params, g, cols=None):
        calls.append((params.sf, g.delays, cols))
        return build(params, g, cols=cols)

    monkeypatch.setattr(simulate, "mf_filter_bank", counting)
    return calls


def test_perfect_csir_builds_one_head_table_per_sweep(monkeypatch):
    # with shared gains a sweep builds the channel's (2 k_max, M) head table
    # once, whichever of rake, mf and their candidate forms read it, and its
    # trials share it, on trial threads too; no (2M, M) bank is built, and a
    # sweep with none of them, or with each point's own gains, builds nothing
    calls = _count_mf_bank_builds(monkeypatch)
    head = (7, channel.C2.delays, channel.C2.k_max)
    for dets in (("mf",), ("mf", "cand-mf"), ("rake", "cand-mf"), ("cand-rake",)):
        calls.clear()
        run_ser_sweep(_small(detectors=dets, n_trials=3, ebn0_db=(-2.0, 2.0)))
        assert calls == [head]
    calls.clear()
    cfg = _small(detectors=("mf", "rake"), n_trials=4, ebn0_db=(-2.0, 2.0), workers=2)
    assert run_ser_sweep(cfg) == run_ser_sweep(replace(cfg, workers=1))
    assert calls == [head] * 2
    calls.clear()
    run_ser_sweep(_small(detectors=("coh", "ideal-mf", "noncoh")))
    run_ser_sweep(_small(detectors=("mf", "cand-mf"), csir="estimated"))
    assert calls == []


@pytest.mark.parametrize("workers", [2, 4])
def test_trial_threads_share_one_wide_head_table(monkeypatch, workers):
    # each trial built its own head table, so T trial threads held T copies
    # of one read-only table, and the guard charged all of them: at sf 10 on
    # a tap 500 chips late a table is 7.8 MiB. The sweep builds one, its
    # trial threads (here up to twice the cores, switching often) give the
    # rows of one, and a machine that fits one table runs it
    calls = _count_mf_bank_builds(monkeypatch)
    monkeypatch.setattr(simulate, "_usable_cores", lambda: workers)
    cfg = _small(sf=10, channel="0:1,500:0.5", n_trials=4, n_d=16, workers=workers)
    assert simulate._trial_threads(cfg) == workers
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        rows = run_ser_sweep(cfg)
    finally:
        sys.setswitchinterval(interval)
    assert calls == [(10, (0, 500), 500)]
    assert rows == run_ser_sweep(replace(cfg, workers=1))
    monkeypatch.setattr(simulate, "_physical_memory", lambda: 12 * 2**20)
    cfg.resolve()


_POISON_DETECTORS = (("noncoh", "coh", "coh-awgn", "rake", "tdel"),
                     ("ideal-mf", "mf", "cand-mf", "rake"), ("rake",), ("coh-awgn", "rake"),
                     ("coh", "ideal-mf"))


@pytest.mark.parametrize("csir", _CSIRS)
def test_no_stage_reads_what_its_block_did_not_write(monkeypatch, csir):
    # every region a stage reads was written earlier in the same block and
    # point: workspaces whose bytes all start as 0x00 or as 0xFF (NaN
    # floats, set masks) give the rows of fresh ones, for every detector
    # set, part count and candidate grid. A fresh one may reuse a freed
    # one's memory, so only the two fills together catch a stale read.
    # 5 windows a block at sf 7, so a trial runs 4 data blocks, the first
    # of 2 rows, after a block of its 3 pilots where they are read
    def filled(byte):
        class Filled(simulate._Workspace):
            def __init__(self, *args):
                super().__init__(*args)
                self._buf.fill(byte)
        return mock.patch.object(simulate, "_Workspace", Filled)

    monkeypatch.setattr(channel, "BLOCK_BINS", 5 * 128 + 3)
    cfg = _small(channel="c1", ebn0_db=(-2.0, 3.0), n_p=3, n_d=17, **csir)
    sweeps = [lambda dets=dets: run_ser_sweep(replace(cfg, detectors=dets))
              for dets in _POISON_DETECTORS]
    sweeps += [lambda grid=grid: run_candidate_sweep(_cand(cfg), grid)
               for grid in ((0.05, 0.5), (0.02, 1.0))]
    for threads in (1, 2, 3):
        monkeypatch.setattr(simulate, "_threads", lambda p, c: threads)
        for sweep in sweeps:
            fresh = sweep()
            for byte in (0x00, 0xFF):
                with filled(byte):
                    assert sweep() == fresh


@pytest.mark.parametrize("patch", [
    pytest.param(dict(n_p=0, detectors=("noncoh", "coh", "coh-awgn", "ideal-mf", "mf", "cand-mf",
                                        "rake", "cand-rake"), n_c=9), id="no-pilots"),
    pytest.param(dict(n_d=3, n_p=1, detectors=simulate.DETECTOR_IDS, rho_c=0.4), id="one-block"),
    pytest.param(dict(csir="estimated", detectors=("coh-awgn", "tdel", "mf", "cand-rake"),
                      n_c=5, n_p=3), id="estimated"),
])
def test_block_size_does_not_change_results(monkeypatch, patch):
    # 5 windows per block at sf 7 (643 bins, not a multiple of M), so a
    # trial runs through many blocks unless it is shorter than one
    cfg = _small(channel="c1", ebn0_db=(-2.0, 2.0), **patch)
    whole = run_ser_sweep(cfg)
    monkeypatch.setattr(channel, "BLOCK_BINS", 5 * 128 + 3)
    assert run_ser_sweep(cfg) == whole


_SF12_CAND_EST = dict(sf=12, channel="c1", detectors=("noncoh", "rake", "cand-rake"),
                      csir="estimated", n_c=32)


def _trial_peak_bytes(n_d: int, cfg: dict = _SF12_CAND_EST, ebn0_db=(0.0,)) -> int:
    cfg = _small(**cfg, ebn0_db=ebn0_db, n_trials=1, n_d=n_d)
    tracemalloc.start()
    try:
        run_ser_sweep(cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_trial_memory_is_one_block_whatever_n_d():
    # whole-burst arrays made one sf 12 trial of 1000 symbols peak near 220 MB;
    # a trial now holds one block of windows at a time
    peak = _trial_peak_bytes(1000)
    assert peak < 48 * 2**20
    assert _trial_peak_bytes(4000) <= 1.1 * peak


def test_a_trial_draws_its_symbols_block_by_block():
    # a block is 65536 windows at sf 2, so a burst of 4e6 symbols runs 62
    # blocks; drawing the whole burst's symbols up front held 32 MB of them
    sf2 = dict(sf=2, channel="0:1,1:0.5", k_max=3)
    assert _trial_peak_bytes(4_000_000, sf2) <= 1.1 * _trial_peak_bytes(100_000, sf2)


@pytest.mark.parametrize("csir", [
    pytest.param(dict(csir="estimated"), id="estimated"),
    pytest.param(dict(csir="forced", forced_khat=(0, 2, 3)), id="forced"),
])
def test_an_mf_sweeps_memory_does_not_grow_with_the_axis(csir):
    # with each point's own gains a trial kept one (2M, M) mf bank per
    # point, 16 MiB at sf 10: 9 points peaked 128 MiB above 1. mf now
    # decides on the rake's scores of each point's spectra, and a point
    # adds only its counts
    cfg = dict(sf=10, channel="c1", detectors=("mf", "cand-mf"), n_c=32, **csir)
    one = _trial_peak_bytes(300, cfg)
    assert _trial_peak_bytes(300, cfg, tuple(float(e) for e in range(-4, 5))) <= 1.1 * one


def _traced_sweep(cfg: SimConfig, grid=None) -> tuple[int, int]:
    """(tracemalloc peak of one ser sweep, or candidate sweep over grid, and
    the bytes of the workspace that sweep made)."""
    made = set()

    class Recorded(simulate._Workspace):
        def __init__(self, *args):
            super().__init__(*args)
            made.add(self.nbytes)

    with mock.patch.object(simulate, "_Workspace", Recorded):
        tracemalloc.start()
        try:
            if grid is None:
                run_ser_sweep(cfg)
            else:
                run_candidate_sweep(_cand(cfg), grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    (ws_bytes,) = made
    return peak, ws_bytes


# at sf 7 a block holds 2048 windows: two blocks, the first one full
_FULL_BLOCKS = dict(sf=7, channel="c1", ebn0_db=(-2.0, 2.0), n_trials=1, n_d=2100, n_p=3)


@pytest.mark.parametrize("csir", ["perfect", "estimated"])
def test_ser_sweep_peaks_within_one_block_array_of_its_workspace(csir):
    # every block array is a view of the workspace; what else a sweep holds
    # (symbols, pilots, the head table, per-row results) stays below one
    # real block array
    peak, ws_bytes = _traced_sweep(_small(detectors=simulate.DETECTOR_IDS, csir=csir, n_c=9,
                                          **_FULL_BLOCKS))
    assert ws_bytes >= 2048 * 128 * 16 * 4
    assert peak - ws_bytes < channel.BLOCK_BINS * 8


def test_tdel_sweep_peaks_within_one_block_array_of_its_workspace():
    # without noncoh, tdel makes the magnitudes itself; it packs two of their
    # rows into each complex row of the work region and transforms them there
    peak, ws_bytes = _traced_sweep(_small(detectors=("tdel",), **_FULL_BLOCKS))
    assert peak - ws_bytes < channel.BLOCK_BINS * 8


def test_candidate_sweep_peaks_within_one_block_array_of_its_workspace():
    peak, ws_bytes = _traced_sweep(_small(**_FULL_BLOCKS), (0.05, 0.5, 1.0))
    assert peak - ws_bytes < channel.BLOCK_BINS * 8


def test_a_workspace_does_not_grow_with_the_axis():
    # with perfect CSIR a point decides on the rake's shared scores with its
    # masks before the next point runs, so a ser sweep, like a candidate
    # sweep, keeps one mask slot per rule, not one per point
    one = _small(n_trials=1, n_p=0, n_d=20, ebn0_db=(0.0,))
    many = replace(one, ebn0_db=tuple(float(e) for e in range(-8, 8)))
    cand = [_traced_sweep(cfg, (0.5,))[1] for cfg in (one, many)]
    assert cand[0] == cand[1]
    ser = [_traced_sweep(replace(cfg, detectors=("cand-rake",), n_c=5))[1] for cfg in (one, many)]
    assert ser[0] == ser[1]


@pytest.mark.parametrize("cfg, before", [
    # the benchmark's sf10-mf-perfect and sf12-cand-est detector sets, and the
    # tracemalloc peak of their sweeps when each block allocated its own arrays
    pytest.param(dict(sf=10, channel="c2", detectors=("ideal-mf", "mf", "cand-mf", "rake"),
                      rho_c=0.3, n_d=260), 28.7, id="sf10-mf"),
    pytest.param(dict(sf=12, channel="c1", detectors=("noncoh", "rake", "cand-rake"),
                      csir="estimated", n_p=6, n_c=32, n_d=70), 22.4, id="sf12-cand"),
])
def test_workspace_is_smaller_than_the_per_block_arrays_it_replaced(cfg, before):
    # two blocks of each (the first full); a first sweep fills the process's
    # table caches, which the per-block peaks did not count either
    cfg = _small(**cfg, ebn0_db=(-4.0, -2.0, 0.0), n_trials=1)
    run_ser_sweep(cfg)
    peak, ws_bytes = _traced_sweep(cfg)
    assert ws_bytes <= peak <= before * 2**20
    assert peak - ws_bytes < channel.BLOCK_BINS * 8


@pytest.mark.parametrize("cfg", [dict(detectors=("rake",)),
                                 dict(detectors=("noncoh",), csir="estimated", n_p=3)])
def test_a_workspace_holds_every_region_whatever_the_detectors(cfg):
    # one layout for every sweep: every region, whatever the detectors, and
    # each of the mask region's masks slots, tile one allocation
    cfg = _small(**cfg, ebn0_db=(-2.0, 0.0, 2.0), n_d=40)
    widest = {16: np.complex128, 8: np.float64, 1: bool}

    def layout(params, ch, c, ws, head, trial):
        spans = []
        for name, size in simulate._REGION_BYTES.items():
            for slot in range(3 if name == "mask" else 1):
                a = ws.take(name, ws.rows, widest[size], slot)
                a[...] = 0
                spans.append((a.ctypes.data, a.ctypes.data + a.nbytes))
        assert all(end == start for (_, end), (start, _) in zip(spans, spans[1:]))
        assert spans[-1][1] - spans[0][0] == ws.nbytes
        return 0

    simulate._map_points(layout, *cfg.resolve(), cfg, masks=3)


def test_a_sweep_leaves_no_workspace_behind(monkeypatch):
    # the sweep owns the workspaces it hands its trials and drops them all
    # when it returns, whatever threads ran the trials
    made = []

    class Recorded(simulate._Workspace):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(weakref.ref(self))

    monkeypatch.setattr(simulate, "_Workspace", Recorded)
    for workers in (1, 2):
        run_ser_sweep(_small(detectors=("rake", "cand-rake"), n_c=5, n_trials=3,
                             workers=workers))
        run_candidate_sweep(_cand(_small(n_trials=3, workers=workers)), (0.5,))
    assert len(made) >= 4
    assert [ref() for ref in made] == [None] * len(made)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_a_sweep_makes_at_most_one_workspace_per_trial_thread(monkeypatch, workers):
    # each of a sweep's T lanes makes one workspace and runs all of its
    # trials in it, so six trials on T trial threads make exactly T
    made = []

    class Recorded(simulate._Workspace):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self.nbytes)

    monkeypatch.setattr(simulate, "_Workspace", Recorded)
    monkeypatch.setattr(simulate, "_usable_cores", lambda: 4)
    cfg = _small(detectors=("rake", "cand-rake"), n_c=5, n_trials=6, n_d=40, workers=workers)
    run_ser_sweep(cfg)
    assert len(made) == simulate._trial_threads(cfg) == workers
    made.clear()
    run_candidate_sweep(_cand(replace(cfg, n_c=None)), (0.5,))
    assert len(made) == workers


@pytest.mark.parametrize("workers", [1, 2])
def test_no_workspace_outlives_a_sweep_whose_trial_raises(monkeypatch, workers):
    made = []

    class Recorded(simulate._Workspace):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(weakref.ref(self))

    def failing(*args, **kwargs):
        raise RuntimeError("kernel failed")

    monkeypatch.setattr(simulate, "_Workspace", Recorded)
    monkeypatch.setattr(simulate, "_rake_scores", failing)
    with pytest.raises(RuntimeError, match="kernel failed"):
        run_ser_sweep(_small(n_trials=3, workers=workers))
    assert made
    assert [ref() for ref in made] == [None] * len(made)


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
    with pytest.raises(ConfigError):
        run_complexity_report([7], 0, [4])
    with pytest.raises(ConfigError):
        run_complexity_report([7], 3, [0])
    with pytest.raises(ConfigError):
        run_complexity_report([7], 3, [129])
    with pytest.raises(ConfigError, match="^k:"):
        run_complexity_report([7], 129, [4])


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


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("csir", _CSIRS)
def test_candidate_sweep_rows_are_the_ser_sweeps_at_each_n_c(csir, workers):
    # one trial function decides every n_c of the grid at once, a mask slot
    # each: every row is the cand-rake row of a ser sweep at that n_c alone
    cfg = _small(channel="c1", ebn0_db=(-2.0, 0.0, 3.0), n_trials=3, n_d=300, workers=workers,
                 **csir)
    rows = run_candidate_sweep(_cand(cfg))
    nc_list = sorted({r.n_c for r in rows})
    assert len(nc_list) == 12
    for n_c in nc_list:
        ser = run_ser_sweep(replace(cfg, detectors=("cand-rake",), n_c=n_c))
        assert [(r.ebn0_db, r.errors, r.symbols, r.ser, r.ci95) for r in rows if r.n_c == n_c] == [
            (p.ebn0_db, p.errors, p.symbols, p.ser, p.ci95) for p in ser]


def test_candidate_sweep_pairs_with_full_search():
    cfg = _small(detectors=("rake",), n_trials=3, n_d=300)
    rows = run_candidate_sweep(_cand(cfg), (0.05, 0.25, 1.0))
    assert [r.n_c for r in rows] == [6, 32, 128]
    full = run_ser_sweep(cfg)
    assert rows[-1].errors == full[0].errors
    # a richer candidate set should not be meaningfully worse
    for a, b in zip(rows, rows[1:]):
        se = math.sqrt(max(a.ser * (1 - a.ser), 1.0 / a.symbols) / a.symbols)
        assert b.ser <= a.ser + 3.0 * se
    with pytest.raises(ConfigError, match="^nc_grid: "):
        run_candidate_sweep(_cand(cfg), (0.0, 0.5))
    with pytest.raises(ConfigError, match="^nc_grid: "):
        run_candidate_sweep(_cand(cfg), ())
