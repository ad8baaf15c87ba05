"""Monte Carlo drivers: configuration, determinism, pairing, and reports."""

from __future__ import annotations

import cmath
import math
import tracemalloc
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorarake import channel, simulate
from lorarake.channel import Frame, MultipathChannel
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
    # the bank is (2M, M) float64 per worker, 16 bytes per M^2: 16 GiB for mf
    # at sf 15, 1 GiB per worker at sf 13; resolve() allocates none of it
    monkeypatch.setattr(simulate, "_physical_memory", lambda: 8 * 2**30)
    for det, sf, workers in (("mf", 15, 1), ("cand-mf", 13, 9), ("mf", 16, 1)):
        with pytest.raises(ConfigError) as err:
            _small(sf=sf, detectors=("rake", det), workers=workers).resolve()
        assert err.value.field_name == "detectors"
        assert str(err.value).startswith(f"detectors: {det} at sf {sf} ")
    _small(sf=14, detectors=("mf",)).resolve()
    _small(sf=13, detectors=("cand-mf",), workers=8).resolve()
    _small(sf=16, detectors=("rake", "cand-rake", "ideal-mf")).resolve()
    # with estimated or forced gains a worker keeps one bank per Eb/N0 point
    eight = tuple(float(e) for e in range(8))
    for csir in (dict(csir="estimated"), dict(csir="forced", forced_khat=(0, 2))):
        with pytest.raises(ConfigError, match="^detectors: mf at sf 13 "):
            _small(sf=13, detectors=("mf",), ebn0_db=(*eight, 8.0), **csir).resolve()
        _small(sf=13, detectors=("mf",), ebn0_db=eight, **csir).resolve()
    _small(sf=13, detectors=("mf",), ebn0_db=(*eight, 8.0)).resolve()
    monkeypatch.setattr(simulate, "_physical_memory", lambda: None)
    _small(sf=15, detectors=("mf",)).resolve()


def test_cli_refuses_an_mf_bank_beyond_physical_memory(monkeypatch, capsys):
    from lorarake.cli import main

    def refuse(*args):
        raise AssertionError("built the bank the guard should refuse")

    monkeypatch.setattr(simulate, "_physical_memory", lambda: 8 * 2**30)
    # a broken guard then fails here instead of allocating 16 GiB
    monkeypatch.setattr(simulate, "_mf_bank", refuse)
    assert main(["ser", "--sf", "15", "--detectors", "mf", "--n-trials", "1", "--n-d", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: detectors: mf at sf 15 ")


def test_mf_bank_build_peaks_at_the_bank_plus_one_slab(monkeypatch):
    # the (2M, M) bank is 256 MiB at sf 12; building the complex M x M bank
    # and then its real copy peaked at 640 MiB
    monkeypatch.setattr(simulate, "_mf_bank_cache", {})
    p = LoRaParams(12)
    g = channel.dechirped_gain(p, channel.C1)
    tracemalloc.start()
    try:
        bank = simulate._mf_bank(p, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bank.nbytes == 2**28
    assert peak <= 2**28 + 32 * 2**20


def test_physical_memory_probe():
    phys = simulate._physical_memory()
    assert phys is None or phys > 2**20


def test_cand_sweep_scores_the_rake_candidates_whatever_the_detectors(monkeypatch):
    # with one byte of memory the guard refuses any mf bank; a candidate sweep
    # scores cand-rake alone, so it sizes no bank, and it refuses a detectors
    # field it would ignore rather than guard it
    monkeypatch.setattr(simulate, "_physical_memory", lambda: 1)
    with pytest.raises(ConfigError):
        _small(detectors=("mf",)).resolve()
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


def test_workers_do_not_change_results():
    cfg1 = _small(detectors=("rake", "tdel"), ebn0_db=(0.0, 2.0), n_trials=4)
    cfg2 = _small(detectors=("rake", "tdel"), ebn0_db=(0.0, 2.0), n_trials=4, workers=2)
    assert run_ser_sweep(cfg1) == run_ser_sweep(cfg2)
    assert (run_candidate_sweep(_cand(cfg1), (0.05, 1.0))
            == run_candidate_sweep(_cand(cfg2), (0.05, 1.0)))


def test_pool_starts_no_more_processes_than_trials(monkeypatch):
    # a fork pool starts all of its processes at the first task: 64 workers for
    # 2 trials would fork 62 idle ones; a sweep maps one task per trial
    pools = []

    class RecordingPool:  # runs the tasks in this process
        def __init__(self, max_workers):
            self.max_workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *columns, chunksize=1):
            pools.append((self.max_workers, len(columns[0])))
            return map(fn, *columns)

    monkeypatch.setattr(simulate, "ProcessPoolExecutor", RecordingPool)
    cfg = _small(detectors=("rake", "mf"), ebn0_db=(-2.0, 0.0, 2.0), n_trials=2, workers=64)
    assert run_ser_sweep(cfg) == run_ser_sweep(replace(cfg, workers=1))
    assert run_candidate_sweep(_cand(cfg), (0.05, 1.0)) == run_candidate_sweep(
        _cand(replace(cfg, workers=1)), (0.05, 1.0))
    run_ser_sweep(replace(cfg, n_trials=5, workers=3))
    run_ser_sweep(replace(cfg, n_trials=1))  # one trial runs in this process
    assert pools == [(2, 2), (2, 2), (3, 5)]


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


def test_every_point_scales_the_trials_standard_normals():
    # the trial's generator draws the data symbols, then the standard normals
    # of the first block (at sf 7 the whole burst); each point scales the
    # same normals to its variance and adds the same noise-free spectra. A
    # block's arrays live in the workspace until the next yield, so each kept
    # block keeps copies
    cfg = _small(detectors=("rake", "coh-awgn"), ebn0_db=(-3.0, 5.0), master_seed=4)
    params, ch = cfg.resolve()
    blocks = {cfg.ebn0_db[i]: replace(block, data_spec=block.data_spec.copy(),
                                      normals=block.normals.copy())
              for i, block in simulate._trial_setup(params, ch, cfg, 3)}
    assert len(blocks) == 2
    np.testing.assert_array_equal(blocks[-3.0].data, blocks[5.0].data)
    rng = np.random.default_rng([cfg.master_seed, 3])
    frame = channel.build_frame(params, cfg.n_p, rng.integers(0, params.m, size=cfg.n_d))
    z = rng.standard_normal((cfg.n_p + cfg.n_d, params.m, 2))[cfg.n_p:]
    clean = channel.dechirped_spectra(params, ch, frame.symbols)[cfg.n_p:]
    for e, block in blocks.items():
        var = params.m * noise_variance(snr_ebn0_convert(params, e, "ebn0_to_snr"))
        expect = (z * math.sqrt(var / 2.0)).view(np.complex128)[..., 0]
        noise = (block.normals * block.scale).view(np.complex128)
        assert noise.tobytes() == expect.tobytes()
        assert block.data_spec.tobytes() == (clean + noise).tobytes()


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
    monkeypatch.setattr(simulate, "_mf_bank_cache", {})
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
    # a bank kept from another trial's gains would make mf differ from rake;
    # each point of a trial has its own gains, and its bank serves all of its
    # blocks: at 5 windows per block a one-bank cache would rebuild it for
    # every block and point
    ebn0 = (-2.0, 0.0, 2.0)
    cfg = _small(channel="c1", detectors=("mf", "rake"), n_trials=3, ebn0_db=ebn0, **csir)
    calls = _count_mf_bank_builds(monkeypatch)
    for bins in (channel.BLOCK_BINS, 5 * 128 + 3):
        monkeypatch.setattr(channel, "BLOCK_BINS", bins)
        calls.clear()
        simulate._mf_bank_cache.clear()
        by = {(p.detector, p.ebn0_db): p.errors for p in run_ser_sweep(cfg)}
        for e in ebn0:
            assert by[("mf", e)] == by[("rake", e)]
        assert len(set(calls)) == len(calls) == cfg.n_trials * len(ebn0)


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


def _trial_peak_bytes(n_d: int) -> int:
    cfg = _small(sf=12, channel="c1", detectors=("noncoh", "rake", "cand-rake"),
                 csir="estimated", n_c=32, ebn0_db=(0.0,), n_trials=1, n_d=n_d)
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


def _traced_sweep(cfg: SimConfig, grid=None) -> tuple[int, int]:
    """(tracemalloc peak of one ser sweep, or candidate sweep over grid, bytes of its workspace)."""
    swept = cfg if grid is None else replace(cfg, detectors=("cand-rake",))
    params, _ = swept.resolve()
    ws_bytes = simulate._workspace(params, swept).nbytes
    simulate._workspace.cache_clear()
    tracemalloc.start()
    try:
        if grid is None:
            run_ser_sweep(cfg)
        else:
            run_candidate_sweep(_cand(cfg), grid)
        return tracemalloc.get_traced_memory()[1], ws_bytes
    finally:
        tracemalloc.stop()


# at sf 7 a block holds 2048 windows: two blocks, the first one full
_FULL_BLOCKS = dict(sf=7, channel="c1", ebn0_db=(-2.0, 2.0), n_trials=1, n_d=2100, n_p=3)


@pytest.mark.parametrize("csir", ["perfect", "estimated"])
def test_ser_sweep_peaks_within_one_block_array_of_its_workspace(monkeypatch, csir):
    # every block array is a view of the workspace; what else a sweep holds
    # (symbols, pilots, the sf 7 mf banks, per-row results) stays below one
    # real block array
    monkeypatch.setattr(simulate, "_mf_bank_cache", {})
    peak, ws_bytes = _traced_sweep(_small(detectors=simulate.DETECTOR_IDS, csir=csir, n_c=9,
                                          **_FULL_BLOCKS))
    assert ws_bytes >= 2048 * 128 * 16 * 4
    assert peak - ws_bytes < channel.BLOCK_BINS * 8


def test_candidate_sweep_peaks_within_one_block_array_of_its_workspace():
    peak, ws_bytes = _traced_sweep(_small(**_FULL_BLOCKS), (0.05, 0.5, 1.0))
    assert peak - ws_bytes < channel.BLOCK_BINS * 8


@pytest.mark.parametrize("cfg, before", [
    # the benchmark's sf10-mf-perfect and sf12-cand-est detector sets, and the
    # tracemalloc peak of their sweeps when each block allocated its own arrays
    pytest.param(dict(sf=10, channel="c2", detectors=("ideal-mf", "mf", "cand-mf", "rake"),
                      rho_c=0.3, n_d=260), 28.7, id="sf10-mf"),
    pytest.param(dict(sf=12, channel="c1", detectors=("noncoh", "rake", "cand-rake"),
                      csir="estimated", n_p=6, n_c=32, n_d=70), 22.4, id="sf12-cand"),
])
def test_workspace_is_smaller_than_the_per_block_arrays_it_replaced(cfg, before):
    # two blocks of each (the first full); a first sweep builds the kept sf 10
    # bank, which the per-block peaks did not count either
    cfg = _small(**cfg, ebn0_db=(-4.0, -2.0, 0.0), n_trials=1)
    run_ser_sweep(cfg)
    peak, ws_bytes = _traced_sweep(cfg)
    assert ws_bytes <= peak <= before * 2**20
    assert peak - ws_bytes < channel.BLOCK_BINS * 8


def test_a_sweep_leaves_no_workspace_behind():
    run_ser_sweep(_small(detectors=("rake", "cand-rake"), n_c=5))
    run_candidate_sweep(_cand(_small()), (0.5,))
    assert simulate._workspace.cache_info().currsize == 0


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
