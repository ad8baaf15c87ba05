"""Fast statistic-domain simulator: noise-free statistics, covariance, sampling.

The dense forms are built here, for checks only: the steady-state
statistic rows are rake_combine over the spectral-line rows of
channel.add_lines, and the statistic-noise covariance at unit noise
variance is the Gram matrix of the complex matched-filter bank that
mf_filter_bank interleaves.
"""

from __future__ import annotations

import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lorarake import channel, detectors, fastsim
from lorarake.channel import (
    C1,
    C2,
    MultipathChannel,
    add_lines,
    apply_channel,
    build_frame,
    complex_noise,
    dechirped_gain,
    head_deltas,
    parse_channel,
)
from lorarake.detectors import mf_filter_bank, mf_statistic, rake_combine
from lorarake.fastsim import (
    build_fast_sim,
    edge_statistics,
    sample_correlated_noise,
    simulate_ser,
)
from lorarake.simulate import SimConfig, _trial_rng, run_ser_sweep
from lorarake.waveform import LoRaParams, chirp_samples, dechirp, snr_ebn0_convert
from test_acceptance import _sample_chain_errors


def _steady_rows(p, g, sent):
    """Steady-state statistic rows of the sent symbols: rake over their line rows."""
    sent = np.asarray(sent).reshape(-1)
    lines = np.zeros((sent.size, p.m), dtype=complex)
    add_lines(p, g, sent, lines)
    return rake_combine(p, lines, g)


def _z_matrix(p, g):
    """z[a, b]: steady-state statistic for tested bin b when a was sent."""
    return _steady_rows(p, g, np.arange(p.m))


def _cov(p, g):
    """Statistic-noise covariance at unit per-sample noise variance."""
    real = mf_filter_bank(p, g)
    # the complex bank it interleaves: row b, column k
    bank = (real[0::2] - 1j * real[1::2]).T
    return bank @ bank.conj().T


def _cyclic_window(params, ch, a):
    k = np.arange(params.m)
    out = np.zeros(params.m, dtype=complex)
    for d, g in zip(ch.delays, ch.gains):
        out += g * chirp_samples(params, a, k - d)
    return out


def test_z_matrix_matches_statistics_on_cyclic_windows():
    p = LoRaParams(7)
    g = dechirped_gain(p, C1)
    z = _z_matrix(p, g)
    tol = 1e-9 * p.m * g.energy()
    for a in (0, 1, 37, 127):
        rd = dechirp(p, _cyclic_window(p, C1, a))
        ref = np.array([mf_statistic(p, rd, g, b) for b in range(p.m)])
        np.testing.assert_allclose(z[a], ref, atol=tol)


def test_covariance_equals_z_transpose():
    # two independent constructions of the same object: the Gram matrix of
    # the filter bank and the rake of the spectral-line rows
    p = LoRaParams(7)
    for ch in (C1, parse_channel("0:1,5:0.8")):
        g = dechirped_gain(p, ch)
        np.testing.assert_allclose(
            _cov(p, g), _z_matrix(p, g).T, atol=1e-9 * p.m * g.energy()
        )


def test_covariance_diagonal_and_psd():
    p = LoRaParams(7)
    g = dechirped_gain(p, C1)
    cov = _cov(p, g)
    np.testing.assert_allclose(
        np.diag(cov).real, p.m * g.energy(), atol=1e-9 * p.m
    )
    np.testing.assert_allclose(cov, cov.conj().T, atol=1e-9 * p.m)
    eigs = np.linalg.eigvalsh(cov)
    assert eigs.min() > -1e-8 * p.m * g.energy()
    # far-apart bins decorrelate completely
    assert abs(cov[0, p.m // 2]) < 1e-9 * p.m


def test_tap_span_limit():
    # any span below M builds, as in a sweep; a tap at delay M or beyond cannot
    p = LoRaParams(5)
    widest = dechirped_gain(p, MultipathChannel.from_taps([(0, 1.0), (p.m - 1, 0.5)]))
    assert build_fast_sim(p, widest).head.shape == (2 * (p.m - 1), p.m)
    for d in (p.m, p.m + 3):
        beyond = dechirped_gain(p, MultipathChannel.from_taps([(0, 1.0), (d, 0.5)]))
        with pytest.raises(ValueError):
            build_fast_sim(p, beyond)


def test_empirical_covariance_matches_model():
    # small alphabet so the sample covariance converges quickly
    p = LoRaParams(5)
    g = dechirped_gain(p, parse_channel("0:1,2:0.8"))
    model = build_fast_sim(p, g)
    sigma2 = 0.7
    rng = np.random.default_rng(50)
    n = 200_000
    w = sample_correlated_noise(model, sigma2, rng, size=n)
    emp = (w.T @ w.conj()) / n  # emp[i, j] estimates E[w_i conj(w_j)]
    scale = p.m * g.energy() * sigma2
    assert np.max(np.abs(emp - sigma2 * _cov(p, g))) < 0.02 * scale


def test_candidate_restriction_preserves_marginals():
    p = LoRaParams(5)
    g = dechirped_gain(p, parse_channel("0:1,2:0.8"))
    model = build_fast_sim(p, g)
    rng = np.random.default_rng(51)
    w = sample_correlated_noise(model, 1.0, rng, size=100_000)[:, [3, 5]]
    assert w.shape == (100_000, 2)
    var = np.mean(np.abs(w) ** 2, axis=0)
    np.testing.assert_allclose(var, np.diag(_cov(p, g)).real[[3, 5]], rtol=0.03)


def test_sampling_is_reproducible():
    p = LoRaParams(6)
    model = build_fast_sim(p, dechirped_gain(p, C1))
    a = sample_correlated_noise(model, 0.5, np.random.default_rng(7), size=4)
    b = sample_correlated_noise(model, 0.5, np.random.default_rng(7), size=4)
    np.testing.assert_array_equal(a, b)
    single = sample_correlated_noise(model, 0.5, np.random.default_rng(7))
    assert single.shape == (p.m,)
    row = sample_correlated_noise(model, 0.5, np.random.default_rng(7), size=1)
    np.testing.assert_allclose(single, row[0], atol=1e-12)


def test_edge_statistics_match_exact_two_symbol_frames():
    # steady-state rows plus the head correction must reproduce the exact
    # statistics of a window whose predecessor carried a different symbol
    p = LoRaParams(7)
    g = dechirped_gain(p, C1)
    model = build_fast_sim(p, g)
    tol = 1e-9 * p.m * g.energy()
    rng = np.random.default_rng(60)
    for _ in range(6):
        prev, sent = (int(v) for v in rng.integers(0, p.m, size=2))
        frame = build_frame(p, 0, [prev, sent])
        window = apply_channel(p, frame, C1).reshape(2, p.m)[1]
        rd = dechirp(p, window)
        ref = np.array([mf_statistic(p, rd, g, b) for b in range(p.m)])
        # the head term is a score correction: real parts only
        fast = _steady_rows(p, g, sent)[0].real + edge_statistics(model, [prev], [sent])[0]
        np.testing.assert_allclose(fast, ref.real, atol=tol)
    # equal neighbors need no correction at all
    same = edge_statistics(model, [5], [5])
    np.testing.assert_allclose(same, 0.0, atol=1e-12)


def test_edge_statistics_single_tap_is_zero():
    p = LoRaParams(6)
    model = build_fast_sim(p, dechirped_gain(p, MultipathChannel((0,), (1.0,))))
    out = edge_statistics(model, [1, 2], [3, 4])
    assert out.shape == (2, p.m)
    np.testing.assert_array_equal(out, 0.0)
    with pytest.raises(ValueError):
        edge_statistics(model, [1], [2, 3])


def test_edge_statistics_are_the_closed_forms_head_term():
    # a sweep's closed-form scores take a chain's head deltas through the same
    # bank, each score summed on its own; edge_statistics, the reference, is
    # the 2-D product over the chain. The two deltas come from the channel's
    # and the model's raw gains, so they agree to rounding too
    p = LoRaParams(8)
    g = dechirped_gain(p, C1)
    model = build_fast_sim(p, g)
    sent = np.random.default_rng(61).integers(0, p.m, size=40)
    ref = edge_statistics(model, np.concatenate([[7], sent[:-1]]), sent)
    delta = head_deltas(p, C1, sent, 7)
    closed = detectors._head_scores(delta, model.head, None)
    terms = np.abs(delta.view(np.float64)) @ np.abs(model.head)
    assert np.all(np.abs(closed - ref) <= 64 * np.finfo(float).eps * terms.max())


def _one_trial(sf, channel, ebn0_db, n_d, master_seed):
    """The sweep simulate_ser runs: one rake trial under perfect CSIR, after one pilot."""
    return SimConfig(sf=sf, channel=channel, detectors=("rake",), ebn0_db=(ebn0_db,), n_trials=1,
                     n_d=n_d, n_p=1, k_max=1, csir="perfect", master_seed=master_seed)


def test_noise_free_errors_are_the_exact_pipelines(monkeypatch):
    # strong late echoes at sf 4-5, at an Eb/N0 where no noise decides a
    # symbol: only the previous-symbol heads cause errors, so the count pins
    # that the sweep simulate_ser runs applies them along its symbol chain,
    # from the value-0 pilot and across its blocks (7 windows at sf 4, 3 at
    # sf 5); the last two channels span M/2 and more, up to M - 1
    monkeypatch.setattr(channel, "BLOCK_BINS", 7 * 16 + 3)
    for sf, taps in ((4, "0:0.4,6:0.9j,7:1.2"), (4, "0:0.4,9:0.9j,15:1.2"),
                     (5, "0:0.5,16:1.1,29:0.9j")):
        _check_noise_free_chain(LoRaParams(sf), parse_channel(taps))


def _check_noise_free_chain(p, ch):
    g = dechirped_gain(p, ch)
    ebn0 = 80.0

    def exact_errors(frame_symbols):
        frame = build_frame(p, 0, frame_symbols)
        rd = dechirp(p, apply_channel(p, frame, ch).reshape(-1, p.m)[1:])
        stats = [[mf_statistic(p, r, g, b).real for b in range(p.m)] for r in rd]
        return np.argmax(stats, axis=1) != frame_symbols[1:]

    cfg = _one_trial(p.sf, ch, ebn0, 400, 4)
    sent = _trial_rng(cfg.master_seed, 0).integers(0, p.m, size=cfg.n_d)
    errors = run_ser_sweep(cfg)[0].errors
    assert errors > 50
    assert errors == _sample_chain_errors(cfg, ebn0)
    assert errors == int(np.sum(exact_errors([0, *sent])))
    assert np.all(np.argmax(_steady_rows(p, g, sent).real, axis=1) == sent)
    # one data symbol after the pilot, trial by trial, until every value has been sent
    first = [int(exact_errors([0, a])[0]) for a in range(p.m)]
    seen = set()
    for seed in range(8 * p.m):
        one = replace(cfg, n_d=1, master_seed=seed)
        a = int(_trial_rng(seed, 0).integers(0, p.m, size=1)[0])
        seen.add(a)
        errors = run_ser_sweep(one)[0].errors
        assert errors == first[a] == _sample_chain_errors(one, ebn0)
    assert seen == set(range(p.m))


@pytest.mark.parametrize("sf, taps", [(6, "0:1,3:0.6j,9:0.4"), (2, "0:1,3:0.5")])
def test_simulate_ser_is_one_sweep_trial(sf, taps):
    # the documented config, its seed drawn from an identically seeded Generator;
    # batch is accepted and changes nothing. k_max=1 fits sf 2, where the
    # config's default (10) would not
    p = LoRaParams(sf)
    model = build_fast_sim(p, dechirped_gain(p, parse_channel(taps)))
    sigma2 = 8.0
    ebn0 = snr_ebn0_convert(p, -10.0 * math.log10(sigma2), "snr_to_ebn0")
    seed = int(np.random.default_rng(12).integers(2**63))
    ch = MultipathChannel(model.gains.delays, tuple(model.raw))
    want = run_ser_sweep(_one_trial(p.sf, ch, ebn0, 3000, seed))[0].errors
    assert 0 < want < 3000
    for batch in ((), (1,), (7,), (4096,)):
        assert simulate_ser(model, sigma2, 3000, np.random.default_rng(12), *batch) == want


@pytest.mark.parametrize("sigma2", [0.0, -0.0, -0.5, math.nan, math.inf, -math.inf])
def test_simulate_ser_rejects_a_bad_noise_variance_before_any_work(sigma2):
    # a sweep has no noise-free point; the Generator is left untouched
    p = LoRaParams(5)
    model = build_fast_sim(p, dechirped_gain(p, C1))
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    with mock.patch.object(fastsim, "run_ser_sweep") as sweep:
        with pytest.raises(ValueError, match="sigma2"):
            simulate_ser(model, sigma2, 10, rng)
    sweep.assert_not_called()
    assert rng.bit_generator.state == state


def test_simulate_ser_symbol_count():
    p = LoRaParams(5)
    model = build_fast_sim(p, dechirped_gain(p, C1))
    with pytest.raises(ValueError, match="n_symbols"):
        simulate_ser(model, 0.5, -1, np.random.default_rng(3))
    assert simulate_ser(model, 0.5, 0, np.random.default_rng(3)) == 0


def test_simulate_ser_noise_free_limit():
    p = LoRaParams(7)
    model = build_fast_sim(p, dechirped_gain(p, C1))
    errors = simulate_ser(model, 1e-12, 4000, np.random.default_rng(8))
    assert errors == 0


def test_simulate_ser_degrades_with_noise():
    from lorarake.waveform import noise_variance, snr_ebn0_convert

    p = LoRaParams(7)
    model = build_fast_sim(p, dechirped_gain(p, C1))
    sigma2 = {
        e: noise_variance(snr_ebn0_convert(p, e, "ebn0_to_snr")) for e in (4.0, -4.0)
    }
    lo = simulate_ser(model, sigma2[4.0], 20_000, np.random.default_rng(9))
    hi = simulate_ser(model, sigma2[-4.0], 20_000, np.random.default_rng(9))
    assert lo < hi
    assert hi > 1000  # deep-noise regime errs on a large fraction of symbols


def test_noise_is_the_rake_combiner_of_white_spectral_noise():
    # the same draws through the detectors' rake combiner, bit for bit
    p = LoRaParams(6)
    g = dechirped_gain(p, C1)
    model = build_fast_sim(p, g)
    w = sample_correlated_noise(model, 0.3, np.random.default_rng(5), size=8)
    white = complex_noise((8, p.m), p.m * 0.3, np.random.default_rng(5))
    assert w.tobytes() == rake_combine(p, white, g).tobytes()


def test_model_memory_is_linear_in_m():
    # at sf 12 one M x M complex array alone would be 256 MB
    p = LoRaParams(12)
    model = build_fast_sim(p, dechirped_gain(p, C2))
    arrays = [v for v in vars(model).values() if isinstance(v, np.ndarray)]
    assert sum(a.nbytes for a in arrays) < 2**20
    assert all(a.ndim < 2 or min(a.shape) < p.m for a in arrays)


def test_simulate_ser_blocks_are_capped_in_bytes():
    # at sf 11 one 4096-row block would hold 128 MiB per (block, M) complex
    # array; the sweep's cap (channel.BLOCK_BINS) keeps each at 4 MiB
    p = LoRaParams(11)
    model = build_fast_sim(p, dechirped_gain(p, C2))
    tracemalloc.start()
    try:
        simulate_ser(model, 0.1, 4096, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**27


@st.composite
def _edge_case(draw):
    """A random sf in 4..8, a 1-4 tap channel with k_max < M, and a (prev, sent) pair."""
    sf = draw(st.integers(4, 8))
    m = 2**sf
    echoes = draw(st.lists(st.integers(1, m - 1), max_size=3, unique=True))
    delays = (0, *sorted(echoes))
    parts = st.floats(-2.0, 2.0, allow_nan=False)
    gains = [complex(draw(parts), draw(parts)) for _ in delays]
    gains[0] += 3.0  # keep the first path alive
    symbols = st.integers(0, m - 1)
    return LoRaParams(sf), MultipathChannel(delays, tuple(gains)), draw(symbols), draw(symbols)


@settings(max_examples=40, deadline=None)
@given(_edge_case())
@example((LoRaParams(4), MultipathChannel((0, 7), (3.0, -2.0j)), 15, 0))
@example((LoRaParams(6), MultipathChannel((0,), (3.0,)), 2, 9))
@example((LoRaParams(5), MultipathChannel((0, 31), (3.0, 1.5 - 0.5j)), 7, 20))
def test_steady_rows_plus_edge_term_are_the_exact_statistics(case):
    # steady-state row plus the head term against mf_statistic on a real
    # two-symbol frame, over random channels and symbol pairs
    p, ch, prev, sent = case
    g = dechirped_gain(p, ch)
    model = build_fast_sim(p, g)
    frame = build_frame(p, 0, [prev, sent])
    rd = dechirp(p, apply_channel(p, frame, ch).reshape(2, p.m)[1])
    ref = np.array([mf_statistic(p, rd, g, b) for b in range(p.m)])
    fast = _steady_rows(p, g, sent)[0].real + edge_statistics(model, [prev], [sent])[0]
    np.testing.assert_allclose(fast, ref.real, atol=1e-9 * p.m * g.energy())
