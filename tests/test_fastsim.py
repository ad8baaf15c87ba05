"""Closed-form statistic model: noise-free matrix, covariance, sampling."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lorarake.channel import (
    C1,
    C2,
    MultipathChannel,
    apply_channel,
    build_frame,
    complex_noise,
    dechirped_gain,
    parse_channel,
)
from lorarake.detectors import mf_statistic, rake_combine
from lorarake.fastsim import (
    FastSimModel,
    build_fast_sim,
    edge_statistics,
    sample_correlated_noise,
    simulate_ser,
)
from lorarake.waveform import LoRaParams, chirp_samples, dechirp


def _cyclic_window(params, ch, a):
    k = np.arange(params.m)
    out = np.zeros(params.m, dtype=complex)
    for d, g in zip(ch.delays, ch.gains):
        out += g * chirp_samples(params, a, k - d)
    return out


def test_z_matrix_matches_statistics_on_cyclic_windows():
    p = LoRaParams(7)
    g = dechirped_gain(p, C1)
    model = build_fast_sim(p, g)
    tol = 1e-9 * p.m * g.energy()
    for a in (0, 1, 37, 127):
        rd = dechirp(p, _cyclic_window(p, C1, a))
        ref = np.array([mf_statistic(p, rd, g, b) for b in range(p.m)])
        np.testing.assert_allclose(model.z_matrix[a], ref, atol=tol)


def test_covariance_equals_z_transpose():
    # two independent constructions of the same object: the Gram matrix of
    # the filter bank and the per-lag statistic build
    p = LoRaParams(7)
    for ch in (C1, parse_channel("0:1,5:0.8")):
        g = dechirped_gain(p, ch)
        model = build_fast_sim(p, g)
        np.testing.assert_allclose(
            model.cov, model.z_matrix.T, atol=1e-9 * p.m * g.energy()
        )


def test_covariance_diagonal_and_psd():
    p = LoRaParams(7)
    g = dechirped_gain(p, C1)
    model = build_fast_sim(p, g)
    np.testing.assert_allclose(
        np.diag(model.cov).real, p.m * g.energy(), atol=1e-9 * p.m
    )
    np.testing.assert_allclose(model.cov, model.cov.conj().T, atol=1e-9 * p.m)
    eigs = np.linalg.eigvalsh(model.cov)
    assert eigs.min() > -1e-8 * p.m * g.energy()
    # far-apart bins decorrelate completely
    assert abs(model.cov[0, p.m // 2]) < 1e-9 * p.m


def test_tap_span_limit():
    p = LoRaParams(5)
    wide = dechirped_gain(p, MultipathChannel.from_taps([(0, 1.0), (p.m // 2, 0.5)]))
    with pytest.raises(ValueError):
        build_fast_sim(p, wide)


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
    assert np.max(np.abs(emp - sigma2 * model.cov)) < 0.02 * scale


def test_candidate_restriction_preserves_marginals():
    p = LoRaParams(5)
    g = dechirped_gain(p, parse_channel("0:1,2:0.8"))
    model = build_fast_sim(p, g)
    rng = np.random.default_rng(51)
    w = sample_correlated_noise(model, 1.0, rng, size=100_000)[:, [3, 5]]
    assert w.shape == (100_000, 2)
    var = np.mean(np.abs(w) ** 2, axis=0)
    np.testing.assert_allclose(var, np.diag(model.cov).real[[3, 5]], rtol=0.03)


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
        fast = model.z_matrix[sent] + edge_statistics(model, [prev], [sent])[0]
        np.testing.assert_allclose(fast, ref, atol=tol)
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


class _ChainRng:
    """Stands in for a Generator: hands out a fixed symbol chain block by
    block and all-zero normals, so the statistics are noise-free."""

    def __init__(self, chain):
        self.chain = np.asarray(chain)

    def integers(self, low, high, size):
        out, self.chain = self.chain[:size], self.chain[size:]
        return out

    def standard_normal(self, shape):
        return np.zeros(shape)


def test_noise_free_errors_are_the_exact_pipelines():
    # strong late echoes at sf 4: only the previous-symbol heads cause errors,
    # so the count pins that simulate_ser applies them along its symbol chain,
    # from a value-0 predecessor and across its blocks
    p = LoRaParams(4)
    ch = parse_channel("0:0.4,6:0.9j,7:1.2")
    g = dechirped_gain(p, ch)
    model = build_fast_sim(p, g)
    n = 400
    sent = np.random.default_rng(4).integers(0, p.m, n)

    def exact_errors(frame_symbols):
        frame = build_frame(p, 0, frame_symbols)
        rd = dechirp(p, apply_channel(p, frame, ch).reshape(-1, p.m)[1:])
        stats = [[mf_statistic(p, r, g, b).real for b in range(p.m)] for r in rd]
        return np.argmax(stats, axis=1) != frame_symbols[1:]

    errors = int(np.sum(exact_errors([0, *sent])))
    assert errors > 50
    assert np.all(np.argmax(model.z_matrix[sent].real, axis=1) == sent)
    for batch in (n, 7):
        assert simulate_ser(model, 0.0, n, _ChainRng(sent), batch=batch) == errors
    for a in range(p.m):
        first = int(exact_errors([0, a])[0])
        assert simulate_ser(model, 0.0, 1, _ChainRng([a])) == first


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


def test_simulate_ser_never_builds_the_dense_forms(monkeypatch):
    def refuse(self):
        raise AssertionError("simulate_ser built an M x M array")

    monkeypatch.setattr(FastSimModel, "z_matrix", property(refuse))
    monkeypatch.setattr(FastSimModel, "cov", property(refuse))
    p = LoRaParams(7)
    model = build_fast_sim(p, dechirped_gain(p, C1))
    assert simulate_ser(model, 1e-12, 500, np.random.default_rng(3)) == 0


def test_model_memory_is_linear_in_m():
    # at sf 12 one M x M complex array alone would be 256 MB
    p = LoRaParams(12)
    model = build_fast_sim(p, dechirped_gain(p, C2))
    arrays = [v for v in vars(model).values() if isinstance(v, np.ndarray)]
    assert sum(a.nbytes for a in arrays) < 2**20
    assert all(a.ndim < 2 or a.shape[1] < p.m for a in arrays)


def test_simulate_ser_blocks_are_capped_in_bytes():
    # at sf 11 one 4096-row block would hold 128 MiB per (block, M) complex
    # array; the cap keeps each at 16 MiB whatever batch allows
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
    """A random sf in 4..8, a 1-4 tap channel with k_max < M/2, and a (prev, sent) pair."""
    sf = draw(st.integers(4, 8))
    m = 2**sf
    echoes = draw(st.lists(st.integers(1, m // 2 - 1), max_size=3, unique=True))
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
def test_steady_rows_plus_edge_term_are_the_exact_statistics(case):
    # z_matrix row plus the head term against mf_statistic on a real
    # two-symbol frame, over random channels and symbol pairs
    p, ch, prev, sent = case
    g = dechirped_gain(p, ch)
    model = build_fast_sim(p, g)
    frame = build_frame(p, 0, [prev, sent])
    rd = dechirp(p, apply_channel(p, frame, ch).reshape(2, p.m)[1])
    ref = np.array([mf_statistic(p, rd, g, b) for b in range(p.m)])
    fast = model.z_matrix[sent] + edge_statistics(model, [prev], [sent])[0]
    np.testing.assert_allclose(fast, ref, atol=1e-9 * p.m * g.energy())
