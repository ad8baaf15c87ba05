"""Closed-form statistic model: noise-free matrix, covariance, sampling."""

from __future__ import annotations

import numpy as np
import pytest

from lorarake.channel import (
    C1,
    MultipathChannel,
    apply_channel,
    build_frame,
    dechirped_gain,
    parse_channel,
)
from lorarake.detectors import mf_statistic
from lorarake.fastsim import (
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
    w = sample_correlated_noise(model, 1.0, rng, candidates=np.array([3, 5]), size=100_000)
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


def test_steady_state_model_underestimates_errors():
    # the residual bias of the pure steady-state sampler is visible and
    # one-sided: ignoring the previous-symbol heads removes interference
    from lorarake.waveform import noise_variance, snr_ebn0_convert

    p = LoRaParams(7)
    model = build_fast_sim(p, dechirped_gain(p, C1))
    sigma2 = noise_variance(snr_ebn0_convert(p, -2.0, "ebn0_to_snr"))
    n = 60_000
    with_edges = simulate_ser(model, sigma2, n, np.random.default_rng(61))
    without = simulate_ser(model, sigma2, n, np.random.default_rng(61),
                           edge_correction=False)
    assert without < with_edges


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
