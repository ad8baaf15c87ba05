"""Chirp construction, dechirping, the DFT, and SNR bookkeeping."""

from __future__ import annotations

import math

import numpy as np
import pytest

from lorarake.waveform import (
    LoRaParams,
    chirp_samples,
    dechirp,
    dft,
    gen_chirp,
    idft,
    instantaneous_frequency,
    noise_variance,
    snr_ebn0_convert,
)


def test_params_validation():
    assert LoRaParams(7).m == 128
    assert LoRaParams(12).m == 4096
    for bad in (1, 0, -3, 17, 7.5):
        with pytest.raises(ValueError):
            LoRaParams(bad)


def test_chirp_unit_modulus_and_periodicity():
    p = LoRaParams(7)
    k = np.arange(p.m)
    for a in (0, 1, 57, 127):
        x = gen_chirp(p, a)
        np.testing.assert_allclose(np.abs(x), 1.0, atol=1e-12)
        np.testing.assert_allclose(chirp_samples(p, a, k + p.m), x, atol=1e-9)
        np.testing.assert_allclose(chirp_samples(p, a, k - p.m), x, atol=1e-9)


def test_chirp_symbol_is_phase_ramp_of_base():
    # x_a[k] = x_0[k] * exp(2j*pi*a*k/M)
    p = LoRaParams(6)
    k = np.arange(p.m)
    base = gen_chirp(p, 0)
    for a in (1, 7, 40):
        expect = base * np.exp(2j * np.pi * a * k / p.m)
        np.testing.assert_allclose(gen_chirp(p, a), expect, atol=1e-10)


def test_gen_chirp_rejects_bad_symbol():
    p = LoRaParams(5)
    for a in (-1, p.m):
        with pytest.raises(ValueError):
            gen_chirp(p, a)


def test_chirp_orthogonality_brute_force():
    p = LoRaParams(7)
    rows = np.stack([gen_chirp(p, a) for a in range(p.m)])
    gram = rows @ rows.conj().T
    np.testing.assert_allclose(gram, p.m * np.eye(p.m), atol=1e-8)


def test_instantaneous_frequency_ramp():
    p = LoRaParams(3)
    f = instantaneous_frequency(p, 0)
    assert f[0] == pytest.approx(-0.4375, abs=1e-15)
    np.testing.assert_allclose(np.diff(f), 1.0 / p.m, atol=1e-15)
    # unwrapped ramp leaves the Nyquist band once a > 0; wrapping folds it back
    raw = instantaneous_frequency(p, 5)
    assert raw[-1] >= 0.5
    wrapped = instantaneous_frequency(p, 5, wrap=True)
    assert np.all(wrapped >= -0.5) and np.all(wrapped < 0.5)
    np.testing.assert_allclose(np.sort(wrapped), np.sort(f), atol=1e-12)


def test_dechirp_clean_symbol_peaks_at_m():
    p = LoRaParams(7)
    for a in (0, 31, 127):
        spec = dft(dechirp(p, gen_chirp(p, a)))
        assert int(np.argmax(np.abs(spec))) == a
        assert spec[a] == pytest.approx(p.m, abs=1e-9)
        assert np.max(np.abs(np.delete(spec, a))) < 1e-9


def test_dechirp_shape_checks_and_batch():
    p = LoRaParams(5)
    with pytest.raises(ValueError):
        dechirp(p, np.zeros(p.m - 1, dtype=complex))
    rows = np.stack([gen_chirp(p, 3), gen_chirp(p, 9)])
    out = dechirp(p, rows)
    assert out.shape == rows.shape
    np.testing.assert_allclose(out[0], dechirp(p, rows[0]), atol=1e-12)


def test_dft_matches_direct_sum():
    m = 16
    rng = np.random.default_rng(7)
    x = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    n = np.arange(m)
    ref = np.array([np.sum(x * np.exp(-2j * np.pi * n * b / m)) for b in range(m)])
    np.testing.assert_allclose(dft(x), ref, atol=1e-10)
    np.testing.assert_allclose(idft(dft(x)), x, atol=1e-12)


def test_snr_conversion_round_trip_and_offset():
    p = LoRaParams(7)
    offset = 10.0 * math.log10(128.0 / 7.0)
    assert snr_ebn0_convert(p, 0.0, "snr_to_ebn0") == pytest.approx(offset, abs=1e-12)
    snr = snr_ebn0_convert(p, 3.0, "ebn0_to_snr")
    assert snr == pytest.approx(3.0 - offset, abs=1e-12)
    assert snr_ebn0_convert(p, snr, "snr_to_ebn0") == pytest.approx(3.0, abs=1e-12)
    with pytest.raises(ValueError):
        snr_ebn0_convert(p, 0.0, "sideways")


def test_noise_variance_anchors():
    assert noise_variance(0.0) == pytest.approx(1.0)
    assert noise_variance(10.0) == pytest.approx(0.1)
    assert noise_variance(-10.0) == pytest.approx(10.0)


def test_awgn_coherent_beats_noncoherent():
    # flat channel, shared noise: discarding the quadrature noise must help
    p = LoRaParams(7)
    rng = np.random.default_rng(123)
    n = 20000
    sigma2 = noise_variance(snr_ebn0_convert(p, 0.0, "ebn0_to_snr"))
    syms = rng.integers(0, p.m, size=n)
    k = np.arange(p.m)
    base = chirp_samples(p, 0, k)
    rows = base[None, :] * np.exp(2j * np.pi * (np.outer(syms, k) % p.m) / p.m)
    noise = math.sqrt(sigma2 / 2.0) * (
        rng.standard_normal(rows.shape) + 1j * rng.standard_normal(rows.shape)
    )
    spec = dft(dechirp(p, rows + noise))
    err_noncoh = int(np.sum(np.argmax(np.abs(spec), axis=1) != syms))
    err_coh = int(np.sum(np.argmax(spec.real, axis=1) != syms))
    assert err_coh < err_noncoh
    assert err_noncoh > 0
