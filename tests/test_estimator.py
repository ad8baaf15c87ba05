"""Pilot-averaged spectrum estimation of delays and dechirped gains."""

from __future__ import annotations

import cmath
import math

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
)
from lorarake.estimator import average_pilot_dft, detect_paths
from lorarake.waveform import LoRaParams, dechirp, dft


def _steady_state_average(params, ch, n_p):
    # one extra pilot absorbs the burst-edge transient; the averaged
    # windows then all see the channel in steady state
    frame = build_frame(params, n_p + 1, [])
    rx = apply_channel(params, frame, ch).reshape(-1, params.m)
    spectra = dft(dechirp(params, rx))[1:]
    return average_pilot_dft(spectra)


def test_config_validation():
    p = LoRaParams(5)
    avg = np.zeros(p.m, dtype=complex)
    avg[0] = p.m
    for bad in ({"rho_p": 0.0}, {"rho_p": 1.0}, {"k_max": 0}, {"known_k": 0}):
        with pytest.raises(ValueError):
            detect_paths(p, avg, **{"rho_p": 0.4, "k_max": 10, **bad})
    assert detect_paths(p, avg, 0.4, 10).delays == (0,)


def test_average_pilot_dft_shape_check():
    with pytest.raises(ValueError):
        average_pilot_dft(np.zeros(8, dtype=complex))
    avg = average_pilot_dft(np.ones((3, 8), dtype=complex) * np.arange(3)[:, None])
    np.testing.assert_allclose(avg, np.ones(8))


_PHASES = st.floats(-math.pi, math.pi)


@st.composite
def _channels(draw, min_ratio):
    """1-4 taps with delays up to 10, each echo at least min_ratio of the
    first path's magnitude, with random phases."""
    g0 = cmath.rect(draw(st.floats(0.5, 2.0)), draw(_PHASES))
    echoes = [(d, cmath.rect(abs(g0) * draw(st.floats(min_ratio, 1.5)), draw(_PHASES)))
              for d in sorted(draw(st.sets(st.integers(1, 10), max_size=3)))]
    return MultipathChannel.from_taps([(0, g0), *echoes])


@settings(deadline=None)
@given(st.integers(4, 12), _channels(min_ratio=0.41))
@example(7, C1)
@example(7, C2)
def test_noise_free_exactness_threshold_mode(sf, ch):
    # every echo exceeds rho_p = 0.4 of the first path
    p = LoRaParams(sf)
    avg = _steady_state_average(p, ch, 6)
    est = detect_paths(p, avg, rho_p=0.4, k_max=10)
    truth = dechirped_gain(p, ch)
    assert est.delays == truth.delays
    np.testing.assert_allclose(est.gains, truth.gains, atol=1e-9)


@settings(deadline=None)
@given(st.integers(4, 12), _channels(min_ratio=0.05))
@example(7, C1)
@example(7, C2)
def test_noise_free_exactness_known_count_mode(sf, ch):
    p = LoRaParams(sf)
    avg = _steady_state_average(p, ch, 4)
    est = detect_paths(p, avg, rho_p=0.4, k_max=10, known_k=ch.n_paths)
    truth = dechirped_gain(p, ch)
    assert est.delays == truth.delays
    np.testing.assert_allclose(est.gains, truth.gains, atol=1e-9)


def test_threshold_drops_weak_tap():
    # the 0.5 tap of the three-path benchmark sits below a 0.6 threshold
    p = LoRaParams(7)
    avg = _steady_state_average(p, C1, 6)
    est = detect_paths(p, avg, rho_p=0.6, k_max=10)
    assert est.delays == (0, 2)
    est_known = detect_paths(p, avg, rho_p=0.6, k_max=10, known_k=3)
    assert est_known.delays == (0, 2, 3)


def test_k_max_limits_the_search():
    p = LoRaParams(7)
    ch = MultipathChannel.from_taps([(0, 1.0), (12, 0.8)])
    avg = _steady_state_average(p, ch, 6)
    est = detect_paths(p, avg, rho_p=0.4, k_max=10)
    assert est.delays == (0,)
    found = detect_paths(p, avg, rho_p=0.4, k_max=12)
    assert found.delays == (0, 12)


def test_known_count_tie_prefers_smaller_delay():
    p = LoRaParams(5)
    m = p.m
    avg = np.zeros(m, dtype=complex)
    avg[0] = m
    avg[m - 2] = 0.5 * m  # delay 2
    avg[m - 7] = 0.5 * m  # delay 7, same magnitude
    est = detect_paths(p, avg, rho_p=0.4, k_max=10, known_k=2)
    assert est.delays == (0, 2)


def test_estimator_input_validation():
    p = LoRaParams(5)
    with pytest.raises(ValueError):
        detect_paths(p, np.zeros(p.m - 1, dtype=complex), rho_p=0.4, k_max=10)
    with pytest.raises(ValueError):
        detect_paths(p, np.zeros(p.m, dtype=complex), rho_p=0.4, k_max=p.m)


def test_averaging_shrinks_gain_variance():
    # tap-gain error variance should scale like 1/n_p
    p = LoRaParams(7)
    truth = dechirped_gain(p, C2)
    sigma2 = 0.8
    rng = np.random.default_rng(42)
    runs = 1500

    def gain_error_var(n_p):
        errs = np.empty(runs, dtype=complex)
        for i in range(runs):
            frame = build_frame(p, n_p + 1, [])
            rx = apply_channel(p, frame, C2)
            rx = rx + complex_noise(rx.shape, sigma2, rng)
            spectra = dft(dechirp(p, rx.reshape(-1, p.m)))[1:]
            est = detect_paths(p, average_pilot_dft(spectra), rho_p=0.4, k_max=10, known_k=2)
            errs[i] = est.gains[0] - truth.gains[0]
        return float(np.mean(np.abs(errs) ** 2))

    v1, v4 = gain_error_var(1), gain_error_var(4)
    assert v1 / v4 == pytest.approx(4.0, rel=0.25)
