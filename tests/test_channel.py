"""Multipath model, frame assembly, noise scaling, and gain algebra."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lorarake.channel import (
    C1,
    C2,
    DechirpedGains,
    MultipathChannel,
    apply_channel,
    add_awgn,
    build_frame,
    channel_coefficient,
    complex_noise,
    dechirped_gain,
    dechirped_spectra,
    load_channel_file,
    parse_channel,
    rotate_gains,
)
from lorarake.waveform import LoRaParams, chirp_samples, dechirp, dft


def test_channel_validation():
    with pytest.raises(ValueError):
        MultipathChannel((1, 2), (1.0, 0.5))  # first delay nonzero
    with pytest.raises(ValueError):
        MultipathChannel((0, 2, 2), (1.0, 0.5, 0.2))  # repeated delay
    with pytest.raises(ValueError):
        MultipathChannel((0, 2), (0.0, 0.5))  # dead first path
    with pytest.raises(ValueError):
        MultipathChannel((0, 2), (1.0,))  # length mismatch
    with pytest.raises(ValueError):
        MultipathChannel((), ())
    ch = MultipathChannel.from_taps([(3, 0.5j), (0, 1.0)])
    assert ch.delays == (0, 3)
    assert ch.gains == (1.0 + 0j, 0.5j)
    assert ch.n_paths == 2 and ch.k_max == 3


def test_benchmark_channel_energies():
    assert C1.energy() == pytest.approx(1.89, abs=1e-12)
    assert C2.energy() == pytest.approx(1.64, abs=1e-12)


def test_dechirped_gain_values():
    # the delay-2 tap of the three-path benchmark picks up exactly pi/32
    p = LoRaParams(7)
    g = dechirped_gain(p, C1)
    assert g.delays == (0, 2, 3)
    expect = 0.8 * np.exp(1j * np.pi / 32.0)
    assert g.gains[1] == pytest.approx(expect, abs=1e-12)
    np.testing.assert_allclose(np.abs(g.gains), np.abs(np.asarray(C1.gains)), atol=1e-12)
    assert g.energy() == pytest.approx(C1.energy(), abs=1e-12)


def test_dechirped_gains_validation():
    with pytest.raises(ValueError):
        DechirpedGains((1, 2), np.array([1.0, 0.5], dtype=complex))
    with pytest.raises(ValueError):
        DechirpedGains((0, 2), np.array([1.0], dtype=complex))
    g = DechirpedGains((0, 5), np.array([1.0, 0.8j]))
    assert g.k_max == 5
    with pytest.raises(ValueError):
        g.gains[0] = 0  # read-only view


def test_rotate_gains_period_and_additivity():
    p = LoRaParams(7)
    g = dechirped_gain(p, C1)
    same = rotate_gains(p, g, p.m)
    np.testing.assert_allclose(same.gains, g.gains, atol=1e-12)
    a, b = 37, 55
    once = rotate_gains(p, g, a + b)
    twice = rotate_gains(p, rotate_gains(p, g, a), b)
    np.testing.assert_allclose(once.gains, twice.gains, atol=1e-12)


def test_channel_coefficient_direct_sum():
    p = LoRaParams(7)
    g = dechirped_gain(p, C1)
    k = np.arange(p.m)
    for b in (0, 1, 77):
        gb = rotate_gains(p, g, b)
        ref = np.zeros(p.m, dtype=complex)
        for d, gain in zip(gb.delays, gb.gains):
            ref += gain * np.exp(-2j * np.pi * k * d / p.m)
        np.testing.assert_allclose(channel_coefficient(p, g, b), ref, atol=1e-9)


def test_channel_coefficient_row_shift_identity():
    # C_b[k] == C_0[(b + k) mod M]
    p = LoRaParams(6)
    g = dechirped_gain(p, C2)
    h = channel_coefficient(p, g, 0)
    k = np.arange(p.m)
    for b in (1, 19, 63):
        np.testing.assert_allclose(
            channel_coefficient(p, g, b), h[(b + k) % p.m], atol=1e-9
        )


def test_apply_channel_is_truncated_convolution():
    p = LoRaParams(5)
    rng = np.random.default_rng(4)
    s = rng.standard_normal(3 * p.m) + 1j * rng.standard_normal(3 * p.m)
    ch = MultipathChannel.from_taps([(0, 1.0), (2, 0.8 - 0.1j), (7, 0.3j)])
    dense = np.zeros(ch.k_max + 1, dtype=complex)
    for d, g in zip(ch.delays, ch.gains):
        dense[d] = g
    ref = np.convolve(s, dense)[: s.size]
    np.testing.assert_allclose(apply_channel(p, s, ch), ref, atol=1e-10)


def test_apply_channel_rejects_oversized_delay():
    p = LoRaParams(2)
    ch = MultipathChannel.from_taps([(0, 1.0), (4, 0.5)])
    with pytest.raises(ValueError):
        apply_channel(p, np.zeros(8, dtype=complex), ch)


def test_apply_channel_window_isi_structure():
    # inside a burst the first d samples of a window echo the previous symbol
    p = LoRaParams(6)
    d, g1 = 5, 0.7 - 0.2j
    ch = MultipathChannel.from_taps([(0, 1.0), (d, g1)])
    a_prev, a_cur = 11, 50
    frame = build_frame(p, 0, [a_prev, a_cur])
    out = apply_channel(p, frame, ch).reshape(2, p.m)
    k = np.arange(p.m)
    cur = chirp_samples(p, a_cur, k)
    expect = cur.astype(complex)
    head = k < d
    expect[head] += g1 * chirp_samples(p, a_prev, p.m + k[head] - d)
    expect[~head] += g1 * chirp_samples(p, a_cur, k[~head] - d)
    np.testing.assert_allclose(out[1], expect, atol=1e-9)


def test_steady_state_window_spectrum_peaks():
    # between equal symbols each path is one spectral line of height M*gain
    p = LoRaParams(7)
    frame = build_frame(p, 2, [])
    out = apply_channel(p, frame, C1).reshape(2, p.m)
    spec = dft(dechirp(p, out[1]))
    g = dechirped_gain(p, C1)
    expect = np.zeros(p.m, dtype=complex)
    for d, gain in zip(g.delays, g.gains):
        expect[(0 - d) % p.m] = p.m * gain
    np.testing.assert_allclose(spec, expect, atol=1e-8)


def test_build_frame_layout():
    p = LoRaParams(5)
    frame = build_frame(p, 3, [7, 1])
    assert frame.n_p == 3 and frame.n_d == 2
    np.testing.assert_array_equal(frame.symbols, [0, 0, 0, 7, 1])
    assert "samples" not in vars(frame)  # built on first read
    assert frame.samples.shape == (5 * p.m,)
    np.testing.assert_allclose(np.abs(frame.samples), 1.0, atol=1e-12)
    np.testing.assert_allclose(frame.samples[3 * p.m : 4 * p.m],
                               chirp_samples(p, 7, np.arange(p.m)), atol=1e-10)
    with pytest.raises(ValueError):
        build_frame(p, -1, [0])
    with pytest.raises(ValueError):
        build_frame(p, 0, [p.m])


def test_complex_noise_statistics():
    rng = np.random.default_rng(10)
    sigma2 = 0.37
    w = complex_noise(200_000, sigma2, rng)
    assert np.mean(np.abs(w) ** 2) == pytest.approx(sigma2, rel=0.01)
    assert np.var(w.real) == pytest.approx(sigma2 / 2.0, rel=0.02)
    with pytest.raises(ValueError):
        complex_noise(4, -1.0, rng)


def test_dft_domain_noise_variance():
    # the unnormalized DFT multiplies the per-sample variance by M
    p = LoRaParams(7)
    rng = np.random.default_rng(11)
    sigma2 = 0.5
    w = complex_noise((2000, p.m), sigma2, rng)
    spec = dft(dechirp(p, w))
    assert np.mean(np.abs(spec) ** 2) == pytest.approx(p.m * sigma2, rel=0.02)


def test_add_awgn_zero_variance_copies():
    rng = np.random.default_rng(0)
    s = np.ones(8, dtype=complex)
    out = add_awgn(s, 0.0, rng)
    np.testing.assert_array_equal(out, s)
    assert out is not s


def test_channel_file_round_trip(tmp_path):
    path = tmp_path / "taps.csv"
    path.write_text(
        "delay,gain_re,gain_im\n0,1.0,0.0\n5,0.4,-0.3\n", encoding="utf-8"
    )
    ch = load_channel_file(path)
    assert ch.delays == (0, 5)
    assert ch.gains[1] == pytest.approx(0.4 - 0.3j)
    assert parse_channel(str(path)).delays == ch.delays
    bad = tmp_path / "bad.csv"
    bad.write_text("delay,gain\n0,1\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_channel_file(bad)


def test_parse_channel_forms():
    assert parse_channel("c1") is C1
    assert parse_channel("C2") is C2
    assert parse_channel(C1) is C1
    ch = parse_channel("0:1, 5:0.4+0.3j")
    assert ch.delays == (0, 5)
    assert ch.gains[1] == pytest.approx(0.4 + 0.3j)
    with pytest.raises(ValueError):
        parse_channel("nonexistent-alias")
    with pytest.raises(ValueError):
        parse_channel("0:1,bad:tap:x")


# Bitwise checks: each kernel against the formula it replaced, written out
# here as the reference. The kernels must perform the same float operations
# on the same operands, so the bytes agree, not just the values.


@st.composite
def _frame_case(draw):
    sf = draw(st.integers(2, 10))
    m = 2**sf
    pilots = draw(st.integers(0, 3))
    data = draw(st.lists(st.integers(0, m - 1), max_size=12))
    return LoRaParams(sf), pilots, data


@settings(max_examples=60, deadline=None)
@given(_frame_case())
def test_build_frame_is_bitwise_the_exp_formula(case):
    p, pilots, data = case
    m = p.m
    k = np.arange(m)
    s = np.concatenate([np.zeros(pilots, dtype=np.int64), np.asarray(data, dtype=np.int64)])
    base = chirp_samples(p, 0, k)
    ref = base[None, :] * np.exp(2j * np.pi * (np.outer(s, k) % m) / m)
    assert build_frame(p, pilots, data).samples.tobytes() == ref.reshape(-1).tobytes()


@st.composite
def _convolution_case(draw):
    """A random sf, 1-4 taps anywhere in [0, M) including M - 1, and a seed."""
    sf = draw(st.integers(2, 8))
    m = 2**sf
    echoes = draw(st.lists(st.integers(1, m - 1), max_size=3, unique=True))
    delays = (0, *sorted(echoes))
    parts = st.floats(-2.0, 2.0, allow_nan=False)
    gains = [complex(draw(parts), draw(parts)) for _ in delays]
    gains[0] += 3.0
    return LoRaParams(sf), MultipathChannel(delays, tuple(gains)), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(_convolution_case(), st.integers(1, 4))
@example((LoRaParams(4), MultipathChannel((0, 15), (1.0, 0.5j)), 3), 2)
def test_apply_channel_is_bitwise_the_zero_start_convolution(case, n_sym):
    p, ch, seed = case
    rng = np.random.default_rng(seed)
    s = rng.standard_normal(n_sym * p.m) + 1j * rng.standard_normal(n_sym * p.m)
    ref = np.zeros_like(s)
    for d, g in zip(ch.delays, ch.gains):
        if d == 0:
            ref += g * s
        else:
            ref[d:] += g * s[: s.size - d]
    assert apply_channel(p, s, ch).tobytes() == ref.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(st.integers(0, 300), st.tuples(st.integers(0, 5), st.integers(1, 64))),
    st.floats(1e-6, 1e6),
    st.integers(0, 2**32 - 1),
)
def test_complex_noise_is_bitwise_the_one_block_formula(shape, sigma2, seed):
    # one (*shape, 2) draw of interleaved (real, imaginary) pairs
    scale = math.sqrt(sigma2 / 2.0)
    draws = np.random.default_rng(seed).standard_normal((*np.atleast_1d(shape), 2))
    ref = np.empty(draws.shape[:-1], dtype=np.complex128)
    ref.real = scale * draws[..., 0]
    ref.imag = scale * draws[..., 1]
    out = complex_noise(shape, sigma2, np.random.default_rng(seed))
    assert out.shape == ref.shape and out.tobytes() == ref.tobytes()


@st.composite
def _synthesis_case(draw):
    """A random sf in 2..12, 1-4 taps anywhere in [0, M), pilots and a symbol chain."""
    sf = draw(st.integers(2, 12))
    m = 2**sf
    echoes = draw(st.lists(st.integers(1, m - 1), max_size=3, unique=True))
    delays = (0, *sorted(echoes))
    parts = st.floats(-2.0, 2.0, allow_nan=False)
    gains = [complex(draw(parts), draw(parts)) for _ in delays]
    gains[0] += 3.0
    pilots = draw(st.integers(0, 6))
    data = draw(st.lists(st.integers(0, m - 1), max_size=12))
    return LoRaParams(sf), MultipathChannel(delays, tuple(gains)), pilots, data


@settings(max_examples=80, deadline=None)
@given(_synthesis_case())
@example((LoRaParams(12), MultipathChannel((0, 4095), (1.0, 0.5j)), 2, [4095, 0, 17, 17]))
@example((LoRaParams(5), MultipathChannel((0,), (1.0 - 2.0j,)), 0, [3, 31, 0]))
def test_dechirped_spectra_match_the_sample_chain(case):
    p, ch, pilots, data = case
    frame = build_frame(p, pilots, data)
    ref = dft(dechirp(p, apply_channel(p, frame, ch).reshape(-1, p.m)))
    out = dechirped_spectra(p, ch, frame.symbols)
    # the chirp tables' phases reach pi*M/4, so each sample carries a
    # relative rounding error of order eps*M, and a bin sums M samples per
    # unit of tap gain
    tol = 4.0 * np.finfo(float).eps * p.m**2 * sum(abs(g) for g in ch.gains)
    assert out.shape == ref.shape
    assert np.max(np.abs(out - ref), initial=0.0) <= tol
