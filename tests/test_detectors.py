"""Correlation tables, matched-filter and tap-combining statistics and
their batched kernels, candidate selection, interference indicators, and
the pilot-correlation detector."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from lorarake.channel import (
    C1,
    C2,
    MultipathChannel,
    apply_channel,
    build_frame,
    channel_coefficient,
    complex_noise,
    dechirped_gain,
    rotate_gains,
)
from lorarake.detectors import (
    auto_cross_correlation,
    candidate_masks,
    delta_indicator,
    ideal_mf_scores,
    masked_argmax,
    mf_filter_bank,
    mf_scores,
    mf_statistic,
    rake_combine,
    rake_scores,
    rake_statistic,
    tdel_detect,
)
from lorarake.waveform import LoRaParams, dechirp, dft


def _brute_force_correlation(params, g, a, b):
    # padded tap vectors correlated by explicit python loops
    m = params.m
    ga, gb = rotate_gains(params, g, a), rotate_gains(params, g, b)
    va = np.zeros(g.k_max + 1, dtype=complex)
    vb = np.zeros(g.k_max + 1, dtype=complex)
    for d, gain in zip(ga.delays, ga.gains):
        va[d] = gain
    for d, gain in zip(gb.delays, gb.gains):
        vb[d] = gain
    out = {}
    for lag in range(-g.k_max, g.k_max + 1):
        acc = 0j
        for mm in range(va.size):
            if 0 <= mm - lag < vb.size:
                acc += va[mm] * np.conj(vb[mm - lag])
        out[lag] = acc
    return out


def _cyclic_window(params, ch, a):
    # steady-state received window: the previous symbol also carried a,
    # so the linear convolution wraps into a cyclic one
    k = np.arange(params.m)
    out = np.zeros(params.m, dtype=complex)
    from lorarake.waveform import chirp_samples

    for d, g in zip(ch.delays, ch.gains):
        out += g * chirp_samples(params, a, k - d)
    return out


def test_correlation_matches_brute_force():
    p = LoRaParams(7)
    for ch in (C1, C2, MultipathChannel.from_taps([(0, 1 - 0.5j), (4, 0.3j), (9, -0.2)])):
        g = dechirped_gain(p, ch)
        for a, b in ((0, 0), (5, 5), (3, 100), (127, 1)):
            table = auto_cross_correlation(p, g, a, b)
            ref = _brute_force_correlation(p, g, a, b)
            assert table.l_max == g.k_max
            for lag, val in ref.items():
                assert table.at(lag) == pytest.approx(val, abs=1e-12)


def test_correlation_support_sets():
    p = LoRaParams(7)
    g1 = dechirped_gain(p, C1)
    t1 = auto_cross_correlation(p, g1, 10, 10)
    np.testing.assert_array_equal(t1.lags, np.arange(-3, 4))
    assert np.all(np.abs(t1.values) > 1e-12)
    g2 = dechirped_gain(p, C2)
    t2 = auto_cross_correlation(p, g2, 10, 10)
    nonzero = {int(l) for l, v in zip(t2.lags, t2.values) if abs(v) > 1e-12}
    assert nonzero == {-5, 0, 5}
    assert t2.at(99) == 0j  # outside the stored span


def test_correlation_zero_lag_is_energy():
    p = LoRaParams(7)
    for ch in (C1, C2):
        g = dechirped_gain(p, ch)
        for a in (0, 17, 127):
            table = auto_cross_correlation(p, g, a, a)
            assert table.at(0).real == pytest.approx(ch.energy(), abs=1e-12)
            assert abs(table.at(0).imag) < 1e-12


def test_correlation_hermitian_symmetry():
    p = LoRaParams(7)
    g = dechirped_gain(p, C1)
    ta = auto_cross_correlation(p, g, 12, 40)
    tb = auto_cross_correlation(p, g, 40, 12)
    for lag in range(-3, 4):
        assert ta.at(lag) == pytest.approx(np.conj(tb.at(-lag)), abs=1e-12)


def test_mf_equals_rake_on_random_buffers():
    rng = np.random.default_rng(20)
    for sf in (5, 7):
        p = LoRaParams(sf)
        g = dechirped_gain(p, C1)
        for _ in range(5):
            r = rng.standard_normal(p.m) + 1j * rng.standard_normal(p.m)
            rd = dechirp(p, r)
            spec = dft(rd)
            for b in (0, 1, p.m // 2, p.m - 1):
                zmf = mf_statistic(p, rd, g, b)
                zrk = rake_statistic(p, spec, g, b)
                assert zmf == pytest.approx(zrk, abs=1e-9 * p.m * g.energy())


def _complex_bank(bank):
    """The complex bank a real mf_filter_bank interleaves: row b, column k."""
    return (bank[0::2] - 1j * bank[1::2]).T


def _bank_by_formula(p, g, cols=None):
    # conj(C_b[k]) * exp(-2j*pi*b*k/M) through a modulo gather and per-entry
    # exp twiddles, as rows b and columns k, interleaved into rows 2k
    # (real part) and 2k+1 (negated imaginary part). The twiddle is written
    # conj(exp(+...)): exp(-0j) has a +0.0 imaginary part, its conjugate -0.0,
    # which shows in the bytes when C_0 is real (a real single tap)
    m = p.m
    h = channel_coefficient(p, g, 0)
    grid = np.arange(m)
    k = grid[:cols]
    cmat = h[(grid[:, None] + k[None, :]) % m]
    twiddle = np.conj(np.exp(2j * np.pi * ((grid[:, None] * k[None, :]) % m) / m))
    ref = np.conj(cmat) * twiddle
    out = np.empty((2 * k.size, m))
    out[0::2] = ref.real.T
    out[1::2] = -ref.imag.T
    return out


def test_mf_filter_bank_rows_reproduce_statistics():
    p = LoRaParams(6)
    g = dechirped_gain(p, C2)
    rng = np.random.default_rng(21)
    rd = rng.standard_normal(p.m) + 1j * rng.standard_normal(p.m)
    bank = _complex_bank(mf_filter_bank(p, g))
    scores = bank @ rd
    for b in (0, 9, 63):
        assert scores[b] == pytest.approx(mf_statistic(p, rd, g, b), abs=1e-9)


@pytest.mark.parametrize("sf", [4, 7, 10, 12])
@pytest.mark.parametrize("ch", [C1, C2], ids=["c1", "c2"])
def test_mf_filter_bank_is_bitwise_the_exp_formula(sf, ch):
    # the slab-built real bank against the exp formula, for the full bank
    # (up to sf 10) and the k_max-sample head
    p = LoRaParams(sf)
    g = dechirped_gain(p, ch)
    for cols in (None, g.k_max) if sf <= 10 else (g.k_max,):
        assert mf_filter_bank(p, g, cols=cols).tobytes() == _bank_by_formula(p, g, cols).tobytes()


def test_ideal_mf_parasitic_peaks():
    # noise-free spectrum after true-symbol filtering: M * Gamma_aa[a - n]
    p = LoRaParams(7)
    g = dechirped_gain(p, C1)
    a = 37
    rd = dechirp(p, _cyclic_window(p, C1, a))
    ca = channel_coefficient(p, g, a)
    spec = dft(np.conj(ca) * rd)
    table = auto_cross_correlation(p, g, a, a)
    for lag in range(-3, 4):
        n = (a - lag) % p.m
        assert spec[n] == pytest.approx(p.m * table.at(lag), abs=1e-7)
    assert np.argmax(ideal_mf_scores(p, dft(rd)[None, :], g, np.array([a])), axis=1)[0] == a


def _kept(mag, rule):
    # bins one row's candidate mask keeps
    return set(np.flatnonzero(candidate_masks(np.abs(mag)[None, :], rule)[0]).tolist())


def test_candidate_selection_fixed():
    # growing n_c adds bins in magnitude order, so the nested sets pin the order
    spec = np.array([3.0, 1.0, 4.0, 1.0, 5.0], dtype=complex)
    assert _kept(spec, ("fixed", 1)) == {4}
    assert _kept(spec, ("fixed", 2)) == {4, 2}
    tie = np.array([5.0, 3.0, 5.0, 1.0], dtype=complex)
    assert _kept(tie, ("fixed", 1)) == {0}  # equal magnitudes: the lower index first
    assert _kept(tie, ("fixed", 2)) == {0, 2}


def test_candidate_selection_fixed_noise_free():
    p = LoRaParams(7)
    a = 64
    spec = dft(dechirp(p, _cyclic_window(p, C1, a)))
    # magnitude order follows tap strength: main peak, then the echoes
    assert _kept(spec, ("fixed", 1)) == {64}
    assert _kept(spec, ("fixed", 2)) == {64, 62}
    assert _kept(spec, ("fixed", 3)) == {64, 62, 61}


def test_candidate_selection_threshold():
    p = LoRaParams(7)
    a = 64
    spec = dft(dechirp(p, _cyclic_window(p, C1, a)))
    assert _kept(spec, ("threshold", 0.3)) == {61, 62, 64}
    assert _kept(spec, ("threshold", 0.6)) == {62, 64}
    assert _kept(np.zeros(8, dtype=complex), ("threshold", 0.5)) == {0}


def test_detect_noise_free_all_symbols_rake():
    p = LoRaParams(7)
    g = dechirped_gain(p, C1)
    spec = np.stack([dft(dechirp(p, _cyclic_window(p, C1, a))) for a in range(p.m)])
    np.testing.assert_array_equal(np.argmax(rake_scores(p, spec, g), axis=1), np.arange(p.m))


def test_detect_noise_free_sampled_symbols_mf():
    p = LoRaParams(7)
    g = dechirped_gain(p, C1)
    sent = np.arange(0, p.m, 11)
    rd = np.stack([dechirp(p, _cyclic_window(p, C1, a)) for a in sent])
    scores = mf_scores(rd, mf_filter_bank(p, g))
    np.testing.assert_array_equal(np.argmax(scores, axis=1), sent)


def test_detect_tie_resolves_to_lowest_index():
    p = LoRaParams(5)
    g = dechirped_gain(p, MultipathChannel((0,), (1.0,)))
    mask = np.zeros((1, p.m), dtype=bool)
    mask[0, [9, 4, 20]] = True
    scores = rake_scores(p, np.zeros((1, p.m), dtype=complex), g)
    assert masked_argmax(scores, mask)[0] == 4  # all scores are 0.0


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10), st.integers(1, 9), st.sampled_from([0.0, 0.01, 0.04, 0.1, 0.5, 1.0]),
       st.booleans(), st.integers(0, 2**32 - 1))
@example(10, 8, 0.0, True, 0)  # one bin a row: the masked copy
@example(10, 8, 0.5, True, 1)  # half the bins: the three integer passes
@example(3, 4, 1.0, False, 2)  # every bin
def test_masked_argmax_is_the_fill_and_masked_copy(sf, rows, density, reuse, seed):
    # both forms, chosen by the first row's count (an empty first row forces
    # the masked copy and a full one the integer passes, whatever the other
    # rows hold), against filling with -inf and copying the masked scores in:
    # the same decisions and, in out, the same bytes, over tie-heavy scores
    # with both zeros and infinities
    m = 2**sf
    rng = np.random.default_rng(seed)
    scores = rng.integers(-2, 3, size=(rows, m)).astype(float)
    scores[(scores == 0) & (rng.random(scores.shape) < 0.5)] = -0.0
    scores[rng.random(scores.shape) < 0.05] = np.inf
    scores[rng.random(scores.shape) < 0.05] = -np.inf
    drawn = rng.random((rows, m)) < density
    drawn[np.arange(rows), rng.integers(0, m, size=rows)] = True
    before = scores.tobytes()
    for first in (None, False, True):
        mask = drawn.copy()
        if first is not None:
            mask[0] = first
        ref = np.full(scores.shape, -np.inf)
        np.copyto(ref, scores, where=mask)
        out = _used((rows, m), float, rng) if reuse else None
        with mock.patch.object(np, "copyto", wraps=np.copyto) as copied:
            dec = masked_argmax(scores, mask, out=out)
        assert first is None or copied.called != first
        np.testing.assert_array_equal(dec, np.argmax(ref, axis=1))
        assert scores.tobytes() == before
        if reuse:
            assert out.tobytes() == ref.tobytes()


def test_delta_indicator_noncoh_exact():
    p = LoRaParams(7)
    for a in range(p.m):
        assert delta_indicator(p, C1, a, "noncoh") == 0.8


def test_delta_indicator_single_path_is_zero():
    p = LoRaParams(7)
    flat = MultipathChannel((0,), (1.0,))
    for variant in ("coh", "noncoh", "ideal_mf", "mf"):
        assert delta_indicator(p, flat, 3, variant) == 0.0


def test_delta_indicator_coh_bounded_by_noncoh():
    p = LoRaParams(7)
    vals = [delta_indicator(p, C1, a, "coh") for a in range(p.m)]
    assert max(vals) == pytest.approx(0.8, abs=1e-9)
    for v in vals:
        assert v <= 0.8 + 1e-12


def test_delta_indicator_validation():
    p = LoRaParams(7)
    with pytest.raises(ValueError):
        delta_indicator(p, C1, 0, "sideways")


def test_tdel_noise_free_decisions():
    p = LoRaParams(7)
    for ch in (C1, C2):
        pilot = dft(dechirp(p, _cyclic_window(p, ch, 0)))
        for a in range(0, p.m, 7):
            data = dft(dechirp(p, _cyclic_window(p, ch, a)))
            assert tdel_detect(pilot, data, 0.2) == a
        batch = np.stack([dft(dechirp(p, _cyclic_window(p, ch, a))) for a in (3, 90)])
        np.testing.assert_array_equal(tdel_detect(pilot, batch, 0.2), [3, 90])


def test_tdel_matches_brute_force_correlation():
    rng = np.random.default_rng(31)
    m = 32
    for _ in range(10):
        pilot = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        data = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        rho = 0.4
        p_mag = np.abs(pilot)
        kept = np.where(p_mag >= rho * p_mag.max(), p_mag, 0.0)
        q = np.abs(data)
        corr = np.array(
            [sum(kept[n] * q[(n + d) % m] for n in range(m)) for d in range(m)]
        )
        assert tdel_detect(pilot, data, rho) == int(np.argmax(corr))


def test_tdel_threshold_above_peak_keeps_peak_bin():
    rng = np.random.default_rng(32)
    m = 16
    pilot = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    data = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    # a threshold factor above 1 would zero everything; the peak bin survives
    n0 = int(np.argmax(np.abs(pilot)))
    q = np.abs(data)
    expect = int(np.argmax([q[(n0 + d) % m] for d in range(m)]))
    assert tdel_detect(pilot, data, 1.5) == expect
    with pytest.raises(ValueError):
        tdel_detect(pilot, data, 0.0)


def test_tdel_phase_invariance():
    p = LoRaParams(6)
    rng = np.random.default_rng(33)
    pilot = rng.standard_normal(p.m) + 1j * rng.standard_normal(p.m)
    data = rng.standard_normal((4, p.m)) + 1j * rng.standard_normal((4, p.m))
    base = tdel_detect(pilot, data, 0.3)
    spun = tdel_detect(pilot * np.exp(1j * 0.7), data * np.exp(-1j * 1.1), 0.3)
    np.testing.assert_array_equal(base, spun)


def _tdel_one_transform_per_row(pilot, spec, rho):
    # the form the packed kernel replaced: each row's magnitudes as complex
    # values, one forward and one inverse transform per row
    p = np.abs(pilot)
    kept = np.where(p >= rho * p.max(), p, 0.0)
    corr = np.abs(spec).astype(np.complex128)
    np.fft.fft(corr, axis=-1, out=corr)
    np.multiply(np.conj(np.fft.fft(kept)), corr, out=corr)
    np.fft.ifft(corr, axis=-1, out=corr)
    return np.argmax(corr.real, axis=-1)


def _tdel_case(sf, n, seed):
    rng = np.random.default_rng(seed)
    m = 2**sf
    pilot = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return rng, pilot, rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


@settings(max_examples=40, deadline=None)
@given(st.integers(4, 10), st.integers(1, 9), st.integers(0, 2**32 - 1),
       st.sampled_from([0.05, 0.3, 0.7]))
def test_tdel_packed_rows_decide_as_one_transform_per_row(sf, n, seed, rho):
    # odd and even row counts: an odd count leaves the last packed row's
    # imaginary part zero
    _, pilot, spec = _tdel_case(sf, n, seed)
    m = 2**sf
    dec = tdel_detect(pilot, spec, rho)
    np.testing.assert_array_equal(dec, _tdel_one_transform_per_row(pilot, spec, rho))
    p = np.abs(pilot)
    kept = np.where(p >= rho * p.max(), p, 0.0)
    for row, d in zip(np.abs(spec), dec):
        # corr[s] = sum_k kept[k] * row[(k + s) mod M], summed directly
        corr = sliding_window_view(np.concatenate((row, row)), m)[:m] @ kept
        top = np.sort(corr)[-2:]
        if top[1] - top[0] > 1e-9 * top[1]:  # a unique maximum
            assert d == np.argmax(corr)


def test_tdel_returns_an_int_for_one_spectrum():
    _, pilot, spec = _tdel_case(6, 3, 34)
    dec = tdel_detect(pilot, spec[1], 0.3)
    assert type(dec) is int
    assert dec == tdel_detect(pilot, spec, 0.3)[1]


@pytest.mark.parametrize("n", [1, 4, 7])
def test_tdel_writes_only_the_packed_rows_of_a_used_buffer(n):
    # out holds ceil(n/2) packed rows; the rows beyond them keep their garbage
    rng, pilot, spec = _tdel_case(7, n, 35 + n)
    out = _used(spec.shape, complex, rng)
    rest = out[(n + 1) // 2 :].tobytes()
    np.testing.assert_array_equal(tdel_detect(pilot, spec, 0.3, out=out),
                                  tdel_detect(pilot, spec, 0.3))
    assert out[(n + 1) // 2 :].tobytes() == rest


@pytest.mark.parametrize("n", [1, 2, 5])
def test_tdel_takes_magnitudes_or_spectra(n):
    _, pilot, spec = _tdel_case(6, n, 36 + n)
    np.testing.assert_array_equal(tdel_detect(pilot, np.abs(spec), 0.3),
                                  tdel_detect(pilot, spec, 0.3))


def test_detectors_on_noisy_frame_recover_symbols():
    # moderate-noise sanity run through the real frame pipeline
    p = LoRaParams(7)
    rng = np.random.default_rng(34)
    data = rng.integers(0, p.m, size=40)
    frame = build_frame(p, 2, data)
    rx = apply_channel(p, frame, C1) + complex_noise((42 * p.m,), 0.05, rng)
    spec = dft(dechirp(p, rx.reshape(-1, p.m)))[2:]
    g = dechirped_gain(p, C1)
    hits = int(np.sum(np.argmax(rake_scores(p, spec, g), axis=1) == data))
    assert hits >= 38  # high SNR: at most a couple of edge-effect misses


@st.composite
def _channel_case(draw, min_sf=5, anywhere=False, max_sf=8):
    """A random sf in min_sf..max_sf, a 1-4 tap channel within the first M/4
    chips (anywhere in [0, M) with anywhere=True), and a seed."""
    sf = draw(st.integers(min_sf, max_sf))
    m = 2**sf
    max_delay = m - 1 if anywhere else m // 4
    echoes = draw(st.lists(st.integers(1, max_delay), max_size=3, unique=True))
    delays = (0, *sorted(echoes))
    parts = st.floats(-2.0, 2.0, allow_nan=False)
    gains = [complex(draw(parts), draw(parts)) for _ in delays]
    gains[0] += 3.0  # keep the first path alive
    return LoRaParams(sf), MultipathChannel(delays, tuple(gains)), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=30, deadline=None)
@given(_channel_case(min_sf=2, anywhere=True, max_sf=10))
@example((LoRaParams(5), MultipathChannel((0, 31), (3.0, 0.7j)), 0))
@example((LoRaParams(2), MultipathChannel((0,), (3.0,)), 0))
def test_mf_filter_bank_is_bitwise_the_exp_formula_for_any_channel(case):
    # delays anywhere below M, a bank of several slabs at sf 10
    p, ch, _ = case
    g = dechirped_gain(p, ch)
    for cols in (None, g.k_max):
        assert mf_filter_bank(p, g, cols=cols).tobytes() == _bank_by_formula(p, g, cols).tobytes()


def _windows(p, rng, n=6):
    return rng.standard_normal((n, p.m)) + 1j * rng.standard_normal((n, p.m))


@settings(max_examples=40, deadline=None)
@given(_channel_case())
def test_mf_scores_equal_rake_scores(case):
    p, ch, seed = case
    g = dechirped_gain(p, ch)
    rd = _windows(p, np.random.default_rng(seed))
    zmf = mf_scores(rd, mf_filter_bank(p, g))
    zrk = rake_scores(p, np.fft.fft(rd, axis=1), g)
    # the per-statistic budget of the mf/rake acceptance check
    assert np.max(np.abs(zmf - zrk)) <= 1e-9 * p.m * g.energy()


@settings(max_examples=40, deadline=None)
@given(_channel_case(min_sf=2, anywhere=True))
def test_mf_scores_are_the_real_part_of_the_complex_product(case):
    # one real product of the interleaved float view against the complex one it
    # replaces. Both sum the same 2M real products in some order, so each is
    # within gamma_2M * sum|terms| of the exact value (any order, with or without
    # FMA); and the same decisions
    p, ch, seed = case
    real_bank = mf_filter_bank(p, dechirped_gain(p, ch))
    bank = _complex_bank(real_bank)
    rd = _windows(p, np.random.default_rng(seed), n=32)
    ref = (rd @ bank.T).real
    got = mf_scores(rd, real_bank)
    terms = np.abs(rd.real) @ np.abs(bank.real).T + np.abs(rd.imag) @ np.abs(bank.imag).T
    assert np.all(np.abs(got - ref) <= 2 * p.m * np.finfo(float).eps * terms)
    np.testing.assert_array_equal(np.argmax(got, axis=1), np.argmax(ref, axis=1))


@settings(max_examples=60, deadline=None)
@given(_channel_case(min_sf=2, anywhere=True))
@example((LoRaParams(5), MultipathChannel((0, 31), (3.0, 0.7j)), 3))
def test_ideal_mf_scores_are_the_transform_of_the_true_symbols_product(case):
    # the tap loop on spectra X against the definition written out here: the
    # DFT of conj(C_a) times the dechirped window ifft(X), a = the row's true
    # symbol. The kernel sums 2K real products and the transform 2M, each in
    # some order, so each is within gamma_2M * sum|terms| of the exact value
    # (any order, with or without FMA); and the same decisions. At b = a the
    # kernel is the rake's sum, bit for bit
    p, ch, seed = case
    m = p.m
    g = dechirped_gain(p, ch)
    rng = np.random.default_rng(seed)
    spec = _windows(p, rng, n=40)
    sent = rng.integers(0, m, size=spec.shape[0])
    sent[:2] = (0, m - 1)
    h = channel_coefficient(p, g, 0)
    crows = h[(sent[:, None] + np.arange(m)[None, :]) % m]
    rd = np.fft.ifft(spec, axis=1)
    ref = np.fft.fft(np.conj(crows) * rd, axis=1).real
    got = ideal_mf_scores(p, spec, g, sent)
    taps = sum(abs(gain) * np.roll(np.abs(spec), d, axis=1) for d, gain in zip(g.delays, g.gains))
    terms = np.sum(np.abs(crows) * np.abs(rd), axis=1, keepdims=True) + taps
    assert np.all(np.abs(got - ref) <= 2 * m * np.finfo(float).eps * terms)
    np.testing.assert_array_equal(np.argmax(got, axis=1), np.argmax(ref, axis=1))
    rows = np.arange(sent.size)
    assert got[rows, sent].tobytes() == rake_scores(p, spec, g)[rows, sent].tobytes()


@settings(max_examples=40, deadline=None)
@given(_channel_case())
def test_full_candidate_mask_is_full_search(case):
    p, ch, seed = case
    g = dechirped_gain(p, ch)
    spec = np.fft.fft(_windows(p, np.random.default_rng(seed)), axis=1)
    scores = rake_scores(p, spec, g)
    mask = candidate_masks(np.abs(spec), ("fixed", p.m))
    assert mask.all()
    np.testing.assert_array_equal(masked_argmax(scores, mask), np.argmax(scores, axis=1))


@settings(max_examples=40, deadline=None)
@given(st.integers(5, 8), st.floats(0.0, 1.0, exclude_max=True), st.integers(0, 2**32 - 1))
def test_threshold_rule_keeps_bin_zero_of_an_all_zero_row(sf, rho_c, seed):
    p = LoRaParams(sf)
    rng = np.random.default_rng(seed)
    mag = np.abs(_windows(p, rng))
    dead = rng.random(mag.shape[0]) < 0.5
    mag[dead] = 0.0
    mask = candidate_masks(mag, ("threshold", rho_c))
    assert not mask[dead, 1:].any() and mask[dead, 0].all()
    assert mask.any(axis=1).all()


@settings(max_examples=60, deadline=None)
@given(_channel_case(min_sf=2, anywhere=True, max_sf=12))
@example((LoRaParams(5), MultipathChannel((0,), (1.0 - 0.5j,)), 1))
@example((LoRaParams(5), MultipathChannel((0, 31), (3.0, 0.7j)), 2))
@example((LoRaParams(12), MultipathChannel((0, 1, 2048, 4095), (3.0, 0.7j, -1.0, 0.2)), 4))
def test_rake_scores_are_bitwise_the_roll_sum(case):
    # the kernel, whose tap phases are gathered from the chirp roots table,
    # against the np.roll form with per-call exp phases, written out here
    p, ch, seed = case
    m = p.m
    g = dechirped_gain(p, ch)
    spec = np.fft.fft(_windows(p, np.random.default_rng(seed)), axis=1)
    bgrid = np.arange(m)
    z = np.zeros(spec.shape, dtype=np.complex128)
    for d, gain in zip(g.delays, g.gains):
        phase = np.exp(2j * np.pi * ((d * bgrid) % m) / m)
        z += (np.conj(gain) * phase) * np.roll(spec, d, axis=1)
    assert rake_scores(p, spec, g).tobytes() == z.real.tobytes()


@settings(max_examples=60, deadline=None)
@given(_channel_case(min_sf=2, anywhere=True, max_sf=12))
@example((LoRaParams(12), MultipathChannel((0, 1, 2048, 4095), (3.0, 0.7j, -1.0, 0.2)), 4))
def test_rake_scores_are_bitwise_the_real_part_of_rake_combine(case):
    # the kernel keeps no complex sum, only the real parts of rake_combine's
    # tap products, added in the same order: the same floats, so the same
    # decisions
    p, ch, seed = case
    g = dechirped_gain(p, ch)
    spec = np.fft.fft(_windows(p, np.random.default_rng(seed)), axis=1)
    assert rake_scores(p, spec, g).tobytes() == rake_combine(p, spec, g).real.tobytes()


def _used(shape, dtype, rng):
    # a buffer left over from other work: random floats, infinities and nans
    junk = rng.standard_normal(int(np.prod(shape)) * np.dtype(dtype).itemsize // 8)
    junk[::7], junk[::11] = np.nan, -np.inf
    return junk.view(dtype).reshape(shape)


@settings(max_examples=30, deadline=None)
@given(_channel_case(min_sf=2, anywhere=True))
def test_kernels_write_the_same_bytes_into_used_buffers(case):
    # a sweep hands each kernel arrays that hold an earlier block's values;
    # every kernel overwrites them and returns what it returns without them
    p, ch, seed = case
    rng = np.random.default_rng(seed)
    g = dechirped_gain(p, ch)
    rd = _windows(p, rng, n=9)
    spec = np.fft.fft(rd, axis=1)
    mag = np.abs(spec)
    sent = rng.integers(0, p.m, size=rd.shape[0])
    shape = rd.shape
    real, cplx = (lambda: _used(shape, float, rng)), (lambda: _used(shape, complex, rng))
    mask = candidate_masks(mag, ("fixed", 3))
    cases = [
        (rake_scores(p, spec, g), rake_scores(p, spec, g, out=real(), work=cplx())),
        (mf_scores(rd, mf_filter_bank(p, g)), mf_scores(rd, mf_filter_bank(p, g), out=real())),
        (ideal_mf_scores(p, spec, g, sent), ideal_mf_scores(p, spec, g, sent, out=real(),
                                                            work=cplx())),
        (masked_argmax(rake_scores(p, spec, g), mask),
         masked_argmax(rake_scores(p, spec, g), mask, out=real())),
        (tdel_detect(spec[0], spec, 0.3), tdel_detect(spec[0], spec, 0.3, out=cplx())),
    ]
    for rule in (("fixed", 1), ("fixed", 3), ("fixed", p.m), ("threshold", 0.5)):
        cases.append((candidate_masks(mag, rule),
                      candidate_masks(mag, rule, out=rng.random(shape) < 0.5, work=real())))
    for fresh, reused in cases:
        assert reused.tobytes() == fresh.tobytes()


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2**32 - 1), st.sampled_from([0.5, 2.0, 8.0]))
def test_fixed_rule_is_the_stable_argsort_prefix(sf, seed, spread):
    # tie-heavy rows: integer-rounded magnitudes plus an all-zero row, at every n_c
    m = 2**sf
    rng = np.random.default_rng(seed)
    mag = np.round(np.abs(rng.standard_normal((7, m))) * spread)
    mag[2] = 0.0
    order = np.argsort(-mag, axis=1, kind="stable")
    for n_c in range(1, m + 1):
        ref = np.zeros(mag.shape, dtype=bool)
        np.put_along_axis(ref, order[:, :n_c], True, axis=1)
        np.testing.assert_array_equal(candidate_masks(mag, ("fixed", n_c)), ref)
