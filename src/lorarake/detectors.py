"""Symbol detectors for multipath LoRa reception.

Two equivalent families are provided. The matched-filter (mf) route
multiplies the dechirped window by the conjugate channel coefficient of
each hypothesis and reads a single DFT bin; the tap-combining (rake)
route computes one spectrum and sums conjugate-weighted shifted bins.
Both evaluate the same statistic, and candidate variants restrict the
hypothesis search to a few high-magnitude bins. The module also holds
the genie-aided ideal detector, the per-symbol interference indicators,
and a pilot-correlation baseline (tdel) that needs no gain estimates.

Detection runs on batches: the *_scores kernels score every bin of a
(symbols, M) block, candidate_masks picks the bins a candidate detector
may choose, and masked_argmax decides. Each batch kernel takes an optional
out array (and, where it needs scratch, a work array of the same shape) and
returns a fresh array without one. mf_statistic, rake_statistic and
rake_combine are the reference forms the kernels are checked against.
The clean_*_scores forms give the rake/mf and ideal-mf scores of
noise-free window spectra (channel.dechirped_spectra) from the windows'
symbols and head deltas, without forming a spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .channel import (
    DechirpedGains,
    _chirp_tables,
    block_rows,
    channel_coefficient,
    dechirped_gain,
    line_amplitudes,
    rotate_gains,
)
from .waveform import LoRaParams

__all__ = [
    "CorrelationTable",
    "auto_cross_correlation",
    "mf_statistic",
    "rake_statistic",
    "mf_filter_bank",
    "rake_combine",
    "rake_scores",
    "mf_scores",
    "ideal_mf_scores",
    "clean_rake_scores",
    "clean_ideal_mf_scores",
    "candidate_masks",
    "masked_argmax",
    "delta_indicator",
    "tdel_detect",
]


@dataclass(frozen=True)
class CorrelationTable:
    """Tap cross-correlation values on the signed lag grid [-l_max, l_max]."""

    lags: np.ndarray
    values: np.ndarray

    @property
    def l_max(self) -> int:
        return int(self.lags[-1])

    def at(self, lag: int) -> complex:
        """Value at a signed lag; exactly zero outside the stored range."""
        if -self.l_max <= lag <= self.l_max:
            return complex(self.values[lag + self.l_max])
        return 0j


def _padded_taps(g: DechirpedGains) -> np.ndarray:
    v = np.zeros(g.k_max + 1, dtype=np.complex128)
    v[np.asarray(g.delays)] = g.gains
    return v


def auto_cross_correlation(
    params: LoRaParams, g: DechirpedGains, a: int, b: int
) -> CorrelationTable:
    """Correlate the hypothesis-a and hypothesis-b rotated tap vectors.

    Lag l holds sum_m v_a[m] * conj(v_b[m - l]) over the zero-padded tap
    vectors; for a == b, lag 0 is the channel energy.
    """
    va = _padded_taps(rotate_gains(params, g, a))
    vb = _padded_taps(rotate_gains(params, g, b))
    values = np.convolve(va, np.conj(vb[::-1]))
    l_max = va.size - 1
    return CorrelationTable(np.arange(-l_max, l_max + 1), values)


def mf_statistic(params: LoRaParams, r_dechirped, g: DechirpedGains, b: int) -> complex:
    """Matched-filter statistic for hypothesis b.

    Multiplies the dechirped window by conj(C_b) and evaluates the DFT at
    bin b only; no full transform is taken.
    """
    r = np.asarray(r_dechirped)
    cb = channel_coefficient(params, g, b)
    k = np.arange(params.m)
    twiddle = np.exp(-2j * np.pi * ((k * int(b)) % params.m) / params.m)
    return complex(np.sum(np.conj(cb) * r * twiddle))


def rake_statistic(params: LoRaParams, spectrum, g: DechirpedGains, b: int) -> complex:
    """Tap-combining statistic: conjugated rotated gains times shifted spectrum bins."""
    spec = np.asarray(spectrum)
    gb = rotate_gains(params, g, b)
    bins = (int(b) - np.asarray(gb.delays)) % params.m
    return complex(np.sum(np.conj(gb.gains) * spec[bins]))


def _tap_coefficients(params: LoRaParams, g: DechirpedGains) -> list[np.ndarray]:
    # per tap, conj(gain) times its b-rotation exp(2j*pi*d*b/M) over the
    # hypotheses b, gathered from the roots table
    m = params.m
    bgrid = np.arange(m)
    roots = _chirp_tables(params.sf)[1]
    return [np.conj(gain) * roots[(d * bgrid) & (m - 1)] for d, gain in zip(g.delays, g.gains)]


def _shifted_product(coef: np.ndarray, spec: np.ndarray, d: int, out: np.ndarray) -> None:
    # out = coef times the rows of spec cyclically shifted right by d
    m = coef.size
    np.multiply(coef[d:], spec[:, : m - d], out=out[:, d:])
    np.multiply(coef[:d], spec[:, m - d :], out=out[:, :d])


def rake_combine(params: LoRaParams, data_spec: np.ndarray, g: DechirpedGains) -> np.ndarray:
    """Complex tap-combining statistics for a batch of spectra: rows are symbols, columns tested bins.

    Entry (i, b) is rake_statistic of spectrum row i at hypothesis b; each
    tap adds its conjugated, b-rotated gain times the spectrum shifted by
    the tap delay. Linear in the spectrum, so it also maps white spectral
    noise to the statistic noise (see fastsim). The detectors decide on
    rake_scores, its real part.
    """
    coefs = _tap_coefficients(params, g)
    # delays[0] == 0, so the first tap needs no shift and starts the sum
    z = coefs[0] * data_spec
    if len(coefs) > 1:
        term = np.empty_like(z)
        for d, coef in zip(g.delays[1:], coefs[1:]):
            _shifted_product(coef, data_spec, d, term)
            z += term
    return z


def _conj_coefficients(params: LoRaParams, g: DechirpedGains) -> np.ndarray:
    # (M, M) windows of conj(C_0) taken twice: window a is conj(C_a)[k] =
    # conj(C_0)[(a + k) mod M] over the samples k
    hc = np.conj(channel_coefficient(params, g, 0))
    return sliding_window_view(np.concatenate((hc, hc)), params.m)


def mf_filter_bank(params: LoRaParams, g: DechirpedGains, cols: int | None = None) -> np.ndarray:
    """The matched-filter bank in the form mf_scores takes: a real (2 * cols, M) array.

    Window sample k's coefficients over the hypotheses b are
    conj(C_b[k]) * exp(-2j*pi*b*k/M); rows 2k and 2k+1 hold their real part
    and negated imaginary part, so a window's interleaved (real, imaginary)
    float view times the bank is the real part of every statistic. cols
    defaults to M; with cols given only the first cols samples are built:
    fastsim maps a window's k_max head samples to statistics through them.
    Built in slabs of channel.block_rows(M) samples, so the build holds the
    bank plus one slab of temporaries.
    """
    m = params.m
    n = m if cols is None else cols
    # window k holds conj(C_b)[k] = conj(C_0)[(b + k) mod M] over b
    heads = _conj_coefficients(params, g)
    twiddles = np.conj(_chirp_tables(params.sf)[1])
    grid = np.arange(m)
    bank = np.empty((2 * n, m))
    step = block_rows(m)
    for k0 in range(0, n, step):
        k1 = min(n, k0 + step)
        # the twiddle is the conjugated root at (b * k) mod M (M a power of two)
        idx = np.multiply.outer(grid[k0:k1], grid)
        idx &= m - 1
        slab = twiddles[idx]
        # the coefficients stay the left operand: the SIMD complex multiply
        # is not bitwise commutative
        np.multiply(heads[k0:k1], slab, out=slab)
        bank[2 * k0 : 2 * k1 : 2] = slab.real
        np.negative(slab.imag, out=bank[2 * k0 + 1 : 2 * k1 : 2])
    return bank


def rake_scores(params: LoRaParams, data_spec: np.ndarray, g: DechirpedGains,
                out: np.ndarray | None = None, work: np.ndarray | None = None) -> np.ndarray:
    """Tap-combining scores: the real part of rake_combine, the part every detector decides on.

    No complex sum is kept: each tap's complex product goes to work, a
    complex array of data_spec's shape, and only its real part is added to
    out, a real one. The products are rake_combine's, and the real part of a
    complex sum is the sum of the real parts, so the scores are that real
    part bit for bit. (Two real products per tap over the spectrum's
    strided real and imaginary views were slower: numpy runs strided loops
    without SIMD.)
    """
    z = np.empty(data_spec.shape) if out is None else out
    term = np.empty(data_spec.shape, dtype=np.complex128) if work is None else work
    # delays[0] == 0, so the first tap needs no shift and starts the sum
    for i, (d, coef) in enumerate(zip(g.delays, _tap_coefficients(params, g))):
        _shifted_product(coef, data_spec, d, term)
        if i:
            z += term.real
        else:
            np.copyto(z, term.real)
    return z


def mf_scores(data_dech: np.ndarray, bank: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Matched-filter scores for a batch of dechirped windows through the filter bank.

    bank is mf_filter_bank(...), or its first cols samples for (n, cols)
    windows. Only the real part of each statistic is scored,
    Re(sum_k r_k B_bk) = sum_k r_k.real B_bk.real - r_k.imag B_bk.imag: one
    real matrix product of the windows' interleaved (real, imaginary) float
    view, half the flops of the complex one and no copies. Its sums run in
    another order, so scores may differ from the complex product's real part
    by a few ulp. Independent of the rake construction, so the two
    cross-check each other. out is a real (n, M) array.
    """
    return np.matmul(np.ascontiguousarray(data_dech).view(np.float64), bank, out=out)


def ideal_mf_scores(params: LoRaParams, data_dech: np.ndarray, g: DechirpedGains,
                    true_symbols: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Genie-aided bound: each window filtered with its true symbol's coefficient, then a DFT.

    Row i holds the real part of the spectrum of conj(C_a) * window i, with
    a = true_symbols[i]; its argmax is the ideal detector's decision. The
    spectra are made in out, a complex (n, M) array, and the real view of
    it is returned.
    """
    heads = _conj_coefficients(params, g)
    rows = np.empty(np.shape(data_dech), dtype=np.complex128) if out is None else out
    # row by row: a gather by index would make an (n, M) index or copy
    for i, a in enumerate(true_symbols):
        rows[i] = heads[a]
    np.multiply(rows, data_dech, out=rows)
    return np.fft.fft(rows, axis=1, out=rows).real


def _head_scores(y: np.ndarray, bank: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    # mf_scores of (n, k) head samples y, zero-padded to M, through a bank's
    # first k samples: the same products, each score summed on its own by an
    # einsum, so a row rounds alike in any block and no BLAS thread runs. A
    # 2-D matmul over the block rounds by its row count and runs on BLAS
    # threads in every pool worker at once (fastsim's edge_statistics keeps
    # it: it runs in one process, and there it is faster)
    z = np.empty((y.shape[0], bank.shape[1])) if out is None else out
    return np.einsum("nk,km->nm", np.ascontiguousarray(y).view(np.float64), bank, out=z)


def clean_rake_scores(params: LoRaParams, g: DechirpedGains, symbols, delta: np.ndarray,
                      bank: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """rake_scores of noise-free window spectra, and mf_scores of their inverse FFT, in closed form.

    The spectra are channel.dechirped_spectra's for the windows' symbols
    and their (n, k_max) head deltas (channel.head_deltas), G being the
    channel's dechirped gains. Each window's head delta passes through
    bank, mf_filter_bank(params, g, cols=g.k_max), and tap k scores tap i's
    line at hypothesis b = s - d_i + d_k: K^2 terms per window, with no
    spectrum formed. Equal to either kernel up to rounding; out is a real
    (n, M) array.
    """
    m = params.m
    s = np.asarray(symbols, dtype=np.int64).reshape(-1)
    z = _head_scores(delta, bank, out)
    rows = np.arange(s.size)
    coefs = _tap_coefficients(params, g)
    for d_i, line in zip(g.delays, line_amplitudes(params, g, s)):
        for d_k, coef in zip(g.delays, coefs):
            b = (s - d_i + d_k) & (m - 1)
            z[rows, b] += (coef[b] * line).real
    return z


def clean_ideal_mf_scores(params: LoRaParams, g: DechirpedGains, symbols, delta: np.ndarray,
                          out: np.ndarray | None = None) -> np.ndarray:
    """ideal_mf_scores of the inverse FFT of noise-free window spectra, in closed form.

    As clean_rake_scores, with the true symbols s: window j's head delta
    times conj(C_s)'s first k_max samples passes through a DFT, and lines
    i and k meet at bin s - d_i + d_k with
    M * G_i * conj(G_k) * exp(-2j*pi*(d_i - d_k)*s/M).
    """
    m = params.m
    s = np.asarray(symbols, dtype=np.int64).reshape(-1)
    # conj(C_s)'s first k_max samples, gathered as (n, k_max), never as (n, M)
    # rows, pass through the DFT's first k_max samples: one unit tap's bank
    heads = _conj_coefficients(params, g)[s, : g.k_max]
    dft = mf_filter_bank(params, DechirpedGains((0,), (1.0,)), cols=g.k_max)
    z = _head_scores(heads * delta, dft, out)
    rows = np.arange(s.size)
    roots = _chirp_tables(params.sf)[1]
    for d_i, line in zip(g.delays, line_amplitudes(params, g, s)):
        for d_k, gain in zip(g.delays, g.gains):
            turn = np.conj(gain) * roots[(d_k * s) & (m - 1)]
            z[rows, (s - d_i + d_k) & (m - 1)] += (line * turn).real
    return z


def candidate_masks(mag: np.ndarray, rule: tuple[str, float], out: np.ndarray | None = None,
                    work: np.ndarray | None = None) -> np.ndarray:
    """Boolean (symbols, M) mask of the bins each candidate detector scores.

    rule ("fixed", n_c) keeps the n_c highest-magnitude bins of each row,
    ties to the lower index. rule ("threshold", rho_c) keeps the bins whose
    magnitude strictly exceeds rho_c times the row peak; a row with no such
    bin (all zero) keeps its argmax bin, which is bin 0. out is a boolean
    array of mag's shape; work, a real one, holds the fixed rule's
    partitioned copy of mag.
    """
    kind, val = rule
    mask = np.empty(mag.shape, dtype=bool) if out is None else out
    if kind == "fixed":
        n_c = int(val)
        # keep every bin at or above the n_c-th largest magnitude of its row
        part = np.empty_like(mag) if work is None else work
        np.copyto(part, mag)
        part.partition(mag.shape[1] - n_c, axis=1)
        thr = part[:, -n_c, None]
        np.greater_equal(mag, thr, out=mask)
        over = np.flatnonzero(np.count_nonzero(mask, axis=1) > n_c)
        if over.size:
            # more bins tie at the threshold than fit: the lowest-index ones fill up
            sub, t = mag[over], thr[over]
            ties = sub == t
            room = n_c - np.count_nonzero(sub > t, axis=1)
            mask[over] = (sub > t) | (ties & (np.cumsum(ties, axis=1) <= room[:, None]))
        return mask
    np.greater(mag, val * mag.max(axis=1, keepdims=True), out=mask)
    dead = np.flatnonzero(~mask.any(axis=1))
    if dead.size:
        mask[dead, np.argmax(mag[dead], axis=1)] = True
    return mask


def masked_argmax(scores: np.ndarray, mask: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Per-row argmax over the masked bins only; ties resolve to the lowest bin.

    The masked scores, -inf elsewhere, are written to out, a real array of
    scores' shape.
    """
    filled = np.empty(scores.shape) if out is None else out
    filled.fill(-np.inf)
    np.copyto(filled, scores, where=mask)
    return np.argmax(filled, axis=1)


# bins of a strided array _argmax_rows copies at a time (256 KiB of floats)
_ARGMAX_BINS = 1 << 15


def _argmax_rows(a: np.ndarray) -> np.ndarray:
    """np.argmax(a, axis=-1) for a strided (..., M) array, such as a complex array's real part.

    np.argmax copies a strided array whole into a contiguous one; this
    copies it a few rows at a time.
    """
    rows = a.reshape(-1, a.shape[-1])
    step = max(1, _ARGMAX_BINS // a.shape[-1])
    dec = np.empty(rows.shape[0], dtype=np.intp)
    for r in range(0, rows.shape[0], step):
        np.argmax(rows[r : r + step], axis=1, out=dec[r : r + step])
    return dec.reshape(a.shape[:-1])


_DELTA_VARIANTS = ("coh", "noncoh", "ideal_mf", "mf")


def delta_indicator(params: LoRaParams, ch, a: int, variant: str) -> float:
    """Largest parasitic-peak score relative to the peak of interest for symbol a.

    Variants "coh"/"noncoh" rate the legacy detectors (echo gains against
    the first-path gain); "ideal_mf"/"mf" rate the matched-filter spectra
    via the tap correlation table. The maximum runs over the lags where
    the correlation can be nonzero (pairwise delay differences) and may be
    negative for the real-part variants; a single-path channel gives 0.
    """
    if variant not in _DELTA_VARIANTS:
        raise ValueError(f"variant must be one of {_DELTA_VARIANTS}, got {variant!r}")
    g = dechirped_gain(params, ch)
    a0 = complex(np.asarray(ch.gains).reshape(-1)[0])
    if variant in ("coh", "noncoh"):
        if g.n_paths == 1:
            return 0.0
        if variant == "noncoh":
            # rotations are phase-only, so echo magnitudes equal the raw tap
            # magnitudes; evaluating them directly keeps the ratio exact
            mags = np.abs(np.asarray(ch.gains, dtype=np.complex128).reshape(-1))
            return float(np.max(mags[1:]) / mags[0])
        echoes = rotate_gains(params, g, a).gains[1:]
        # align the first-path phase before taking real parts
        return float(np.max((echoes * np.conj(a0) / abs(a0)).real) / abs(a0))
    delays = g.delays
    lags = sorted({di - dj for di in delays for dj in delays} - {0})
    if not lags:
        return 0.0
    denom = auto_cross_correlation(params, g, a, a).at(0).real
    if variant == "ideal_mf":
        table = auto_cross_correlation(params, g, a, a)
        return max(table.at(l).real for l in lags) / denom
    # mf: each parasitic peak is scored by the hypothesis b = a - l at its own bin
    best = -np.inf
    for l in lags:
        b = (a - l) % params.m
        best = max(best, auto_cross_correlation(params, g, a, b).at(l).real)
    return best / denom


def tdel_detect(avg_pilot_spectrum, data_spectrum, rho_tdel: float, out: np.ndarray | None = None):
    """Threshold-and-correlate detector on magnitude spectra.

    The averaged pilot magnitude profile is thresholded at rho_tdel times
    its peak (bins strictly below the threshold are zeroed; if that would
    zero every bin, the single peak bin is kept). The profile is then
    cyclically cross-correlated with the data magnitude spectrum and the
    argmax shift is the symbol estimate. Magnitude-only, so global phase
    never matters. Accepts (..., M) batches of complex data spectra or of
    their real magnitudes; the absolute values of either are correlated.

    Both correlations of a row pair are real, so one complex transform
    makes two: row 2i's magnitudes are packed into the real part and row
    2i+1's into the imaginary part, and each comes back in its own part.
    out, a complex array of at least ceil(n/2) rows of M bins for n data
    rows, holds the packed rows; only its first ceil(n/2) rows are written.
    """
    if rho_tdel <= 0:
        raise ValueError(f"rho_tdel must be > 0, got {rho_tdel}")
    p = np.abs(np.asarray(avg_pilot_spectrum, dtype=np.complex128).reshape(-1))
    kept = np.where(p >= rho_tdel * float(p.max()), p, 0.0)
    if not kept.any() and p.any():
        # threshold above the peak: fall back to the peak bin alone
        kept = np.zeros_like(p)
        kept[int(np.argmax(p))] = float(p.max())
    spec = np.asarray(data_spectrum)
    rows = spec.reshape(-1, p.size)
    n = rows.shape[0]
    half = n // 2
    z = (np.empty((n - half, p.size), dtype=np.complex128) if out is None
         else out.reshape(-1, p.size)[: n - half])
    np.abs(rows[0::2], out=z.real)
    np.abs(rows[1::2], out=z.imag[:half])
    z.imag[half:] = 0.0
    np.fft.fft(z, axis=-1, out=z)
    np.multiply(np.conj(np.fft.fft(kept)), z, out=z)
    np.fft.ifft(z, axis=-1, out=z)
    dec = np.empty(n, dtype=np.intp)
    dec[0::2] = _argmax_rows(z.real)
    dec[1::2] = _argmax_rows(z.imag[:half])
    return int(dec[0]) if spec.ndim == 1 else dec.reshape(spec.shape[:-1])
