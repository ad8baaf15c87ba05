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
returns a fresh array without one. The rake and the ideal detector, the
rake with every tap's rotation taken at the true symbol, share one
tap-accumulate loop on the spectra. mf_statistic, rake_statistic and
rake_combine are the reference forms the kernels are checked against.
clean_rake_scores gives the rake/mf scores of noise-free window spectra
(channel.dechirped_spectra) from the windows' symbols and head deltas,
without forming a spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .channel import (
    DechirpedGains,
    block_rows,
    channel_coefficient,
    dechirped_gain,
    line_amplitudes,
    rotate_gains,
)
from .waveform import LoRaParams, _chirp_tables

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


def _shifted_product(hi: np.ndarray, lo: np.ndarray, spec: np.ndarray, d: int,
                     out: np.ndarray) -> None:
    # out = the rows of spec cyclically shifted right by d, times hi in columns
    # d.. and lo in the first d: the coefficients stay the left operand
    m = spec.shape[1]
    np.multiply(hi, spec[:, : m - d], out=out[:, d:])
    np.multiply(lo, spec[:, m - d :], out=out[:, :d])


def _tap_sum(spec: np.ndarray, taps, out: np.ndarray | None, work: np.ndarray | None) -> np.ndarray:
    # the real part of the sum over taps (d, hi, lo) of _shifted_product, in
    # tap order, each product made in work and only its real part added to out
    z = np.empty(spec.shape) if out is None else out
    term = np.empty(spec.shape, dtype=np.complex128) if work is None else work
    for i, (d, hi, lo) in enumerate(taps):
        _shifted_product(hi, lo, spec, d, term)
        if i:
            z += term.real
        else:
            np.copyto(z, term.real)
    return z


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
            _shifted_product(coef[d:], coef[:d], data_spec, d, term)
            z += term
    return z


def mf_filter_bank(params: LoRaParams, g: DechirpedGains, cols: int | None = None) -> np.ndarray:
    """The matched-filter bank in the form mf_scores takes: a real (2 * cols, M) array.

    Window sample k's coefficients over the hypotheses b are
    conj(C_b[k]) * exp(-2j*pi*b*k/M); rows 2k and 2k+1 hold their real part
    and negated imaginary part, so a window's interleaved (real, imaginary)
    float view times the bank is the real part of every statistic. cols
    defaults to M; with cols given only the first cols samples are built:
    a window's k_max head samples map to scores through them
    (clean_rake_scores, and fastsim's edge_statistics).
    Built in slabs of channel.block_rows(M) samples in one reused slab of
    temporaries, so a build's cost does not depend on the allocator's
    history.
    """
    m = params.m
    n = m if cols is None else cols
    # window k of conj(C_0) taken twice holds conj(C_b)[k] = conj(C_0)[(b + k) mod M] over b
    hc = np.conj(channel_coefficient(params, g, 0))
    heads = sliding_window_view(np.concatenate((hc, hc)), m)
    twiddles = np.conj(_chirp_tables(params.sf)[1])
    grid = np.arange(m)
    bank = np.empty((2 * n, m))
    step = max(1, min(n, block_rows(m)))
    idx_buf, slab_buf = np.empty((step, m), dtype=np.int64), np.empty((step, m), complex)
    for k0 in range(0, n, step):
        k1 = min(n, k0 + step)
        idx, slab = idx_buf[: k1 - k0], slab_buf[: k1 - k0]
        # the twiddle is the conjugated root at (b * k) mod M (M a power of two)
        np.multiply.outer(grid[k0:k1], grid, out=idx)
        idx &= m - 1
        np.take(twiddles, idx, out=slab, mode="clip")  # mode "raise" buffers out
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
    taps = ((d, coef[d:], coef[:d]) for d, coef in zip(g.delays, _tap_coefficients(params, g)))
    return _tap_sum(data_spec, taps, out, work)


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


def ideal_mf_scores(params: LoRaParams, data_spec: np.ndarray, g: DechirpedGains,
                    true_symbols: np.ndarray, out: np.ndarray | None = None,
                    work: np.ndarray | None = None) -> np.ndarray:
    """Genie-aided bound: each window matched to its true symbol's coefficient, over every bin.

    Row i at bin b is the real part of sum_l conj(G_l) exp(2j*pi*d_l*a/M)
    X[b - d_l], X being row i of data_spec and a = true_symbols[i]: the DFT
    at b of conj(C_a) times X's dechirped window, or the rake with each
    tap's rotation taken at a rather than at b, so it matches rake_scores
    bit for bit at b = a. Its argmax is the ideal detector's decision. out
    and work are as rake_scores'.
    """
    a = np.asarray(true_symbols)
    cols = [coef[a][:, None] for coef in _tap_coefficients(params, g)]
    return _tap_sum(data_spec, ((d, c, c) for d, c in zip(g.delays, cols)), out, work)


def _head_scores(y: np.ndarray, bank: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    # mf_scores of (n, k) head samples y, zero-padded to M, through a bank's
    # first k samples: the same products, each score summed on its own by an
    # einsum, so a row rounds alike in any block and no BLAS thread runs. A
    # 2-D matmul over the block rounds by its row count and runs on BLAS
    # threads in every trial thread and part at once (fastsim's
    # edge_statistics keeps it: it runs on one thread, and there it is faster)
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
        # every row keeps at least n_c bins, so one whole-block count tells
        # whether any row keeps more, and the per-row count runs only then
        if np.count_nonzero(mask) > mask.shape[0] * n_c:
            over = np.flatnonzero(np.count_nonzero(mask, axis=1) > n_c)
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


# masked_argmax's branch-free form runs above 1 / _DENSE_MASK of the bins
_NINF_BITS = np.array(-np.inf).view(np.int64)
_DENSE_MASK = 25


def masked_argmax(scores: np.ndarray, mask: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Per-row argmax over the masked bins only; ties resolve to the lowest bin.

    The masked scores, -inf elsewhere, are written to out, a real array of
    scores' shape, in one of two forms that write the same bytes:
    - over 4% of the first row's bins masked, three branch-free integer
      passes over out's bits, (bits(scores) ^ bits(-inf)) * mask ^ bits(-inf);
    - otherwise, a fill with -inf and a masked copy of the scores.
    Measured in process on (32-256, 1024-4096) blocks, the masked copy cost
    0.5-0.8 ns a bin on the sparsest masks and 5-6.5 at 30-45% of the bins,
    the three passes 1.4-1.8 at any density: they crossed at 3-4%. The first
    row stands for the rest: the fixed rule masks n_c bins of every row, and
    a threshold mask's rows share one law. The form sets the time alone.
    """
    filled = np.empty(scores.shape) if out is None else out
    if np.count_nonzero(mask[:1]) * _DENSE_MASK > mask.shape[-1]:
        bits = filled.view(np.int64)
        np.bitwise_xor(scores.view(np.int64), _NINF_BITS, out=bits)
        np.multiply(bits, mask, out=bits)
        np.bitwise_xor(bits, _NINF_BITS, out=bits)
    else:
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
    table = auto_cross_correlation(params, g, a, a)
    denom = table.at(0).real
    if variant == "ideal_mf":
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
