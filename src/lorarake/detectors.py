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
may choose, and masked_argmax decides. mf_statistic and rake_statistic
evaluate one hypothesis of one window by direct sums; they are the
reference forms the kernels are checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .channel import DechirpedGains, channel_coefficient, dechirped_gain, rotate_gains
from .waveform import LoRaParams

__all__ = [
    "CorrelationTable",
    "auto_cross_correlation",
    "mf_statistic",
    "rake_statistic",
    "mf_filter_bank",
    "prepare_mf_bank",
    "rake_combine",
    "rake_scores",
    "mf_scores",
    "ideal_mf_scores",
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


def mf_filter_bank(params: LoRaParams, g: DechirpedGains, cols: int | None = None) -> np.ndarray:
    """M x M matrix whose row b turns a dechirped window into the hypothesis-b statistic.

    Row b is conj(C_b[k]) * exp(-2j*pi*b*k/M), so the statistics of a batch
    of windows are windows @ bank.T; mf_scores takes the bank through
    prepare_mf_bank. With cols given, only the first cols window samples
    (columns) are built: fastsim's previous-symbol head term needs k_max of
    them. bank @ bank^H is the statistic-noise covariance at unit noise
    variance, which fastsim samples through rake_combine instead.
    """
    m = params.m
    grid = np.arange(m)
    k = grid if cols is None else grid[:cols]
    h = channel_coefficient(params, g, 0)
    cmat = h[(grid[:, None] + k[None, :]) % m]
    twiddle = np.exp(-2j * np.pi * ((grid[:, None] * k[None, :]) % m) / m)
    return np.conj(cmat) * twiddle


def rake_combine(params: LoRaParams, data_spec: np.ndarray, g: DechirpedGains) -> np.ndarray:
    """Complex tap-combining statistics for a batch of spectra: rows are symbols, columns tested bins.

    Entry (i, b) is the hypothesis-b statistic of spectrum row i; each tap
    adds its conjugated, b-rotated gain times the spectrum shifted by the
    tap delay. Linear in the spectrum, so it also maps white spectral
    noise to the statistic noise (see fastsim).
    """
    m = params.m
    bgrid = np.arange(m)
    coefs = [np.conj(gain) * np.exp(2j * np.pi * ((d * bgrid) % m) / m)
             for d, gain in zip(g.delays, g.gains)]
    # delays[0] == 0, so the first tap needs no shift and starts the sum
    z = coefs[0] * data_spec
    if len(coefs) > 1:
        term = np.empty_like(z)
        for d, coef in zip(g.delays[1:], coefs[1:]):
            # coef times the spectrum cyclically shifted right by d
            np.multiply(coef[d:], data_spec[:, : m - d], out=term[:, d:])
            np.multiply(coef[:d], data_spec[:, m - d :], out=term[:, :d])
            z += term
    return z


def rake_scores(params: LoRaParams, data_spec: np.ndarray, g: DechirpedGains) -> np.ndarray:
    """Tap-combining scores: the real part of rake_combine, the part every detector decides on."""
    return rake_combine(params, data_spec, g).real


def prepare_mf_bank(bank: np.ndarray) -> np.ndarray:
    """The form of an mf_filter_bank that mf_scores takes: a (2M, M) real array
    whose rows 2k and 2k+1 hold column k's real part and negated imaginary part."""
    w = np.empty((2 * bank.shape[1], bank.shape[0]))
    w[0::2] = bank.real.T
    w[1::2] = -bank.imag.T
    return w


def mf_scores(data_dech: np.ndarray, bank: np.ndarray) -> np.ndarray:
    """Matched-filter scores for a batch of dechirped windows through a prepared filter bank.

    bank is prepare_mf_bank(mf_filter_bank(...)). Only the real part of
    each statistic is scored, Re(r @ B.T) = sum_k r_k.real B_bk.real - r_k.imag B_bk.imag:
    one real matrix product of the windows' interleaved (real, imaginary)
    float view, half the flops of the complex one and no copies. Its sums
    run in another order, so scores may differ from (r @ B.T).real by a few
    ulp. Independent of the rake construction, so the two cross-check each
    other.
    """
    return np.ascontiguousarray(data_dech).view(np.float64) @ bank


def ideal_mf_scores(params: LoRaParams, data_dech: np.ndarray, g: DechirpedGains,
                    true_symbols: np.ndarray) -> np.ndarray:
    """Genie-aided bound: each window filtered with its true symbol's coefficient, then a DFT.

    Row i holds the real part of the spectrum of conj(C_a) * window i, with
    a = true_symbols[i]; its argmax is the ideal detector's decision.
    """
    m = params.m
    hc = np.conj(channel_coefficient(params, g, 0))
    # window a of the doubled row is conj(C_a)[k] = conj(C_0)[(a + k) % M]
    rows = sliding_window_view(np.concatenate((hc, hc)), m)[true_symbols]
    np.multiply(rows, data_dech, out=rows)
    return np.fft.fft(rows, axis=1).real


def candidate_masks(mag: np.ndarray, rule: tuple[str, float]) -> np.ndarray:
    """Boolean (symbols, M) mask of the bins each candidate detector scores.

    rule ("fixed", n_c) keeps the n_c highest-magnitude bins of each row,
    ties to the lower index. rule ("threshold", rho_c) keeps the bins whose
    magnitude strictly exceeds rho_c times the row peak; a row with no such
    bin (all zero) keeps its argmax bin, which is bin 0.
    """
    kind, val = rule
    if kind == "fixed":
        n_c = int(val)
        # keep every bin at or above the n_c-th largest magnitude of its row
        thr = np.partition(mag, mag.shape[1] - n_c, axis=1)[:, -n_c, None]
        mask = mag >= thr
        over = np.flatnonzero(np.count_nonzero(mask, axis=1) > n_c)
        if over.size:
            # more bins tie at the threshold than fit: the lowest-index ones fill up
            sub, t = mag[over], thr[over]
            ties = sub == t
            room = n_c - np.count_nonzero(sub > t, axis=1)
            mask[over] = (sub > t) | (ties & (np.cumsum(ties, axis=1) <= room[:, None]))
        return mask
    mask = mag > val * mag.max(axis=1, keepdims=True)
    dead = np.flatnonzero(~mask.any(axis=1))
    if dead.size:
        mask[dead, np.argmax(mag[dead], axis=1)] = True
    return mask


def masked_argmax(scores: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Per-row argmax over the masked bins only; ties resolve to the lowest bin."""
    return np.argmax(np.where(mask, scores, -np.inf), axis=1)


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


def tdel_detect(avg_pilot_spectrum, data_spectrum, rho_tdel: float):
    """Threshold-and-correlate detector on magnitude spectra.

    The averaged pilot magnitude profile is thresholded at rho_tdel times
    its peak (bins strictly below the threshold are zeroed; if that would
    zero every bin, the single peak bin is kept). The profile is then
    cyclically cross-correlated with the data magnitude spectrum and the
    argmax shift is the symbol estimate. Magnitude-only, so global phase
    never matters. Accepts (..., M) batches of data spectra.
    """
    if rho_tdel <= 0:
        raise ValueError(f"rho_tdel must be > 0, got {rho_tdel}")
    p = np.abs(np.asarray(avg_pilot_spectrum, dtype=np.complex128).reshape(-1))
    kept = np.where(p >= rho_tdel * float(p.max()), p, 0.0)
    if not kept.any() and p.any():
        # threshold above the peak: fall back to the peak bin alone
        kept = np.zeros_like(p)
        kept[int(np.argmax(p))] = float(p.max())
    q = np.abs(np.asarray(data_spectrum))
    corr = np.fft.ifft(np.conj(np.fft.fft(kept)) * np.fft.fft(q, axis=-1), axis=-1).real
    dec = np.argmax(corr, axis=-1)
    return int(dec) if np.ndim(dec) == 0 else dec
