"""Closed-form statistic model for fast symbol-error simulation.

For a given channel the steady-state noise-free detector statistic
depends only on the (sent, tested) symbol pair, and it is nonzero only
where the signed lag sent - tested is a difference of two path delays:
one coefficient per lag describes it. The statistic noise needs no
model of its own. The matched filter is a rake over the DFT output, and
the dechirped noise of a window has a white CN(0, M*sigma2) spectrum, so
the rake combiner applied to white spectral noise draws the statistic
noise with its exact joint law. A Monte Carlo trial is then one white
draw, one rake pass and an argmax, skipping waveform synthesis entirely.

The steady-state statistic neglects one real effect: the first k_max
samples of a window carry the previous symbol's chirp tail. That
perturbation also has a closed form in the (previous, current) symbol
pair, and the sampler applies it exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import DechirpedGains, complex_noise, window_heads
from .detectors import mf_filter_bank, rake_combine
from .waveform import LoRaParams, chirp_samples

__all__ = [
    "FastSimModel",
    "build_fast_sim",
    "edge_statistics",
    "sample_correlated_noise",
    "simulate_ser",
]


@dataclass(frozen=True)
class FastSimModel:
    """Per-lag statistic coefficients plus the previous-symbol head term.

    When a was sent, the steady-state statistic of tested bin a - lags[i]
    is lag_coeffs[i] * exp(-2j*pi*a*lags[i]/M), and every other bin's is
    zero. edge_table row s holds the dechirped head contribution of symbol
    s over the first k_max window samples, and head is the matching
    k_max-column slice of the matched-filter bank; together they give the
    exact previous-symbol correction. No array is M x M: z_matrix and cov
    are built on demand, for checks only.
    """

    params: LoRaParams
    gains: DechirpedGains
    lags: np.ndarray
    lag_coeffs: np.ndarray
    edge_table: np.ndarray
    head: np.ndarray

    @property
    def z_matrix(self) -> np.ndarray:
        """z_matrix[a, b]: steady-state statistic for tested bin b when a was sent."""
        z = np.zeros((self.params.m, self.params.m), dtype=np.complex128)
        _add_steady_rows(self, np.arange(self.params.m), z)
        return z

    @property
    def cov(self) -> np.ndarray:
        """Statistic-noise covariance at unit per-sample noise variance: the
        Gram matrix of the matched-filter bank (scale by sigma2)."""
        bank = mf_filter_bank(self.params, self.gains)
        return bank @ bank.conj().T


def build_fast_sim(params: LoRaParams, g: DechirpedGains) -> FastSimModel:
    """Precompute the lag coefficients and the head term for one channel.

    For K paths spanning k_max chips the model holds at most K^2 lag
    coefficients and two M x k_max tables; no M x M array is built.
    """
    m = params.m
    if g.k_max >= m // 2:
        raise ValueError(f"tap span {g.k_max} must be below M/2={m // 2} for signed lags")
    delays = np.asarray(g.delays, dtype=np.int64)
    gains = g.gains

    # Noise-free statistic: one coefficient per signed lag a - b that is a
    # pairwise delay difference (distinct mod M, as the span is below M/2).
    lags = sorted({int(di - dj) for di in delays for dj in delays})
    coeffs = []
    for lag in lags:
        coeff = 0j
        for i, di in enumerate(delays):
            for j, dj in enumerate(delays):
                if di - dj == lag:
                    phase = np.exp(-2j * np.pi * ((lag * int(dj)) % m) / m)
                    coeff += gains[i] * np.conj(gains[j]) * phase
        coeffs.append(m * coeff)

    # Head table for the exact previous-symbol correction: row s is the
    # dechirped tail symbol s sends into the next window's first k_max
    # samples, from the raw tap gains (the dechirp rotation undone).
    raw = gains * np.conj(chirp_samples(params, 0, -delays))
    edge_table = window_heads(params, g.delays, raw, np.arange(m))
    head = mf_filter_bank(params, g, cols=g.k_max)
    return FastSimModel(params, g, np.array(lags, dtype=np.int64),
                        np.array(coeffs, dtype=np.complex128), edge_table, head)


def _add_steady_rows(model: FastSimModel, sent: np.ndarray, out: np.ndarray) -> None:
    """Add the steady-state statistic rows of the sent symbols to out, one entry per lag."""
    m = model.params.m
    rows = np.arange(sent.size)
    for lag, coeff in zip(model.lags, model.lag_coeffs):
        out[rows, (sent - lag) % m] += coeff * np.exp(-2j * np.pi * ((sent * lag) % m) / m)


def edge_statistics(model: FastSimModel, prev_symbols, symbols) -> np.ndarray:
    """Exact statistic correction for the previous-symbol window heads.

    Returns the (n, M) complex adjustment that turns steady-state rows
    z_matrix[symbols] into the true noise-free statistics of windows
    preceded by prev_symbols. Zero whenever the two symbols agree or the
    channel has a single tap.
    """
    prev = np.asarray(prev_symbols, dtype=np.int64)
    sent = np.asarray(symbols, dtype=np.int64)
    if prev.shape != sent.shape:
        raise ValueError("previous and current symbol arrays must align")
    if model.edge_table.shape[1] == 0:
        return np.zeros((sent.size, model.params.m), dtype=np.complex128)
    delta = model.edge_table[prev] - model.edge_table[sent]
    return delta @ model.head.T


def sample_correlated_noise(
    model: FastSimModel,
    sigma2: float,
    rng: np.random.Generator,
    size: int | None = None,
):
    """Draw statistic noise with covariance sigma2 * model.cov.

    The rake combiner applied to white CN(0, M*sigma2) spectral noise,
    which is what the exact pipeline's statistics see. Returns shape (M,)
    or (size, M).
    """
    m = model.params.m
    n = 1 if size is None else int(size)
    w = rake_combine(model.params, complex_noise((n, m), m * sigma2, rng), model.gains)
    return w[0] if size is None else w


# elements of one (block, M) complex array in simulate_ser: 16 MiB
_BLOCK_ELEMENTS = 1 << 20


def simulate_ser(
    model: FastSimModel,
    sigma2: float,
    n_symbols: int,
    rng: np.random.Generator,
    batch: int = 4096,
) -> int:
    """Symbol errors of the full-search detector under the fast model.

    Draws one uniform symbol chain and the statistic noise, adds the
    steady-state statistics and the exact previous-symbol head term,
    scores every bin's real part, and counts argmax mismatches. The chain
    opens on a value-0 predecessor, mirroring the trailing pilot before a
    data burst. Works on blocks of at most batch symbols and at most
    _BLOCK_ELEMENTS bins. Returns the error count over n_symbols.
    """
    m = model.params.m
    block = min(batch, _BLOCK_ELEMENTS // m)
    errors = 0
    done = 0
    last = 0
    while done < n_symbols:
        n = min(block, n_symbols - done)
        sent = rng.integers(0, m, size=n)
        stats = sample_correlated_noise(model, sigma2, rng, size=n)
        if model.edge_table.shape[1]:
            prev = np.concatenate([[last], sent[:-1]])
            stats += edge_statistics(model, prev, sent)
        _add_steady_rows(model, sent, stats)
        errors += int(np.sum(np.argmax(stats.real, axis=1) != sent))
        done += n
        last = int(sent[-1])
    return errors
