"""Closed-form statistic model for fast symbol-error simulation.

For a given channel the steady-state noise-free detector statistic
depends only on the (sent, tested) symbol pair, and the statistic noise
across tested bins is jointly Gaussian with a known covariance.
Precomputing both turns a Monte Carlo trial into one correlated-Gaussian
draw plus an argmax, skipping waveform synthesis entirely.

The steady-state matrix alone neglects one real effect: the first k_max
samples of a window carry the previous symbol's chirp tail. That
perturbation also has a closed form in the (previous, current) symbol
pair, so the sampler applies it exactly by default; turning it off
exposes the residual bias of the pure steady-state model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import DechirpedGains
from .detectors import mf_filter_bank
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
    """Noise-free statistic matrix plus a factorized statistic-noise covariance.

    z_matrix[a, b] is the steady-state statistic for tested bin b when a
    was sent; cov is the covariance of the statistic noise at unit
    per-sample noise variance (scale by sigma2 when sampling), and chol
    is its (possibly jittered) lower Cholesky factor. edge_table row s
    holds the dechirped head contribution of symbol s over the first
    k_max window samples, and head_bank is the matching filter-bank
    slice; together they give the exact previous-symbol correction.
    """

    params: LoRaParams
    gains: DechirpedGains
    z_matrix: np.ndarray
    cov: np.ndarray
    chol: np.ndarray
    edge_table: np.ndarray
    head_bank: np.ndarray

    @property
    def energy(self) -> float:
        return self.gains.energy()


def build_fast_sim(params: LoRaParams, g: DechirpedGains) -> FastSimModel:
    """Precompute the statistic matrix and noise factor for one channel.

    Memory and factorization cost are O(M^2) and O(M^3); intended for
    desk-scale spreading factors.
    """
    m = params.m
    if g.k_max >= m // 2:
        raise ValueError(f"tap span {g.k_max} must be below M/2={m // 2} for signed lags")
    delays = np.asarray(g.delays, dtype=np.int64)
    gains = g.gains
    a_grid = np.arange(m)

    # Noise-free statistic: nonzero only when the signed lag a - b is a
    # pairwise delay difference; one vectorized diagonal per lag.
    z = np.zeros((m, m), dtype=np.complex128)
    for lag in sorted({int(di - dj) for di in delays for dj in delays}):
        coeff = 0j
        for i, di in enumerate(delays):
            for j, dj in enumerate(delays):
                if di - dj == lag:
                    phase = np.exp(-2j * np.pi * ((lag * int(dj)) % m) / m)
                    coeff += gains[i] * np.conj(gains[j]) * phase
        row_phase = np.exp(-2j * np.pi * ((a_grid * lag) % m) / m)
        z[a_grid, (a_grid - lag) % m] = m * coeff * row_phase

    # Statistic-noise covariance at unit sigma2: Gram matrix of the
    # matched-filter bank, Hermitian PSD by construction.
    bank = mf_filter_bank(params, g)
    cov = bank @ bank.conj().T

    scale = m * g.energy()
    chol = None
    for eps in (0.0, 1e-12, 1e-12 * scale, 1e-9 * scale):
        try:
            chol = np.linalg.cholesky(cov + eps * np.eye(m) if eps else cov)
            break
        except np.linalg.LinAlgError:
            continue
    if chol is None:
        raise np.linalg.LinAlgError("statistic-noise covariance could not be factorized")

    # Head table for the exact previous-symbol correction. Window sample
    # k < d_i carries the previous symbol's chirp tail through tap i, so a
    # symbol's head contribution is a fixed k_max-sample vector; raw tap
    # gains are recovered by undoing the dechirp rotation of the delays.
    span = g.k_max
    edge_table = np.zeros((m, span), dtype=np.complex128)
    if span:
        s_grid = np.arange(m)
        for d, gain in zip(delays, gains):
            if d == 0:
                continue
            raw = gain * np.conj(complex(chirp_samples(params, 0, float(-d))))
            for k in range(d):
                u = m + k - d
                x0u = complex(chirp_samples(params, 0, float(u)))
                edge_table[:, k] += raw * x0u * np.exp(
                    2j * np.pi * ((s_grid * u) % m) / m
                )
        edge_table *= np.conj(chirp_samples(params, 0, np.arange(span)))[None, :]
    head_bank = bank[:, :span].copy()
    return FastSimModel(params, g, z, cov, chol, edge_table, head_bank)


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
    return delta @ model.head_bank.T


def sample_correlated_noise(
    model: FastSimModel,
    sigma2: float,
    rng: np.random.Generator,
    candidates: np.ndarray | None = None,
    size: int | None = None,
):
    """Draw statistic noise with the model covariance scaled by sigma2.

    Returns shape (M,) or (size, M); with candidates (an array of bin
    indices) given, the full draw is restricted to those bins afterwards,
    preserving their joint law.
    """
    m = model.params.m
    n = 1 if size is None else int(size)
    xi = (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))) / math.sqrt(2.0)
    w = math.sqrt(sigma2) * (xi @ model.chol.T)
    if candidates is not None:
        w = w[:, np.asarray(candidates)]
    return w[0] if size is None else w


def simulate_ser(
    model: FastSimModel,
    sigma2: float,
    n_symbols: int,
    rng: np.random.Generator,
    batch: int = 4096,
    edge_correction: bool = True,
) -> int:
    """Symbol errors of the full-search detector under the fast model.

    Draws one uniform symbol chain and correlated statistic noise, scores
    every bin's real part, and counts argmax mismatches. The chain opens
    on a value-0 predecessor, mirroring the trailing pilot before a data
    burst. With edge_correction the exact previous-symbol head term is
    added to the steady-state statistics; without it the pure
    steady-state model runs, which underestimates the error rate
    slightly. Returns the error count over n_symbols.
    """
    m = model.params.m
    errors = 0
    done = 0
    last = 0
    while done < n_symbols:
        n = min(batch, n_symbols - done)
        sent = rng.integers(0, m, size=n)
        noise = sample_correlated_noise(model, sigma2, rng, size=n)
        z = model.z_matrix[sent]
        if edge_correction and model.edge_table.shape[1]:
            prev = np.concatenate([[last], sent[:-1]])
            z = z + edge_statistics(model, prev, sent)
        scores = (z + noise).real
        errors += int(np.sum(np.argmax(scores, axis=1) != sent))
        done += n
        last = int(sent[-1])
    return errors
