"""Pilot-based estimation of echo delays and dechirped path gains.

Pilot symbols all carry value 0, so after dechirping each path shows up
as a spectral line: the synchronized first path at bin 0 and an echo of
delay k at bin M - k. Averaging the pilot spectra divides the noise
power by the pilot count, and the estimator then reads taps straight
off the averaged bins.
"""

from __future__ import annotations

import numpy as np

from .channel import DechirpedGains
from .waveform import LoRaParams

__all__ = ["average_pilot_dft", "detect_paths", "gains_at_delays"]


def average_pilot_dft(pilot_spectra) -> np.ndarray:
    """Element-wise mean of the pilot spectra (noise variance drops as 1/n_p)."""
    spectra = np.asarray(pilot_spectra, dtype=np.complex128)
    if spectra.ndim != 2 or spectra.shape[0] < 1:
        raise ValueError(f"expected a (n_p, M) array of spectra, got shape {spectra.shape}")
    return spectra.mean(axis=0)


def detect_paths(params: LoRaParams, avg_spectrum, rho_p: float, k_max: int,
                 known_k: int | None = None) -> DechirpedGains:
    """Recover (delay, gain) taps from an averaged pilot spectrum.

    Bin 0 is always trusted as the synchronized first path and is never
    thresholded. Echo bins M - k_max .. M - 1 are kept either when their
    magnitude strictly exceeds rho_p * |bin 0| or, with known_k set to
    the true path count, by taking the strongest known_k - 1 of them
    (ties toward the smaller delay). Gains are bin values rescaled by 1/M
    so they sit on the dechirped-gain scale; echoes beyond k_max are
    invisible by design.
    """
    avg = np.asarray(avg_spectrum, dtype=np.complex128).reshape(-1)
    m = params.m
    if avg.size != m:
        raise ValueError(f"averaged spectrum must have length M={m}, got {avg.size}")
    if not 0.0 < rho_p < 1.0:
        raise ValueError(f"rho_p must be in (0, 1), got {rho_p}")
    if not 1 <= k_max < m:
        raise ValueError(f"k_max must be in [1, {m}), got {k_max}")
    if known_k is not None and known_k < 1:
        raise ValueError(f"known_k must be >= 1, got {known_k}")
    echo_bins = np.arange(m - k_max, m)
    mags = np.abs(avg[echo_bins])
    if known_k is not None:
        take = min(known_k - 1, echo_bins.size)
        order = np.lexsort((m - echo_bins, -mags))
        keep = echo_bins[np.sort(order[:take])]
    else:
        keep = echo_bins[mags > rho_p * np.abs(avg[0])]
    return gains_at_delays(params, avg, sorted([0, *(m - int(b) for b in keep)]))


def gains_at_delays(params: LoRaParams, avg_spectrum, delays) -> DechirpedGains:
    """Read the path gains at the given delays off an averaged pilot spectrum.

    Delay k sits at bin (M - k) mod M; bin values are rescaled by 1/M onto
    the dechirped-gain scale.
    """
    m = params.m
    bins = [(m - k) % m for k in delays]
    return DechirpedGains(tuple(delays), np.asarray(avg_spectrum)[bins] / m)
