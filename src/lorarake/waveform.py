"""LoRa chirp waveforms and the dechirp/DFT demodulation front end.

Everything is discrete chip-rate baseband: M = 2**sf samples per symbol,
symbol values a in [0, M). Buffers are complex128 numpy arrays and all
spectra use the unnormalized forward DFT (peak height M for a clean
symbol), so bin indices and symbol values share the same alphabet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "LoRaParams",
    "chirp_samples",
    "gen_chirp",
    "instantaneous_frequency",
    "dechirp",
    "dft",
    "idft",
    "snr_ebn0_convert",
    "noise_variance",
]


@dataclass(frozen=True)
class LoRaParams:
    """Spreading factor and the derived alphabet size M = 2**sf.

    Standard deployments use sf in 7..12; anything in 2..16 is accepted
    so tests can run on tiny alphabets without opening the door to
    absurd buffer sizes.
    """

    sf: int

    def __post_init__(self) -> None:
        sf = int(self.sf)
        if sf != self.sf or not 2 <= sf <= 16:
            raise ValueError(f"sf must be an integer in [2, 16], got {self.sf!r}")
        object.__setattr__(self, "sf", sf)

    @property
    def m(self) -> int:
        return 1 << self.sf


def chirp_samples(params: LoRaParams, a: int, k) -> np.ndarray:
    """Evaluate the symbol-a chirp at arbitrary sample offsets k.

    The chirp is M-periodic in k, so negative offsets are meaningful:
    chirp_samples(p, a, -d) == chirp_samples(p, a, M - d).
    """
    m = params.m
    kk = np.asarray(k, dtype=np.float64)
    phase = 2.0 * np.pi * kk * (a / m - 0.5 + kk / (2.0 * m))
    return np.exp(1j * phase)


@lru_cache(maxsize=None)
def _chirp_tables(sf: int) -> tuple[np.ndarray, np.ndarray]:
    # (x_0[k], exp(2j*pi*k/M)) over k in [0, M), built once per spreading
    # factor and shared read-only; entry j of the roots equals the exp of any
    # exponent reduced to j, bit for bit
    m = 1 << sf
    k = np.arange(m)
    tables = (chirp_samples(LoRaParams(sf), 0, k), np.exp(2j * np.pi * k / m))
    for t in tables:
        t.setflags(write=False)
    return tables


def gen_chirp(params: LoRaParams, a: int) -> np.ndarray:
    """Length-M unit-modulus chirp carrying symbol value a."""
    if not 0 <= a < params.m:
        raise ValueError(f"symbol must be in [0, {params.m}), got {a}")
    return chirp_samples(params, a, np.arange(params.m))


def instantaneous_frequency(params: LoRaParams, a: int, wrap: bool = False) -> np.ndarray:
    """Normalized instantaneous frequency ramp of chirp a.

    f[k] = (a + k)/M - 1/2 + 1/(2M). With wrap=True values are folded into
    [-1/2, 1/2), showing the aliased ramp restart at k = M - a.
    """
    m = params.m
    f = (a + np.arange(m)) / m - 0.5 + 1.0 / (2 * m)
    if wrap:
        f = (f + 0.5) % 1.0 - 0.5
    return f


def dechirp(params: LoRaParams, samples: np.ndarray) -> np.ndarray:
    """Multiply by conj(x_0) along the last axis.

    A pure per-sample phase rotation: norms and noise statistics are
    preserved. Accepts (..., M) batches.
    """
    samples = np.asarray(samples)
    if samples.shape[-1] != params.m:
        raise ValueError(f"last axis must have length M={params.m}, got {samples.shape}")
    return samples * np.conj(_chirp_tables(params.sf)[0])


def dft(buf: np.ndarray) -> np.ndarray:
    """Unnormalized forward DFT along the last axis."""
    return np.fft.fft(buf, axis=-1)


def idft(spectrum: np.ndarray) -> np.ndarray:
    """Exact inverse of dft (the 1/M rescale is included)."""
    return np.fft.ifft(spectrum, axis=-1)


def snr_ebn0_convert(params: LoRaParams, value_db: float, direction: str) -> float:
    """Convert between per-sample SNR and Eb/N0 (both dB).

    The spread-spectrum processing gain gives Eb/N0 = SNR + 10*log10(M/sf);
    direction is "snr_to_ebn0" or "ebn0_to_snr".
    """
    offset = 10.0 * math.log10(params.m / params.sf)
    if direction == "snr_to_ebn0":
        return value_db + offset
    if direction == "ebn0_to_snr":
        return value_db - offset
    raise ValueError(f"unknown direction {direction!r}")


def noise_variance(snr_db: float) -> float:
    """Per-sample complex noise variance for unit-power signal samples."""
    return 10.0 ** (-snr_db / 10.0)
