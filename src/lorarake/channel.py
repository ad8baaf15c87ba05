"""Integer-delay multipath channels, burst frames, and dechirped-gain algebra.

The channel is a sparse FIR filter c[k] = sum_i gains[i] * delta[k - d_i]
with the receiver synchronized on the first path (d_0 = 0). After
dechirping, each path appears as a phase-rotated gain at a known spectral
offset; the helpers here carry taps through that transformation, and
dechirped_spectra writes a burst's dechirped window spectra in that
closed form without building samples. Frame.samples (built on first
read), apply_channel and waveform.dechirp are the sample-level reference
chain.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .waveform import LoRaParams, _chirp_tables, chirp_samples

__all__ = [
    "MultipathChannel",
    "DechirpedGains",
    "Frame",
    "C1",
    "C2",
    "CHANNEL_ALIASES",
    "build_frame",
    "apply_channel",
    "add_awgn",
    "complex_noise",
    "dechirped_gain",
    "dechirped_spectra",
    "head_deltas",
    "add_lines",
    "line_amplitudes",
    "window_heads",
    "BLOCK_BINS",
    "block_rows",
    "rotate_gains",
    "channel_coefficient",
    "load_channel_file",
    "parse_channel",
]


def _checked_delays(delays, n_gains: int) -> tuple[int, ...]:
    """delays as ints, one per gain and at least one, from 0 strictly increasing."""
    delays = tuple(int(d) for d in delays)
    if len(delays) == 0 or len(delays) != n_gains:
        raise ValueError("need one gain per delay and at least one tap")
    if delays[0] != 0 or any(b <= a for a, b in zip(delays, delays[1:])):
        raise ValueError(f"delays must start at 0 and increase strictly, got {delays}")
    return delays


@dataclass(frozen=True)
class MultipathChannel:
    """Static multipath profile: strictly increasing integer delays, delays[0] == 0."""

    delays: tuple[int, ...]
    gains: tuple[complex, ...]

    def __post_init__(self) -> None:
        gains = tuple(complex(g) for g in self.gains)
        delays = _checked_delays(self.delays, len(gains))
        if not all(math.isfinite(g.real) and math.isfinite(g.imag) for g in gains):
            raise ValueError(f"tap gains must be finite, got {gains}")
        if gains[0] == 0:
            raise ValueError("first-path gain must be nonzero")
        object.__setattr__(self, "delays", delays)
        object.__setattr__(self, "gains", gains)

    @classmethod
    def from_taps(cls, taps) -> "MultipathChannel":
        """Build from (delay, gain) pairs given in any order."""
        pairs = sorted(((int(d), complex(g)) for d, g in taps), key=lambda t: t[0])
        return cls(tuple(d for d, _ in pairs), tuple(g for _, g in pairs))

    @property
    def n_paths(self) -> int:
        return len(self.delays)

    @property
    def k_max(self) -> int:
        return self.delays[-1]

    def energy(self) -> float:
        return float(sum(abs(g) ** 2 for g in self.gains))


C1 = MultipathChannel.from_taps([(0, 1.0), (2, 0.8), (3, 0.5)])
"""Three-path benchmark channel (energy 1.89)."""

C2 = MultipathChannel.from_taps([(0, 1.0), (5, 0.8)])
"""Two-path benchmark channel (energy 1.64)."""

CHANNEL_ALIASES = {"c1": C1, "c2": C2}


@dataclass(frozen=True)
class DechirpedGains:
    """Per-path complex gains as seen after dechirping, with their delays.

    The dechirp rotation is phase-only, so magnitudes always equal the raw
    tap magnitudes. Also the shape returned by the pilot estimator.
    """

    delays: tuple[int, ...]
    gains: np.ndarray

    def __post_init__(self) -> None:
        gains = np.array(self.gains, dtype=np.complex128).reshape(-1)
        delays = _checked_delays(self.delays, gains.size)
        gains.setflags(write=False)
        object.__setattr__(self, "delays", delays)
        object.__setattr__(self, "gains", gains)

    @property
    def n_paths(self) -> int:
        return len(self.delays)

    @property
    def k_max(self) -> int:
        return self.delays[-1]

    def energy(self) -> float:
        return float(np.sum(np.abs(self.gains) ** 2))


@dataclass(frozen=True)
class Frame:
    """Pilot-prefixed symbol burst; its transmit samples are built on first read.

    A sweep reads only the symbols (dechirped_spectra needs no samples);
    the sample-level reference chain reads samples.
    """

    params: LoRaParams
    n_p: int
    n_d: int
    symbols: np.ndarray

    @cached_property
    def samples(self) -> np.ndarray:
        """Concatenated chirps of the burst, (n_p + n_d) * M samples."""
        m = self.params.m
        base, roots = _chirp_tables(self.params.sf)
        # x_a[k] = x_0[k] * exp(2j*pi*a*k/M); reduce a*k mod M (a power of
        # two) to keep phases exact, and keep base as the left operand: the
        # SIMD complex multiply is not bitwise commutative
        phase_idx = np.multiply.outer(self.symbols, np.arange(m))
        phase_idx &= m - 1
        rows = roots[phase_idx]
        np.multiply(base, rows, out=rows)
        return rows.reshape(-1)


def build_frame(params: LoRaParams, pilots: int, data) -> Frame:
    """Prefix the data symbols with pilot chirps (symbol 0) into one burst."""
    if pilots < 0:
        raise ValueError(f"pilot count must be >= 0, got {pilots}")
    data = np.asarray(data, dtype=np.int64).reshape(-1)
    if data.size and (data.min() < 0 or data.max() >= params.m):
        raise ValueError(f"data symbols must be in [0, {params.m})")
    symbols = np.concatenate([np.zeros(pilots, dtype=np.int64), data])
    return Frame(params, int(pilots), int(data.size), symbols)


def apply_channel(params: LoRaParams, frame, ch: MultipathChannel) -> np.ndarray:
    """Exact linear convolution with the channel taps, truncated to the input length.

    A burst starts from silence, so the opening samples carry partial echo
    energy; inside the burst the first k_max samples of each symbol window
    inherit energy from the previous symbol. Accepts a Frame or a raw
    complex sample vector.
    """
    if ch.k_max >= params.m:
        raise ValueError(f"max delay {ch.k_max} must be < M={params.m}")
    s = np.asarray(getattr(frame, "samples", frame), dtype=np.complex128)
    n = s.size
    # delays[0] == 0, so the first path covers every sample
    out = ch.gains[0] * s
    echo = np.empty_like(s)
    for d, g in zip(ch.delays[1:], ch.gains[1:]):
        np.multiply(g, s[: n - d], out=echo[: n - d])
        out[d:] += echo[: n - d]
    return out


def complex_noise(shape, sigma2: float, rng: np.random.Generator,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Circular complex Gaussian samples with total per-sample variance sigma2.

    out, a C-contiguous complex array of the given shape, receives the same
    draws a fresh array would.
    """
    if not 0 <= sigma2 < math.inf:
        raise ValueError(f"noise variance must be finite and >= 0, got {sigma2}")
    shape = (shape,) if np.ndim(shape) == 0 else tuple(shape)
    # one block of interleaved (real, imaginary) pairs, scaled in place and
    # viewed as complex
    if out is None:
        draws = rng.standard_normal((*shape, 2))
    else:
        draws = out.view(np.float64).reshape(*shape, 2)
        rng.standard_normal(out=draws)
    scale = math.sqrt(sigma2 / 2.0)
    if scale != 1.0:  # a sweep draws standard normals (sigma2 = 2), and x * 1.0 is x
        draws *= scale
    return draws.view(np.complex128).reshape(shape)


def add_awgn(samples, sigma2: float, rng: np.random.Generator) -> np.ndarray:
    """Return samples plus white circular complex Gaussian noise."""
    samples = np.asarray(samples, dtype=np.complex128)
    if sigma2 == 0:
        return samples.copy()
    return samples + complex_noise(samples.shape, sigma2, rng)


def dechirped_gain(params: LoRaParams, ch: MultipathChannel) -> DechirpedGains:
    """Rotate raw tap gains into the dechirped domain: gain_i * x_0[-d_i]."""
    rot = chirp_samples(params, 0, -np.asarray(ch.delays, dtype=np.float64))
    return DechirpedGains(ch.delays, np.asarray(ch.gains) * rot)


# Bins (rows * M) of one block of windows that a trial holds at a time: 4 MiB
# per complex block array at any sf, so a trial's memory does not grow with
# its length. A trial writes its blocks into one workspace of such arrays,
# which its sweep makes (simulate._map_points).
BLOCK_BINS = 1 << 18


def block_rows(m: int) -> int:
    """Windows of M bins per block: BLOCK_BINS // M, at least one."""
    return max(1, BLOCK_BINS // m)


def dechirped_spectra(params: LoRaParams, ch: MultipathChannel, symbols,
                      delta: np.ndarray | None = None, out: np.ndarray | None = None) -> np.ndarray:
    """Noise-free DFT of every dechirped window of a burst, in closed form.

    Row j equals fft(dechirp(...)) of window j of
    apply_channel(build_frame(...)) for the same symbol sequence, up to
    float rounding, without building a sample. Window j, carrying symbol
    s, holds one line M * G_i * exp(-2j*pi*d_i*s/M) per tap at bin
    (s - d_i) mod M, G_i being the dechirped gain, plus the DFT of its
    head delta, delta's row j. delta defaults to head_deltas(params, ch,
    symbols): the first window follows silence. A caller that continues a
    burst passes head_deltas(params, ch, symbols, prev), prev being the
    symbol sent just before; chaining calls over consecutive parts of a
    burst that way gives the one-call spectra bit for bit. out is a complex
    (len(symbols), M) array to write them in.

    A head of at most _HEAD_PRODUCT_SAMPLES (8) samples reaches the
    spectrum by one (1, 2 k_max) @ (2 k_max, 2M) real product per window
    with the cached table _head_table, not by an M-point FFT. Each window is
    its own product, so a row rounds alike in any block, and it equals the
    FFT within a few ulp. A longer head takes the FFT.
    """
    m = params.m
    if ch.k_max >= m:
        raise ValueError(f"max delay {ch.k_max} must be < M={m}")
    s = np.asarray(symbols, dtype=np.int64).reshape(-1)
    if delta is None:
        delta = head_deltas(params, ch, s)
    k = delta.shape[1]
    if k > _HEAD_PRODUCT_SAMPLES:
        spec = np.fft.fft(delta, n=m, axis=1, out=out)
    else:
        spec = np.empty((s.size, m), dtype=np.complex128) if out is None else out
        head = np.ascontiguousarray(delta, dtype=np.complex128).view(np.float64)
        np.matmul(head[:, None, :], _head_table(params.sf, k),
                  out=spec.view(np.float64)[:, None, :])
    add_lines(params, dechirped_gain(params, ch), s, spec)
    return spec


# Longest head dechirped_spectra maps by a product: per window it costs
# 4 * k_max * M multiply-adds against the FFT's O(M log M). In process, one
# BLAS thread, half a block of windows, the product ran 1.2-3.2 times as
# fast as the FFT at 4-8 samples and sf 7-12, and 0.5-1.1 times at 10-16.
_HEAD_PRODUCT_SAMPLES = 8


@lru_cache(maxsize=4)
def _head_table(sf: int, k: int) -> np.ndarray:
    # the M-point DFT of k head samples as a real (2k, 2M) table over their
    # interleaved (real, imaginary) floats: with w = exp(-2j*pi*j*b/M), the
    # conjugated root at (j * b) mod M, row 2j holds w and row 2j+1 holds
    # 1j * w, each as (real, imaginary) pairs over b
    m = 1 << sf
    w = np.conj(_chirp_tables(sf)[1][np.multiply.outer(np.arange(k), np.arange(m)) & (m - 1)])
    table = np.stack((w, 1j * w), axis=1).view(np.float64).reshape(2 * k, 2 * m)
    table.setflags(write=False)
    return table


def head_deltas(params: LoRaParams, ch: MultipathChannel, symbols,
                prev: int | None = None) -> np.ndarray:
    """Each window's head delta, a complex (len(symbols), k_max) array.

    Over the first k_max samples, the dechirped tail of the symbol sent
    before the window (prev for the first, silence when prev is None)
    minus the window's own cyclic wrap (window_heads): what a burst
    window adds to its cyclic spectrum, through an M-point DFT.
    """
    s = np.asarray(symbols, dtype=np.int64).reshape(-1)
    heads = window_heads(params, ch.delays, ch.gains, s)
    delta = np.negative(heads)
    delta[1:] += heads[:-1]
    if prev is not None and s.size:
        delta[0] += window_heads(params, ch.delays, ch.gains, [prev])[0]
    return delta


def line_amplitudes(params: LoRaParams, g: DechirpedGains, symbols) -> list[np.ndarray]:
    """Per tap i, the line M * G_i * exp(-2j*pi*d_i*s/M) that each window,
    carrying symbol s, holds at bin (s - d_i) mod M, over the windows."""
    m = params.m
    s = np.asarray(symbols, dtype=np.int64).reshape(-1)
    roots = _chirp_tables(params.sf)[1]
    return [(m * gain) * np.conj(roots[(s * d) & (m - 1)]) for d, gain in zip(g.delays, g.gains)]


def add_lines(params: LoRaParams, g: DechirpedGains, symbols, spec: np.ndarray) -> None:
    """Add each window's K spectral lines to spec, one row per symbol, in place.

    Row j, carrying symbol s, gains M * G_i * exp(-2j*pi*d_i*s/M) at bin
    (s - d_i) mod M per tap, G_i being the dechirped gain: the cyclic
    (steady-state) spectrum of a window, without its head term.
    """
    m = params.m
    s = np.asarray(symbols, dtype=np.int64).reshape(-1)
    rows = np.arange(s.size)
    for d, line in zip(g.delays, line_amplitudes(params, g, s)):
        spec[rows, (s - d) & (m - 1)] += line


def window_heads(params: LoRaParams, delays, gains, symbols) -> np.ndarray:
    """Dechirped tail each symbol sends into the next window's head.

    Row j, column k < k_max: sum over taps with d_i > k of
    gains[i] * x_s(M + k - d_i) * conj(x_0(k)), for s = symbols[j] and raw
    (not dechirped) tap gains. A steady-state window's cyclic model holds
    its own symbol's row here; a burst window holds its predecessor's.
    """
    m = params.m
    s = np.asarray(symbols, dtype=np.int64).reshape(-1)
    roots = _chirp_tables(params.sf)[1]
    heads = np.zeros((s.size, max(delays)), dtype=np.complex128)
    for u, c in _head_coeffs(params.sf, tuple(delays), tuple(complex(g) for g in gains)):
        # x_s(u) = x_0(u) * exp(2j*pi*s*u/M), gathered at (s*u) mod M
        idx = np.multiply.outer(s, u)
        idx &= m - 1
        term = roots[idx]
        # the complex product in real arithmetic: numpy rounds a complex product
        # differently in its contiguous, broadcast and one-element loops, and a
        # one-sample head (a tap at delay 1) takes the broadcast loop in a batch
        # but not alone, so a row would depend on the rows batched with it
        h = heads[:, : u.size]
        h.real += term.real * c.real - term.imag * c.imag
        h.imag += term.real * c.imag + term.imag * c.real
    return heads


@lru_cache(maxsize=16)
def _head_coeffs(sf: int, delays: tuple, gains: tuple) -> tuple:
    # per echo tap: u = M + k - d_i and c = gains_i * x_0(u) * conj(x_0(k))
    # over k < d_i, so at most K * k_max entries
    m = 1 << sf
    base = _chirp_tables(sf)[0]
    out = []
    for d, g in zip(delays, gains):
        if d == 0:
            continue
        u = np.arange(m - d, m)
        c = g * base[u] * np.conj(base[:d])
        u.setflags(write=False)
        c.setflags(write=False)
        out.append((u, c))
    return tuple(out)


def rotate_gains(params: LoRaParams, g: DechirpedGains, b: int) -> DechirpedGains:
    """Gains as seen under symbol hypothesis b: extra phase -2*pi*d_i*b/M per tap."""
    d = np.asarray(g.delays, dtype=np.int64)
    phase = np.exp(-2j * np.pi * ((d * int(b)) % params.m) / params.m)
    return DechirpedGains(g.delays, g.gains * phase)


def channel_coefficient(params: LoRaParams, g: DechirpedGains, b: int) -> np.ndarray:
    """Length-M multiplicative channel seen by the hypothesis-b matched filter.

    Equals the DFT of the zero-padded, hypothesis-rotated gain vector.
    """
    if g.k_max >= params.m:
        raise ValueError(f"max delay {g.k_max} must be < M={params.m}")
    gb = rotate_gains(params, g, b)
    padded = np.zeros(params.m, dtype=np.complex128)
    padded[np.asarray(gb.delays)] = gb.gains
    return np.fft.fft(padded)


def load_channel_file(path) -> MultipathChannel:
    """Read taps from a CSV file with header delay,gain_re,gain_im."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        need = {"delay", "gain_re", "gain_im"}
        if reader.fieldnames is None or not need.issubset(set(reader.fieldnames)):
            raise ValueError(f"channel file {path} needs columns delay,gain_re,gain_im")
        taps = [
            (int(row["delay"]), float(row["gain_re"]) + 1j * float(row["gain_im"]))
            for row in reader
        ]
    if not taps:
        raise ValueError(f"channel file {path} has no taps")
    return MultipathChannel.from_taps(taps)


def parse_channel(spec) -> MultipathChannel:
    """Resolve a channel argument: alias, inline taps, file path, or channel object.

    Inline syntax is comma-separated delay:gain pairs with complex-literal
    gains, e.g. "0:1,2:0.8,3:0.5" or "0:1,5:0.4+0.3j".
    """
    if isinstance(spec, MultipathChannel):
        return spec
    text = str(spec).strip()
    alias = CHANNEL_ALIASES.get(text.lower())
    if alias is not None:
        return alias
    if ":" in text:
        taps = []
        for part in text.split(","):
            try:
                delay_s, gain_s = part.split(":")
                taps.append((int(delay_s), complex(gain_s.strip())))
            except ValueError as exc:
                raise ValueError(f"bad inline channel tap {part!r}: {exc}") from None
        return MultipathChannel.from_taps(taps)
    if os.path.exists(text):
        return load_channel_file(text)
    raise ValueError(
        f"channel {text!r} is not an alias ({', '.join(sorted(CHANNEL_ALIASES))}), "
        "an inline tap list, or an existing file"
    )
