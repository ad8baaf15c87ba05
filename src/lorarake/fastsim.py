"""Statistic-domain fast symbol-error simulation for the full-search detector.

The matched filter is a rake over the DFT output, so a window's
statistics are rake_combine applied to its dechirped spectrum. Under a
steady (cyclic) window that spectrum is the K spectral lines the sweep
writes (channel.add_lines), and the dechirped noise of a window has a
white CN(0, M*sigma2) spectrum, so the combiner applied to lines plus
white spectral noise draws the statistics with their exact joint law. A
Monte Carlo trial is then one white draw, one rake pass and an argmax,
skipping waveform synthesis and the FFT entirely.

The cyclic window neglects one real effect: its first k_max samples carry
the previous symbol's chirp tail. That perturbation has a closed form in
the (previous, current) symbol pair, the window heads, and the sampler
applies it exactly as the matched-filter scores of the head difference,
through the first k_max samples of the filter bank.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import DechirpedGains, add_lines, block_rows, complex_noise, window_heads
from .detectors import mf_filter_bank, mf_scores, rake_combine, rake_scores
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
    """One channel's gains plus the previous-symbol head term.

    raw holds the raw (not dechirped) tap gains that window_heads takes,
    and head is mf_filter_bank(params, gains, cols=k_max), through which
    mf_scores maps a window's k_max head samples to its scores. No array
    is M x M.
    """

    params: LoRaParams
    gains: DechirpedGains
    raw: np.ndarray
    head: np.ndarray


def build_fast_sim(params: LoRaParams, g: DechirpedGains) -> FastSimModel:
    """The model of one channel: its gains and the bank's k_max head samples."""
    if g.k_max >= params.m:
        raise ValueError(f"max delay {g.k_max} must be < M={params.m}")
    # undo the dechirp rotation: gains_i = raw_i * x_0[-d_i]
    raw = g.gains * np.conj(chirp_samples(params, 0, -np.asarray(g.delays, dtype=np.int64)))
    return FastSimModel(params, g, raw, mf_filter_bank(params, g, cols=g.k_max))


def edge_statistics(model: FastSimModel, prev_symbols, symbols) -> np.ndarray:
    """Exact score correction for the previous-symbol window heads.

    Returns the (n, M) real adjustment that turns the cyclic scores (the
    statistics' real parts) of symbols into the true noise-free scores of
    windows preceded by prev_symbols. Zero whenever the two symbols agree or
    the channel has a single tap (k_max = 0 leaves both operands zero wide).
    """
    prev = np.asarray(prev_symbols, dtype=np.int64)
    sent = np.asarray(symbols, dtype=np.int64)
    if prev.shape != sent.shape:
        raise ValueError("previous and current symbol arrays must align")
    delays = model.gains.delays
    delta = window_heads(model.params, delays, model.raw, prev)
    delta -= window_heads(model.params, delays, model.raw, sent)
    # the reference head term: a sweep's closed-form scores
    # (detectors.clean_rake_scores) take the same deltas through the same
    # bank with an einsum summed per row, which runs no BLAS threads in a
    # sweep's trial threads; here one thread runs, and the 2-D product is faster
    return mf_scores(delta, model.head)


def sample_correlated_noise(
    model: FastSimModel,
    sigma2: float,
    rng: np.random.Generator,
    size: int | None = None,
):
    """Draw statistic noise with the exact pipeline's joint law.

    The rake combiner applied to white CN(0, M*sigma2) spectral noise,
    which is what the exact pipeline's statistics see: covariance sigma2
    times the Gram matrix of the per-hypothesis matched filters. Returns
    shape (M,) or (size, M).
    """
    m = model.params.m
    n = 1 if size is None else int(size)
    w = rake_combine(model.params, complex_noise((n, m), m * sigma2, rng), model.gains)
    return w[0] if size is None else w


def simulate_ser(
    model: FastSimModel,
    sigma2: float,
    n_symbols: int,
    rng: np.random.Generator,
    batch: int = 4096,
) -> int:
    """Symbol errors of the full-search detector under the fast model.

    Per block: draws the symbols and their white spectral noise, writes
    the symbols' spectral lines into it, scores them with the rake kernel,
    adds the exact previous-symbol head term along the symbol chain, and
    counts the rows whose argmax misses the sent symbol. The chain opens
    on a value-0 predecessor, mirroring the trailing pilot before a data
    burst. Blocks hold at most batch symbols and at most
    channel.block_rows(M), the sweep's block size. Returns the error count
    over n_symbols.
    """
    p = model.params
    block = min(batch, block_rows(p.m))
    errors = 0
    done = 0
    last = 0
    while done < n_symbols:
        n = min(block, n_symbols - done)
        sent = rng.integers(0, p.m, size=n)
        spec = complex_noise((n, p.m), p.m * sigma2, rng)
        add_lines(p, model.gains, sent, spec)
        scores = rake_scores(p, spec, model.gains)
        # free the block before the head product so its memory is reused
        del spec
        scores += edge_statistics(model, np.concatenate([[last], sent[:-1]]), sent)
        errors += int(np.sum(np.argmax(scores, axis=1) != sent))
        done += n
        last = int(sent[-1])
    return errors
