"""Full-search symbol errors in one call, and the statistic-domain reference forms.

The matched filter is a rake over the DFT output, so a window's statistics
are rake_combine applied to its dechirped spectrum. That identity lets the
exact sweep (simulate.run_ser_sweep) score every hypothesis with one rake
pass over a block's white spectral noise plus a closed-form noise-free term
that takes each window's head (the previous symbol's chirp tail) exactly.
simulate_ser is an entry point onto that sweep: one rake trial under
perfect CSIR on the model's channel. The other functions are reference
forms of the same law, kept until the benchmark stops calling and tracing
them by name (ROADMAP items 1-2): sample_correlated_noise draws the
statistic noise as the rake combiner of white CN(0, M*sigma2) spectral
noise, and edge_statistics is the exact score correction of the window
heads, through the filter bank's first k_max samples (build_fast_sim).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import DechirpedGains, MultipathChannel, complex_noise, window_heads
from .detectors import mf_filter_bank, mf_scores, rake_combine
from .simulate import SimConfig, run_ser_sweep
from .waveform import LoRaParams, chirp_samples, snr_ebn0_convert

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


def simulate_ser(model: FastSimModel, sigma2: float, n_symbols: int, rng: np.random.Generator,
                 batch: int | None = None) -> int:
    """Symbol errors of the full-search detector, from one exact sweep trial.

    Runs run_ser_sweep on one trial of n_symbols data symbols: the rake
    detector under perfect CSIR, the model's raw taps as the channel, sigma2's
    Eb/N0 (snr_ebn0_convert) as the only point, n_p=1 (the value-0 predecessor
    of the first data symbol), k_max=1, and a master seed of
    rng.integers(2**63). Perfect CSIR reads neither the pilot nor k_max, and
    k_max=1 fits every sf. Returns the trial's rake error count. batch is
    accepted and ignored: the sweep sets its own block size.
    """
    if not 0 < sigma2 < math.inf:
        raise ValueError(f"sigma2 must be finite and > 0 (a sweep has no noise-free "
                         f"point), got {sigma2}")
    if n_symbols < 0:
        raise ValueError(f"n_symbols must be >= 0, got {n_symbols}")
    if n_symbols == 0:
        return 0
    ebn0 = snr_ebn0_convert(model.params, -10.0 * math.log10(sigma2), "snr_to_ebn0")
    ch = MultipathChannel(model.gains.delays, tuple(model.raw))
    cfg = SimConfig(sf=model.params.sf, channel=ch, detectors=("rake",), ebn0_db=(ebn0,),
                    n_trials=1, n_d=n_symbols, n_p=1, k_max=1, csir="perfect",
                    master_seed=int(rng.integers(2**63)))
    return run_ser_sweep(cfg)[0].errors
