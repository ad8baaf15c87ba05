"""Per-layer metrics of a traced run, derived from spans and domain counters.

Layers are the lorarake modules: channel, waveform, estimator,
detectors, fastsim and simulate (the sweep time no child span covers).
Times are self times per data symbol unless the name says otherwise, so
the `_us_per_sym` self times of all recorded spans add up to
`trace.sweep_us_per_sym`. A metric whose layer the workload never calls
reads 0 and is listed as not exercised; a metric whose wrapped name is
missing from the library reads 0 and is listed as unmeasured, with the
reason.
"""

from __future__ import annotations

import numpy as np

from spans import OBSERVE, ROOT

# metric -> span whose self time per data symbol it reports; one entry per
# span name, so these metrics add up to trace.sweep_us_per_sym
SELF_US_PER_SYM = {
    "channel.build_frame_us_per_sym": "channel.build_frame",
    "channel.complex_noise_us_per_sym": "channel.complex_noise",
    "channel.apply_channel_us_per_sym": "channel.apply_channel",
    "channel.dechirped_gain_us_per_sym": "channel.dechirped_gain",
    "waveform.dechirp_us_per_sym": "waveform.dechirp",
    "waveform.fft_us_per_sym": "waveform.fft",
    "estimator.detect_paths_us_per_sym": "estimator.detect_paths",
    "detectors.rake_us_per_sym": "detectors.rake",
    "detectors.candidates_us_per_sym": "detectors.candidates",
    "detectors.masked_argmax_us_per_sym": "detectors.masked_argmax",
    "detectors.mf_us_per_sym": "detectors.mf",
    "detectors.mf_bank_us_per_sym": "detectors.mf_bank",
    "detectors.ideal_mf_us_per_sym": "detectors.ideal_mf",
    "detectors.tdel_us_per_sym": "detectors.tdel",
    "fastsim.noise_us_per_sym": "fastsim.noise",
    "fastsim.edge_us_per_sym": "fastsim.edge",
    "fastsim.self_us_per_sym": "fastsim.simulate_ser",
    "simulate.self_us_per_sym": ROOT,
    "trace.observe_us_per_sym": OBSERVE,
}

# every per-layer metric a traced run reports, with its unit
PER_LAYER_UNITS = {
    **{name: "us/sym" for name in SELF_US_PER_SYM},
    "channel.dechirped_gain_calls_per_trial": "calls/trial",
    "estimator.detect_paths_us_per_trial": "us/trial",
    "estimator.paths_mean": "paths",
    "estimator.path_miss_rate": "frac",
    "estimator.path_ghost_rate": "frac",
    "detectors.cand_hit_rate": "frac",
    "detectors.cand_size_mean": "bins",
    "detectors.mf_bank_ms_per_call": "ms/call",
    "detectors.mf_bank_calls_per_trial": "calls/trial",
    "detectors.rake_ns_per_cop": "ns/op",
    "detectors.mf_ns_per_cop": "ns/op",
    "detectors.cand_rake_ns_per_cop": "ns/op",
    "detectors.cand_mf_ns_per_cop": "ns/op",
    "fastsim.build_s": "s",
    "fastsim.model_mb": "MB",
    "trace.sweep_us_per_sym": "us/sym",
    "trace.overhead_frac": "frac",
}

# metric -> spans it is computed from (for the unmeasured listing)
_SOURCES = {
    **{name: (span,) for name, span in SELF_US_PER_SYM.items()},
    "channel.dechirped_gain_calls_per_trial": ("channel.dechirped_gain", "channel.build_frame"),
    "estimator.detect_paths_us_per_trial": ("estimator.detect_paths",),
    "estimator.paths_mean": ("estimator.detect_paths",),
    "estimator.path_miss_rate": ("estimator.detect_paths",),
    "estimator.path_ghost_rate": ("estimator.detect_paths",),
    "detectors.cand_hit_rate": ("detectors.candidates", "channel.build_frame"),
    "detectors.cand_size_mean": ("detectors.candidates",),
    "detectors.mf_bank_ms_per_call": ("detectors.mf_bank",),
    "detectors.mf_bank_calls_per_trial": ("detectors.mf_bank",),
    "detectors.rake_ns_per_cop": ("detectors.rake", "waveform.fft"),
    "detectors.mf_ns_per_cop": ("detectors.mf",),
    "detectors.cand_rake_ns_per_cop": ("detectors.rake", "waveform.fft", "detectors.candidates",
                                      "detectors.masked_argmax"),
    "detectors.cand_mf_ns_per_cop": ("detectors.mf", "detectors.candidates",
                                    "detectors.masked_argmax"),
}


class DomainCounters:
    """Counters derived from wrapped calls' arguments and results.

    The true data symbols come from each trial's build_frame result and
    the true path delays from the workload's channel, so nothing in the
    library has to report them.
    """

    def __init__(self, true_delays):
        self.true_delays = frozenset(int(d) for d in true_delays)
        self.data = None
        self.fft_windows = 0
        self.est_calls = self.est_paths = self.est_missed = self.est_ghosts = 0
        self.cand_symbols = self.cand_hits = self.cand_bins = 0

    def observers(self) -> dict:
        return {
            "channel.build_frame": self._frame,
            "waveform.fft": self._fft,
            "estimator.detect_paths": self._paths,
            "detectors.candidates": self._candidates,
        }

    def _frame(self, args, kwargs, frame):
        self.data = np.asarray(frame.symbols[frame.n_p:])

    def _fft(self, args, kwargs, out):
        self.fft_windows += out.size // out.shape[-1]

    def _paths(self, args, kwargs, gains):
        found = frozenset(int(d) for d in gains.delays)
        self.est_calls += 1
        self.est_paths += len(found)
        self.est_missed += len(self.true_delays - found)
        self.est_ghosts += len(found - self.true_delays)

    def _candidates(self, args, kwargs, mask):
        rows = np.arange(mask.shape[0])
        self.cand_symbols += mask.shape[0]
        self.cand_hits += int(np.count_nonzero(mask[rows, self.data]))
        self.cand_bins += int(np.count_nonzero(mask))


def _affine_ops(kind: str, params, n_paths: int, n_c: float) -> float:
    # op counts are affine in n_c, so a mean candidate count needs no rounding
    from lorarake.complexity import op_count

    base = op_count(kind, params, n_paths, 0).total
    return base + (op_count(kind, params, n_paths, 1).total - base) * n_c


def layer_metrics(summary: dict, counters: DomainCounters, missing: dict, *, workload,
                  symbols: int, trials: int, overhead_frac: float, build_s: float,
                  model_mb: float):
    """Return (metrics, unmeasured, not_exercised) for one traced run.

    summary is spans.summarize output over all traced sweeps; symbols and
    trials count the data symbols and trials those sweeps ran.
    """
    from lorarake.complexity import op_count
    from lorarake.waveform import LoRaParams

    def total(name):
        return summary.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    us = 1e6 / symbols
    m = {name: summary.get(span, {}).get("self_s", 0.0) * us
         for name, span in SELF_US_PER_SYM.items()}
    m["trace.sweep_us_per_sym"] = total(ROOT) * us
    m["trace.overhead_frac"] = overhead_frac
    frames = calls("channel.build_frame")
    per_trial = 1.0 / trials
    m["channel.dechirped_gain_calls_per_trial"] = (
        calls("channel.dechirped_gain") * per_trial if frames else 0.0)
    m["estimator.detect_paths_us_per_trial"] = total("estimator.detect_paths") * 1e6 * per_trial
    est = counters.est_calls
    m["estimator.paths_mean"] = counters.est_paths / est if est else 0.0
    m["estimator.path_miss_rate"] = (
        counters.est_missed / (est * len(counters.true_delays)) if est else 0.0)
    m["estimator.path_ghost_rate"] = counters.est_ghosts / counters.est_paths if est else 0.0
    cand = counters.cand_symbols
    m["detectors.cand_hit_rate"] = counters.cand_hits / cand if cand else 0.0
    m["detectors.cand_size_mean"] = counters.cand_bins / cand if cand else 0.0
    banks = calls("detectors.mf_bank")
    m["detectors.mf_bank_ms_per_call"] = total("detectors.mf_bank") * 1e3 / banks if banks else 0.0
    m["detectors.mf_bank_calls_per_trial"] = banks * per_trial if frames else 0.0
    m["fastsim.build_s"] = build_s
    m["fastsim.model_mb"] = model_mb

    # measured kernel time over the counted cost, both per data symbol; the
    # rake forms include one front-end FFT window each, as op_count does
    cfg = workload.config
    params = LoRaParams(cfg["sf"])
    n_paths = len(workload_delays(workload))
    fft_s = total("waveform.fft") / counters.fft_windows if counters.fft_windows else 0.0
    rake_s = total("detectors.rake") / symbols + fft_s
    mf_s = total("detectors.mf") / symbols
    cand_s = (total("detectors.candidates") + total("detectors.masked_argmax")) / symbols
    n_c = m["detectors.cand_size_mean"]
    dets = cfg["detectors"] if workload.kind == "ser" else ()
    m["detectors.rake_ns_per_cop"] = (
        rake_s * 1e9 / op_count("rake", params, n_paths).total if "rake" in dets else 0.0)
    m["detectors.mf_ns_per_cop"] = (
        mf_s * 1e9 / op_count("mf", params, n_paths).total if "mf" in dets else 0.0)
    m["detectors.cand_rake_ns_per_cop"] = (
        (rake_s + cand_s) * 1e9 / _affine_ops("cand_rake", params, n_paths, n_c)
        if "cand-rake" in dets else 0.0)
    m["detectors.cand_mf_ns_per_cop"] = (
        (mf_s + cand_s) * 1e9 / _affine_ops("cand_mf", params, n_paths, n_c)
        if "cand-mf" in dets else 0.0)

    unmeasured = {}
    not_exercised = []
    for name in PER_LAYER_UNITS:
        sources = _SOURCES.get(name, ())
        gone = [missing[s] for s in sources if s in missing]
        if gone:
            m[name] = 0.0
            unmeasured[name] = "; ".join(gone)
        elif sources and not all(calls(s) for s in sources):
            not_exercised.append(name)
    if workload.kind != "fastsim":
        not_exercised += ["fastsim.build_s", "fastsim.model_mb"]
    return {name: m[name] for name in PER_LAYER_UNITS}, unmeasured, sorted(not_exercised)


def workload_delays(workload) -> tuple:
    from lorarake.channel import parse_channel

    return parse_channel(workload.config["channel"]).delays
