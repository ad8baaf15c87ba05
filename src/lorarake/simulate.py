"""Monte Carlo experiment engine: SER sweeps, indicator reports, cost
tables, estimation studies, and candidate-count sweeps.

Each trial draws one pilot-prefixed symbol burst, writes its dechirped
window spectra in closed form (channel.dechirped_spectra), adds one
shared white spectral noise realization, and runs every configured
detector on the same data, so detector comparisons are paired. Trials
are independent Monte Carlo units with their own RNG substream keyed by
(master_seed, trial, Eb/N0), which makes results reproducible for any
worker count and lets separate runs share noise point by point.
"""

from __future__ import annotations

import math
import numbers
import time
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .channel import (
    MultipathChannel,
    build_frame,
    complex_noise,
    dechirped_gain,
    dechirped_spectra,
    DechirpedGains,
    parse_channel,
)
from .complexity import OpCount, complexity_ratio, op_count
# The kernels keep their former private names here because perfbench traces
# them by wrapping these attributes of this module; calls resolve through it.
from .detectors import (
    candidate_masks as _candidate_masks,
    ideal_mf_scores as _ideal_scores,
    masked_argmax as _masked_argmax,
    mf_filter_bank,
    mf_scores as _mf_scores,
    prepare_mf_bank,
    rake_scores as _rake_scores,
    tdel_detect,
)
from .estimator import EstimatorConfig, detect_paths, gains_at_delays
from .waveform import LoRaParams, noise_variance, snr_ebn0_convert

# A sweep calls neither apply_channel nor dechirp. perfbench's tracer still
# looks both up in this module, so they stay importable here until the
# benchmark wraps channel.dechirped_spectra instead (ROADMAP item 6); a
# traced run lists their layers as not exercised.
from .channel import apply_channel  # noqa: F401
from .waveform import dechirp  # noqa: F401

__all__ = [
    "ConfigError",
    "SimConfig",
    "SerPoint",
    "DeltaRow",
    "ComplexityRow",
    "StudyRow",
    "CandSweepRow",
    "DETECTOR_IDS",
    "run_ser_sweep",
    "run_delta_report",
    "run_complexity_report",
    "run_estimation_study",
    "run_candidate_sweep",
]

_DEFAULT_RHO_C = 0.3


class ConfigError(ValueError):
    """Invalid simulation configuration; names the offending field."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field_name = field_name


# value checks by the element type a SimConfig annotation names
_TYPE_CHECKS = {
    "int": lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool),
    "float": lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool),
    "bool": lambda v: isinstance(v, bool),
    "str": lambda v: isinstance(v, str),
}


def _check_type(name: str, annotation: str, value) -> None:
    """Raise ConfigError unless value fits an annotation such as "int",
    "float | None" or "tuple[int, ...] | None"."""
    kind = annotation.removesuffix(" | None")
    if value is None and kind != annotation:
        return
    items = (value,)
    if kind.startswith("tuple["):
        if not isinstance(value, tuple):
            raise ConfigError(name, f"expected a list, got {value!r}")
        kind, items = kind[len("tuple["):-len(", ...]")], value
    check = _TYPE_CHECKS.get(kind)
    if check is not None and not all(check(v) for v in items):
        raise ConfigError(name, f"expected {annotation}, got {value!r}")


@dataclass(frozen=True)
class SimConfig:
    """Everything one Monte Carlo sweep needs; resolve() validates."""

    sf: int = 7
    channel: object = "c2"
    detectors: tuple[str, ...] = ("noncoh", "coh", "rake")
    ebn0_db: tuple[float, ...] = (-4.0, -3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0, 4.0)
    n_trials: int = 100
    n_d: int = 1000
    n_p: int = 6
    rho_p: float = 0.4
    k_max: int = 10
    known_k: bool = False
    csir: str = "perfect"
    forced_khat: tuple[int, ...] | None = None
    rho_c: float | None = None
    n_c: int | None = None
    rho_tdel: float = 0.2
    master_seed: int = 0
    workers: int = 1

    @classmethod
    def from_dict(cls, values: dict) -> "SimConfig":
        """Build from a plain mapping, rejecting unknown keys."""
        unknown = set(values) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(sorted(unknown)[0], "unknown config field")
        # JSON arrays arrive as lists; resolve() rejects any other value in a list field
        return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in values.items()})

    def candidate_rule(self) -> tuple[str, float] | None:
        """("fixed", n_c) or ("threshold", rho_c) when a candidate detector runs."""
        if not any(d in _DETECTORS and _DETECTORS[d].candidates for d in self.detectors):
            return None
        if self.n_c is not None:
            return ("fixed", self.n_c)
        return ("threshold", self.rho_c if self.rho_c is not None else _DEFAULT_RHO_C)

    def resolve(self) -> tuple[LoRaParams, MultipathChannel]:
        """Validate every field; return the parameter set and channel."""
        for f in fields(self):
            _check_type(f.name, f.type, getattr(self, f.name))
        try:
            params = LoRaParams(self.sf)
        except ValueError as exc:
            raise ConfigError("sf", str(exc)) from None
        try:
            ch = parse_channel(self.channel)
        except ValueError as exc:
            raise ConfigError("channel", str(exc)) from None
        m = params.m
        if ch.k_max >= m:
            raise ConfigError("channel", f"max delay {ch.k_max} must be < M={m}")
        if not self.detectors:
            raise ConfigError("detectors", "need at least one detector")
        for det in self.detectors:
            if det not in DETECTOR_IDS:
                raise ConfigError("detectors", f"unknown detector {det!r}; choose from {DETECTOR_IDS}")
        if len(set(self.detectors)) != len(self.detectors):
            raise ConfigError("detectors", "duplicate detector ids")
        if not self.ebn0_db:
            raise ConfigError("ebn0_db", "need at least one Eb/N0 point")
        if any(not math.isfinite(e) for e in self.ebn0_db):
            raise ConfigError("ebn0_db", "Eb/N0 values must be finite")
        seen: dict[int, float] = {}
        for e in self.ebn0_db:
            key = _ebn0_stream_key(e)
            if key in seen:
                raise ConfigError("ebn0_db", f"{seen[key]!r} and {e!r} dB map to the same noise "
                                             "stream (keyed by the value in mdB)")
            seen[key] = e
        if self.n_trials < 1:
            raise ConfigError("n_trials", f"must be >= 1, got {self.n_trials}")
        if self.n_d < 1:
            raise ConfigError("n_d", f"must be >= 1, got {self.n_d}")
        if self.n_p < 0:
            raise ConfigError("n_p", f"must be >= 0, got {self.n_p}")
        if self.csir not in ("perfect", "estimated", "forced"):
            raise ConfigError("csir", f"must be perfect, estimated, or forced, got {self.csir!r}")
        needs_pilots = self.csir != "perfect" or "tdel" in self.detectors
        if needs_pilots and self.n_p < 1:
            raise ConfigError("n_p", "pilot symbols required for estimation or tdel")
        if not 0.0 < self.rho_p < 1.0:
            raise ConfigError("rho_p", f"must be in (0, 1), got {self.rho_p}")
        if not 1 <= self.k_max < m:
            raise ConfigError("k_max", f"must be in [1, {m}), got {self.k_max}")
        if self.csir == "forced":
            if not self.forced_khat:
                raise ConfigError("forced_khat", "required when csir is 'forced'")
            kh = self.forced_khat
            if kh[0] != 0 or any(b <= a for a, b in zip(kh, kh[1:])) or kh[-1] >= m:
                raise ConfigError(
                    "forced_khat", f"delays must start at 0, increase strictly, and stay < M={m}"
                )
        elif self.forced_khat is not None:
            raise ConfigError("forced_khat", "only valid when csir is 'forced'")
        if self.rho_c is not None and self.n_c is not None:
            raise ConfigError("rho_c", "give rho_c or n_c, not both")
        if self.rho_c is not None and not 0.0 < self.rho_c < 1.0:
            raise ConfigError("rho_c", f"must be in (0, 1), got {self.rho_c}")
        if self.n_c is not None and not 1 <= self.n_c <= m:
            raise ConfigError("n_c", f"must be in [1, {m}], got {self.n_c}")
        if not 0.0 < self.rho_tdel < 1.0:
            raise ConfigError("rho_tdel", f"must be in (0, 1), got {self.rho_tdel}")
        if self.master_seed < 0:
            raise ConfigError("master_seed", f"must be >= 0, got {self.master_seed}")
        if self.workers < 1:
            raise ConfigError("workers", f"must be >= 1, got {self.workers}")
        return params, ch


@dataclass(frozen=True)
class SerPoint:
    """One (detector, Eb/N0) row of a sweep."""

    detector: str
    ebn0_db: float
    errors: int
    symbols: int
    ser: float
    ci95: float
    nc_avg: float
    cmult: float
    cadd: float

    @classmethod
    def from_counts(cls, detector, ebn0_db, errors, symbols, nc_avg, cmult, cadd):
        ser = errors / symbols
        return cls(detector, float(ebn0_db), int(errors), int(symbols), ser,
                   _ci95(ser, symbols), float(nc_avg), float(cmult), float(cadd))


def _ci95(ser: float, symbols: int) -> float:
    """Half-width of the normal-approximation 95% interval of an error rate."""
    return 1.96 * math.sqrt(ser * (1.0 - ser) / symbols)


# ---------------------------------------------------------------------------
# per-trial machinery
# ---------------------------------------------------------------------------


def _ebn0_stream_key(ebn0_db: float) -> int:
    # key the substream on the Eb/N0 value itself so different sweeps with
    # the same seed share noise at equal operating points
    return int(round(ebn0_db * 1000.0)) % (2**32)


def _trial_rng(master_seed: int, trial: int, ebn0_db: float) -> np.random.Generator:
    return np.random.default_rng([master_seed, trial, _ebn0_stream_key(ebn0_db)])


@dataclass
class _TrialData:
    """One trial's data symbols, spectral noise and noisy window spectra.

    The dechirped samples, magnitudes, scores and candidate mask are
    computed on first use, so the detectors that share them (mf and
    ideal-mf, noncoh and the candidate mask, mf and cand-mf, rake and
    cand-rake) pay for each once per trial.
    """

    params: LoRaParams
    ch: MultipathChannel
    cfg: SimConfig
    data: np.ndarray
    data_spec: np.ndarray
    pilot_avg: np.ndarray | None
    gains: DechirpedGains
    coh_ref: complex
    noise: np.ndarray | None  # the data rows' spectral noise alone, kept for coh-awgn

    @cached_property
    def data_dech(self) -> np.ndarray:
        return np.fft.ifft(self.data_spec, axis=1)

    @cached_property
    def mag(self) -> np.ndarray:
        return np.abs(self.data_spec)

    @cached_property
    def rake(self) -> np.ndarray:
        return _rake_scores(self.params, self.data_spec, self.gains)

    @cached_property
    def mf(self) -> np.ndarray:
        return _mf_scores(self.data_dech, _mf_bank(self.params, self.gains))

    @cached_property
    def mask(self) -> np.ndarray:
        return _candidate_masks(self.mag, self.cfg.candidate_rule())


# (key, bank) of the last mf bank built, prepared for _mf_scores. The key is
# the gain set's values, so with perfect CSIR a process builds the bank once,
# and any other gain set replaces it: results never depend on the cache.
_mf_bank_cache: tuple = (None, None)


def _mf_bank(params: LoRaParams, g: DechirpedGains) -> np.ndarray:
    """The prepared mf filter bank of a gain set, rebuilt only when the gains change."""
    global _mf_bank_cache
    key = (params.sf, g.delays, g.gains.tobytes())
    if _mf_bank_cache[0] != key:
        _mf_bank_cache = (None, None)  # free the old bank before building the new one
        _mf_bank_cache = (key, prepare_mf_bank(mf_filter_bank(params, g)))
    return _mf_bank_cache[1]


def _trial_setup(params, ch, cfg, ebn0_db, trial) -> _TrialData:
    """Draw one burst and noise realization; estimate gains per the CSIR mode."""
    m = params.m
    rng = _trial_rng(cfg.master_seed, trial, ebn0_db)
    data = rng.integers(0, m, size=cfg.n_d)
    frame = build_frame(params, cfg.n_p, data)
    sigma2 = noise_variance(snr_ebn0_convert(params, ebn0_db, "ebn0_to_snr"))
    # the DFT of dechirped white CN(0, sigma2) samples is white CN(0, M*sigma2)
    # over the bins, so the noise is drawn in the spectrum
    noise = complex_noise((frame.symbols.size, m), m * sigma2, rng)
    spectra = dechirped_spectra(params, ch, frame.symbols)
    spectra += noise
    pilot_avg = spectra[: cfg.n_p].mean(axis=0) if cfg.n_p else None

    if cfg.csir == "perfect":
        gains = dechirped_gain(params, ch)
        coh_ref = complex(ch.gains[0])
    elif cfg.csir == "forced":
        gains = gains_at_delays(params, pilot_avg, cfg.forced_khat)
        coh_ref = complex(gains.gains[0])
    else:
        est = EstimatorConfig(
            n_p=cfg.n_p,
            rho_p=cfg.rho_p,
            k_max=cfg.k_max,
            known_k=ch.n_paths if cfg.known_k else None,
        )
        gains = detect_paths(params, pilot_avg, est)
        coh_ref = complex(gains.gains[0])

    return _TrialData(
        params=params,
        ch=ch,
        cfg=cfg,
        data=data,
        data_spec=spectra[cfg.n_p :],
        pilot_avg=pilot_avg,
        gains=gains,
        coh_ref=coh_ref,
        # one (n, M) array less to hold for the rest of the trial otherwise
        noise=noise[cfg.n_p :] if "coh-awgn" in cfg.detectors else None,
    )


def _coh_awgn_decisions(t: _TrialData) -> np.ndarray:
    # flat single-tap reference carrying the same energy under the same
    # noise: its noise-free spectrum is sqrt(E) * M at the sent bin alone
    scores = t.noise.real.copy()
    scores[np.arange(t.data.size), t.data] += math.sqrt(t.ch.energy()) * t.params.m
    return np.argmax(scores, axis=1)


class _Detector(NamedTuple):
    decide: Callable[[_TrialData], np.ndarray]
    op_kind: str | None = None  # op_count kind; None reports zero cost
    candidates: bool = False  # decides among the trial's candidate mask only


# Every detector id with its decision rule. The rules are small functions
# rather than the kernels themselves, so each call looks its kernel up in
# this module's globals, where perfbench's tracer wraps it.
_DETECTORS = {
    "noncoh": _Detector(lambda t: np.argmax(t.mag, axis=1)),
    "coh": _Detector(lambda t: np.argmax((np.conj(t.coh_ref) * t.data_spec).real, axis=1)),
    "coh-awgn": _Detector(_coh_awgn_decisions),
    "ideal-mf": _Detector(
        lambda t: np.argmax(_ideal_scores(t.params, t.data_dech, t.gains, t.data), axis=1)),
    "mf": _Detector(lambda t: np.argmax(t.mf, axis=1), "mf"),
    "cand-mf": _Detector(lambda t: _masked_argmax(t.mf, t.mask), "cand_mf", candidates=True),
    "rake": _Detector(lambda t: np.argmax(t.rake, axis=1), "rake"),
    "cand-rake": _Detector(lambda t: _masked_argmax(t.rake, t.mask), "cand_rake", candidates=True),
    "tdel": _Detector(lambda t: tdel_detect(t.pilot_avg, t.data_spec, t.cfg.rho_tdel)),
}

DETECTOR_IDS = tuple(_DETECTORS)


def _op_sums(kind: str, params, n_paths: int, n_d: int, nc_total: float):
    # counts are affine in n_c (constant for the full-search kinds), so sums
    # follow from the base and unit slopes
    base = op_count(kind, params, n_paths, 0)
    unit = op_count(kind, params, n_paths, 1)
    cmult = n_d * base.cmult + (unit.cmult - base.cmult) * nc_total
    cadd = n_d * base.cadd + (unit.cadd - base.cadd) * nc_total
    return cmult, cadd


def _run_point_trial(params, ch, cfg, ebn0_db, trial) -> dict:
    """One burst at one operating point.

    Returns detector -> (errors, candidate_count_sum, cmult_sum, cadd_sum).
    """
    st = _trial_setup(params, ch, cfg, ebn0_db, trial)
    k_hat = st.gains.n_paths
    out = {}
    for det in cfg.detectors:
        spec = _DETECTORS[det]
        dec = spec.decide(st)
        nc_sum = float(st.mask.sum()) if spec.candidates else float(cfg.n_d * params.m)
        cmult = cadd = 0.0
        if spec.op_kind is not None:
            cmult, cadd = _op_sums(spec.op_kind, params, k_hat, cfg.n_d, nc_sum)
        out[det] = (int(np.sum(dec != st.data)), nc_sum, cmult, cadd)
    return out


def _map_trials(fn, tasks: list[tuple], workers: int) -> list:
    """fn(*task) for every task, in task order; across worker processes when workers > 1."""
    if workers > 1:
        chunk = max(1, len(tasks) // (workers * 4))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, *zip(*tasks), chunksize=chunk))
    return [fn(*t) for t in tasks]


# ---------------------------------------------------------------------------
# sweep drivers
# ---------------------------------------------------------------------------


def run_ser_sweep(cfg: SimConfig) -> list[SerPoint]:
    """Monte Carlo SER sweep over the configured Eb/N0 axis.

    Every detector sees the same symbols and noise within a trial; each
    (trial, Eb/N0) pair owns an RNG substream, so results do not depend
    on scheduling or worker count.
    """
    params, ch = cfg.resolve()
    tasks = [
        (params, ch, cfg, float(ebn0), trial)
        for ebn0 in cfg.ebn0_db
        for trial in range(cfg.n_trials)
    ]
    results = _map_trials(_run_point_trial, tasks, cfg.workers)

    points = []
    symbols = cfg.n_trials * cfg.n_d
    for i, ebn0 in enumerate(cfg.ebn0_db):
        block = results[i * cfg.n_trials : (i + 1) * cfg.n_trials]
        for det in cfg.detectors:
            errors = sum(r[det][0] for r in block)
            nc_sum = sum(r[det][1] for r in block)
            cmult = sum(r[det][2] for r in block)
            cadd = sum(r[det][3] for r in block)
            points.append(
                SerPoint.from_counts(
                    det, ebn0, errors, symbols,
                    nc_sum / symbols, cmult / symbols, cadd / symbols,
                )
            )
    return points


@dataclass(frozen=True)
class DeltaRow:
    """Interference indicators for one transmitted symbol."""

    a: int
    coh: float
    noncoh: float
    ideal_mf: float
    mf: float


def run_delta_report(channel, sf: int) -> tuple[list[DeltaRow], float]:
    """Per-symbol interference indicators plus the coh-to-ideal max ratio.

    The ratio of the worst legacy-coherent indicator to the worst ideal
    matched-filter indicator measures how much the channel energy spreads
    the legacy detector's margin; it is nan for a single-path channel
    (both maxima are 0).
    """
    from .detectors import delta_indicator

    params = LoRaParams(sf)
    ch = parse_channel(channel)
    rows = [
        DeltaRow(
            a,
            delta_indicator(params, ch, a, "coh"),
            delta_indicator(params, ch, a, "noncoh"),
            delta_indicator(params, ch, a, "ideal_mf"),
            delta_indicator(params, ch, a, "mf"),
        )
        for a in range(params.m)
    ]
    max_coh = max(r.coh for r in rows)
    max_ideal = max(r.ideal_mf for r in rows)
    ratio = max_coh / max_ideal if max_ideal != 0 else float("nan")
    return rows, ratio


@dataclass(frozen=True)
class ComplexityRow:
    """Cost-table row for one (sf, n_c) pair at fixed tap count."""

    sf: int
    k: int
    n_c: int
    mf: OpCount
    rake: OpCount
    cand_mf: OpCount
    cand_rake: OpCount
    ratio_full: float
    ratio_cand: float
    wall_us: dict | None = None


def _bench_channel(k: int) -> MultipathChannel:
    gains = [1.0 / math.sqrt(k)] * k
    return MultipathChannel.from_taps(list(zip(range(k), gains)))


def _bench_kernels(params, k: int, n_c: int, repeats: int, symbols: int, seed: int) -> dict:
    """Median per-symbol wall time (microseconds) of the batched detector kernels."""
    ch = _bench_channel(k)
    g = dechirped_gain(params, ch)
    rng = np.random.default_rng(seed)
    dech = (rng.standard_normal((symbols, params.m)) + 1j * rng.standard_normal((symbols, params.m)))
    spec = np.fft.fft(dech, axis=1)
    mag = np.abs(spec)
    # a sweep builds the bank once per gain set, outside the per-trial kernels
    bank = prepare_mf_bank(mf_filter_bank(params, g))

    def mf():
        _mf_scores(dech, bank)

    def rake():
        np.fft.fft(dech, axis=1)
        _rake_scores(params, spec, g)

    def cand_mf():
        mask = _candidate_masks(mag, ("fixed", n_c))
        _masked_argmax(_mf_scores(dech, bank), mask)

    def cand_rake():
        np.fft.fft(dech, axis=1)
        mask = _candidate_masks(mag, ("fixed", n_c))
        _masked_argmax(_rake_scores(params, spec, g), mask)

    out = {}
    for name, fn in (("mf", mf), ("rake", rake), ("cand_mf", cand_mf), ("cand_rake", cand_rake)):
        fn()  # warmup
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        times.sort()
        out[name] = times[len(times) // 2] / symbols * 1e6
    return out


def run_complexity_report(
    sf_list,
    n_paths: int,
    nc_list,
    bench_repeats: int = 0,
    bench_symbols: int = 256,
    seed: int = 0,
) -> list[ComplexityRow]:
    """Closed-form cost rows, optionally with measured kernel wall times.

    Wall times are machine-specific medians over bench_repeats runs after
    a warmup pass; they are off by default and only the relative ordering
    is meaningful.
    """
    if n_paths < 1:
        raise ConfigError("k", f"must be >= 1, got {n_paths}")
    rows = []
    for sf in sf_list:
        params = LoRaParams(sf)
        mf = op_count("mf", params, n_paths)
        rake = op_count("rake", params, n_paths)
        for n_c in nc_list:
            if not 1 <= n_c <= params.m:
                raise ConfigError("nc", f"must be in [1, {params.m}] for sf={sf}, got {n_c}")
            cm = op_count("cand_mf", params, n_paths, n_c)
            cr = op_count("cand_rake", params, n_paths, n_c)
            wall = None
            if bench_repeats > 0:
                wall = _bench_kernels(params, n_paths, n_c, bench_repeats, bench_symbols, seed)
            rows.append(
                ComplexityRow(
                    sf, n_paths, int(n_c), mf, rake, cm, cr,
                    complexity_ratio(mf, rake), complexity_ratio(cm, cr), wall,
                )
            )
    return rows


# ---------------------------------------------------------------------------
# studies
# ---------------------------------------------------------------------------

NP_STUDY = (1, 2, 3, 4, 6, 8)
RHO_P_STUDY = (0.2, 0.4, 0.6, 0.8)
KHAT_STUDY = ((0,), (0, 2), (0, 2, 4), (0, 2, 3), (0, 2, 3, 5), (0, 2, 3, 5, 9))


@dataclass(frozen=True)
class StudyRow:
    """One sweep row labeled by the study and the varied parameter."""

    study: str
    param: str
    point: SerPoint


def run_estimation_study(cfg: SimConfig) -> list[StudyRow]:
    """Pilot-count, threshold, and forced-delay studies with references.

    The pilot-count study (path count treated as known) and the threshold
    study run on the two-path benchmark channel; the forced-delay study
    runs on the three-path one, where misses, ghosts, and the single-path
    extreme all show distinct behavior. cfg supplies sf, the Eb/N0 axis,
    trial counts, seed, and workers.
    """
    base = replace(cfg, detectors=("rake",), csir="estimated",
                   known_k=False, forced_khat=None, channel="c2")
    rows: list[StudyRow] = []

    rows += [StudyRow("pilots", "perfect", p)
             for p in run_ser_sweep(replace(base, csir="perfect"))]
    for n_p in NP_STUDY:
        for p in run_ser_sweep(replace(base, n_p=n_p, known_k=True)):
            rows.append(StudyRow("pilots", str(n_p), p))

    rows += [StudyRow("rho_p", "known_k", p)
             for p in run_ser_sweep(replace(base, known_k=True))]
    for rho in RHO_P_STUDY:
        for p in run_ser_sweep(replace(base, rho_p=rho)):
            rows.append(StudyRow("rho_p", str(rho), p))

    c1 = replace(base, channel="c1")
    rows += [StudyRow("khat", "perfect", p)
             for p in run_ser_sweep(replace(c1, csir="perfect"))]
    rows += [StudyRow("khat", "coh", p)
             for p in run_ser_sweep(replace(c1, detectors=("coh",)))]
    for khat in KHAT_STUDY:
        label = "-".join(str(k) for k in khat)
        for p in run_ser_sweep(replace(c1, csir="forced", forced_khat=khat)):
            rows.append(StudyRow("khat", label, p))
    return rows


DEFAULT_NC_GRID = (0.01, 0.02, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5, 0.75, 1.0)


@dataclass(frozen=True)
class CandSweepRow:
    """SER of the fixed-size candidate detector at one (Eb/N0, n_c)."""

    sf: int
    ebn0_db: float
    n_c: int
    nc_norm: float
    errors: int
    symbols: int
    ser: float
    ci95: float


def run_candidate_sweep(cfg: SimConfig, nc_norm_grid=DEFAULT_NC_GRID) -> list[CandSweepRow]:
    """Sweep the candidate-set size, pairing every n_c on the same trials.

    All grid values reuse the same symbols, noise, spectra, and scores, so
    the curves differ only through the candidate restriction; the full
    alphabet (nc_norm = 1) reproduces the unrestricted detector exactly.
    """
    params, ch = cfg.resolve()
    m = params.m
    if not nc_norm_grid:
        raise ConfigError("nc_grid", "need at least one candidate fraction")
    if any(not 0.0 < x <= 1.0 for x in nc_norm_grid):
        raise ConfigError("nc_grid", "fractions must lie in (0, 1]")
    nc_list = sorted({min(m, max(1, round(x * m))) for x in nc_norm_grid})
    tasks = [
        (params, ch, cfg, float(ebn0), trial, nc_list)
        for ebn0 in cfg.ebn0_db
        for trial in range(cfg.n_trials)
    ]
    results = _map_trials(_cand_sweep_trial, tasks, cfg.workers)
    symbols = cfg.n_trials * cfg.n_d
    rows = []
    for i, ebn0 in enumerate(cfg.ebn0_db):
        block = results[i * cfg.n_trials : (i + 1) * cfg.n_trials]
        for j, n_c in enumerate(nc_list):
            errors = sum(r[j] for r in block)
            ser = errors / symbols
            rows.append(CandSweepRow(params.sf, float(ebn0), n_c, n_c / m,
                                     errors, symbols, ser, _ci95(ser, symbols)))
    return rows


def _cand_sweep_trial(params, ch, cfg, ebn0_db, trial, nc_list) -> list[int]:
    """Errors of the fixed-size candidate combiner for each n_c on one burst."""
    st = _trial_setup(params, ch, cfg, ebn0_db, trial)
    return [int(np.sum(_masked_argmax(st.rake, _candidate_masks(st.mag, ("fixed", n_c)))
                       != st.data))
            for n_c in nc_list]
