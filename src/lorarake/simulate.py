"""Monte Carlo experiment engine: SER sweeps, indicator reports, cost
tables, estimation studies, and candidate-count sweeps.

Each trial draws one pilot-prefixed symbol burst, writes its dechirped
window spectra in closed form (channel.dechirped_spectra), adds one
shared white spectral noise realization, and runs every configured
detector on the same data, so detector comparisons are paired. It does
so one block of consecutive windows at a time (channel.BLOCK_BINS), so a
trial's memory does not grow with its length. Each trial is an independent
Monte Carlo unit with one RNG stream keyed by (master_seed, trial), so
results do not depend on the worker count. It makes each block's standard
normals and noise-free spectra once, and every Eb/N0 point scales the normals
to its own noise variance, so the points of one run are common random numbers.
Every block array is written into one workspace per process, made once per
sweep, so the blocks of a sweep allocate no block memory.
"""

from __future__ import annotations

import math
import numbers
import os
from collections.abc import Callable, Iterator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .channel import (
    MultipathChannel,
    block_rows,
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
    _argmax_rows,
    candidate_masks as _candidate_masks,
    ideal_mf_scores as _ideal_scores,
    masked_argmax as _masked_argmax,
    mf_filter_bank,
    mf_scores as _mf_scores,
    rake_scores as _rake_scores,
    tdel_detect,
)
from .estimator import average_pilot_dft, detect_paths, gains_at_delays
from .waveform import LoRaParams, noise_variance, snr_ebn0_convert

# A sweep calls neither apply_channel nor dechirp. perfbench's tracer still
# looks both up in this module, so they stay importable here until the
# benchmark wraps channel.dechirped_spectra instead (ROADMAP item 1); a
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


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the platform does not report it."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def _params_and_channel(sf, channel) -> tuple[LoRaParams, MultipathChannel]:
    """The parameter set and parsed channel; ConfigError names sf or channel."""
    try:
        params = LoRaParams(sf)
    except ValueError as exc:
        raise ConfigError("sf", str(exc)) from None
    try:
        ch = parse_channel(channel)
    except ValueError as exc:
        raise ConfigError("channel", str(exc)) from None
    if ch.k_max >= params.m:
        raise ConfigError("channel", f"max delay {ch.k_max} must be < M={params.m}")
    return params, ch


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

    def _mf_banks(self) -> int:
        """mf banks a process keeps: one per point of a trial unless CSIR is perfect."""
        return 1 if self.csir == "perfect" else len(self.ebn0_db)

    def _reject_unused(self, driver: str, names: tuple[str, ...]) -> None:
        """Reject a field of names, one the driver overrides or never reads, set off its default."""
        for name in names:
            if getattr(self, name) != getattr(SimConfig, name):
                raise ConfigError(name, f"the {driver} does not use this field; leave it unset")

    def resolve(self) -> tuple[LoRaParams, MultipathChannel]:
        """Validate every field; return the parameter set and channel."""
        for f in fields(self):
            _check_type(f.name, f.type, getattr(self, f.name))
        params, ch = _params_and_channel(self.sf, self.channel)
        m = params.m
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
        if len(set(self.ebn0_db)) != len(self.ebn0_db):
            raise ConfigError("ebn0_db", "duplicate Eb/N0 values")
        for e in self.ebn0_db:  # the spectral noise variance M*sigma2 must be a finite float
            try:
                var = m * noise_variance(snr_ebn0_convert(params, e, "ebn0_to_snr"))
            except OverflowError:
                var = math.inf
            if var == math.inf:
                raise ConfigError("ebn0_db", f"{e!r} dB makes the noise variance overflow")
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
        banked = [d for d in self.detectors if d in ("mf", "cand-mf")]
        phys = _physical_memory() if banked else None
        if phys is not None:
            # every worker process holds its own (2M, M) float64 banks; the build
            # adds one slab of temporaries (channel.block_rows)
            need = self.workers * self._mf_banks() * 2 * m * m * 8
            if need > phys:
                raise ConfigError(
                    "detectors",
                    f"{banked[0]} at sf {self.sf} holds {need / 2**30:.1f} GiB of (2M, M) filter "
                    f"banks over {self.workers} worker(s), more than the {phys / 2**30:.1f} GiB "
                    "of physical memory; rake and cand-rake make the same decisions without one")
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


def _trial_rng(master_seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng([master_seed, trial])


# Bytes per bin of each workspace region, in layout order. normals, clean and
# spectra hold a block's standard normals, noise-free spectra and one point's
# noisy spectra; dech, mag, rake, mf and mask hold a point's data rows through
# one stage each. work is complex-size scratch that a stage uses only while it
# runs: the rake's tap products, the partition behind a candidate mask, the
# masked scores, the coh, coh-awgn, ideal-mf and tdel scores.
_REGION_BYTES = {"normals": 16, "clean": 16, "spectra": 16, "dech": 16, "work": 16,
                 "mag": 8, "rake": 8, "mf": 8, "mask": 1}


class _Workspace:
    """A process's block arrays for one sweep, carved from one allocation.

    Each region holds rows windows of M bins: block_rows(M) rows (n_p + 1
    when a first block of pilots needs more), or the n_p + n_d windows of a
    shorter burst. A block writes its leading rows. One allocation keeps a
    sweep independent of the allocator's history: no block array is freed,
    handed back to the system and faulted in again between blocks.
    """

    def __init__(self, m: int, rows: int, names: frozenset):
        self.m = m
        sizes = {name: rows * m * size for name, size in _REGION_BYTES.items() if name in names}
        self._buf = np.empty(sum(sizes.values()), dtype=np.uint8)
        self._regions, start = {}, 0
        for name, size in sizes.items():
            self._regions[name] = self._buf[start : start + size]
            start += size

    @property
    def nbytes(self) -> int:
        return self._buf.nbytes

    def take(self, name: str, n: int, dtype=np.float64) -> np.ndarray:
        """The first n rows of a region, an (n, M) array of dtype."""
        size = n * self.m * np.dtype(dtype).itemsize
        return self._regions[name][:size].view(dtype).reshape(n, self.m)


@lru_cache(maxsize=1)
def _workspace(params: LoRaParams, cfg: SimConfig) -> _Workspace:
    """This process's one workspace, for cfg's sweep: the regions its detectors
    write, at the rows of a trial's largest block. _map_points clears it when
    the sweep ends."""
    names = frozenset({"normals", "clean", "spectra"}).union(
        *(_DETECTORS[det].buffers for det in cfg.detectors))
    rows = min(max(block_rows(params.m), cfg.n_p + 1), cfg.n_p + cfg.n_d)
    return _Workspace(params.m, rows, names)


@dataclass
class _TrialData:
    """One block of a trial at one point: its data symbols and noisy window
    spectra, with the point's pilot average and gains.

    The dechirped samples, magnitudes, scores and candidate mask are
    computed on first use, so the detectors that share them (mf and
    ideal-mf, noncoh and the candidate mask, mf and cand-mf, rake and
    cand-rake) pay for each once per block. Each is written into its region
    of the workspace, valid until the next block or point is made.
    """

    params: LoRaParams
    ch: MultipathChannel
    cfg: SimConfig
    ws: _Workspace
    data: np.ndarray
    data_spec: np.ndarray
    pilot_avg: np.ndarray | None
    gains: DechirpedGains
    normals: np.ndarray  # the data rows' standard normals, an (re, im) pair per bin
    scale: float  # the point's spectral noise alone is normals * scale, read by coh-awgn

    def region(self, name: str, dtype=np.float64) -> np.ndarray:
        """The workspace region name as an (n, M) array over this block's data rows."""
        return self.ws.take(name, self.data.size, dtype)

    @cached_property
    def data_dech(self) -> np.ndarray:
        return np.fft.ifft(self.data_spec, axis=1, out=self.region("dech", np.complex128))

    @cached_property
    def mag(self) -> np.ndarray:
        return np.abs(self.data_spec, out=self.region("mag"))

    @cached_property
    def rake(self) -> np.ndarray:
        return _rake_scores(self.params, self.data_spec, self.gains, out=self.region("rake"),
                            work=self.region("work", np.complex128))

    @cached_property
    def mf(self) -> np.ndarray:
        bank = _mf_bank(self.params, self.gains, self.cfg._mf_banks())
        return _mf_scores(self.data_dech, bank, out=self.region("mf"))

    @cached_property
    def mask(self) -> np.ndarray:
        return self.candidates(self.cfg.candidate_rule())

    def candidates(self, rule: tuple[str, float]) -> np.ndarray:
        """The block's candidate mask under rule, written into the mask region."""
        return _candidate_masks(self.mag, rule, out=self.region("mask", bool),
                                work=self.region("work"))


# Gain set -> mf bank in the form _mf_scores takes, oldest first. With perfect
# CSIR a process builds one bank; with estimated or forced gains each point of
# a trial has its own, kept for all its blocks. Results never depend on the cache.
_mf_bank_cache: dict = {}


def _mf_bank(params: LoRaParams, g: DechirpedGains, keep: int = 1) -> np.ndarray:
    """The mf filter bank of a gain set; the cache keeps the last `keep` built."""
    key = (params.sf, g.delays, g.gains.tobytes())
    if key not in _mf_bank_cache:
        while len(_mf_bank_cache) >= keep:  # free the oldest before building a new one
            del _mf_bank_cache[next(iter(_mf_bank_cache))]
        _mf_bank_cache[key] = mf_filter_bank(params, g)
    return _mf_bank_cache[key]


def _trial_setup(params, ch, cfg, trial) -> Iterator[tuple[int, _TrialData]]:
    """Draw one burst; yield (point index, block) for each Eb/N0 point.

    A block is at most block_rows(M) consecutive windows (the first also
    carries every pilot and at least one data symbol). It draws its standard
    normals from the trial's generator in burst order (the whole-burst draws),
    and its noise-free spectra continue the previous block's last symbol. Each
    point in axis order scales the normals to its variance and adds the
    spectra; the first block fixes its gains, from its pilots if estimated.
    Every array of a yielded block is a view of the process's workspace, so
    a block is valid until the next yield.
    """
    m = params.m
    ws = _workspace(params, cfg)
    rng = _trial_rng(cfg.master_seed, trial)
    data = rng.integers(0, m, size=cfg.n_d)
    # the DFT of dechirped white CN(0, sigma2) samples is white CN(0, M*sigma2)
    # over the bins, so the noise is drawn in the spectrum
    scales = [math.sqrt(m * noise_variance(snr_ebn0_convert(params, e, "ebn0_to_snr")) / 2.0)
              for e in cfg.ebn0_db]
    pilot_avg, gains = [None] * len(scales), [None] * len(scales)
    if cfg.csir == "perfect" and {"mf", "cand-mf"} & set(cfg.detectors):
        # the one bank is built before any block array is written, so the
        # build's temporaries never sit on top of the block memory
        _mf_bank(params, dechirped_gain(params, ch))
    rows = block_rows(m)
    n_p, start, prev = cfg.n_p, 0, None
    while start < cfg.n_d:
        stop = min(cfg.n_d, start + max(1, rows - n_p))
        symbols = build_frame(params, n_p, data[start:stop]).symbols
        n = symbols.size
        normals = complex_noise((n, m), 2.0, rng,
                                out=ws.take("normals", n, np.complex128)).view(np.float64)
        clean = dechirped_spectra(params, ch, symbols, prev,
                                  out=ws.take("clean", n, np.complex128))
        spectra = ws.take("spectra", n, np.complex128)
        for i, scale in enumerate(scales):
            np.multiply(normals, scale, out=spectra.view(np.float64))
            spectra += clean
            if start == 0:
                pilot_avg[i] = average_pilot_dft(spectra[:n_p]) if n_p else None
                if cfg.csir == "perfect":
                    gains[i] = dechirped_gain(params, ch)
                elif cfg.csir == "forced":
                    gains[i] = gains_at_delays(params, pilot_avg[i], cfg.forced_khat)
                else:
                    gains[i] = detect_paths(params, pilot_avg[i], cfg.rho_p, cfg.k_max,
                                            ch.n_paths if cfg.known_k else None)
            yield i, _TrialData(params, ch, cfg, ws, symbols[n_p:], spectra[n_p:], pilot_avg[i],
                                gains[i], normals[n_p:], scale)
        n_p, start, prev = 0, stop, int(symbols[-1])


def _coh_awgn_decisions(t: _TrialData) -> np.ndarray:
    # flat single-tap reference carrying the same energy under the same
    # noise: its noise-free spectrum is sqrt(E) * M at the sent bin alone
    # the real part of the noise
    scores = np.multiply(t.normals[:, ::2], t.scale, out=t.region("work"))
    scores[np.arange(t.data.size), t.data] += math.sqrt(t.ch.energy()) * t.params.m
    return np.argmax(scores, axis=1)


def _coh_decisions(t: _TrialData) -> np.ndarray:
    work = t.region("work", np.complex128)
    return _argmax_rows(np.multiply(np.conj(t.gains.gains[0]), t.data_spec, out=work).real)


class _Detector(NamedTuple):
    decide: Callable[[_TrialData], np.ndarray]
    op_kind: str | None = None  # op_count kind; None reports zero cost
    candidates: bool = False  # decides among the trial's candidate mask only
    buffers: tuple[str, ...] = ()  # the workspace regions its rule writes (_REGION_BYTES)


# Every detector id with its decision rule. The rules are small functions
# rather than the kernels themselves, so each call looks its kernel up in
# this module's globals, where perfbench's tracer wraps it.
_DETECTORS = {
    "noncoh": _Detector(lambda t: np.argmax(t.mag, axis=1), buffers=("mag",)),
    "coh": _Detector(_coh_decisions, buffers=("work",)),
    "coh-awgn": _Detector(_coh_awgn_decisions, buffers=("work",)),
    "ideal-mf": _Detector(
        lambda t: _argmax_rows(_ideal_scores(t.params, t.data_dech, t.gains, t.data,
                                             out=t.region("work", np.complex128))),
        buffers=("dech", "work")),
    "mf": _Detector(lambda t: np.argmax(t.mf, axis=1), "mf", buffers=("dech", "mf")),
    "cand-mf": _Detector(lambda t: _masked_argmax(t.mf, t.mask, out=t.region("work")), "cand_mf",
                         candidates=True, buffers=("dech", "mf", "mag", "mask", "work")),
    "rake": _Detector(lambda t: np.argmax(t.rake, axis=1), "rake", buffers=("rake", "work")),
    "cand-rake": _Detector(lambda t: _masked_argmax(t.rake, t.mask, out=t.region("work")),
                           "cand_rake", candidates=True, buffers=("rake", "work", "mag", "mask")),
    "tdel": _Detector(lambda t: tdel_detect(t.pilot_avg, t.data_spec, t.cfg.rho_tdel,
                                            out=t.region("work", np.complex128)),
                      buffers=("work",)),
}

DETECTOR_IDS = tuple(_DETECTORS)


def _trial_sums(spec: _Detector, params, n_paths: int, n_d: int, masked: int):
    """(scored hypotheses, cmult, cadd) of a detector, each summed over one trial."""
    nc_total = float(masked) if spec.candidates else float(n_d * params.m)
    if spec.op_kind is None:
        return nc_total, 0.0, 0.0
    # counts are affine in n_c (constant for the full-search kinds), so sums
    # follow from the base and unit slopes
    base = op_count(spec.op_kind, params, n_paths, 0)
    unit = op_count(spec.op_kind, params, n_paths, 1)
    return (nc_total, n_d * base.cmult + (unit.cmult - base.cmult) * nc_total,
            n_d * base.cadd + (unit.cadd - base.cadd) * nc_total)


def _run_trial(params, ch, cfg, trial) -> list[dict]:
    """One burst at every operating point: per point, detector -> (errors,
    scored hypotheses, cmult, cadd), each summed over the trial."""
    errors = [dict.fromkeys(cfg.detectors, 0) for _ in cfg.ebn0_db]
    masked, k_hat = [0] * len(errors), [0] * len(errors)  # candidate bins; path count
    candidates = cfg.candidate_rule() is not None
    for i, st in _trial_setup(params, ch, cfg, trial):
        for det in cfg.detectors:
            errors[i][det] += int(np.sum(_DETECTORS[det].decide(st) != st.data))
        if candidates:
            masked[i] += int(st.mask.sum())
        k_hat[i] = st.gains.n_paths
    return [{det: (errs[det], *_trial_sums(_DETECTORS[det], params, k, cfg.n_d, bins))
             for det in cfg.detectors} for errs, bins, k in zip(errors, masked, k_hat)]


def _map_points(fn, params, ch, cfg: SimConfig, *extra) -> list[tuple[float, tuple]]:
    """(Eb/N0, each trial's result there) per point, in axis order, where
    fn(params, ch, cfg, trial, *extra) returns a trial's results in axis order;
    the trials run on at most min(cfg.workers, cfg.n_trials) worker processes."""
    tasks = [(params, ch, cfg, trial, *extra) for trial in range(cfg.n_trials)]
    workers = min(cfg.workers, len(tasks))
    try:
        if workers > 1:
            chunk = max(1, len(tasks) // (workers * 4))
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(fn, *zip(*tasks), chunksize=chunk))
        else:
            results = [fn(*t) for t in tasks]
    finally:
        _workspace.cache_clear()  # a caller holds no block memory between sweeps
    return list(zip(cfg.ebn0_db, zip(*results)))


# ---------------------------------------------------------------------------
# sweep drivers
# ---------------------------------------------------------------------------


def run_ser_sweep(cfg: SimConfig) -> list[SerPoint]:
    """Monte Carlo SER sweep over the configured Eb/N0 axis.

    Every detector sees the same symbols and noise within a trial, and
    every point the same symbols and standard normals, scaled to its
    noise variance; each trial owns an RNG stream, so results do not
    depend on scheduling, worker count or the rest of the axis.
    """
    params, ch = cfg.resolve()
    symbols = cfg.n_trials * cfg.n_d
    points = []
    for ebn0, block in _map_points(_run_trial, params, ch, cfg):
        for det in cfg.detectors:
            errors, nc_sum, cmult, cadd = map(sum, zip(*(r[det] for r in block)))
            points.append(SerPoint.from_counts(det, ebn0, errors, symbols, nc_sum / symbols,
                                               cmult / symbols, cadd / symbols))
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

    params, ch = _params_and_channel(sf, channel)
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


def run_complexity_report(sf_list, n_paths: int, nc_list) -> list[ComplexityRow]:
    """Closed-form cost rows for every (sf, n_c) pair at n_paths taps."""
    if n_paths < 1:
        raise ConfigError("k", f"must be >= 1, got {n_paths}")
    if not sf_list:
        raise ConfigError("sf", "need at least one spreading factor")
    if not nc_list:
        raise ConfigError("nc", "need at least one candidate count")
    rows = []
    for sf in sf_list:
        params = LoRaParams(sf)
        if n_paths > params.m:
            # K distinct delays below M cannot number more than M
            raise ConfigError("k", f"must be <= {params.m} for sf={sf}, got {n_paths}")
        mf = op_count("mf", params, n_paths)
        rake = op_count("rake", params, n_paths)
        for n_c in nc_list:
            if not 1 <= n_c <= params.m:
                raise ConfigError("nc", f"must be in [1, {params.m}] for sf={sf}, got {n_c}")
            cm = op_count("cand_mf", params, n_paths, n_c)
            cr = op_count("cand_rake", params, n_paths, n_c)
            rows.append(
                ComplexityRow(
                    sf, n_paths, int(n_c), mf, rake, cm, cr,
                    complexity_ratio(mf, rake), complexity_ratio(cm, cr),
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
    trial counts, seed, and workers, and may set no other field.
    """
    cfg._reject_unused("estimation study", ("channel", "detectors", "csir", "known_k",
                                            "forced_khat", "n_c", "rho_c", "rho_tdel"))
    base = replace(cfg, detectors=("rake",), csir="estimated",
                   known_k=False, forced_khat=None, channel="c2")
    c1 = replace(base, channel="c1")
    runs = [
        ("pilots", "perfect", replace(base, csir="perfect")),
        *(("pilots", str(n_p), replace(base, n_p=n_p, known_k=True)) for n_p in NP_STUDY),
        ("rho_p", "known_k", replace(base, known_k=True)),
        *(("rho_p", str(rho), replace(base, rho_p=rho)) for rho in RHO_P_STUDY),
        ("khat", "perfect", replace(c1, csir="perfect")),
        ("khat", "coh", replace(c1, detectors=("coh",))),
        *(("khat", "-".join(str(k) for k in khat), replace(c1, csir="forced", forced_khat=khat))
          for khat in KHAT_STUDY),
    ]
    return [StudyRow(study, param, p) for study, param, run in runs for p in run_ser_sweep(run)]


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
    The fixed-size rake candidates are the one detector scored, so cfg
    may not set detectors, n_c, rho_c or rho_tdel.
    """
    cfg._reject_unused("candidate sweep", ("detectors", "n_c", "rho_c", "rho_tdel"))
    cfg = replace(cfg, detectors=("cand-rake",))
    params, ch = cfg.resolve()
    m = params.m
    if not nc_norm_grid:
        raise ConfigError("nc_grid", "need at least one candidate fraction")
    if any(not 0.0 < x <= 1.0 for x in nc_norm_grid):
        raise ConfigError("nc_grid", "fractions must lie in (0, 1]")
    nc_list = sorted({min(m, max(1, round(x * m))) for x in nc_norm_grid})
    symbols = cfg.n_trials * cfg.n_d
    rows = []
    for ebn0, block in _map_points(_cand_sweep_trial, params, ch, cfg, nc_list):
        for n_c, errors in zip(nc_list, map(sum, zip(*block))):
            ser = errors / symbols
            rows.append(CandSweepRow(params.sf, float(ebn0), n_c, n_c / m,
                                     errors, symbols, ser, _ci95(ser, symbols)))
    return rows


def _cand_sweep_trial(params, ch, cfg, trial, nc_list) -> list[list[int]]:
    """Errors of the fixed-size candidate combiner per point, for each n_c, on one burst."""
    errors = [[0] * len(nc_list) for _ in cfg.ebn0_db]
    for i, st in _trial_setup(params, ch, cfg, trial):
        for j, n_c in enumerate(nc_list):
            dec = _masked_argmax(st.rake, st.candidates(("fixed", n_c)), out=st.region("work"))
            errors[i][j] += int(np.sum(dec != st.data))
    return errors
