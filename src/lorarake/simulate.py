"""Monte Carlo experiment engine: SER sweeps, indicator reports, cost
tables, estimation studies, and candidate-count sweeps.

Each trial draws one pilot-prefixed symbol burst, writes its dechirped
window spectra in closed form (channel.dechirped_spectra), adds one
shared white spectral noise realization, and runs every configured
detector on the same data, so detector comparisons are paired. It does
so one block of consecutive windows at a time (channel.BLOCK_BINS), each
block drawing its own data symbols, so a trial's memory does not grow with
its length. Each trial is an independent Monte Carlo unit whose RNG streams
are keyed by (master_seed, trial): one draws its data symbols, block after
block, and one per tile of TILE_BINS bins its standard normals, so results
do not depend on the worker count, and any range of a burst's rows draws
its normals alone.

mf and cand-mf decide on the rake's scores: the matched filter is a rake
over the DFT output (acceptance 01 pins the statistic, acceptance 10 a
sweep's mf rows against the dense bank of detectors.mf_filter_bank), so
they differ from rake and cand-rake only in their counted cost.

A block makes its standard normals W and noise-free spectra C once, and
every Eb/N0 point scales the normals to its own noise variance, so the
points of one run are common random numbers: point i sees the spectra
s_i * W + C. With perfect CSIR every point also has the same gains, so
each detector statistic linear in the spectrum (coh, rake, ideal-mf and
their candidate and mf forms) is scored once per block, and point i's
scores are s_i * score(W) + score(C): each kernel runs on W, coh and
ideal-mf run on C too, and the rake scores C in closed form from the
windows' symbols and head deltas through the channel's (2 k_max, M) head
table (detectors.clean_rake_scores), which the sweep builds once.

One trial function (_run_trial) serves both the SER sweep and the
candidate sweep: a candidate detector decides once per candidate rule,
the SER sweep's one rule or the candidate sweep's grid of fixed sizes.
With perfect CSIR the rake's shared scores are made before the points,
so each point decides every rake column with its own masks, and a
workspace keeps one mask per rule whatever the number of points.

The trials of a sweep run at once on min(workers, n_trials, usable cores)
trial threads, its lanes (_map_points). A lane writes its trials' block
arrays into one workspace and sums their integer tallies as each trial
ends: no per-trial result or block memory is held. Where a trial reads
its pilots, they run first, one block of them at a time in the rows the
data blocks use later, and fix every point's pilot average and gains, so a
workspace holds one block whatever n_p is. After a data block's serial
step (its head deltas), its rows are cut into one part per core left to
its trial thread (_threads: one part for a burst shorter than a block), and
the parts run at once on a thread pool that lives for one trial. Each part
first draws its own rows' normals and noise-free spectra (_Block.draw);
then each point is one step of a loop (_Block.points). Every stage works
row by row, and numpy releases the GIL while it runs, so each part writes
only its own rows of every workspace region, and the parts' counts add up
to those of the whole block: output does not depend on the thread count or
the block size. The one exception is a candidate mask, which the parts
meet to make of the whole block's rows (_Block.make_masks), as one thread
makes it.
"""

from __future__ import annotations

import math
import numbers
import os
import threading
from collections.abc import Callable, Iterator
from concurrent.futures import Future, ThreadPoolExecutor, as_completed
from contextlib import nullcontext
from dataclasses import dataclass, fields, replace
from typing import NamedTuple

import numpy as np

from .channel import (
    MultipathChannel,
    block_rows,
    build_frame,
    complex_noise,
    dechirped_gain,
    dechirped_spectra,
    head_deltas,
    parse_channel,
)
from .complexity import OpCount, complexity_ratio, op_count
# The kernels keep their former private names here because perfbench traces
# them by wrapping these attributes of this module; calls resolve through it.
from .detectors import (
    candidate_masks as _candidate_masks,
    clean_rake_scores,
    delta_indicator,
    ideal_mf_scores as _ideal_scores,
    masked_argmax as _masked_argmax,
    mf_filter_bank,
    rake_scores as _rake_scores,
    tdel_detect,
)
from .estimator import detect_paths, gains_at_delays
from .waveform import LoRaParams, noise_variance, snr_ebn0_convert

# A sweep calls none of apply_channel, dechirp and mf_scores (mf decides on
# the rake's scores). perfbench's tracer still looks them up in this module,
# so they stay importable here until the benchmark follows the library
# (ROADMAP item 1); a traced run lists their layers as not exercised.
from .channel import apply_channel  # noqa: F401
from .detectors import mf_scores as _mf_scores  # noqa: F401
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

# The most Eb/N0 points one sweep takes. A trial's tallies and each lane's
# total hold a row per point.
MAX_EBN0_POINTS = 1000


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

    def _needs_pilots(self) -> bool:
        """Whether a trial reads its pilots: to estimate gains, or for tdel."""
        return self.csir != "perfect" or "tdel" in self.detectors

    def _reads_points(self) -> bool:
        """Whether a trial makes each point's noisy spectra: for a rule or a
        candidate mask, or to score them with the point's own gains."""
        return (not _shares_gains(self) or self.candidate_rule() is not None
                or any(_DETECTORS[d].decide for d in self.detectors))

    def _reads_clean(self) -> bool:
        """Whether a trial makes its noise-free spectra: for the points, or for
        coh's or ideal-mf's kernel (the rake scores them in closed form)."""
        return self._reads_points() or any(_DETECTORS[d].kernel in (_COH, _IDEAL_MF)
                                           for d in self.detectors)

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
        if len(self.ebn0_db) > MAX_EBN0_POINTS:
            raise ConfigError("ebn0_db", f"{len(self.ebn0_db)} points; a sweep takes at most "
                                         f"{MAX_EBN0_POINTS}")
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
        if self._needs_pilots() and self.n_p < 1:
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
        if not 0 <= self.master_seed < 2**128:
            # a larger seed would spill out of SeedSequence's pool into the
            # spawn key, and two (seed, trial) pairs could share a stream
            raise ConfigError("master_seed", f"must be in [0, 2**128), got {self.master_seed}")
        if self.workers < 1:
            raise ConfigError("workers", f"must be >= 1, got {self.workers}")
        if self.candidate_rule() is None:
            self._reject_unused("detector set", ("n_c", "rho_c"))
        if "tdel" not in self.detectors:
            self._reject_unused("detector set", ("rho_tdel",))
        # the sweep builds the channel's (2 k_max, M) float64 head table once
        # for the rake's closed form, and its trials share it
        rakes = _head_readers(self)
        need = 2 * ch.k_max * m * 8 if rakes else 0
        phys = _physical_memory() if need else None
        if phys is not None and need > phys:
            raise ConfigError("detectors", f"{rakes[0]} at sf {self.sf} holds "
                              f"{need / 2**30:.1f} GiB of (2 k_max, M) filter banks, more than "
                              f"the {phys / 2**30:.1f} GiB of physical memory")
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
    def from_counts(cls, detector, ebn0_db, symbols, errors, nc_sum, cmult_sum, cadd_sum):
        ser = errors / symbols
        return cls(detector, float(ebn0_db), int(errors), int(symbols), ser, _ci95(ser, symbols),
                   nc_sum / symbols, cmult_sum / symbols, cadd_sum / symbols)


def _ci95(ser: float, symbols: int) -> float:
    """Half-width of the normal-approximation 95% interval of an error rate."""
    return 1.96 * math.sqrt(ser * (1.0 - ser) / symbols)


# ---------------------------------------------------------------------------
# per-trial machinery
# ---------------------------------------------------------------------------


def _trial_rng(master_seed: int, trial: int, key: int = 0) -> np.random.Generator:
    """A trial's stream key: 0 draws its data symbols, 1 + t tile t of its
    standard normals (_burst_normals). The seed fills SeedSequence's
    four-word pool ahead of the spawn key, so no two (seed, trial, key)
    share a stream while master_seed < 2**128 (SimConfig.resolve)."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(trial, key)))


# Bins of standard normals one generator draws: burst row j (pilots first) is
# row j % R of tile j // R, R = max(1, TILE_BINS // M), and each tile has a
# stream of its own, so any range of rows is drawn where it is used.
TILE_BINS = 2**15


def _burst_normals(master_seed: int, trial: int, m: int, first: int,
                   out: np.ndarray) -> np.ndarray:
    """Fill out, a C-contiguous complex (n, M) array, with the standard normals
    of burst rows [first, first + n) of a trial, and return it. A range that
    starts inside a tile first draws that tile's earlier rows into its own
    rows and drops them, so the rows do not depend on where a range starts."""
    n, tile = out.shape[0], max(1, TILE_BINS // m)
    row = first
    while row < first + n:
        t, skip = divmod(row, tile)
        rng = _trial_rng(master_seed, trial, 1 + t)
        while skip:
            k = min(skip, n)
            complex_noise((k, m), 2.0, rng, out=out[:k])
            skip -= k
        stop = min(first + n, (t + 1) * tile)
        complex_noise((stop - row, m), 2.0, rng, out=out[row - first : stop - first])
        row = stop
    return out


# Bytes per bin of each workspace region, in layout order. normals, clean and
# spectra hold a block's standard normals, its noise-free spectra and one
# point's noisy spectra, and mag and mask a point's magnitudes and its
# candidate mask under one rule (one slot per rule). With shared gains a
# linear kernel instead scores the normals into the first real half of
# spectra, and the noise-free spectra into the second (_Block.share), and a
# point writes its noisy spectra into work. Without, scores holds a kernel's
# scores of one point's spectra.
# work is complex-size scratch that a stage uses only while it runs: a point's
# noisy spectra until its magnitudes are taken, the rake's and ideal-mf's tap
# products, the partition behind a candidate mask, the coh and coh-awgn
# products, tdel's magnitude rows packed two to a complex row (its first
# half), and a point's masked and combined linear scores, one real half each.
_REGION_BYTES = {"normals": 16, "clean": 16, "spectra": 16, "work": 16,
                 "mag": 8, "scores": 8, "mask": 1}


class _Workspace:
    """The block arrays of one lane's trials, carved from one allocation.

    Each lane of a sweep makes one and runs its trials in it, one after
    another (_map_points). Every region holds one array (the mask region
    masks, one per candidate rule) of rows windows of M bins: one block, of
    pilots or of data, at most block_rows(M) rows. Window j of a block owns
    row j of every region.
    A region no stage writes is never touched: it costs address space, not
    resident memory. One allocation keeps a sweep independent of the
    allocator's history: no block array is freed, handed back to the system
    and faulted in again between blocks.
    """

    def __init__(self, m: int, rows: int, masks: int = 1):
        self.m, self.rows = m, rows
        sizes = {name: rows * m * size * (masks if name == "mask" else 1)
                 for name, size in _REGION_BYTES.items()}
        self._buf = np.empty(sum(sizes.values()), dtype=np.uint8)
        self._regions, start = {}, 0
        for name, size in sizes.items():
            self._regions[name] = self._buf[start : start + size]
            start += size

    @property
    def nbytes(self) -> int:
        return self._buf.nbytes

    def take(self, name: str, n: int, dtype=np.float64, slot: int = 0,
             row: int = 0) -> np.ndarray:
        """Rows [row, row + n) of a region's slot-th array, an (n, M) array of
        dtype. A row spans the region's own bytes per bin, so a view of any
        dtype, such as a real view of a complex region, lies within those
        rows' bytes: the parts of a block, on disjoint rows, share none."""
        start = (slot * self.rows + row) * self.m * _REGION_BYTES[name]
        size = n * self.m * np.dtype(dtype).itemsize
        return self._regions[name][start : start + size].view(dtype).reshape(n, self.m)


def _shares_gains(cfg: SimConfig) -> bool:
    """Whether every point of a trial has the same gains (perfect CSIR). Then a
    linear score at a point is scale * (its score of the normals) + (its score
    of the noise-free spectra), so a block scores those two once for every point."""
    return cfg.csir == "perfect"


def _head_readers(cfg: SimConfig) -> list[str]:
    """The detectors that read the sweep's head table: those deciding on the
    rake's kernel, with shared gains."""
    if not _shares_gains(cfg):
        return []
    return [d for d in cfg.detectors if _DETECTORS[d].kernel is _RAKE]


def _real_halves(a: np.ndarray) -> np.ndarray:
    """A complex (n, M) array's memory as two real (n, M) arrays, one per half."""
    return a.view(np.float64).reshape(2, *a.shape)


@dataclass
class _Block:
    """Consecutive windows of a trial, its burst rows [first, first + n) in
    the workspace's rows [row, row + n): their symbols and head deltas
    (channel.head_deltas), and their standard normals, a complex (n, M)
    array, and noise-free spectra (clean), both made by draw(). A block
    holds pilots or data, never both. The per-point scales, pilot averages
    and gains are the trial's, and head is the sweep's (2 k_max, M) table of
    the shared gains that the rake's closed form reads (else None); the
    pilot blocks fix the pilot averages and gains before any data block
    runs. rows(lo, hi) is a block of its own over a range of the rows, and
    its stages write only those rows of every region; parts(k) cuts the
    rows into such blocks, which know the block they are parts of (whole)
    and meet at one barrier (sync) to make their candidate masks.
    """

    params: LoRaParams
    ch: MultipathChannel
    cfg: SimConfig
    ws: _Workspace
    trial: int
    first: int
    row: int
    data: np.ndarray
    delta: np.ndarray
    normals: np.ndarray
    scales: list
    pilot_avg: list
    gains: list
    head: np.ndarray | None
    whole: _Block | None = None
    sync: threading.Barrier | None = None

    def region(self, name: str, dtype=np.float64, slot: int = 0) -> np.ndarray:
        """The workspace region name as an (n, M) array over this block's rows."""
        return self.ws.take(name, self.data.size, dtype, slot, self.row)

    @property
    def clean(self) -> np.ndarray:
        """The noise-free spectra, as make_clean() wrote them."""
        return self.region("clean", np.complex128)

    def make_clean(self) -> None:
        """Write the noise-free spectra of this block's symbols into clean."""
        dechirped_spectra(self.params, self.ch, self.data, out=self.clean, delta=self.delta)

    def rows(self, lo: int, hi: int) -> _Block:
        """Rows [lo, hi) of this block, with their own view of every region."""
        return replace(self, first=self.first + lo, row=self.row + lo, data=self.data[lo:hi],
                       delta=self.delta[lo:hi], normals=self.normals[lo:hi])

    def draw(self) -> None:
        """Fill this block's normals with those of its burst rows
        (_burst_normals), and make its noise-free spectra where the sweep
        reads them (SimConfig._reads_clean)."""
        _burst_normals(self.cfg.master_seed, self.trial, self.params.m, self.first, self.normals)
        if self.cfg._reads_clean():
            self.make_clean()

    def parts(self, k: int) -> list[_Block]:
        """The rows cut into at most k blocks, each but the last of an even
        number of rows: tdel packs rows 2i and 2i+1 into one complex FFT, so
        a row's rounding depends on the row it is packed with. They share
        one barrier, for make_masks, so each must run on a thread of its own."""
        n = self.data.size
        step = 2 * -(-n // (2 * k))
        starts = range(0, n, step)
        part = replace(self, whole=self, sync=threading.Barrier(len(starts)))
        return [part.rows(lo, min(n, lo + step)) for lo in starts]

    def make_masks(self, rules) -> None:
        """Make a candidate mask of the whole block's magnitudes for each of
        rules, the j-th into mask slot j. Every part calls it at the
        same step, once its magnitudes are written: one part makes the
        masks, one _candidate_masks call per rule over all of the block's
        rows, so each mask is made (and seen by a tracer) as on one thread,
        while the others wait. The partition may then use the whole block's
        work rows: its callers make the masks before any scores live there."""
        if self.sync.wait() == 0:
            w = self.whole
            for j, rule in enumerate(rules):
                _candidate_masks(w.region("mag"), rule, out=w.region("mask", bool, j),
                                 work=w.region("work"))
        self.sync.wait()

    def points(self, region: str = "spectra") -> Iterator[tuple[int, np.ndarray]]:
        """(i, point i's noisy spectra) for each point in axis order, the
        spectra written into region over the previous point's, valid until
        the next step."""
        spectra = self.region(region, np.complex128)
        for i, scale in enumerate(self.scales):
            np.multiply(self.normals.view(np.float64), scale, out=spectra.view(np.float64))
            spectra += self.clean
            yield i, spectra

    def _pair(self) -> np.ndarray:
        # the spectra region as two real (n, M) halves
        return _real_halves(self.region("spectra", np.complex128))

    def share(self, kernel: _Kernel) -> None:
        """With shared gains, score the normals and noise-free spectra with
        kernel, into the two halves of the spectra region; combined(i) then
        reads its scores at point i."""
        s_w, s_c = self._pair()
        kernel.score(self, 0, self.normals, s_w)
        kernel.clean(self, s_c)

    def combined(self, i: int) -> np.ndarray:
        """Point i's scores under the kernel share last scored: scales[i]
        times its scores of the normals plus those of the noise-free spectra,
        written into the upper half of the work region."""
        s_w, s_c = self._pair()
        out = _real_halves(self.region("work", np.complex128))[1]
        np.multiply(s_w, self.scales[i], out=out)
        out += s_c
        return out


def _trial_setup(params, ch, cfg, ws: _Workspace, head, trial) -> Iterator[_Block]:
    """Yield one burst's data blocks in burst order, in ws.

    A block is at most block_rows(M) consecutive windows in workspace rows
    [0, n), one _Block over their symbols, head deltas and normals. Where
    the pilots are read, they run first as blocks of their own, and each
    point adds its noisy pilot spectra into one sum row by row: over n_p,
    average_pilot_dft's mean bit for bit, which fixes the point's gains.
    The first data block keeps max(1, block_rows(M) - n_p) symbols, so the
    data blocks, and tdel's row pairs in them, span the burst rows they
    would if the pilots opened the first block. A data block's symbols are
    drawn as it starts, from the trial's one symbol stream, so the burst is
    never held whole. Whoever runs a range of its rows first makes their
    normals, each burst row's from its own tile's stream, and noise-free
    spectra, which continue the previous block's last symbol (_Block.draw).
    The head deltas that those spectra and the rake's closed form share
    are made once per block, so a point's scores never depend on the rest
    of the axis. head is the sweep's head table, or None (_map_points).
    Every array of a yielded block is a view of ws, valid until the next
    yield.
    """
    m = params.m
    rng = _trial_rng(cfg.master_seed, trial)
    # the DFT of dechirped white CN(0, sigma2) samples is white CN(0, M*sigma2)
    # over the bins, so the noise is drawn in the spectrum
    scales = [math.sqrt(m * noise_variance(snr_ebn0_convert(params, e, "ebn0_to_snr")) / 2.0)
              for e in cfg.ebn0_db]
    pilot_avg, gains = [None] * len(scales), [None] * len(scales)
    if _shares_gains(cfg):
        gains = [dechirped_gain(params, ch)] * len(scales)

    def block(first, symbols, prev) -> _Block:
        delta = head_deltas(params, ch, symbols, prev)
        normals = ws.take("normals", symbols.size, np.complex128)
        return _Block(params, ch, cfg, ws, trial, first, 0, symbols, delta, normals, scales,
                      pilot_avg, gains, head)

    rows, n_p = block_rows(m), cfg.n_p
    if cfg._needs_pilots():
        sums = np.zeros((len(scales), m), dtype=np.complex128)
        for lo in range(0, n_p, rows):
            pilots = block(lo, np.zeros(min(rows, n_p - lo), np.int64), 0 if lo else None)
            pilots.draw()
            for acc, (_, spectra) in zip(sums, pilots.points()):
                for row in spectra:  # in row order: a block-wise sum would round otherwise
                    acc += row
        for i in range(len(scales)):
            pilot_avg[i] = sums[i] / n_p
            if cfg.csir == "forced":
                gains[i] = gains_at_delays(params, pilot_avg[i], cfg.forced_khat)
            elif cfg.csir == "estimated":
                gains[i] = detect_paths(params, pilot_avg[i], cfg.rho_p, cfg.k_max,
                                        ch.n_paths if cfg.known_k else None)
    start, prev = 0, 0 if n_p else None  # the data follow the last pilot
    while start < cfg.n_d:
        stop = min(cfg.n_d, start + max(1, rows - n_p))
        symbols = build_frame(params, 0, rng.integers(0, m, size=stop - start)).symbols
        yield block(cfg.n_p + start, symbols, prev)
        n_p, start, prev = 0, stop, int(symbols[-1])


def _usable_cores() -> int:
    """The cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _trial_threads(cfg: SimConfig) -> int:
    """The threads a sweep runs its trials on at once, at most one per usable
    core, each with a workspace of its own; 1 is the caller's alone."""
    return min(cfg.workers, cfg.n_trials, _usable_cores())


def _threads(params: LoRaParams, cfg: SimConfig) -> int:
    """Threads a trial runs its blocks' parts on: the usable cores over the
    sweep's trial threads, at least 1. A run keeps 1 part with a burst
    shorter than one block (channel.BLOCK_BINS bins; measured in process, on
    2 cores, 2 parts against 1). On the
    smallest blocks the parts' Python steps and hand-offs cost more than
    their rows save: 0.42-0.99 times as fast at 3e3-1e5 bins. The bound is
    coarse: at 1.3e5-2.6e5 bins 2 parts ran 0.96-1.47 times as fast (sf 9,
    n_d 300: 1.47), so some bursts below it would gain from parts.
    A sweep that makes no point's spectra (shared gains, linear detectors
    alone) splits too: its parts draw their own normals, which take most of
    its time (a 3-point sf 10 or sf 12 rake sweep ran 0.96-1.97 times as fast
    on 2 threads, 1.2 or more in 11 of 12 rounds)."""
    if cfg.n_d < block_rows(params.m):
        return 1
    return max(1, _usable_cores() // _trial_threads(cfg))


def _trial_counts(params, ch, cfg, ws: _Workspace, head, trial, count):
    """(count summed over a trial's blocks, the trial's gains per point).

    count(block) returns a block's integer counts as an array. Each block
    is cut into at most _threads(params, cfg) parts (_Block.parts) that each
    draw their rows (_Block.draw) and count them at once, one per thread of a
    pool of the trial's own (the parts wait for each other), so no thread
    outlives the trial; with one thread the block's one part counts inline.
    Every stage works row by row and each mask is made of the whole block,
    so the sums do not depend on the cut. A part that fails, in its draw
    too, releases the parts waiting for it."""
    threads = _threads(params, cfg)
    total = 0

    def counted(part: _Block) -> np.ndarray | int:
        try:
            part.draw()
            return count(part)
        except threading.BrokenBarrierError:
            return 0  # released by a part that failed, whose error the sum raises
        except BaseException:
            part.sync.abort()  # release the parts waiting for this one at make_masks
            raise

    with ThreadPoolExecutor(threads) if threads > 1 else nullcontext() as pool:
        run = pool.map if pool else map
        for block in _trial_setup(params, ch, cfg, ws, head, trial):
            total = sum(run(counted, block.parts(threads)), total)
    return total, block.gains


def _coh_awgn_decisions(b: _Block, i: int, mag) -> np.ndarray:
    # flat single-tap reference carrying the same energy under the same
    # noise: its noise-free spectrum is sqrt(E) * M at the sent bin alone
    # the real part of the noise
    scores = np.multiply(b.normals.real, b.scales[i], out=b.region("work"))
    scores[np.arange(b.data.size), b.data] += math.sqrt(b.ch.energy()) * b.params.m
    return np.argmax(scores, axis=1)


def _tdel_decisions(b: _Block, i: int, mag: np.ndarray) -> np.ndarray:
    # the point's magnitudes, which noncoh and the candidate masks share
    return tdel_detect(b.pilot_avg[i], mag, b.cfg.rho_tdel, out=b.region("work", np.complex128))


class _Kernel(NamedTuple):
    """A detector statistic linear in the spectrum. score(block, i, x, out)
    writes the real scores of x, (n, M) data-row spectra, to out, a real
    (n, M) array, reading point i's gains (block.gains[i]). clean(block,
    out), run only with shared gains, writes its scores of the block's
    noise-free data-row spectra: coh's and ideal-mf's own kernel on them, or
    the rake's closed form through the sweep's head table (clean_rake_scores)."""

    score: Callable[[_Block, int, np.ndarray, np.ndarray], object]
    clean: Callable[[_Block, np.ndarray], object]


def _coh_scores(b: _Block, i: int, x: np.ndarray, out: np.ndarray) -> None:
    np.copyto(out, np.multiply(np.conj(b.gains[i].gains[0]), x,
                               out=b.region("work", np.complex128)).real)


def _ideal_mf_scores(b: _Block, i: int, x: np.ndarray, out: np.ndarray) -> None:
    _ideal_scores(b.params, x, b.gains[i], b.data, out=out, work=b.region("work", np.complex128))


# The kernels are small functions rather than the detectors' kernels
# themselves, so each call looks its kernel up in this module's globals,
# where perfbench's tracer wraps it.
_COH = _Kernel(_coh_scores, lambda b, out: _coh_scores(b, 0, b.clean, out))
_RAKE = _Kernel(lambda b, i, x, out: _rake_scores(b.params, x, b.gains[i], out=out,
                                                  work=b.region("work", np.complex128)),
                lambda b, out: clean_rake_scores(b.params, b.gains[0], b.data, b.delta, b.head,
                                                 out=out))
_IDEAL_MF = _Kernel(_ideal_mf_scores, lambda b, out: _ideal_mf_scores(b, 0, b.clean, out))
_KERNEL_ORDER = (_COH, _IDEAL_MF, _RAKE)  # the order a block runs them in


class _Detector(NamedTuple):
    """A detector's decision, by a rule or a linear kernel's argmax, and its cost kind."""

    decide: Callable[[_Block, int, np.ndarray | None], np.ndarray] | None = None  # at point i
    op_kind: str | None = None  # op_count kind; None reports zero cost
    candidates: bool = False  # decides among the trial's candidate mask only
    kernel: _Kernel | None = None  # linear: decides on this kernel's scores instead of by a rule
    mag: bool = False  # its rule reads the point's magnitudes (else it gets None)


# Every detector id with its decision rule, or the linear kernel whose scores
# it takes the argmax of (over the candidate mask for a candidate detector).
# mf and cand-mf take the rake's: its statistic is the matched filter's
# (acceptance 01), and op_kind still reports the MF's counted cost.
_DETECTORS = {
    "noncoh": _Detector(lambda b, i, mag: np.argmax(mag, axis=1), mag=True),
    "coh": _Detector(kernel=_COH),
    "coh-awgn": _Detector(_coh_awgn_decisions),
    "ideal-mf": _Detector(kernel=_IDEAL_MF),
    "mf": _Detector(op_kind="mf", kernel=_RAKE),
    "cand-mf": _Detector(op_kind="cand_mf", candidates=True, kernel=_RAKE),
    "rake": _Detector(op_kind="rake", kernel=_RAKE),
    "cand-rake": _Detector(op_kind="cand_rake", candidates=True, kernel=_RAKE),
    "tdel": _Detector(_tdel_decisions, mag=True),
}

DETECTOR_IDS = tuple(_DETECTORS)


def _trial_sums(spec: _Detector, params, n_paths: int, n_d: int, masked: int):
    """(scored hypotheses, cmult, cadd) of a detector, integers summed over one trial."""
    nc_total = masked if spec.candidates else n_d * params.m
    if spec.op_kind is None:
        return nc_total, 0, 0
    # counts are affine in n_c (constant for the full-search kinds), so sums
    # follow from the base and unit slopes
    base = op_count(spec.op_kind, params, n_paths, 0)
    unit = op_count(spec.op_kind, params, n_paths, 1)
    return (nc_total, n_d * base.cmult + (unit.cmult - base.cmult) * nc_total,
            n_d * base.cadd + (unit.cadd - base.cadd) * nc_total)


def _run_trial(params, ch, cfg, ws: _Workspace, head, trial, cand_rules) -> np.ndarray:
    """One burst's tallies: a (points, columns, 4) object array of each
    column's (errors, scored hypotheses, cmult, cadd) there, Python ints. A
    column is a detector of cfg, and a candidate detector has one per rule
    of cand_rules, in order, each deciding among that rule's masks.

    Per block part (_trial_counts), each point in turn writes its spectra
    and, where they are read, its magnitudes, runs the rules on them and
    makes its candidate mask for every rule. Without shared gains it then
    runs each linear kernel on its spectra. With shared gains the rake
    scores the block before the points, whose spectra go in the work
    region, and each point decides every rake column on its combined
    scores; coh and ideal-mf decide after the points, on their shared
    scores. With linear detectors alone no point's spectra are read, and
    none is made."""
    dets = cfg.detectors
    cols = [(det, r) for det in dets
            for r in (range(len(cand_rules)) if _DETECTORS[det].candidates else (None,))]
    rules = [(c, _DETECTORS[det].decide) for c, (det, _) in enumerate(cols)
             if _DETECTORS[det].decide]
    # each linear kernel that runs, in _KERNEL_ORDER
    kernels = [k for k in _KERNEL_ORDER if any(_DETECTORS[det].kernel is k for det in dets)]
    shared = _shares_gains(cfg)
    reads_points = cfg._reads_points()
    reads_mag = bool(cand_rules) or any(_DETECTORS[det].mag for det in dets)
    # with shared gains, the kernels scored before the points, which read
    # their scores, and those scored after them
    ahead = [_RAKE] if shared and reads_points and _RAKE in kernels else []
    after = [k for k in kernels if k not in ahead] if shared else []

    def count(block: _Block) -> np.ndarray:
        # per point and column: errors, then the candidate bins
        counts = np.zeros((len(cfg.ebn0_db), len(cols), 2), dtype=np.int64)

        def tally(i, kernel, scores):
            for c, (det, r) in enumerate(cols):
                if _DETECTORS[det].kernel is not kernel:
                    continue
                if r is None:
                    dec = np.argmax(scores, axis=1)
                else:
                    mask = block.region("mask", bool, r)
                    dec = _masked_argmax(scores, mask, out=block.region("work"))
                    counts[i, c, 1] += np.count_nonzero(mask)
                counts[i, c, 0] += np.sum(dec != block.data)

        for kernel in ahead:
            block.share(kernel)
        for i, spectra in block.points("work" if shared else "spectra") if reads_points else ():
            mag = np.abs(spectra, out=block.region("mag")) if reads_mag else None
            for c, decide in rules:
                counts[i, c, 0] += np.sum(decide(block, i, mag) != block.data)
            if cand_rules:
                block.make_masks(cand_rules)
            for kernel in ahead:
                tally(i, kernel, block.combined(i))
            if not shared:
                scores = block.region("scores")
                for kernel in kernels:
                    kernel.score(block, i, spectra, scores)
                    tally(i, kernel, scores)
        for kernel in after:
            block.share(kernel)
            for i in range(len(cfg.ebn0_db)):
                tally(i, kernel, block.combined(i))
        return counts

    counts, gains = _trial_counts(params, ch, cfg, ws, head, trial, count)
    return np.array([[(int(errors), *_trial_sums(_DETECTORS[det], params, g.n_paths, cfg.n_d,
                                                 int(bins)))
                      for (det, _), (errors, bins) in zip(cols, c)]
                     for c, g in zip(counts, gains)], dtype=object)


def _map_points(fn, params, ch, cfg: SimConfig, *extra, masks: int = 1):
    """The sum over the sweep's trials of fn(params, ch, cfg, ws, head,
    trial, *extra), a trial's integer tallies, its block arrays in ws.

    The trials run on _trial_threads(cfg) lanes, each trial on
    _threads(params, cfg) parts. A lane makes one workspace at the rows of a
    trial's largest block, of pilots or of data (at most block_rows(M),
    whatever n_p), its mask region holding masks masks, takes trial after
    trial from a lock-guarded counter, and adds each one's tallies into its
    total: integer sums do not depend on which lane ran which trial. A lane
    that raises, or a caller interrupted while it waits, stops every lane
    before its next trial. head is the shared gains' read-only (2 k_max, M)
    table that the rake's closed form reads (else None), built once for
    every trial."""
    m, lanes = params.m, _trial_threads(cfg)
    rows = min(block_rows(m), max(cfg.n_p, cfg.n_d))
    head = (mf_filter_bank(params, dechirped_gain(params, ch), cols=ch.k_max)
            if _head_readers(cfg) else None)
    trials, lock, stop = iter(range(cfg.n_trials)), threading.Lock(), threading.Event()

    def lane():
        ws, total = _Workspace(m, rows, masks), 0
        while not stop.is_set():
            with lock:
                trial = next(trials, None)
            if trial is None:
                break
            total = total + fn(params, ch, cfg, ws, head, trial, *extra)
        return total

    if lanes == 1:
        return lane()
    with ThreadPoolExecutor(lanes) as pool:
        try:
            # each lane's total as it ends, so a lane's error is raised at once;
            # no frame names a failed future, whose error would then hold the
            # lanes' workspaces in a reference cycle
            return sum(map(Future.result, as_completed([pool.submit(lane) for _ in range(lanes)])))
        finally:
            stop.set()  # a lane raised, the caller was interrupted, or every lane is done


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
    rule = cfg.candidate_rule()
    rules = [rule] if rule else []
    tallies = _map_points(_run_trial, params, ch, cfg, rules, masks=len(rules))
    return [SerPoint.from_counts(det, ebn0, symbols, *sums)
            for ebn0, row in zip(cfg.ebn0_db, tallies) for det, sums in zip(cfg.detectors, row)]


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
    params, ch = _params_and_channel(sf, channel)
    variants = [f.name for f in fields(DeltaRow)][1:]
    rows = [DeltaRow(a, *(delta_indicator(params, ch, a, v) for v in variants))
            for a in range(params.m)]
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
    n_trials, n_d, the seed and workers, and the estimator's n_p, rho_p and
    k_max (the pilot-count and threshold studies vary n_p and rho_p in
    turn); it may set no other field.
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
    base.resolve()  # every field is checked before the first sweep runs
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
    rules = [("fixed", n_c) for n_c in nc_list]
    tallies = _map_points(_run_trial, params, ch, cfg, rules, masks=len(rules))
    for ebn0, row in zip(cfg.ebn0_db, tallies):
        for n_c, (errors, *_) in zip(nc_list, row):
            ser = errors / symbols
            rows.append(CandSweepRow(params.sf, float(ebn0), n_c, n_c / m,
                                     errors, symbols, ser, _ci95(ser, symbols)))
    return rows
