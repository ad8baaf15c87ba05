"""The benchmark's workloads and the correctness check behind `failed`.

Each workload is one closed batch a user would run on a 2-core desk
machine: a fixed Monte Carlo sweep, repeated with fresh master seeds
for as long as a run measures. A run's master seeds come from the
benchmark seed, so the same seed gives the same inputs.

Correctness: every (detector, Eb/N0) point of a run is pooled over the
run's sweeps and compared with the committed reference (reference.json,
made by make_reference.py from disjoint seeds). A point fails when its
SER differs from the reference SER by more than Z_FAIL combined standard
errors plus a continuity correction. Errors within a trial are not
independent where a detector uses that trial's noisy pilots (`tdel`,
estimated gains), so the binomial standard error is scaled by the
point's design effect: the variance of a sweep's SER over the reference
sweeps divided by the binomial variance, and at least 1. With that,
Z_FAIL = 5 makes an honest re-draw of the noise fail about once in two
million points. On workloads that
run both `mf` and `rake`, a point also fails when the two error counts
of any sweep differ, since the two detectors make identical decisions.

This module imports nothing from lorarake or numpy, so the orchestrator
can check results without loading the library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

Z_FAIL = 5.0

# master seed of sweep `rep` in a run with benchmark seed s is
# s * SEED_STRIDE + rep; reference sweep i uses REFERENCE_SEED + i.
SEED_STRIDE = 10**6
REFERENCE_SEED = 2**62


@dataclass(frozen=True)
class Workload:
    """One fixed sweep. kind "ser" runs `lorarake ser` on config; kind
    "fastsim" builds one fast-simulator model for config's sf and channel
    and runs simulate_ser for n_trials * n_d symbols per Eb/N0 point.
    An untraced run spreads its time over `processes` fresh workers."""

    name: str
    why: str
    kind: str
    config: dict
    processes: int

    @property
    def symbols_per_sweep(self) -> int:
        c = self.config
        return len(c["ebn0_db"]) * c["n_trials"] * c["n_d"]

    @property
    def trials_per_sweep(self) -> int:
        return len(self.config["ebn0_db"]) * self.config["n_trials"]


# Sweep sizes. Every workload uses n_d = 1000, the SimConfig default and the
# README example, because the share of per-trial work (filter bank, path
# estimation, gain tables) in a sweep depends on n_d. The share does not
# depend on n_trials, so n_trials is cut until a sweep fits a run: one trial
# per point at sf 10 and 12 (1.5 s and 7 s per sweep on a 2-core machine).
# sf7-legacy-pool uses 20 trials: 2e4 symbols per point and 1e5 per sweep.
# The README's rough threshold for --workers is 1e5 symbols per point, but
# that sweep (5e5 symbols, about 12 s) would leave one sweep per run. The
# pool starts once per sweep, and at 1e5 symbols per sweep workers=2 already
# halves the sweep time of workers=1 on 2 cores (2.3 s against 4.8 s).
# `processes` is chosen so that the run's sweeps fill about --seconds.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sf7-legacy-pool",
            "small M and many trials: fixed per-trial cost and the process pool dominate",
            "ser",
            dict(sf=7, channel="c2", detectors=("noncoh", "coh", "coh-awgn", "rake", "tdel"),
                 csir="perfect", ebn0_db=(-4.0, -2.0, 0.0, 2.0, 4.0),
                 n_trials=20, n_d=1000, workers=2),
            processes=2,
        ),
        Workload(
            "sf12-cand-est",
            "large M, estimated gains: frame, noise, FFT, rake and fixed-size candidates dominate",
            "ser",
            dict(sf=12, channel="c1", detectors=("noncoh", "rake", "cand-rake"),
                 csir="estimated", n_p=6, n_c=32, ebn0_db=(-4.0, -2.0, 0.0),
                 n_trials=1, n_d=1000, workers=1),
            processes=3,
        ),
        Workload(
            "sf10-mf-perfect",
            "constant gains: the per-trial M x M filter bank and matmul dominate time and memory",
            "ser",
            dict(sf=10, channel="c2", detectors=("ideal-mf", "mf", "cand-mf", "rake"),
                 csir="perfect", rho_c=0.3, ebn0_db=(-4.0, -2.0, 0.0),
                 n_trials=1, n_d=1000, workers=1),
            processes=3,
        ),
        Workload(
            "sf10-fastsim",
            "statistic-domain fast simulator: O(M^3) model build in set-up, correlated noise per symbol",
            "fastsim",
            dict(sf=10, channel="c2", detectors=("rake",), ebn0_db=(-4.0, -2.0, 0.0),
                 n_trials=1, n_d=1000, workers=1),
            # its sweep speed varies most between worker processes
            processes=8,
        ),
    )
}

FASTSIM_LABEL = "fastsim"


def master_seed(seed: int, rep: int) -> int:
    return seed * SEED_STRIDE + rep


def point_key(detector: str, ebn0_db: float) -> str:
    return f"{detector}@{float(ebn0_db):g}"


def point_fails(errors: int, symbols: int, ref_errors: int, ref_symbols: int,
                deff: float) -> bool:
    """True when two error counts disagree beyond Z_FAIL combined standard
    errors, the binomial one scaled by the design effect deff."""
    p_run = errors / symbols
    p_ref = ref_errors / ref_symbols
    pooled = (errors + ref_errors) / (symbols + ref_symbols)
    inv = 1.0 / symbols + 1.0 / ref_symbols
    se = math.sqrt(pooled * (1.0 - pooled) * deff * inv)
    return abs(p_run - p_ref) > Z_FAIL * se + 0.5 * inv


def design_effect(counts) -> float:
    """Variance of the per-sweep SER over its binomial variance, at least 1.

    counts is a list of (errors, symbols), one per sweep, all with the
    same symbol count."""
    n = len(counts)
    symbols = counts[0][1]
    sers = [e / s for e, s in counts]
    p = sum(sers) / n
    binomial = p * (1.0 - p) / symbols
    if n < 2 or binomial == 0.0:
        return 1.0
    var = sum((x - p) ** 2 for x in sers) / (n - 1)
    return max(1.0, var / binomial)


def pool_points(sweeps) -> dict:
    """point_key -> {"errors", "symbols"} summed over sweeps of rows."""
    pooled: dict = {}
    for rows in sweeps:
        for det, ebn0, errors, symbols in rows:
            acc = pooled.setdefault(point_key(det, ebn0), {"errors": 0, "symbols": 0})
            acc["errors"] += errors
            acc["symbols"] += symbols
    return pooled


def check_run(sweeps, reference_points: dict):
    """Check a run's sweeps against the reference points of its workload.

    sweeps is a list of row lists, one per sweep, each row
    (detector, ebn0_db, errors, symbols), each with its own master seed.
    reference_points maps point_key -> {"errors", "symbols", "deff"}. Returns (attempted, failures)
    where attempted counts the run's distinct points and failures maps
    each failing point_key to its reason.
    """
    pooled = pool_points(sweeps)
    failures = {}
    for key, pt in pooled.items():
        errors, symbols = pt["errors"], pt["symbols"]
        ref = reference_points.get(key)
        if ref is None:
            failures[key] = "no reference point"
        elif point_fails(errors, symbols, ref["errors"], ref["symbols"], ref["deff"]):
            failures[key] = (f"ser {errors / symbols:.6g} over {symbols} symbols vs reference "
                             f"{ref['errors'] / ref['symbols']:.6g} over {ref['symbols']}")
    for i, rows in enumerate(sweeps):
        by_point = {(det, float(e)): errors for det, e, errors, _ in rows}
        for (det, ebn0), errors in by_point.items():
            rake = by_point.get(("rake", ebn0))
            if det == "mf" and rake is not None and rake != errors:
                failures[point_key("mf", ebn0)] = (
                    f"sweep {i}: mf made {errors} errors, rake {rake}")
    return len(pooled), failures
