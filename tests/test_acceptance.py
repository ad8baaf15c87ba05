"""End-to-end acceptance checks for the multipath receiver stack.

Each test pins one headline requirement: exact algebraic identities, the
interference indicators, operation counts, estimator exactness, and the
Monte Carlo orderings at full scale.  Every test prints a one-line
PASS/FAIL verdict on the real stderr stream so the summary survives
pytest's capture, then asserts.

The Monte Carlo tests use fixed seeds; the margins were sized so the
checks sit far from their statistical tolerances (worst observed point
is under half the allowed budget).
"""

from __future__ import annotations

import cmath
import math
import sys
import time

import numpy as np
import pytest

from lorarake import (
    EstimatorConfig,
    LoRaParams,
    MultipathChannel,
    SimConfig,
    add_awgn,
    apply_channel,
    auto_cross_correlation,
    average_pilot_dft,
    build_fast_sim,
    build_frame,
    dechirp,
    dechirped_gain,
    detect_paths,
    dft,
    mf_statistic,
    noise_variance,
    op_count,
    parse_channel,
    rake_statistic,
    run_delta_report,
    run_ser_sweep,
    simulate_ser,
    snr_ebn0_convert,
)
from lorarake.channel import complex_noise
from lorarake.detectors import rake_scores
from lorarake.simulate import _trial_rng

# ----------------------------------------------------------------------
# helpers


@pytest.fixture
def report(capfd):
    """One-line PASS/FAIL verdict printed live, outside pytest's capture."""

    def _report(tag: str, ok: bool, detail: str) -> None:
        verdict = "PASS" if ok else "FAIL"
        with capfd.disabled():
            print(f"[acceptance] {verdict} {tag}: {detail}", file=sys.stderr, flush=True)

    return _report


def _se(p: float, n: int) -> float:
    # floor the binomial variance at 1/n so a zero-error point still
    # carries a usable tolerance
    return math.sqrt(max(p * (1.0 - p), 1.0 / n) / n)


def _combined_3se(a, b) -> float:
    return 3.0 * math.hypot(_se(a.ser, a.symbols), _se(b.ser, b.symbols))


def _steady_pilot_average(params: LoRaParams, ch: MultipathChannel, n_p: int) -> np.ndarray:
    # one extra pilot absorbs the burst-edge transient so every averaged
    # window sees the channel in steady state
    frame = build_frame(params, n_p + 1, [])
    rx = apply_channel(params, frame, ch).reshape(-1, params.m)
    return average_pilot_dft(dft(dechirp(params, rx))[1:])


# ----------------------------------------------------------------------
# 1. matched filter and tap combiner agree on randomized channels


def test_01_matched_filter_equals_rake_statistic(report):
    rng = np.random.default_rng(11)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        params = LoRaParams(int(rng.choice([7, 10])))
        m = params.m
        n_taps = int(rng.integers(1, 5))
        extra = rng.choice(np.arange(1, 10), size=n_taps - 1, replace=False)
        delays = (0, *sorted(int(d) for d in extra))
        gains = rng.standard_normal(n_taps) + 1j * rng.standard_normal(n_taps)
        ch = MultipathChannel(delays, tuple(gains))
        g = dechirped_gain(params, ch)
        a = int(rng.integers(m))
        b = int(rng.integers(m))
        ebn0 = float(rng.choice([-4.0, 0.0, 4.0]))
        sigma2 = noise_variance(snr_ebn0_convert(params, ebn0, "ebn0_to_snr"))
        # two copies of the symbol: the second window is a clean cyclic
        # view of the channel output, matching the statistic's model
        frame = build_frame(params, 0, [a, a])
        rx = add_awgn(apply_channel(params, frame, ch), sigma2, rng)
        dech = dechirp(params, rx[m : 2 * m])
        z_mf = mf_statistic(params, dech, g, b)
        z_rake = rake_statistic(params, dft(dech), g, b)
        budget = 1e-9 * m * g.energy()
        worst = max(worst, abs(z_mf - z_rake) / budget)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1.0 and elapsed < 10.0
    report(
        "01 mf-rake equivalence",
        ok,
        f"1000 randomized cases, worst |diff|/budget={worst:.3e}, {elapsed:.1f}s",
    )
    assert worst <= 1.0
    assert elapsed < 10.0


# ----------------------------------------------------------------------
# 2. interference indicators on the three-path profile


def test_02_indicator_values_three_path(report):
    rows, ratio = run_delta_report("c1", 7)
    noncoh_values = {row.noncoh for row in rows}
    ok_noncoh = noncoh_values == {0.8}

    ok_ratio = abs(ratio - 1.89) <= 1e-9

    params = LoRaParams(7)
    g = dechirped_gain(params, parse_channel("c1"))
    diag = [auto_cross_correlation(params, g, a, a).at(0) for a in range(params.m)]
    ok_diag = all(abs(v - 1.89) <= 1e-9 for v in diag)

    ok = ok_noncoh and ok_ratio and ok_diag
    report(
        "02 indicators",
        ok,
        f"noncoh set={sorted(noncoh_values)}, coh/ideal max ratio={ratio!r}, "
        f"diag spread={max(abs(v - 1.89) for v in diag):.2e}",
    )
    assert ok_noncoh
    assert ok_ratio
    assert ok_diag


# ----------------------------------------------------------------------
# 3. correlation table support and values against a direct oracle


def _oracle_correlation(params: LoRaParams, g, a: int, b: int, lag: int) -> complex:
    # explicit double loop over tap pairs; independent of the library's
    # convolution-based implementation
    total = 0j
    for di, gi in zip(g.delays, g.gains):
        for dj, gj in zip(g.delays, g.gains):
            if di - dj != lag:
                continue
            va = gi * cmath.exp(-2j * math.pi * di * a / params.m)
            vb = gj * cmath.exp(-2j * math.pi * dj * b / params.m)
            total += va * vb.conjugate()
    return total


def test_03_correlation_support_three_path(report):
    params = LoRaParams(7)
    g = dechirped_gain(params, parse_channel("c1"))
    pairs = [(a, b) for a in range(0, params.m, 7) for b in range(0, params.m, 11)]
    pairs += [(a, a) for a in range(params.m)]
    worst = 0.0
    ok_support = True
    for a, b in pairs:
        table = auto_cross_correlation(params, g, a, b)
        for lag in range(-6, 7):
            value = table.at(lag)
            worst = max(worst, abs(value - _oracle_correlation(params, g, a, b, lag)))
            inside = -3 <= lag <= 3
            if inside != (abs(value) > 1e-12):
                ok_support = False
    ok = ok_support and worst <= 1e-12
    report(
        "03 correlation support",
        ok,
        f"{len(pairs)} symbol pairs, lags -6..6, support=-3..3 {ok_support}, "
        f"max oracle gap={worst:.2e}",
    )
    assert ok_support
    assert worst <= 1e-12


# ----------------------------------------------------------------------
# 4. operation counts: frozen integers, scaling, monotone advantage


def test_04_operation_counts(report):
    anchors = {
        ("mf", 7): (82304, 49024),
        ("rake", 7): (1216, 1152),
        ("mf", 10): (5245952, 3144704),
        ("rake", 10): (11264, 12288),
    }
    exact = True
    for (kind, sf), (mult, add) in anchors.items():
        oc = op_count(kind, LoRaParams(sf), 3)
        if (oc.cmult, oc.cadd) != (mult, add):
            exact = False

    ratios = []
    for sf in range(7, 13):
        p = LoRaParams(sf)
        mf = op_count("mf", p, 3)
        rk = op_count("rake", p, 3)
        ratios.append(mf.total / rk.total)
    ok_big = ratios[-1] > 1e3
    logs = [math.log10(r) for r in ratios]
    ok_monotone = all(y > x for x, y in zip(logs, logs[1:]))

    ok = exact and ok_big and ok_monotone
    report(
        "04 operation counts",
        ok,
        f"anchors exact={exact}, ratio@sf12={ratios[-1]:.1f}, "
        f"log-ratio monotone={ok_monotone}",
    )
    assert exact
    assert ok_big
    assert ok_monotone


# ----------------------------------------------------------------------
# 5. noise-free path estimation is exact on both benchmark profiles


def test_05_noise_free_estimator_exact(report):
    worst = 0.0
    ok_delays = True
    for alias in ("c1", "c2"):
        params = LoRaParams(7)
        ch = parse_channel(alias)
        avg = _steady_pilot_average(params, ch, 6)
        est = detect_paths(params, avg, EstimatorConfig(n_p=6, rho_p=0.4, k_max=10))
        truth = dechirped_gain(params, ch)
        if est.delays != truth.delays:
            ok_delays = False
            continue
        worst = max(
            worst,
            float(np.max(np.abs(np.asarray(est.gains) - np.asarray(truth.gains)))),
        )
    ok = ok_delays and worst <= 1e-9
    report(
        "05 estimator exactness",
        ok,
        f"delays recovered={ok_delays}, max gain error={worst:.2e}",
    )
    assert ok_delays
    assert worst <= 1e-9


# ----------------------------------------------------------------------
# 6. full-scale error-rate ordering under perfect channel knowledge


def test_06_ser_ordering_full_scale(report):
    t0 = time.perf_counter()
    cfg = SimConfig(
        sf=7,
        channel="c2",
        detectors=("noncoh", "coh", "rake"),
        ebn0_db=(-2.0, 0.0, 2.0),
        n_trials=200,
        n_d=1000,
        csir="perfect",
        master_seed=1001,
    )
    by = {(p.detector, p.ebn0_db): p for p in run_ser_sweep(cfg)}
    ok_order = True
    details = []
    for e in (-2.0, 0.0, 2.0):
        rake, coh, noncoh = by[("rake", e)], by[("coh", e)], by[("noncoh", e)]
        gap_cr = coh.ser - rake.ser
        gap_nc = noncoh.ser - coh.ser
        point_ok = gap_cr > _combined_3se(coh, rake) and gap_nc > _combined_3se(noncoh, coh)
        ok_order = ok_order and point_ok
        details.append(f"{e:+.0f}dB {rake.ser:.4f}<{coh.ser:.4f}<{noncoh.ser:.4f}")

    cfg10 = SimConfig(
        sf=10,
        channel="c2",
        detectors=("rake", "tdel"),
        ebn0_db=(-2.0,),
        n_trials=100,
        n_d=1000,
        n_p=6,
        csir="perfect",
        rho_tdel=0.2,
        master_seed=1002,
    )
    by10 = {p.detector: p for p in run_ser_sweep(cfg10)}
    ok_tdel = by10["rake"].ser < by10["tdel"].ser
    elapsed = time.perf_counter() - t0

    ok = ok_order and ok_tdel and elapsed < 600.0
    report(
        "06 error-rate ordering",
        ok,
        f"{'; '.join(details)}; sf10 rake={by10['rake'].ser:.4f} < "
        f"tdel={by10['tdel'].ser:.4f} {ok_tdel}; {elapsed:.0f}s",
    )
    assert ok_order
    assert ok_tdel
    assert elapsed < 600.0


# ----------------------------------------------------------------------
# 7. candidate-restricted combining tracks the full search


def test_07_candidate_rake_tracks_full_search(report):
    ok = True
    worst = 0.0
    for sf, axis, seed in (
        (7, (-4.0, -2.0, 0.0, 2.0, 4.0), 2001),
        (10, (-6.0, -4.0, -2.0, 0.0, 2.0), 2002),
    ):
        cfg = SimConfig(
            sf=sf,
            channel="c2",
            detectors=("rake", "cand-rake"),
            ebn0_db=axis,
            n_trials=50,
            n_d=1000,
            n_p=6,
            rho_p=0.4,
            csir="estimated",
            rho_c=0.3,
            master_seed=seed,
        )
        by = {(p.detector, p.ebn0_db): p for p in run_ser_sweep(cfg)}
        for e in axis:
            full, cand = by[("rake", e)], by[("cand-rake", e)]
            tol = _combined_3se(full, cand)
            ratio = abs(cand.ser - full.ser) / tol
            worst = max(worst, ratio)
            if ratio > 1.0:
                ok = False
    report(
        "07 candidate fidelity",
        ok,
        f"sf 7 and 10, shared noise, worst |diff|/tol={worst:.2f}",
    )
    assert ok


# ----------------------------------------------------------------------
# 8. candidate-set size shrinks as the channel gets cleaner


def test_08_candidate_count_shrinks_with_snr(report):
    axis = tuple(float(x) for x in range(-4, 5))
    ok_dec = True
    anchor = None
    for rho_c, seed in ((0.3, 3001), (0.5, 3002)):
        cfg = SimConfig(
            sf=7,
            channel="c2",
            detectors=("cand-rake",),
            ebn0_db=axis,
            n_trials=20,
            n_d=1000,
            csir="perfect",
            rho_c=rho_c,
            master_seed=seed,
        )
        points = sorted(run_ser_sweep(cfg), key=lambda p: p.ebn0_db)
        counts = [p.nc_avg for p in points]
        if not all(b < a for a, b in zip(counts, counts[1:])):
            ok_dec = False
        if rho_c == 0.5:
            anchor = counts[-1]
    ok_anchor = anchor is not None and 3.5 <= anchor <= 6.5
    ok = ok_dec and ok_anchor
    report(
        "08 candidate-count trend",
        ok,
        f"strictly decreasing={ok_dec}, avg count at (0.5, +4dB)={anchor:.2f}",
    )
    assert ok_dec
    assert ok_anchor


# ----------------------------------------------------------------------
# 9. pilot averaging pays off; single-path fallback matches legacy


def test_09_pilot_averaging_and_single_path_fallback(report):
    axis = (-2.0, 0.0, 2.0)
    runs = {}
    for n_p in (1, 8):
        cfg = SimConfig(
            sf=7,
            channel="c2",
            detectors=("rake",),
            ebn0_db=axis,
            n_trials=50,
            n_d=1000,
            n_p=n_p,
            rho_p=0.4,
            csir="estimated",
            known_k=True,
            master_seed=4001,
        )
        runs[n_p] = {p.ebn0_db: p for p in run_ser_sweep(cfg)}
    ok_better = all(runs[8][e].ser <= runs[1][e].ser for e in axis)
    gap = runs[1][0.0].ser - runs[8][0.0].ser
    tol = _combined_3se(runs[1][0.0], runs[8][0.0])
    ok_gap = gap > tol

    forced = run_ser_sweep(
        SimConfig(
            sf=7,
            channel="c1",
            detectors=("rake",),
            ebn0_db=(0.0,),
            n_trials=20,
            n_d=1000,
            n_p=6,
            csir="forced",
            forced_khat=(0,),
            master_seed=4002,
        )
    )[0]
    legacy = run_ser_sweep(
        SimConfig(
            sf=7,
            channel="c1",
            detectors=("coh",),
            ebn0_db=(0.0,),
            n_trials=20,
            n_d=1000,
            n_p=6,
            csir="estimated",
            master_seed=4002,
        )
    )[0]
    ok_forced = abs(forced.ser - legacy.ser) <= _combined_3se(forced, legacy)

    ok = ok_better and ok_gap and ok_forced
    report(
        "09 pilot averaging",
        ok,
        f"8 pilots<=1 pilot everywhere={ok_better}, 0dB gap={gap:.4f}>tol={tol:.4f}, "
        f"single-path fallback vs legacy coh |diff|={abs(forced.ser - legacy.ser):.5f}",
    )
    assert ok_better
    assert ok_gap
    assert ok_forced


# ----------------------------------------------------------------------
# 10. fast statistic-domain sampler and the synthesized sweep match the
#     sample-level pipeline


def _sample_chain_ser(cfg: SimConfig, ebn0_db: float) -> float:
    """Rake SER through the sample-level chain (frame, channel convolution,
    white sample noise, dechirp, FFT) with the sweep's own trial seeds."""
    params, ch = cfg.resolve()
    g = dechirped_gain(params, ch)
    sigma2 = noise_variance(snr_ebn0_convert(params, ebn0_db, "ebn0_to_snr"))
    errors = 0
    for trial in range(cfg.n_trials):
        rng = _trial_rng(cfg.master_seed, trial, ebn0_db)
        data = rng.integers(0, params.m, size=cfg.n_d)
        rx = apply_channel(params, build_frame(params, cfg.n_p, data), ch)
        rx += complex_noise(rx.shape, sigma2, rng)
        spec = dft(dechirp(params, rx.reshape(-1, params.m)))[cfg.n_p:]
        errors += int(np.sum(np.argmax(rake_scores(params, spec, g), axis=1) != data))
    return errors / (cfg.n_trials * cfg.n_d)


def test_10_fast_sim_matches_exact_pipeline(report):
    axis = (-2.0, 0.0)
    cfg = SimConfig(
        sf=7,
        channel="c1",
        detectors=("rake",),
        ebn0_db=axis,
        n_trials=100,
        n_d=1000,
        csir="perfect",
        master_seed=1,
    )
    n_exact = cfg.n_trials * cfg.n_d
    sweep = {p.ebn0_db: p for p in run_ser_sweep(cfg)}

    params = LoRaParams(7)
    g = dechirped_gain(params, parse_channel("c1"))
    model = build_fast_sim(params, g)
    n_fast = 100_000
    ok = True
    details = []
    for i, e in enumerate(axis):
        exact = _sample_chain_ser(cfg, e)
        sigma2 = noise_variance(snr_ebn0_convert(params, e, "ebn0_to_snr"))
        errors = simulate_ser(model, sigma2, n_fast, np.random.default_rng([2, i]))
        fast_ser = errors / n_fast
        synth_ser = sweep[e].ser
        for name, ser, n in (("fast", fast_ser, n_fast), ("sweep", synth_ser, sweep[e].symbols)):
            tol = 3.0 * math.hypot(_se(exact, n_exact), _se(ser, n))
            diff = abs(ser - exact)
            if diff > tol:
                ok = False
            details.append(f"{e:+.0f}dB exact={exact:.4f} {name}={ser:.4f} |d|={diff:.4f}<{tol:.4f}")
    report("10 fast-sim agreement", ok, "; ".join(details))
    assert ok
