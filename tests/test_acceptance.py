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
from lorarake.detectors import (
    candidate_masks,
    masked_argmax,
    mf_filter_bank,
    mf_scores,
    rake_scores,
)
from lorarake.estimator import gains_at_delays
from lorarake.simulate import _burst_normals, _trial_rng
from lorarake.waveform import _chirp_tables, idft

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
        est = detect_paths(params, avg, rho_p=0.4, k_max=10)
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


def _chain_gains(params: LoRaParams, ch: MultipathChannel, cfg: SimConfig, pilot_spectra):
    """The gains cfg's detectors read: the channel's under perfect CSIR, else
    fixed from the pilot spectra as cfg's estimator fixes them."""
    if cfg.csir == "perfect":
        return dechirped_gain(params, ch)
    avg = average_pilot_dft(pilot_spectra)
    if cfg.csir == "forced":
        return gains_at_delays(params, avg, cfg.forced_khat)
    return detect_paths(params, avg, cfg.rho_p, cfg.k_max, ch.n_paths if cfg.known_k else None)


_CHAIN_DETECTORS = ("rake", "mf", "cand-mf")


def _sample_chain_errors(cfg: SimConfig, ebn0_db: float) -> dict[str, int]:
    """Errors of each of cfg's rake, mf and cand-mf through the sample-level
    chain (frame, channel convolution, white sample noise, dechirp, FFT) on
    the sweep's own trials: their data symbols, and as sample noise the
    inverse DFT of each trial's standard normals W at the point's scale,
    times the upchirp that dechirping removes, so the chain's noise spectra
    are the sweep's up to rounding. The rake scores the data spectra; mf
    scores the dechirped data windows through the dense (2M, M) bank
    (mf_filter_bank, mf_scores), and cand-mf takes the argmax of those
    scores over the candidate mask of the spectra's magnitudes. Under
    estimated or forced CSIR the gains come from the chain's own pilots."""
    params, ch = cfg.resolve()
    m, n_p, n = params.m, cfg.n_p, cfg.n_p + cfg.n_d
    scale = math.sqrt(m * noise_variance(snr_ebn0_convert(params, ebn0_db, "ebn0_to_snr")) / 2.0)
    upchirp = _chirp_tables(params.sf)[0]
    errors = {det: 0 for det in _CHAIN_DETECTORS if det in cfg.detectors}
    for trial in range(cfg.n_trials):
        data = _trial_rng(cfg.master_seed, trial).integers(0, m, size=cfg.n_d)
        w = _burst_normals(cfg.master_seed, trial, m, 0, np.empty((n, m), np.complex128))
        rx = apply_channel(params, build_frame(params, n_p, data), ch)
        rx += (idft(scale * w) * upchirp).reshape(-1)
        dech = dechirp(params, rx.reshape(-1, m))
        spec = dft(dech)
        g = _chain_gains(params, ch, cfg, spec[:n_p])
        scores = {"rake": rake_scores(params, spec[n_p:], g)}
        if errors.keys() & {"mf", "cand-mf"}:
            scores["mf"] = mf_scores(dech[n_p:], mf_filter_bank(params, g))
        for det in errors:
            if det == "cand-mf":
                mask = candidate_masks(np.abs(spec[n_p:]), cfg.candidate_rule())
                dec = masked_argmax(scores["mf"], mask)
            else:
                dec = np.argmax(scores[det], axis=1)
            errors[det] += int(np.sum(dec != data))
    return errors


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
        chain = _sample_chain_errors(cfg, e)["rake"]
        exact = chain / n_exact
        sigma2 = noise_variance(snr_ebn0_convert(params, e, "ebn0_to_snr"))
        errors = simulate_ser(model, sigma2, n_fast, np.random.default_rng([2, i]))
        fast_ser = errors / n_fast
        tol = 3.0 * math.hypot(_se(exact, n_exact), _se(fast_ser, n_fast))
        diff = abs(fast_ser - exact)
        # the sweep reads the chain's noise: its decisions are the chain's
        if diff > tol or sweep[e].errors != chain:
            ok = False
        details.append(f"{e:+.0f}dB exact={exact:.4f} fast={fast_ser:.4f} |d|={diff:.4f}<{tol:.4f} "
                       f"sweep errors={sweep[e].errors} chain={chain}")
    report("10 fast-sim agreement", ok, "; ".join(details))
    assert ok


def test_10_sweep_mf_rows_are_the_dense_matched_filters(report):
    # a sweep decides mf and cand-mf on the rake's scores; the chain scores
    # the dechirped windows through the dense (2M, M) bank, so the two meet
    # only through the MF = RAKE identity (acceptance 01), under every CSIR
    # mode and both candidate rules, on echoes short and long
    channels = ("c1", "c2", "0:1,5:0.7j,40:-0.6")
    csirs = (dict(csir="perfect"), dict(csir="estimated"),
             dict(csir="forced", forced_khat=(0, 2, 5)))
    axis = (-2.0, 2.0)
    mismatched, points = [], 0
    for sf in (6, 7, 8):
        for channel in channels:
            for csir in csirs:
                for rule in (dict(n_c=8), dict(rho_c=0.3)):
                    cfg = SimConfig(sf=sf, channel=channel, detectors=("rake", "mf", "cand-mf"),
                                    ebn0_db=axis, n_trials=2, n_d=200, master_seed=sf,
                                    **csir, **rule)
                    sweep = {(p.detector, p.ebn0_db): p.errors for p in run_ser_sweep(cfg)}
                    for e in axis:
                        chain = _sample_chain_errors(cfg, e)
                        for det in ("mf", "cand-mf"):
                            points += 1
                            if sweep[(det, e)] != chain[det]:
                                mismatched.append(f"sf{sf} {channel} {cfg.csir} {rule} {det} "
                                                  f"{e:+.0f}dB sweep={sweep[(det, e)]} "
                                                  f"chain={chain[det]}")
    ok = not mismatched
    report("10 sweep mf = dense bank", ok,
           f"{points - len(mismatched)} of {points} points agree" +
           "".join(f"; {m}" for m in mismatched[:3]))
    assert ok


# ----------------------------------------------------------------------
# 11-12. simulated error rates against the exact curves of orthogonal
# M-ary signalling (Proakis, Digital Communications, ch. 4): on a single
# path noncoh is the noncoherent detector, coh and rake the coherent one.
# With Es/N0 = sf * Eb/N0 and a = sqrt(2 Es/N0), a bin's statistic in
# units of its noise's standard deviation per dimension has mean a at the
# sent bin and 0 elsewhere.


def _es_n0(sf: int, ebn0_db: float) -> float:
    return sf * 10.0 ** (ebn0_db / 10.0)


def _coherent_ser(m: int, es_n0: float) -> float:
    """1 - the integral of phi(x - a) Phi(x)^(M-1) dx."""
    a = math.sqrt(2.0 * es_n0)
    x = np.linspace(a - 12.0, a + 12.0, 24001)
    cdf = 0.5 * (1.0 + np.vectorize(math.erf)(x / math.sqrt(2.0)))
    pdf = np.exp(-0.5 * (x - a) ** 2) / math.sqrt(2.0 * math.pi)
    return 1.0 - float(np.trapezoid(pdf * cdf ** (m - 1), x))


def _noncoherent_ser(m: int, es_n0: float) -> float:
    """1 - the integral over r > 0 of r exp(-(r^2 + a^2) / 2) I0(r a)
    (1 - exp(-r^2 / 2))^(M-1) dr: the sent bin's Rice magnitude above the
    M - 1 Rayleigh ones."""
    a = math.sqrt(2.0 * es_n0)
    r = np.linspace(0.0, a + 12.0, 24001)
    rice = r * np.exp(-0.5 * (r * r + a * a)) * np.i0(r * a)
    return 1.0 - float(np.trapezoid(rice * (1.0 - np.exp(-0.5 * r * r)) ** (m - 1), r))


def _z(point, exact: float) -> float:
    """The point's distance from the exact rate in binomial standard errors."""
    return (point.ser - exact) / math.sqrt(exact * (1.0 - exact) / point.symbols)


def test_11_single_path_ser_matches_exact_curves(report):
    worst, details = 0.0, []
    for sf, axis, trials, seed in ((7, (-2.0, 0.0, 2.0), 20, 1101),
                                   (10, (-4.0, -2.0, 0.0), 4, 1102)):
        cfg = SimConfig(sf=sf, channel="0:1", detectors=("noncoh", "coh", "rake"), ebn0_db=axis,
                        n_trials=trials, n_d=1000, n_p=0, csir="perfect", master_seed=seed)
        m = 2**sf
        for p in run_ser_sweep(cfg):
            curve = _noncoherent_ser if p.detector == "noncoh" else _coherent_ser
            z = _z(p, curve(m, _es_n0(sf, p.ebn0_db)))
            worst = max(worst, abs(z))
            details.append(f"sf{sf} {p.detector} {p.ebn0_db:+.0f}dB z={z:+.2f}")
    report("11 single-path exact curves", worst <= 4.0, f"worst |z|={worst:.2f}; "
           + "; ".join(details))
    assert worst <= 4.0


def test_12_coh_awgn_matches_its_exact_curve(report):
    # coh-awgn is a flat tap of the channel's energy E under the same noise:
    # the coherent curve at E * Es/N0, on any channel. Points expecting
    # fewer than 50 errors carry too few to test
    worst, tested = 0.0, []
    for name, seed in (("c1", 1201), ("c2", 1202)):
        cfg = SimConfig(sf=7, channel=name, detectors=("coh-awgn",), ebn0_db=(-4.0, -2.0, 0.0),
                        n_trials=20, n_d=1000, n_p=0, csir="perfect", master_seed=seed)
        energy = parse_channel(name).energy()
        for p in run_ser_sweep(cfg):
            exact = _coherent_ser(128, energy * _es_n0(7, p.ebn0_db))
            if exact * p.symbols >= 50:
                z = _z(p, exact)
                worst = max(worst, abs(z))
                tested.append(f"{name} {p.ebn0_db:+.0f}dB z={z:+.2f}")
    ok = worst <= 4.0 and len(tested) >= 4
    report("12 coh-awgn exact curve", ok, f"worst |z|={worst:.2f}; " + "; ".join(tested))
    assert len(tested) >= 4
    assert worst <= 4.0
