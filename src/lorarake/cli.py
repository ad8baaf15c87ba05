"""Command line front end.

Subcommands map one-to-one onto the drivers in simulate: ser (Monte
Carlo sweep), delta (interference indicators), complexity (cost table),
estimate-study (pilot/threshold/forced-delay studies), cand-sweep
(candidate-set size sweep), and demo (a small smoke run). Results go to
stdout or --out as CSV; a one-line summary with the seed, a config hash,
and the wall time goes to stderr so redirected CSV stays clean.

Exit codes: 0 on success, 2 for configuration or usage errors, 1 for
unexpected failures.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
import time
import traceback
from dataclasses import asdict, astuple, fields, replace

from .channel import parse_channel
from .simulate import (
    DEFAULT_NC_GRID,
    MAX_EBN0_POINTS,
    CandSweepRow,
    ConfigError,
    SerPoint,
    SimConfig,
    run_candidate_sweep,
    run_complexity_report,
    run_delta_report,
    run_estimation_study,
    run_ser_sweep,
)

__all__ = ["main"]


# ---------------------------------------------------------------------------
# argument parsing helpers
# ---------------------------------------------------------------------------


def parse_ebn0_axis(text: str) -> tuple[float, ...]:
    """Parse "start:step:stop" (inclusive stop) or a comma list of dB values.

    Use the --ebn0=-4:1:4 form when the range starts negative, so the
    shell and argparse do not mistake the value for an option. A range is
    counted before it is built, so one of more than MAX_EBN0_POINTS points
    fails at once.
    """
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError("ebn0_db", f"expected start:step:stop, got {text!r}")
        start, step, stop = (float(p) for p in parts)
        if not all(map(math.isfinite, (start, step, stop))):
            raise ConfigError("ebn0_db", f"start, step and stop must be finite, got {text!r}")
        if step <= 0:
            raise ConfigError("ebn0_db", f"step must be positive, got {step}")
        span = (stop - start) / step + 1e-9  # points after the first; inf when step is tiny
        if span >= MAX_EBN0_POINTS:
            raise ConfigError("ebn0_db", f"{text!r} has more than {MAX_EBN0_POINTS} points")
        count = int(math.floor(span)) + 1
        if count < 1:
            raise ConfigError("ebn0_db", f"empty Eb/N0 range {text!r}")
        return tuple(round(start + i * step, 12) for i in range(count))
    values = tuple(float(p) for p in text.split(",") if p.strip())
    if not values:
        raise ConfigError("ebn0_db", f"no Eb/N0 values in {text!r}")
    return values


def _parse_list(kind):
    """A parser of a comma list into a tuple of kind values, blank items skipped."""
    def parse(text: str) -> tuple:
        return tuple(kind(p.strip()) for p in text.split(",") if p.strip())
    parse.__name__ = f"{kind.__name__} list"  # argparse names a bad value's type by it
    return parse


def _load_config_file(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ConfigError("config", f"config file {path} must hold a JSON object")
    return data


# flag values that need parsing into a config list; the rest pass through
_LIST_FLAGS = {
    "ebn0_db": parse_ebn0_axis,
    "detectors": _parse_list(str),
    "forced_khat": _parse_list(int),
}


def _add_sweep_flags(sub: argparse.ArgumentParser, full: bool = True) -> None:
    sub.add_argument("--config", metavar="PATH", help="JSON file with SimConfig fields")
    sub.add_argument("--sf", type=int, help="spreading factor")
    sub.add_argument("--ebn0", dest="ebn0_db", metavar="AXIS",
                     help="Eb/N0 grid: start:step:stop or comma list (dB)")
    sub.add_argument("--n-trials", type=int, dest="n_trials", help="frames per point")
    sub.add_argument("--n-d", type=int, dest="n_d", help="data symbols per frame")
    sub.add_argument("--seed", type=int, dest="master_seed", metavar="SEED",
                     help="master seed")
    sub.add_argument("--workers", type=int, help="trials run at once, at most one per usable core")
    if not full:
        return
    sub.add_argument("--channel", help="channel: alias (c1, c2), inline delay:gain "
                                       "list, or CSV path")
    sub.add_argument("--n-p", type=int, dest="n_p", help="pilot symbols per frame")
    sub.add_argument("--rho-p", type=float, dest="rho_p", help="estimator threshold")
    sub.add_argument("--k-max", type=int, dest="k_max", help="estimator delay search span")
    sub.add_argument("--known-k", dest="known_k", action="store_const", const=True,
                     help="estimator keeps the strongest K-1 echo bins")
    sub.add_argument("--csir", choices=("perfect", "estimated", "forced"),
                     help="channel knowledge mode")
    sub.add_argument("--forced-khat", dest="forced_khat", metavar="LIST",
                     help="comma list of forced delays (csir=forced)")


def _build_config(args: argparse.Namespace) -> SimConfig:
    values: dict = {}
    if getattr(args, "config", None):
        values.update(_load_config_file(args.config))
    for f in fields(SimConfig):
        raw = getattr(args, f.name, None)
        if raw is not None:
            values[f.name] = _LIST_FLAGS[f.name](raw) if f.name in _LIST_FLAGS else raw
    return SimConfig.from_dict(values)


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        if math.isfinite(value) and value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return repr(value)
    return str(value)


def _write_csv(out_path: str, header: list[str], rows: list) -> None:
    def emit(fh):
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])

    if out_path == "-":
        emit(sys.stdout)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            emit(fh)


def _channel_text(ch) -> str:
    ch = parse_channel(ch)
    return ",".join(f"{d}:{complex(g)}" for d, g in zip(ch.delays, ch.gains))


def _config_hash(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _summary(cmd: str, seed, payload: dict, rows: int, t0: float) -> None:
    print(
        f"# {cmd}: seed={seed} config={_config_hash(payload)} "
        f"rows={rows} elapsed={time.perf_counter() - t0:.2f}s",
        file=sys.stderr,
    )


def _config_payload(cfg: SimConfig, **extra) -> dict:
    payload = asdict(cfg)
    payload["channel"] = _channel_text(cfg.channel)
    return {**payload, **extra}


# ---------------------------------------------------------------------------
# subcommand bodies: each returns (CSV header, rows, seed, config-hash payload)
# for main to write, or None once it has printed its own output
# ---------------------------------------------------------------------------

SER_HEADER = [f.name for f in fields(SerPoint)]


def _cmd_ser(args):
    cfg = _build_config(args)
    rows = [astuple(p) for p in run_ser_sweep(cfg)]
    return SER_HEADER, rows, cfg.master_seed, _config_payload(cfg)


def _cmd_delta(args):
    rows, ratio = run_delta_report(args.channel, args.sf)
    table = [[r.a, r.coh, r.noncoh, r.ideal_mf, r.mf] for r in rows]
    table.append(["max_coh_over_ideal_mf", ratio, "", "", ""])
    header = ["a", "delta_coh", "delta_noncoh", "delta_ideal_mf", "delta_mf"]
    return header, table, "-", {"cmd": "delta", "sf": args.sf,
                                "channel": _channel_text(args.channel)}


COMPLEXITY_HEADER = [
    "sf", "k", "n_c",
    "mf_cmult", "mf_cadd", "rake_cmult", "rake_cadd",
    "cand_mf_cmult", "cand_mf_cadd", "cand_rake_cmult", "cand_rake_cadd",
    "ratio_full", "ratio_cand",
]


def _cmd_complexity(args):
    rows = run_complexity_report(args.sf_list, args.k, args.nc_list)
    table = [[r.sf, r.k, r.n_c,
              r.mf.cmult, r.mf.cadd, r.rake.cmult, r.rake.cadd,
              r.cand_mf.cmult, r.cand_mf.cadd, r.cand_rake.cmult, r.cand_rake.cadd,
              r.ratio_full, r.ratio_cand]
             for r in rows]
    return COMPLEXITY_HEADER, table, "-", {"cmd": "complexity", "sf_list": list(args.sf_list),
                                           "k": args.k, "nc_list": list(args.nc_list)}


def _cmd_estimate_study(args):
    cfg = _build_config(args)
    table = [[r.study, r.param, *astuple(r.point)] for r in run_estimation_study(cfg)]
    return ["study", "param"] + SER_HEADER, table, cfg.master_seed, _config_payload(cfg)


def _cmd_cand_sweep(args):
    cfg = _build_config(args)
    rows = [astuple(r) for r in run_candidate_sweep(cfg, args.nc_grid)]
    # the sweep scores cand-rake alone, at every fraction of the grid
    payload = _config_payload(replace(cfg, detectors=("cand-rake",)), nc_grid=args.nc_grid)
    return [f.name for f in fields(CandSweepRow)], rows, cfg.master_seed, payload


def _cmd_demo(args) -> None:
    t0 = time.perf_counter()
    rows, ratio = run_delta_report("c1", 7)
    worst = max(rows, key=lambda r: r.noncoh)
    print("three-path benchmark channel, sf=7")
    print(f"  worst-case envelope indicator : {worst.noncoh:.4f} (symbol {worst.a})")
    print(f"  coh / ideal-mf indicator ratio: {ratio:.4f}")
    cfg = SimConfig(sf=7, channel="c1", detectors=("noncoh", "coh", "rake"),
                    ebn0_db=(-2.0, 0.0, 2.0), n_trials=2, n_d=500,
                    master_seed=args.seed if args.seed is not None else 0)
    points = run_ser_sweep(cfg)
    print("quick sweep (2 frames x 500 symbols per point, perfect gains):")
    print("  detector   ebn0_db      ser")
    for p in points:
        print(f"  {p.detector:<9} {p.ebn0_db:>7.1f} {p.ser:>9.4f}")
    print(f"done in {time.perf_counter() - t0:.2f}s")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lorarake",
        description="Chirp-modulation multipath detector simulations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ser = sub.add_parser("ser", help="Monte Carlo symbol error rate sweep")
    _add_sweep_flags(p_ser)
    p_ser.add_argument("--detectors", help="comma list of detector ids")
    p_ser.add_argument("--rho-c", type=float, dest="rho_c", help="candidate threshold")
    p_ser.add_argument("--n-c", type=int, dest="n_c", help="fixed candidate count")
    p_ser.add_argument("--rho-tdel", type=float, dest="rho_tdel",
                       help="pilot-correlation detector threshold")
    p_ser.add_argument("--out", default="-", help="output CSV path (default stdout)")
    p_ser.set_defaults(func=_cmd_ser)

    p_delta = sub.add_parser("delta", help="per-symbol interference indicators")
    p_delta.add_argument("--sf", type=int, default=7)
    p_delta.add_argument("--channel", default="c1")
    p_delta.add_argument("--out", default="-")
    p_delta.set_defaults(func=_cmd_delta)

    p_cx = sub.add_parser("complexity", help="per-symbol operation cost table")
    p_cx.add_argument("--sf-list", dest="sf_list", type=_parse_list(int),
                      default=(7, 8, 9, 10, 11, 12))
    p_cx.add_argument("--k", type=int, default=3, help="channel tap count")
    p_cx.add_argument("--nc-list", dest="nc_list", type=_parse_list(int),
                      default=(1, 2, 4, 8, 16, 32))
    p_cx.add_argument("--out", default="-")
    p_cx.set_defaults(func=_cmd_complexity)

    p_study = sub.add_parser("estimate-study",
                             help="pilot-count, threshold, and forced-delay studies")
    _add_sweep_flags(p_study, full=False)
    p_study.add_argument("--out", default="-")
    p_study.set_defaults(func=_cmd_estimate_study)

    p_cand = sub.add_parser("cand-sweep", help="candidate-set size sweep")
    _add_sweep_flags(p_cand)
    p_cand.add_argument("--nc-grid", dest="nc_grid", type=_parse_list(float),
                        default=DEFAULT_NC_GRID,
                        help="comma list of candidate fractions of M")
    p_cand.add_argument("--out", default="-")
    p_cand.set_defaults(func=_cmd_cand_sweep)

    p_demo = sub.add_parser("demo", help="small smoke run with readable output")
    p_demo.add_argument("--seed", type=int, default=0)
    p_demo.set_defaults(func=_cmd_demo)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        result = args.func(args)
        if result is not None:
            header, rows, seed, payload = result
            _write_csv(args.out, header, rows)
            _summary(args.command, seed, payload, len(rows), t0)
    except (ValueError, OSError) as exc:  # ConfigError and json's errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
