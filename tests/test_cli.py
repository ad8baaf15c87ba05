"""Command line interface: parsing, CSV output, exit codes."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import lorarake
from lorarake import cli
from lorarake.cli import main, parse_ebn0_axis
from lorarake.simulate import SimConfig


def _run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_parse_ebn0_axis_forms():
    assert parse_ebn0_axis("-4:2:4") == (-4.0, -2.0, 0.0, 2.0, 4.0)
    assert parse_ebn0_axis("0:0.5:1") == (0.0, 0.5, 1.0)
    assert parse_ebn0_axis("-2,0,2") == (-2.0, 0.0, 2.0)
    assert parse_ebn0_axis("3") == (3.0,)
    with pytest.raises(ValueError):
        parse_ebn0_axis("0:-1:4")
    with pytest.raises(ValueError):
        parse_ebn0_axis("0:1")
    with pytest.raises(ValueError):
        parse_ebn0_axis("4:1:0")


def test_ser_csv_shape(capsys):
    rc, out, err = _run(capsys, [
        "ser", "--sf", "7", "--channel", "c2", "--detectors", "noncoh,rake",
        "--ebn0=-2:2:2", "--n-trials", "2", "--n-d", "100", "--seed", "3",
    ])
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "detector,ebn0_db,errors,symbols,ser,ci95,nc_avg,cmult,cadd"
    assert len(lines) == 1 + 2 * 3
    first = lines[1].split(",")
    assert first[0] == "noncoh" and first[3] == "200"
    assert err.startswith("# ser:")


@pytest.mark.parametrize("axis", ["0.0001,0.0002", "1e308"])
def test_ser_runs_close_and_noise_free_points(capsys, axis):
    # each trial has one stream whatever the Eb/N0, so close points are
    # distinct points; at 1e308 dB the noise variance underflows to 0
    rc, out, _ = _run(capsys, ["ser", "--detectors", "rake", f"--ebn0={axis}",
                               "--n-trials", "1", "--n-d", "50"])
    assert rc == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert [float(r[1]) for r in rows] == [float(e) for e in axis.split(",")]
    if axis == "1e308":
        assert rows[0][2] == "0"


def test_ser_reruns_are_byte_identical(tmp_path, capsys):
    argv = ["ser", "--sf", "7", "--channel", "c1", "--detectors", "rake",
            "--ebn0", "0", "--n-trials", "2", "--n-d", "100", "--seed", "5"]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


_DATA = Path(__file__).parent / "data"
_ALL_DETECTORS = "noncoh,coh,coh-awgn,ideal-mf,mf,cand-mf,rake,cand-rake,tdel"
_CSIR_FLAGS = {
    "perfect": [],
    "estimated": ["--csir", "estimated", "--n-c", "6"],
    "forced": ["--csir", "forced", "--forced-khat", "0,2,3", "--rho-c", "0.4"],
}
_AXIS = ["--ebn0=-2,0", "--n-trials", "2", "--n-d", "100", "--seed", "11"]

# Every file in tests/data with the command whose output it pins byte for
# byte. A change that alters output bytes says so and regenerates the files
# from this table.
GOLDEN = {
    **{f"ser_{csir}_sf{sf}.csv": ["ser", "--sf", str(sf), "--channel", "c1", *_AXIS,
                                  "--detectors", _ALL_DETECTORS, *flags]
       for csir, flags in _CSIR_FLAGS.items() for sf in (7, 8)},
    "cand_sweep_sf8.csv": ["cand-sweep", "--sf", "8", "--channel", "c1", *_AXIS],
    "estimate_study_sf6.csv": ["estimate-study", "--sf", "6", *_AXIS],
    "delta_sf7_c1.csv": ["delta", "--sf", "7", "--channel", "c1"],
    "complexity_default.csv": ["complexity"],
}


def _assert_matches_committed_output(tmp_path, capsys, name, *flags):
    out = tmp_path / name
    assert main([*GOLDEN[name], *flags, "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (_DATA / name).read_bytes(), name


def test_every_committed_output_has_one_command():
    assert sorted(p.name for p in _DATA.iterdir()) == sorted(GOLDEN)


@pytest.mark.parametrize("sf", [7, 8])
@pytest.mark.parametrize("csir", sorted(_CSIR_FLAGS))
def test_ser_matches_committed_output(tmp_path, capsys, csir, sf):
    _assert_matches_committed_output(tmp_path, capsys, f"ser_{csir}_sf{sf}.csv")


def test_cand_sweep_matches_committed_output(tmp_path, capsys):
    _assert_matches_committed_output(tmp_path, capsys, "cand_sweep_sf8.csv")


def test_estimate_study_matches_committed_output(tmp_path, capsys):
    # also pins the study's row labels and order
    _assert_matches_committed_output(tmp_path, capsys, "estimate_study_sf6.csv")


def test_delta_matches_committed_output(tmp_path, capsys):
    _assert_matches_committed_output(tmp_path, capsys, "delta_sf7_c1.csv")


def test_complexity_matches_committed_output(tmp_path, capsys):
    _assert_matches_committed_output(tmp_path, capsys, "complexity_default.csv")


def test_committed_output_holds_under_small_blocks(tmp_path, capsys, monkeypatch):
    # 11 rows per block at sf 7 (6 pilots and 5 data symbols first), 5 at
    # sf 8 (the first block holds all 6 pilots and one data symbol) and 22
    # at sf 6: every committed sweep must come out byte for byte as from
    # whole-burst blocks
    monkeypatch.setattr(lorarake.channel, "BLOCK_BINS", 11 * 128 + 37)
    for name, argv in GOLDEN.items():
        if argv[0] in ("ser", "cand-sweep", "estimate-study"):
            _assert_matches_committed_output(tmp_path, capsys, name)


def test_committed_output_holds_across_worker_processes(tmp_path, capsys):
    # each of two processes runs one trial over every point; the sweep puts
    # the trials' rows back per point
    _assert_matches_committed_output(tmp_path, capsys, "ser_estimated_sf8.csv", "--workers", "2")
    # the study's 20 sweeps share one pool of two processes
    _assert_matches_committed_output(tmp_path, capsys, "estimate_study_sf6.csv", "--workers", "2")


def test_an_axis_of_too_many_points_fails_before_it_is_built(capsys):
    # 0:1e-20:1 is 1e20 points: the count is checked from start, step and
    # stop, so the command fails at once instead of building the tuple
    t0 = time.perf_counter()
    for axis in ("0:1e-20:1", "0:1e-320:1", "0:0.001:1", "0:1:inf", "nan:1:2"):
        rc, out, err = _run(capsys, ["ser", "--sf", "7", f"--ebn0={axis}"])
        assert rc == 2 and out == "", axis
        assert err.startswith("error: ebn0_db: "), axis
    assert time.perf_counter() - t0 < 10
    assert len(parse_ebn0_axis("0:0.001:0.999")) == 1000


def test_python_dash_m_runs_the_cli():
    src = str(Path(lorarake.__file__).resolve().parents[1])
    path = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    argv = ["ser", "--detectors", "rake", "--ebn0", "0", "--n-trials", "1", "--n-d", "20"]
    proc = subprocess.run([sys.executable, "-m", "lorarake", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("detector,ebn0_db,errors,symbols,")
    assert proc.stderr.startswith("# ser:")


def test_ser_inline_channel_and_file_channel(tmp_path, capsys):
    path = tmp_path / "taps.csv"
    path.write_text("delay,gain_re,gain_im\n0,1,0\n5,0.8,0\n", encoding="utf-8")
    argv_tail = ["--detectors", "rake", "--ebn0", "0", "--n-trials", "1",
                 "--n-d", "100", "--seed", "2"]
    rc1, out1, _ = _run(capsys, ["ser", "--channel", "0:1,5:0.8"] + argv_tail)
    rc2, out2, _ = _run(capsys, ["ser", "--channel", str(path)] + argv_tail)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "sf": 7, "channel": "c1", "detectors": ["noncoh"], "ebn0_db": [0.0],
        "n_trials": 1, "n_d": 50, "master_seed": 2,
    }), encoding="utf-8")
    rc, out, _ = _run(capsys, ["ser", "--config", str(cfg), "--n-d", "80"])
    assert rc == 0
    assert out.strip().split("\n")[1].split(",")[3] == "80"


def test_bad_config_exits_two(tmp_path, capsys):
    rc, _, err = _run(capsys, ["ser", "--sf", "99"])
    assert rc == 2
    assert "sf" in err
    rc2, _, err2 = _run(capsys, ["ser", "--channel", "no-such-channel"])
    assert rc2 == 2
    assert "channel" in err2
    rc3, _, err3 = _run(capsys, [
        "ser", "--detectors", "cand-rake", "--rho-c", "0.3", "--n-c", "4",
    ])
    assert rc3 == 2
    assert "rho_c" in err3
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_trials": 1.5}), encoding="utf-8")
    rc4, _, err4 = _run(capsys, ["ser", "--config", str(cfg)])
    assert rc4 == 2
    assert "n_trials" in err4
    # a repeated point, and points whose noise variance overflows a float
    for axis in ("1,1", "-3100", "-3060"):
        rc5, out5, err5 = _run(capsys, ["ser", "--sf", "7", f"--ebn0={axis}"])
        assert rc5 == 2 and out5 == "", axis
        assert err5.startswith("error: ebn0_db:"), axis
    rc6, out6, err6 = _run(capsys, ["delta", "--sf", "7", "--channel", "0:1,200:0.5"])
    assert rc6 == 2 and out6 == ""
    assert err6.startswith("error: channel:")
    rc7, out7, err7 = _run(capsys, ["complexity", "--sf-list", "7", "--k", "200"])
    assert rc7 == 2 and out7 == ""
    assert err7.startswith("error: k:")
    # a non-finite tap gain, inline or from a channel file
    taps = tmp_path / "taps.csv"
    taps.write_text("delay,gain_re,gain_im\n0,1,0\n2,nan,0\n", encoding="utf-8")
    ser = ["ser", "--sf", "7", "--detectors", "rake,noncoh", "--n-trials", "1", "--n-d", "10"]
    for argv in (ser + ["--channel", "0:1,2:nan"], ser + ["--channel", "0:inf"],
                 ser + ["--channel", str(taps)], ["delta", "--channel", "0:1,2:nan"]):
        rc8, out8, err8 = _run(capsys, argv)
        assert rc8 == 2 and out8 == "", argv
        assert err8.startswith("error: channel:"), argv
    # a config field the command overrides or never reads
    sweep = ["--sf", "7", "--ebn0", "0", "--n-trials", "1", "--n-d", "10"]
    for cmd, values, field in (
            ("cand-sweep", {"n_c": 5}, "n_c"),
            ("cand-sweep", {"n_c": 5, "rho_c": 0.3}, "n_c"),
            ("cand-sweep", {"detectors": ["cand-rake"]}, "detectors"),
            ("estimate-study", {"channel": "c1", "csir": "estimated", "detectors": ["rake"]},
             "channel"),
            ("estimate-study", {"rho_tdel": 0.5}, "rho_tdel")):
        cfg.write_text(json.dumps(values), encoding="utf-8")
        rc10, out10, err10 = _run(capsys, [cmd, "--config", str(cfg), *sweep])
        assert rc10 == 2 and out10 == "", values
        assert err10.startswith(f"error: {field}: "), values
    # an empty list flag
    for argv, field in (
            (["cand-sweep", "--n-trials", "1", "--n-d", "10", "--nc-grid", ","], "nc_grid"),
            (["complexity", "--sf-list", ","], "sf"),
            (["complexity", "--nc-list", ""], "nc")):
        rc9, out9, err9 = _run(capsys, argv)
        assert rc9 == 2 and out9 == "", argv
        assert err9.startswith(f"error: {field}:"), argv


def test_unknown_flag_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["ser", "--warp-speed", "9"])
    assert exc.value.code == 2


def test_cand_sweep_takes_no_detectors_flag():
    # it scores the fixed-size rake candidates only, so it takes no flag
    # that picks or tunes the detectors
    for flag in (["--detectors", "mf"], ["--n-c", "5"], ["--rho-c", "0.9"],
                 ["--rho-tdel", "0.9"]):
        with pytest.raises(SystemExit) as exc:
            main(["cand-sweep", *flag])
        assert exc.value.code == 2, flag


def test_delta_csv(capsys):
    rc, out, _ = _run(capsys, ["delta", "--sf", "7", "--channel", "c1"])
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "a,delta_coh,delta_noncoh,delta_ideal_mf,delta_mf"
    assert len(lines) == 1 + 128 + 1
    assert lines[-1].startswith("max_coh_over_ideal_mf,1.89")
    assert lines[1].split(",")[2] == "0.8"


def test_complexity_csv(capsys):
    rc, out, _ = _run(capsys, ["complexity", "--sf-list", "7,10", "--nc-list", "8,16"])
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == ("sf,k,n_c,mf_cmult,mf_cadd,rake_cmult,rake_cadd,cand_mf_cmult,"
                        "cand_mf_cadd,cand_rake_cmult,cand_rake_cadd,ratio_full,ratio_cand")
    assert len(lines) == 1 + 4
    row = lines[1].split(",")
    assert row[:3] == ["7", "3", "8"]
    assert row[3] == "82304"


def test_complexity_matches_committed_output(tmp_path, capsys):
    # tests/data/complexity_default.csv pins the default cost table byte for byte
    out = tmp_path / "complexity.csv"
    assert main(["complexity", "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (_DATA / "complexity_default.csv").read_bytes()


def test_estimate_study_csv(capsys):
    rc, out, _ = _run(capsys, [
        "estimate-study", "--sf", "7", "--ebn0", "2", "--n-trials", "1",
        "--n-d", "60", "--seed", "4",
    ])
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == ("study,param,detector,ebn0_db,errors,symbols,ser,ci95,"
                        "nc_avg,cmult,cadd")
    assert any(line.startswith("pilots,perfect,") for line in lines)
    assert any(line.startswith("khat,0-2-3,") for line in lines)


def test_cand_sweep_csv(capsys):
    rc, out, _ = _run(capsys, [
        "cand-sweep", "--sf", "7", "--channel", "c2", "--ebn0", "0",
        "--n-trials", "1", "--n-d", "100", "--nc-grid", "0.05,1.0",
    ])
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "sf,ebn0_db,n_c,nc_norm,errors,symbols,ser,ci95"
    assert len(lines) == 3
    assert lines[1].split(",")[2] == "6"
    assert lines[2].split(",")[2] == "128"


def test_cand_sweep_hash_covers_the_grid_and_the_one_detector(capsys):
    # two grids print two CSVs, so they hash to two configs; a detectors field
    # the sweep does not score is not in the hash
    argv = ["cand-sweep", "--sf", "7", "--ebn0", "0", "--n-trials", "1", "--n-d", "10"]
    hashes = []
    for grid in ("0.5", "0.25,1.0"):
        rc, _, err = _run(capsys, [*argv, "--nc-grid", grid])
        assert rc == 0
        hashes.append(err.split("config=")[1].split()[0])
    assert hashes[0] != hashes[1]
    cfg = SimConfig(sf=7, ebn0_db=(0.0,), n_trials=1, n_d=10, detectors=("cand-rake",))
    payload = cli._config_payload(cfg, nc_grid=(0.5,))
    assert hashes[0] == cli._config_hash(payload)


def test_demo_runs_clean(capsys):
    rc, out, _ = _run(capsys, ["demo"])
    assert rc == 0
    assert "quick sweep" in out
    assert "1.89" in out


def test_out_file_writes_csv(tmp_path, capsys):
    out_path = tmp_path / "table.csv"
    rc, out, _ = _run(capsys, ["delta", "--sf", "7", "--channel", "c2",
                               "--out", str(out_path)])
    assert rc == 0
    assert out == ""
    text = out_path.read_text(encoding="utf-8")
    assert text.startswith("a,delta_coh")
    assert len(text.strip().split("\n")) == 130
