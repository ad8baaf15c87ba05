"""Command line interface: parsing, CSV output, exit codes."""

from __future__ import annotations

import json

import pytest

from lorarake.cli import main, parse_ebn0_axis


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


def test_ser_reruns_are_byte_identical(tmp_path, capsys):
    argv = ["ser", "--sf", "7", "--channel", "c1", "--detectors", "rake",
            "--ebn0", "0", "--n-trials", "2", "--n-d", "100", "--seed", "5"]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


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


def test_unknown_flag_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["ser", "--warp-speed", "9"])
    assert exc.value.code == 2


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
    assert lines[0].startswith("sf,k,n_c,mf_cmult,mf_cadd,rake_cmult")
    assert len(lines) == 1 + 4
    row = lines[1].split(",")
    assert row[:3] == ["7", "3", "8"]
    assert row[3] == "82304"
    # wall-clock columns stay empty without --bench
    assert row[-4:] == ["", "", "", ""]


def test_complexity_bench_fills_wall_columns(capsys):
    rc, out, _ = _run(capsys, ["complexity", "--sf-list", "7", "--nc-list", "8",
                               "--bench", "1"])
    assert rc == 0
    row = out.strip().split("\n")[1].split(",")
    assert all(field for field in row[-4:])
    assert float(row[-4]) > 0


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
