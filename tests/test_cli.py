import json
import warnings

import pytest

from fapolar import cli
from fapolar.cli import main


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_tree_command_paper_schedule(capsys):
    rc, out, _ = run_cli(capsys, "tree", "--n", "1024", "--k", "512", "--crc", "16")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0].split("\t") == ["i_v", "d", "kind", "N_v", "span_start"]
    assert len(lines) == 1 + 86
    assert lines[1].split("\t")[:3] == ["1", "3", "Rep"]
    assert lines[-1].split("\t")[:3] == ["86", "3", "SPC"]


def test_tree_command_nodes_filter(capsys):
    rc, out, _ = run_cli(capsys, "tree", "--n", "8", "--k", "3", "--crc", "1",
                         "--schedule", "sc")
    assert rc == 0
    assert len(out.strip().splitlines()) == 1 + 8


def test_bad_schedule_names_the_unknown_kind(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tree", "--n", "8", "--k", "3", "--schedule", "ssc"])
    assert exc.value.code == 2
    assert "unknown node kind 'ssc'" in capsys.readouterr().err


def test_design_and_tables_roundtrip(capsys, tmp_path):
    out_file = tmp_path / "lut.json"
    rc, _, _ = run_cli(capsys, "design", "--n", "8", "--k", "3", "--crc", "1",
                       "--variant", "ib", "--schedule", "fast",
                       "--ebn0", "0.5", "--w", "4", "--out", str(out_file))
    assert rc == 0
    rc, out, _ = run_cli(capsys, "tables", "--lut", str(out_file))
    assert rc == 0
    assert "decoding 2, translation 2" in out


def test_simulate_with_flags_and_csv(capsys, tmp_path):
    csv_file = tmp_path / "result.csv"
    rc, out, _ = run_cli(capsys, "simulate", "--n", "32", "--k", "12", "--crc", "4",
                         "--decoder", "llr", "--schedule", "fast", "--list", "2",
                         "--ebn0-list", "2.0,4.0", "--max-frames", "256",
                         "--min-errors", "10", "--seed", "1", "--out", str(csv_file))
    assert rc == 0
    lines = csv_file.read_text().strip().splitlines()
    assert lines[0].startswith("ebn0_db,frames,errors,bler")
    assert len(lines) == 3


def test_simulate_empty_point_list_succeeds(capsys):
    rc, out, _ = run_cli(capsys, "simulate", "--n", "32", "--k", "12",
                         "--ebn0-list", "")
    assert rc == 0
    assert out.strip() == ""


def test_simulate_config_file(capsys, tmp_path):
    cfg = {"n": 32, "k": 12, "crc": 4, "list": 2, "ebn0-list": "3.0",
           "max-frames": 128, "min-errors": 5}
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(cfg))
    rc, out, _ = run_cli(capsys, "simulate", "--config", str(cfg_file))
    assert rc == 0
    assert "dB" in out


def test_simulate_lut_decoder_infers_code(capsys, tmp_path):
    lut_file = tmp_path / "lut.json"
    rc, _, _ = run_cli(capsys, "design", "--n", "32", "--k", "12", "--crc", "4",
                       "--variant", "msib", "--ebn0", "1.0", "--w", "3",
                       "--out", str(lut_file))
    assert rc == 0
    rc, out, _ = run_cli(capsys, "simulate", "--decoder", "msib", "--lut",
                         str(lut_file), "--list", "2", "--ebn0-list", "8.0",
                         "--max-frames", "64", "--min-errors", "0")
    assert rc == 0
    assert "8 dB" in out


def test_simulate_reads_lut_file_once(capsys, tmp_path, monkeypatch):
    lut_file = tmp_path / "lut.json"
    run_cli(capsys, "design", "--n", "32", "--k", "12", "--crc", "4",
            "--variant", "msib", "--ebn0", "1.0", "--w", "3", "--out", str(lut_file))
    loads, real_load = [], cli.load_lutset

    def counting_load(path):
        loads.append(path)
        return real_load(path)

    monkeypatch.setattr(cli, "load_lutset", counting_load)
    for code_options in ((), ("--n", "32", "--k", "12", "--crc", "4")):
        loads.clear()
        rc, out, _ = run_cli(capsys, "simulate", *code_options, "--decoder", "msib",
                             "--lut", str(lut_file), "--list", "2", "--ebn0-list", "8.0",
                             "--max-frames", "16", "--min-errors", "0")
        assert rc == 0 and "8 dB" in out
        assert loads == [str(lut_file)], code_options


def test_config_errors_exit_2(capsys, tmp_path):
    rc, _, err = run_cli(capsys, "tree", "--n", "12", "--k", "4")
    assert rc == 2 and "error" in err
    rc, _, err = run_cli(capsys, "simulate", "--ebn0-list", "1.0")
    assert rc == 2
    rc, _, err = run_cli(capsys, "simulate", "--n", "32", "--k", "12", "--ebn0-list", "2.0",
                         "--workers", "0")
    assert rc == 2 and "worker count" in err
    # --config values are converted like their command-line text
    cfg_file = tmp_path / "cfg.json"
    for cfg, want_rc in (({"list": "8"}, 0), ({"list": "eight"}, 2), ({"list": 8.5}, 2),
                         ({"list": None}, 2), ({"schedule": "ssc"}, 2), ({"func": 1}, 2),
                         ({"nodes": "r0"}, 2)):
        key = next(iter(cfg))
        cfg_file.write_text(json.dumps({"n": 32, "k": 12, **cfg}))
        rc, _, err = run_cli(capsys, "simulate", "--config", str(cfg_file))
        assert rc == want_rc, cfg
        assert want_rc == 0 or repr(key) in err


@pytest.mark.parametrize("doc,name", [([1, 2], "list"), (None, "NoneType"), ("x", "str")])
def test_config_that_holds_no_object_exits_2(capsys, tmp_path, doc, name):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(doc))
    rc, _, err = run_cli(capsys, "simulate", "--config", str(cfg_file))
    assert rc == 2
    assert f"--config must hold a JSON object, got {name}" in err


def test_negative_crc_width_exits_2(capsys):
    rc, _, err = run_cli(capsys, "tree", "--n", "8", "--k", "3", "--crc", "-2")
    assert rc == 2 and "CRC width must be >= 0, got -2" in err


def test_simulate_lut_sets_the_decoder_family(capsys, tmp_path):
    lut_file, json_file = tmp_path / "lut.json", tmp_path / "out.json"
    run_cli(capsys, "design", "--n", "32", "--k", "12", "--crc", "4",
            "--variant", "ib", "--ebn0", "1.0", "--w", "3", "--out", str(lut_file))
    rc, out, _ = run_cli(capsys, "simulate", "--lut", str(lut_file), "--ebn0-list", "",
                         "--json-out", str(json_file))
    assert rc == 0 and out.strip() == ""
    doc = json.loads(json_file.read_text())
    assert doc["decoder"]["family"] == "ib" and doc["lut"]["w"] == 3
    rc, _, err = run_cli(capsys, "simulate", "--lut", str(lut_file), "--decoder", "msib",
                         "--ebn0-list", "")
    assert rc == 2 and "msib decoder given a LUT set of variant ib" in err


@pytest.mark.parametrize("ebn0", ["inf", "-inf", "nan", "2.0,inf"])
def test_simulate_refuses_non_finite_ebn0_before_any_frame(capsys, tmp_path, monkeypatch, ebn0):
    import fapolar.sim as sim

    lut_file = tmp_path / "lut.json"
    run_cli(capsys, "design", "--n", "32", "--k", "12", "--crc", "4",
            "--variant", "msib", "--ebn0", "1.0", "--w", "3", "--out", str(lut_file))
    frames = []
    monkeypatch.setattr(sim, "run_frames", lambda *args: frames.append(args) or 0)
    for family in (("--n", "32", "--k", "12", "--crc", "4"), ("--lut", str(lut_file))):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out, err = run_cli(capsys, "simulate", *family, f"--ebn0-list={ebn0}",
                                   "--max-frames", "16", "--min-errors", "0")
        assert rc == 2 and "Eb/N0 must be finite" in err and out == "", family
    assert frames == []


NO_VARIANCE = "gives no finite positive noise variance"


@pytest.mark.parametrize("ebn0,reason", [
    ("4000", f"Eb/N0 4000.0 dB {NO_VARIANCE}"),    # 10^400 overflows a float
    ("-3300", f"Eb/N0 -3300.0 dB {NO_VARIANCE}"),  # 10^-330 is 0
    ("-3100", f"Eb/N0 -3100.0 dB {NO_VARIANCE}"),  # the variance is inf
    ("inf", "Eb/N0 must be finite, got inf dB"),
    ("nan", "Eb/N0 must be finite, got nan dB"),
])
def test_ebn0_without_noise_variance_exits_2(capsys, tmp_path, monkeypatch, ebn0, reason):
    # with the reason, not a traceback, a numpy warning or an unrelated design
    # error; simulate at inf and nan is covered by the test above
    import fapolar.sim as sim

    lut_file = tmp_path / "lut.json"
    run_cli(capsys, "design", "--n", "32", "--k", "12", "--crc", "4",
            "--variant", "msib", "--ebn0", "1.0", "--w", "3", "--out", str(lut_file))
    frames = []
    monkeypatch.setattr(sim, "run_frames", lambda *args: frames.append(args) or 0)
    runs = [("design", "--n", "32", "--k", "12", "--crc", "4", "--variant", "ib",
             f"--ebn0={ebn0}", "--out", str(tmp_path / "never.json"))]
    if NO_VARIANCE in reason:
        runs += [("simulate", *family, f"--ebn0-list={ebn0}", "--max-frames", "16")
                 for family in (("--n", "32", "--k", "12", "--crc", "4"), ("--lut", str(lut_file)))]
    for argv in runs:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out, err = run_cli(capsys, *argv)
        assert rc == 2 and reason in err and out == "", argv
    assert frames == [] and not (tmp_path / "never.json").exists()


def test_simulate_refuses_bad_run_options_without_points(capsys):
    # checked even when no point runs, so none of them reaches the record
    for extra, message in ((("--seed", "-1"), "seed must be a non-negative integer, got -1"),
                           (("--max-frames", "0"), "invalid stop criteria"),
                           (("--crc-poly", "0x1021"), "0x1021 wider than its 0-bit register")):
        rc, _, err = run_cli(capsys, "simulate", "--n", "32", "--k", "12", *extra,
                             "--ebn0-list", "")
        assert rc == 2 and message in err, extra


def test_malformed_lut_file_exits_2(capsys, tmp_path):
    lut_file = tmp_path / "lut.json"
    run_cli(capsys, "design", "--n", "8", "--k", "3", "--crc", "1", "--variant", "ib",
            "--ebn0", "0.5", "--w", "4", "--out", str(lut_file))
    doc = json.loads(lut_file.read_text())
    del doc["schedule_hash"]
    lut_file.write_text(json.dumps(doc))
    rc, _, err = run_cli(capsys, "tables", "--lut", str(lut_file))
    assert rc == 2 and "'schedule_hash'" in err


def test_io_errors_exit_3(capsys):
    rc, _, err = run_cli(capsys, "tables", "--lut", "/nonexistent/file.json")
    assert rc == 3


def test_schedule_mismatch_is_config_error(capsys, tmp_path):
    lut_file = tmp_path / "lut.json"
    run_cli(capsys, "design", "--n", "32", "--k", "12", "--crc", "4",
            "--variant", "msib", "--ebn0", "1.0", "--w", "3",
            "--out", str(lut_file))
    rc, _, err = run_cli(capsys, "simulate", "--decoder", "msib", "--lut",
                         str(lut_file), "--schedule", "sc",
                         "--ebn0-list", "8.0", "--max-frames", "64",
                         "--min-errors", "0")
    assert rc == 2


def test_simulate_empty_point_list_builds_the_decoder(capsys, tmp_path):
    # no points still builds the decoder: its set is checked, and the JSON
    # carries the real config hash and width
    lut_file, json_file = tmp_path / "lut.json", tmp_path / "out.json"
    run_cli(capsys, "design", "--n", "32", "--k", "12", "--crc", "4",
            "--variant", "msib", "--ebn0", "1.0", "--w", "3", "--out", str(lut_file))
    for extra, message in ((("--decoder", "msib", "--schedule", "sc"), "different schedule"),
                           (("--decoder", "llr"), "llr decoder given a LUT set")):
        rc, _, err = run_cli(capsys, "simulate", "--lut", str(lut_file), *extra,
                             "--ebn0-list", "")
        assert rc == 2 and message in err, extra
    rc, out, _ = run_cli(capsys, "simulate", "--lut", str(lut_file), "--decoder", "msib",
                         "--ebn0-list", "", "--json-out", str(json_file))
    assert rc == 0 and out.strip() == ""
    doc = json.loads(json_file.read_text())
    assert doc["lut"]["w"] == 3 and doc["points"] == []
    assert len(doc["config_hash"]) == 16 and doc["config_hash"] != "empty"
    assert doc["decoder"]["schedule"] == "fast" and "node_kinds" not in doc["decoder"]
