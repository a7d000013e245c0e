"""CLI: exit codes, seed echo, JSON envelope, end-to-end subcommands."""
import json
import os

import numpy as np
import pytest

from magmetric.cli import main
from magmetric.core import PointSet, RngState, read_point_csv, sample_gaussian, write_point_csv


@pytest.fixture()
def csvs(tmp_path):
    rng = RngState(31)
    x = os.path.join(tmp_path, "x.csv")
    y = os.path.join(tmp_path, "y.csv")
    write_point_csv(x, sample_gaussian(rng.derive(0), 20, 2))
    write_point_csv(y, sample_gaussian(rng.derive(1), 20, 2, mean=1.0))
    return x, y


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_magnitude_text_output(csvs, capsys):
    x, _ = csvs
    code, out, _ = run_cli(capsys, "magnitude", "--input", x, "--t", "1.0")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "seed=42"
    assert lines[1].startswith("t=1 magnitude=")


def test_magnitude_json_envelope(csvs, capsys):
    x, _ = csvs
    code, out, _ = run_cli(capsys, "magnitude", "--input", x,
                           "--t", "1.0", "--t", "2.0", "--neumann", "--json")
    assert code == 0
    blob = json.loads(out)
    assert set(blob) == {"command", "seed", "params", "results", "blas_threads"}
    assert blob["blas_threads"] == {"numpy": 1, "scipy": 1}
    assert blob["command"] == "magnitude"
    assert blob["seed"] == 42
    assert blob["params"]["t"] == [1.0, 2.0]
    assert len(blob["results"]) == 2
    assert "neumann_reliable" in blob["results"][0]


def test_distance_text_and_bound(csvs, capsys):
    x, y = csvs
    code, out, _ = run_cli(capsys, "distance", "--x", x, "--y", y,
                           "--t", "0.5", "--normalized", "--bound-check")
    assert code == 0
    line = out.splitlines()[1]
    for key in ("distance=", "mag_union=", "normalized=", "applicable=",
                "holds="):
        assert key in line


def test_distance_json_matches_library(csvs, capsys):
    x, y = csvs
    code, out, _ = run_cli(capsys, "distance", "--x", x, "--y", y,
                           "--t", "0.7", "--json")
    blob = json.loads(out)
    from magmetric.distance import mag_distance
    rep = mag_distance(read_point_csv(x), read_point_csv(y), 0.7)
    assert blob["results"][0]["distance"] == rep.distance


def test_counterexample_text(capsys):
    code, out, _ = run_cli(capsys, "counterexample", "--dim", "500")
    assert code == 0
    body = out.splitlines()[1]
    assert "triangle_violated=true" in body
    assert "gap=7.18" in body


def test_counterexample_full_verify_json(capsys):
    code, out, _ = run_cli(capsys, "counterexample", "--dim", "10",
                           "--full-verify", "--json")
    blob = json.loads(out)
    res = blob["results"]
    assert abs(res["dense_gap"] - res["gap"]) < 1e-9
    assert res["triangle_violated"] is False


def test_counterexample_verify_dim_cap(capsys):
    code, _, err = run_cli(capsys, "counterexample", "--dim", "2000",
                           "--full-verify")
    assert code == 2
    assert "dim" in err


def test_exit_code_missing_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "magnitude", "--input",
                           str(tmp_path / "ghost.csv"), "--t", "1.0")
    assert code == 2
    assert "error" in err


def test_exit_code_bad_csv(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,oops\n")
    code, _, err = run_cli(capsys, "magnitude", "--input", str(bad),
                           "--t", "1.0")
    assert code == 2
    assert "line 1" in err


def test_exit_code_dim_mismatch(csvs, capsys, tmp_path):
    x, _ = csvs
    other = tmp_path / "threed.csv"
    write_point_csv(str(other), sample_gaussian(RngState(1), 5, 3))
    code, _, err = run_cli(capsys, "distance", "--x", x, "--y", str(other),
                           "--t", "1.0")
    assert code == 4
    assert "mismatch" in err


def test_exit_code_empty_input():
    assert main(["magnitude", "--input", "/dev/null", "--t", "1.0"]) == 2


@pytest.mark.parametrize("command,t", [("magnitude", "nan"), ("magnitude", "inf"),
                                       ("distance", "nan")])
def test_non_finite_scale_exits_2(csvs, capsys, command, t):
    x, y = csvs
    inputs = ["--input", x] if command == "magnitude" else ["--x", x, "--y", y]
    code, out, err = run_cli(capsys, command, *inputs, "--t", t)
    assert code == 2
    assert "finite and positive" in err
    assert "nan" not in out


@pytest.mark.parametrize("argv,field", [
    (["experiment", "--study", "huber", "--radii", "10,nan"], "radii"),
    (["experiment", "--study", "huber", "--epsilons", "0.05,inf"], "epsilons"),
    (["experiment", "--study", "tsweep", "--shifts", "nan"], "shifts"),
    (["maggn", "train", "--schedule", "1.0@1", "--lr", "nan"], "learning_rate"),
])
def test_non_finite_config_exits_2(csvs, capsys, tmp_path, argv, field):
    # rejected when the config is built: no config echo, nothing written
    extra = ["--data", csvs[0]] if argv[0] == "maggn" else []
    code, out, err = run_cli(capsys, *argv, *extra, "--out", str(tmp_path / "o"))
    assert code == 2
    assert f"{field} must be finite" in err
    assert "config=" not in out
    assert not os.path.exists(tmp_path / "o")


def test_unknown_flag_exits_2(csvs):
    x, _ = csvs
    with pytest.raises(SystemExit) as err:
        main(["magnitude", "--input", x, "--badflag"])
    assert err.value.code == 2


def test_experiment_subcommand_deterministic(tmp_path, capsys):
    out1 = str(tmp_path / "a.csv")
    out2 = str(tmp_path / "b.csv")
    args = ["experiment", "--study", "tsweep", "--out", out1,
            "--dims", "4", "--trials", "2", "--n-per-set", "25",
            "--shifts", "0,1", "--scales", "0.3"]
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    assert out.splitlines()[0] == "seed=42"
    args[4] = out2
    code, _, _ = run_cli(capsys, *args)
    assert code == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()
    assert os.path.exists(out1 + ".summary.json")


def test_experiment_config_file_and_flag_precedence(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"trials": 1, "n_per_set": 30,
                                    "shifts": [1.0], "scales": [0.3],
                                    "dims": [4]}))
    out = str(tmp_path / "c.csv")
    code, text, _ = run_cli(capsys, "experiment", "--study", "tsweep",
                            "--out", out, "--config", str(cfg_path),
                            "--trials", "2", "--json")
    assert code == 0
    blob = json.loads(text)
    assert blob["results"]["config"]["trials"] == 2      # flag wins
    assert blob["results"]["config"]["n_per_set"] == 30  # file survives
    rows = open(out).read().splitlines()
    assert rows[0] == "study,method,dim,trial,param,value,error"


def test_experiment_rejects_unknown_config_key(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"mystery": 1}))
    code, _, err = run_cli(capsys, "experiment", "--study", "tsweep",
                           "--out", str(tmp_path / "o.csv"),
                           "--config", str(cfg_path))
    assert code == 2


def test_maggn_train_sample_round_trip(tmp_path, capsys):
    data_csv = str(tmp_path / "target.csv")
    write_point_csv(data_csv,
                    sample_gaussian(RngState(9), 64, 2, mean=2.0, std=0.3))
    outdir = str(tmp_path / "run")
    code, out, _ = run_cli(capsys, "maggn", "train", "--data", data_csv,
                           "--schedule", "0.5@1,1.5@4", "--epochs", "6",
                           "--out", outdir, "--lr", "0.01",
                           "--batch-real", "32", "--batch-gen", "32",
                           "--seed", "5")
    assert code == 0
    assert out.splitlines()[0] == "seed=5"
    ckpt = os.path.join(outdir, "checkpoint.json")
    log = os.path.join(outdir, "train_log.csv")
    assert os.path.exists(ckpt) and os.path.exists(log)
    assert open(log).read().splitlines()[0] == \
        "epoch,active_scales,loss,grad_norm,seconds"

    # identical rerun gives a byte-identical checkpoint
    outdir2 = str(tmp_path / "run2")
    run_cli(capsys, "maggn", "train", "--data", data_csv,
            "--schedule", "0.5@1,1.5@4", "--epochs", "6", "--out", outdir2,
            "--lr", "0.01", "--batch-real", "32", "--batch-gen", "32",
            "--seed", "5")
    assert open(ckpt, "rb").read() == \
        open(os.path.join(outdir2, "checkpoint.json"), "rb").read()

    code, out, _ = run_cli(capsys, "maggn", "sample", "--out", outdir,
                           "--n", "15", "--seed", "5")
    assert code == 0
    samples = read_point_csv(os.path.join(outdir, "samples.csv"))
    assert samples.coords.shape == (15, 2)


def test_maggn_train_bad_schedule(tmp_path, capsys):
    data_csv = str(tmp_path / "d.csv")
    write_point_csv(data_csv, sample_gaussian(RngState(2), 10, 2))
    code, _, err = run_cli(capsys, "maggn", "train", "--data", data_csv,
                           "--schedule", "0.5@3,1.5@2", "--out",
                           str(tmp_path / "r"))
    assert code == 2


def test_maggn_sample_without_checkpoint(tmp_path, capsys):
    code, _, err = run_cli(capsys, "maggn", "sample", "--out",
                           str(tmp_path / "empty"))
    assert code == 2


def _text_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _text_fields(out):
    """key=value tokens of each report line (echo lines dropped)."""
    return [dict(tok.split("=", 1) for tok in line.split())
            for line in out.splitlines()
            if not line.startswith(("seed=", "config="))]


def _report_cases(tmp_path, csvs):
    x, y = csvs
    target = str(tmp_path / "target.csv")
    write_point_csv(target, sample_gaussian(RngState(9), 32, 2, mean=2.0, std=0.3))
    run = str(tmp_path / "run")
    return [  # argv, text-only keys, JSON-only keys
        (["magnitude", "--input", x, "--t", "0.5", "--t", "2.0", "--neumann"],
         set(), set()),
        (["distance", "--x", x, "--y", y, "--t", "0.7", "--normalized",
          "--bound-check"], set(), set()),
        (["counterexample", "--dim", "10", "--full-verify"], set(), set()),
        (["experiment", "--study", "tsweep", "--out", str(tmp_path / "e.csv"),
          "--dims", "3", "--trials", "1", "--n-per-set", "20", "--shifts", "1",
          "--scales", "0.3"], {"study"}, {"config"}),
        (["maggn", "train", "--data", target, "--schedule", "0.5@1", "--epochs",
          "2", "--out", run, "--batch-real", "16", "--batch-gen", "16"],
         {"epochs"}, set()),
        (["maggn", "sample", "--out", run, "--n", "5"], {"n"}, {"checkpoint"}),
    ]


def test_text_and_json_reports_agree(csvs, capsys, tmp_path):
    for argv, text_only, json_only in _report_cases(tmp_path, csvs):
        code, text, _ = run_cli(capsys, *argv)
        assert code == 0
        code, out, _ = run_cli(capsys, *argv, "--json")
        assert code == 0
        results = json.loads(out)["results"]
        lines = _text_fields(text)
        if isinstance(results, dict):  # one result, possibly over several lines
            lines = [{k: v for line in lines for k, v in line.items()}]
            results = [results]
        assert len(lines) == len(results), argv
        for line, result in zip(lines, results):
            assert set(line) - set(result) == text_only, argv
            assert set(result) - set(line) == json_only, argv
            for key in set(line) & set(result):
                assert line[key] == _text_value(result[key]), (argv, key)


@pytest.mark.parametrize("payload", [
    [1, 2],
    {"format_version": 1, "layer_dims": [2, 2]},
    {"format_version": 1, "layer_dims": [2, 2], "layers": {"weights": [0.0] * 4}},
    {"format_version": 1, "layer_dims": [2, 2], "layers": [{"weights": [0.0] * 4}]},
])
def test_malformed_checkpoint_exits_2(tmp_path, capsys, payload):
    (tmp_path / "checkpoint.json").write_text(json.dumps(payload))
    code, _, err = run_cli(capsys, "maggn", "sample", "--out", str(tmp_path))
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("data", [{"dims": 5}, {"dims": [2.7]}, {"trials": "3"},
                                  {"trials": 2.5}, {"seed": "x"}, {"scales": None}])
def test_experiment_mistyped_config_value_exits_2(tmp_path, capsys, data):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(data))
    code, _, err = run_cli(capsys, "experiment", "--study", "tsweep",
                           "--out", str(tmp_path / "o.csv"),
                           "--config", str(cfg_path))
    assert code == 2
    assert err.startswith("error:")


def test_malformed_flag_values_exit_2(tmp_path):
    out = str(tmp_path / "o.csv")
    for flag, value in (("--dims", "2.5"), ("--scales", "x"), ("--trials", "abc"),
                        ("--shift-mode", "sideways")):
        try:
            code = main(["experiment", "--study", "tsweep", "--out", out, flag, value])
        except SystemExit as exc:  # argparse rejects the value itself
            code = exc.code
        assert code == 2, flag
