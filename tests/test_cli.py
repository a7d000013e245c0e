"""CLI: exit codes, seed echo, JSON envelope, end-to-end subcommands."""
import dataclasses
import importlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

import magmetric.cli
from magmetric.cli import main
from magmetric.core import (PointSet, RngState, fmt17, read_point_csv, sample_gaussian,
                            write_point_csv)
from magmetric.distance import mag_distance
from magmetric.experiments import StudyConfig
from magmetric.maggn import init_generator, save_checkpoint
from magmetric.magnitude import magnitude


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
                           "--t", "1.0", "--t", "2.0", "--json")
    assert code == 0
    blob = json.loads(out)
    assert set(blob) == {"command", "seed", "params", "results", "blas_threads"}
    assert blob["blas_threads"] == {"numpy": 1, "scipy": 1}
    assert blob["command"] == "magnitude"
    assert blob["seed"] == 42
    assert blob["params"] == {"input": x, "t": [1.0, 2.0]}
    assert len(blob["results"]) == 2
    assert set(blob["results"][0]) == {"t", "magnitude", "residual", "nonneg_weighting"}


def test_magnitude_flags_a_negative_weighting(tmp_path, capsys):
    # this set's weighting dips to -0.22 at t = 0.01 and is positive at t = 1
    points = sample_gaussian(RngState(0), 20, 5)
    path = str(tmp_path / "p.csv")
    write_point_csv(path, points)
    code, out, _ = run_cli(capsys, "magnitude", "--input", path,
                           "--t", "0.01", "--t", "1", "--json")
    assert code == 0
    flags = [r["nonneg_weighting"] for r in json.loads(out)["results"]]
    assert flags == [False, True]
    assert flags == [mag_distance(points, points, t).nonneg_weightings[0] for t in (0.01, 1.0)]


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


@pytest.mark.parametrize("t", ["1e-300", "1e-20", "1e300"])
@pytest.mark.parametrize("command", ["magnitude", "distance", "counterexample"])
def test_extreme_scales_keep_the_exit_contract(csvs, capsys, command, t):
    # an exception escaping main would reach the user as a traceback, exit 1
    x, y = csvs
    inputs = {"magnitude": ["--input", x], "distance": ["--x", x, "--y", y],
              "counterexample": ["--dim", "3"]}[command]
    code, _, err = run_cli(capsys, command, *inputs, "--t", t)
    assert code in {0, 2, 3, 4}
    assert (code == 0) == (err == "")


@pytest.mark.parametrize("command,solve", [
    ("magnitude", "similarity matrix is not positive definite at pivot 2 of 2"),
    ("distance", "union solve failed: similarity matrix is not positive "
                 "definite at pivot 3 of 3"),
])
def test_failed_solve_exits_3(capsys, tmp_path, command, solve):
    # 0 and 1e-17 are distinct points, but their zeta is singular in floats
    pair = tmp_path / "pair.csv"
    pair.write_text("0\n1e-17\n")
    five = tmp_path / "five.csv"
    five.write_text("5\n")
    inputs = (["--input", str(pair)] if command == "magnitude"
              else ["--x", str(pair), "--y", str(five)])
    code, out, err = run_cli(capsys, command, *inputs, "--t", "1")
    assert code == 3
    assert err.startswith("error: " + solve)
    assert out == "seed=42\n"


def test_magnitude_builds_one_geometry_for_all_scales(csvs, capsys, monkeypatch):
    x, _ = csvs
    module = importlib.import_module("magmetric.magnitude")
    calls = []
    real = module.pairwise_distances

    def counting(X):
        calls.append(len(X))
        return real(X)

    monkeypatch.setattr(module, "pairwise_distances", counting)
    code, out, _ = run_cli(capsys, "magnitude", "--input", x, "--t", "0.5",
                           "--t", "1.0", "--t", "2.0")
    assert code == 0
    assert calls == [20]
    points = read_point_csv(x)
    for line, t in zip(out.splitlines()[1:], (0.5, 1.0, 2.0)):
        assert f" magnitude={fmt17(magnitude(points, t).magnitude)} " in line


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


@pytest.mark.parametrize("argv,message", [
    (["--study", "outlier2d", "--dims", "3"], "outlier2d is a planar study"),
    (["--study", "huber", "--scales", "0.1"], "huber needs exactly two scales"),
    (["--study", "highdim", "--shifts", "1,2"], "highdim expects exactly one shift"),
    (["--study", "tsweep", "--shifts", ""], "tsweep needs a shift grid"),
    # a repeated grid value would write two different rows under one key
    (["--study", "tsweep", "--dims", "2", "--trials", "1", "--n-per-set", "10",
      "--shifts", "1,1", "--scales", "0.5"], "shifts must not repeat a value"),
    (["--study", "tsweep", "--scales", "0.5,0.5"], "scales must not repeat a value"),
    (["--study", "highdim", "--dims", "2,2"], "dims must not repeat a value"),
    (["--study", "highdim", "--adaptive-scales", "inv_d,inv_d"],
     "adaptive_scales must not repeat a value"),
    (["--study", "highdim", "--scales", "0.1,0.1"], "scales must not repeat a value"),
    (["--study", "outlier2d", "--scales", "5,5"], "scales must not repeat a value"),
    (["--study", "huber", "--epsilons", "0.05,0.05"], "epsilons must not repeat a value"),
    # a contamination rate is a fraction: 1.5 would ask for more outliers than points
    (["--study", "huber", "--epsilons", "1.5", "--n-per-set", "10"],
     "epsilons must be at most 1"),
])
def test_study_requirements_exit_2_before_echo(tmp_path, capsys, argv, message):
    code, out, err = run_cli(capsys, "experiment", *argv,
                             "--out", str(tmp_path / "o.csv"))
    assert code == 2
    assert out == ""
    assert message in err
    assert list(tmp_path.iterdir()) == []


def test_missing_output_directory_exits_2_before_running(tmp_path, capsys,
                                                          monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the study ran")

    monkeypatch.setattr(magmetric.cli, "run_study", never)
    code, out, err = run_cli(capsys, "experiment", "--study", "tsweep",
                             "--out", str(tmp_path / "no" / "x.csv"))
    assert code == 2
    assert out == ""
    assert "does not exist" in err
    assert list(tmp_path.iterdir()) == []
    # an empty --out names no file at all
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "experiment", "--study", "tsweep", "--out", "")
    assert code == 2
    assert out == ""
    assert "--out must name a file" in err
    assert list(tmp_path.iterdir()) == []


def test_output_directory_as_out_exits_2_before_running(tmp_path, capsys,
                                                         monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the study ran")

    monkeypatch.setattr(magmetric.cli, "run_study", never)
    target = tmp_path / "x.csv"
    target.mkdir()
    code, out, err = run_cli(capsys, "experiment", "--study", "tsweep",
                             "--out", str(target))
    assert code == 2
    assert out == ""
    assert "is a directory" in err
    assert [p.name for p in tmp_path.iterdir()] == ["x.csv"]
    assert list(target.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["magnitude", "--input", "{x}", "--t", "1.0", "--badflag"],
    ["magnitude", "--input", "{x}", "--t", "1.0", "--neumann"],
    ["maggn", "train", "--data", "{x}", "--schedule", "0.5@1", "--out", "{run}",
     "--raw-loss"],
], ids=["badflag", "neumann", "raw-loss"])
def test_unknown_flag_exits_2(csvs, tmp_path, argv):
    with pytest.raises(SystemExit) as err:
        main([a.format(x=csvs[0], run=tmp_path / "run") for a in argv])
    assert err.value.code == 2
    assert not (tmp_path / "run").exists()


def test_bound_check_makes_one_solve_per_scale(tmp_path, capsys, solves):
    # --bound-check reads the report the distance already computed
    x, y = str(tmp_path / "x.csv"), str(tmp_path / "y.csv")
    write_point_csv(x, sample_gaussian(RngState(5), 30, 2))
    write_point_csv(y, sample_gaussian(RngState(6), 25, 2, mean=1.0))
    code, out, _ = run_cli(capsys, "distance", "--x", x, "--y", y, "--t", "0.5",
                           "--bound-check")
    assert code == 0
    assert solves == [55, 30, 25]
    assert "applicable=" in out and "holds=" in out


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
    assert Path(out1).read_bytes() == Path(out2).read_bytes()
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
    rows = Path(out).read_text().splitlines()
    assert rows[0] == "study,method,dim,trial,param,value,error"


def test_experiment_rejects_unknown_config_key(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    # only --out names the output, so a config's output_path is unknown too
    for field in ("mystery", "output_path"):
        cfg_path.write_text(json.dumps({field: str(tmp_path / "zzz.csv")}))
        code, out, err = run_cli(capsys, "experiment", "--study", "tsweep",
                                 "--out", str(tmp_path / "o.csv"),
                                 "--config", str(cfg_path))
        assert code == 2
        assert out == "" and f"unknown config fields: ['{field}']" in err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_experiment_flags_name_every_study_config_field():
    # a StudyConfig field without its flag could be set only from a config file
    assert sorted(magmetric.cli.STUDY_FLAGS) == sorted(
        f.name for f in dataclasses.fields(StudyConfig))


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
    assert Path(log).read_text().splitlines()[0] == \
        "epoch,active_scales,loss,grad_norm,seconds"

    # identical rerun gives a byte-identical checkpoint
    outdir2 = str(tmp_path / "run2")
    run_cli(capsys, "maggn", "train", "--data", data_csv,
            "--schedule", "0.5@1,1.5@4", "--epochs", "6", "--out", outdir2,
            "--lr", "0.01", "--batch-real", "32", "--batch-gen", "32",
            "--seed", "5")
    assert Path(ckpt).read_bytes() == \
        Path(outdir2, "checkpoint.json").read_bytes()

    code, out, _ = run_cli(capsys, "maggn", "sample", "--out", outdir,
                           "--n", "15", "--seed", "5")
    assert code == 0
    samples = read_point_csv(os.path.join(outdir, "samples.csv"))
    assert samples.coords.shape == (15, 2)


def test_maggn_train_bad_schedule(tmp_path, capsys, monkeypatch):
    data_csv = str(tmp_path / "d.csv")
    write_point_csv(data_csv, sample_gaussian(RngState(2), 10, 2))
    code, _, err = run_cli(capsys, "maggn", "train", "--data", data_csv,
                           "--schedule", "0.5@3,1.5@2", "--out",
                           str(tmp_path / "r"))
    assert code == 2
    # a repeated scale would count twice in the loss: refused before any write
    code, out, err = run_cli(capsys, "maggn", "train", "--data", data_csv,
                             "--schedule", "0.5@1,0.5@2", "--out",
                             str(tmp_path / "r"))
    assert code == 2
    assert out == ""
    assert "must not repeat a value, got 0.5" in err
    assert not (tmp_path / "r").exists()
    # a schedule that starts after the last epoch would train nothing
    code, out, err = run_cli(capsys, "maggn", "train", "--data", data_csv,
                             "--schedule", "0.5@400", "--epochs", "5", "--out",
                             str(tmp_path / "r"))
    assert code == 2
    assert out == ""
    assert "schedule starts at epoch 400, after epochs 5" in err
    assert not (tmp_path / "r").exists()
    # a bad config is the only message: no warning about the schedule first
    code, out, err = run_cli(capsys, "maggn", "train", "--data", data_csv,
                             "--schedule", "0.5@1", "--epochs", "0", "--out",
                             str(tmp_path / "r"))
    assert code == 2
    assert out == ""
    assert err == "error: epochs must be >= 1\n"
    assert not (tmp_path / "r").exists()
    # an empty --out names no directory at all
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "maggn", "train", "--data", data_csv,
                             "--schedule", "0.5@1", "--epochs", "2", "--out", "")
    assert code == 2
    assert out == ""
    assert err == "error: --out must name a directory\n"
    assert [p.name for p in tmp_path.iterdir()] == ["d.csv"]


def test_maggn_train_warns_on_late_schedule_entry(tmp_path, capsys):
    data_csv = str(tmp_path / "d.csv")
    write_point_csv(data_csv, sample_gaussian(RngState(2), 10, 2))
    code, _, err = run_cli(capsys, "maggn", "train", "--data", data_csv,
                           "--schedule", "0.5@1,1.5@9", "--epochs", "2",
                           "--batch-real", "8", "--batch-gen", "8",
                           "--out", str(tmp_path / "r"))
    assert code == 0
    assert err == ("warning: schedule entry at epoch 9 never activates "
                   "within --epochs 2\n")


@pytest.mark.parametrize("layer_dims,code,message", [
    ("2", 2, "at least input and output sizes"),
    ("2,0,2", 2, "layer_dims must be >= 1"),
    ("2,32,3", 4, "data dim 2 vs generator output 3"),
])
def test_maggn_train_bad_layer_dims(tmp_path, capsys, layer_dims, code, message):
    # a generator that cannot train on the data is refused before --out exists
    data_csv = str(tmp_path / "d.csv")
    write_point_csv(data_csv, sample_gaussian(RngState(2), 10, 2))
    got, _, err = run_cli(capsys, "maggn", "train", "--data", data_csv,
                          "--schedule", "0.5@1", "--epochs", "2",
                          "--layer-dims", layer_dims, "--out", str(tmp_path / "r"))
    assert got == code
    assert message in err
    assert not (tmp_path / "r").exists()


def test_maggn_sample_without_checkpoint(tmp_path, capsys):
    code, out, err = run_cli(capsys, "maggn", "sample", "--out",
                             str(tmp_path / "empty"))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_maggn_sample_bad_n_exits_2_before_echo(tmp_path, capsys):
    save_checkpoint(init_generator(RngState(3), (2, 4, 2)),
                    str(tmp_path / "checkpoint.json"))
    code, out, err = run_cli(capsys, "maggn", "sample", "--out", str(tmp_path),
                             "--n", "0")
    assert code == 2
    assert out == ""
    assert err == "error: n must be >= 1\n"
    assert not (tmp_path / "samples.csv").exists()


def test_maggn_sample_empty_out_exits_2_before_echo(tmp_path, capsys, monkeypatch):
    # an empty --out names no directory, even where a checkpoint.json sits
    save_checkpoint(init_generator(RngState(3), (2, 4, 2)),
                    str(tmp_path / "checkpoint.json"))

    def never(*args, **kwargs):
        raise AssertionError("the checkpoint was read")

    monkeypatch.setattr(magmetric.cli, "load_checkpoint", never)
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "maggn", "sample", "--out", "", "--n", "3")
    assert code == 2
    assert out == ""
    assert err == "error: --out must name a directory\n"
    assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.json"]


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
        (["magnitude", "--input", x, "--t", "0.5", "--t", "2.0"],
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
    {"format_version": 1, "layer_dims": [2, 0, 2],
     "layers": [{"weights": [], "biases": []},
                {"weights": [], "biases": [1.5, -2.0]}]},
    {"format_version": 1, "layer_dims": [2, 2],
     "layers": [{"weights": [0.0, 0.0, 0.0, float("inf")], "biases": [0.0, 0.0]}]},
    # True == 1 and 1.0 == 1 in Python, but neither is the integer version
    {"format_version": True, "layer_dims": [2, 2],
     "layers": [{"weights": [0.0] * 4, "biases": [0.0, 0.0]}]},
    {"format_version": 1.0, "layer_dims": [2, 2],
     "layers": [{"weights": [0.0] * 4, "biases": [0.0, 0.0]}]},
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
