"""Study runners: determinism, row ordering, configs, summaries."""
import json
import math
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import magmetric
from magmetric import experiments
from magmetric.cli import main
from magmetric.experiments import (CSV_HEADER, StudyConfig, config_from_dict,
                                   contamination_count, default_config, fmt17,
                                   recommend_scale, run_study, study_names,
                                   summarize, summary_path, write_rows,
                                   write_summary)
from magmetric.magnitude import CholeskyFailure

SMALL = dict(trials=2, n_per_set=30)

# per study: small overrides, a scale to fail at, and the rows one failed
# solve turns into NaN rows
STUDY_CASES = {
    "tsweep": (dict(dims=(3,), shifts=(0.0, 1.0), scales=(0.2, 0.4), **SMALL), 0.2, 2),
    "highdim": (dict(dims=(2, 10), **SMALL), 0.1, 1),
    "outlier2d": (dict(SMALL), 5.0, 3),
    "huber": (dict(epsilons=(0.05,), radii=(10.0, 100.0), **SMALL), 0.1, 1),
}

# experiments.mag_distance calls per run at the STUDY_CASES sizes; the bench
# times each call of that name, so its per-call numbers need these fixed
MAG_DISTANCE_CALLS = {"tsweep": 8, "highdim": 16, "outlier2d": 8, "huber": 8}


def test_study_names_and_defaults():
    names = study_names()
    assert set(names) == {"tsweep", "highdim", "outlier2d", "huber"}
    for name in names:
        cfg = default_config(name)
        assert cfg.seed == 42
    with pytest.raises(ValueError):
        default_config("nope")


def test_recommend_scale():
    assert recommend_scale(4) == pytest.approx(0.5, abs=1e-15)
    assert recommend_scale(100) == pytest.approx(0.1, abs=1e-15)
    for bad in (0, -3):
        with pytest.raises(ValueError, match="^dim must be >= 1$"):
            recommend_scale(bad)
    # 2.5 is not a dimension, and True is not dimension 1
    for bad in (2.5, True):
        with pytest.raises(ValueError, match=rf"^dim must be an integer, got {bad!r}$"):
            recommend_scale(bad)
    assert recommend_scale(np.int64(4)) == recommend_scale(4)


def test_contamination_count_exact_boundaries():
    assert contamination_count(0.05, 200) == 10  # not 11 from 10.0000000000002
    assert contamination_count(0.01, 200) == 2
    assert contamination_count(0.1, 200) == 20
    assert contamination_count(0.003, 200) == 1  # ceil of 0.6
    assert contamination_count(0.0, 200) == 0


def test_config_validation():
    with pytest.raises(ValueError):
        config_from_dict("huber", {}, radii=(10.0, 10.0))  # must strictly increase
    with pytest.raises(ValueError):
        config_from_dict("highdim", {}, shift_mode="sideways")
    with pytest.raises(ValueError):
        config_from_dict("highdim", {}, adaptive_scales=("inv_d", "mystery"))
    with pytest.raises(ValueError):
        config_from_dict("tsweep", {}, trials=0)
    with pytest.raises(ValueError):
        config_from_dict("outlier2d", {}, dims=(3,))  # planar study
    with pytest.raises(ValueError, match="epsilons must be at most 1"):
        config_from_dict("huber", {}, epsilons=(0.05, 1.5))  # a fraction
    assert config_from_dict("huber", {}, epsilons=(1.0,)).epsilons == (1.0,)
    for bad in (math.nan, math.inf, 0.0):
        with pytest.raises(ValueError, match="scales"):
            StudyConfig(scales=(0.1, bad))
    for name, good in (("shifts", 1.0), ("epsilons", 0.05), ("radii", 10.0)):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                StudyConfig(**{name: (good, bad)})
    for name, value in (("dims", (2, 2)), ("adaptive_scales", ("inv_d", "inv_d")),
                        ("shifts", (1.0, 1.0)), ("epsilons", (0.05, 0.05))):
        with pytest.raises(ValueError, match=f"{name} must not repeat"):
            StudyConfig(**{name: value})
    for study in ("tsweep", "highdim", "outlier2d"):
        with pytest.raises(ValueError, match="scales must not repeat"):
            config_from_dict(study, {"scales": [0.5, 0.25, 0.5]})
    # huber's two scales are roles (standard, normalized), so they may agree
    assert config_from_dict("huber", {"scales": [0.1, 0.1]}).scales == (0.1, 0.1)


def test_study_requirements_checked_when_built():
    with pytest.raises(ValueError, match="outlier2d is a planar study"):
        config_from_dict("outlier2d", {"dims": [3]})
    for study, data in (("huber", {"scales": [0.1]}), ("highdim", {"shifts": [1, 2]}),
                        ("tsweep", {"shifts": []})):
        with pytest.raises(ValueError, match=study):
            config_from_dict(study, data)
    # run_study applies the same check to a config built for another study
    with pytest.raises(ValueError, match="highdim expects exactly one shift"):
        run_study("highdim", default_config("tsweep"))


def test_config_round_trip_and_unknown_fields():
    cfg = config_from_dict("huber", {}, trials=3)
    data = asdict(cfg)
    back = config_from_dict("huber", data)
    assert back == cfg
    with pytest.raises(ValueError):
        config_from_dict("huber", {"radius_of_doom": 5})
    # overrides win over the dict
    bumped = config_from_dict("huber", data, trials=7)
    assert bumped.trials == 7


MISTYPED_CONFIGS = [{"dims": 5}, {"dims": [2.7]}, {"trials": "3"}, {"trials": 2.5},
                    {"seed": "x"}, {"n_per_set": None}, {"scales": None},
                    {"shifts": ["1"]}, {"adaptive_scales": "inv_d"}, {"trials": True}]


@pytest.mark.parametrize("data", MISTYPED_CONFIGS)
def test_config_rejects_mistyped_values(data):
    with pytest.raises(ValueError, match=next(iter(data))):
        config_from_dict("tsweep", data)


def test_config_accepts_numpy_numbers():
    cfg = config_from_dict("tsweep", {"dims": [np.int64(3)], "trials": np.int64(2),
                                      "scales": [np.float32(0.5), 1]})
    assert cfg.dims == (3,) and type(cfg.dims[0]) is int
    assert cfg.scales == (0.5, 1.0) and type(cfg.scales[1]) is float


def test_rows_sorted_canonically():
    cfg = config_from_dict("highdim", {}, dims=(10, 2), **SMALL)
    rows = run_study("highdim", cfg)
    keys = [(r.study, r.method, r.dim, r.trial, r.param) for r in rows]
    assert keys == sorted(keys)
    assert all(r.study == "highdim" for r in rows)


def test_rerun_rows_identical():
    cfg = config_from_dict("tsweep", {}, dims=(5,), shifts=(0.0, 1.0), scales=(0.2,),
                           **SMALL)
    a = run_study("tsweep", cfg)
    b = run_study("tsweep", cfg)
    assert a == b


@pytest.mark.parametrize("study", sorted(STUDY_CASES))
def test_threaded_run_matches_serial(tmp_path, monkeypatch, study):
    cfg = config_from_dict(study, STUDY_CASES[study][0])
    monkeypatch.setenv("MAGMETRIC_THREADS", "1")
    serial = run_study(study, cfg)
    monkeypatch.setenv("MAGMETRIC_THREADS", "4")
    threaded = run_study(study, cfg)
    assert serial == threaded
    write_rows(str(tmp_path / "a.csv"), serial)
    write_rows(str(tmp_path / "b.csv"), threaded)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_bad_thread_env_falls_back(monkeypatch):
    monkeypatch.setenv("MAGMETRIC_THREADS", "many")
    cfg = config_from_dict("tsweep", {}, dims=(3,), shifts=(1.0,), scales=(0.2,),
                           trials=1, n_per_set=20)
    rows = run_study("tsweep", cfg)
    assert rows  # still runs, serially


def test_csv_format(tmp_path):
    path = str(tmp_path / "out.csv")
    cfg = config_from_dict("outlier2d", {}, trials=1, n_per_set=40)
    rows = run_study("outlier2d", cfg)
    write_rows(path, rows)
    raw = Path(path).read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == len(rows) + 1
    # every data line has 7 fields; value is re-parseable
    for line in lines[1:]:
        parts = line.split(",")
        assert len(parts) == 7
        float(parts[5])


def test_outlier2d_relative_change_rows():
    cfg = config_from_dict("outlier2d", {}, trials=1, n_per_set=40)
    rows = run_study("outlier2d", cfg)
    by_pair = {}
    for r in rows:
        tag = dict(p.split("=") for p in r.param.split(";"))["pair"]
        by_pair.setdefault((r.method, tag), r.value)
    for (method, tag), val in by_pair.items():
        if tag == "relchange":
            clean = by_pair[(method, "clean")]
            noisy = by_pair[(method, "noisy")]
            assert val == pytest.approx(abs(noisy - clean) / clean, rel=1e-12)


def test_outlier2d_builds_one_geometry_per_pair(sq_calls):
    # the clean pair runs at all of its scales, then the noisy pair, so the
    # stored union geometry is built once for each (|B u Y| = 80, |B u Y*| = 90)
    run_study("outlier2d", config_from_dict("outlier2d", {}, trials=1, n_per_set=40))
    assert sq_calls == [80, 90]


def test_highdim_builds_one_geometry_per_cell(sq_calls):
    # both MMD bandwidths and the four magnitude rows of a cell read one
    # distance matrix of its union (|X u Y| = 40); one cell per dim
    rows = run_study("highdim", config_from_dict("highdim", {}, trials=1, n_per_set=20))
    assert len(rows) == 5 * 7
    assert sq_calls == [40] * 5


def test_highdim_duplicate_scales_reuse_their_solves(solves, tmp_path):
    # t=0.1 is 1/D at D=10; at D=100, t=0.01 is 1/D and t=0.1 is 1/sqrt(D)
    cfg = config_from_dict("highdim", {}, dims=(10, 100), trials=2, n_per_set=20)
    rows = run_study("highdim", cfg)
    # per cell, three solves (X u Y, X, Y) for each distinct scale: 3 at D=10, 2 at D=100
    assert solves == ([40, 20, 20] * 3 + [40, 20, 20] * 2) * 2
    out = tmp_path / "rows.csv"
    write_rows(out, rows)
    values = {tuple(line.split(",")[1:4]): line.split(",")[5]
              for line in out.read_text().splitlines()[1:]}
    for dim, same in ((10, [("t=0.1", "t=1/D")]),
                      (100, [("t=0.01", "t=1/D"), ("t=0.1", "t=1/sqrt(D)")])):
        for trial in range(2):
            for a, b in same:
                assert values[(f"magdist_norm[{a}]", str(dim), str(trial))] == \
                    values[(f"magdist_norm[{b}]", str(dim), str(trial))]


def test_summarize_shape_and_stats(tmp_path):
    cfg = config_from_dict("huber", {}, trials=3, n_per_set=40, epsilons=(0.05,),
                           radii=(10.0, 100.0))
    rows = run_study("huber", cfg)
    summary = summarize(rows)
    assert set(summary) == {"huber"}
    some_method = next(iter(summary["huber"]))
    dim_block = summary["huber"][some_method]["5"]
    first_param = next(iter(dim_block))
    stats = dim_block[first_param]
    assert stats["count"] == 3
    vals = [r.value for r in rows
            if r.method == some_method and r.param == first_param]
    mean = sum(vals) / len(vals)
    var = sum((v - mean) ** 2 for v in vals) / len(vals)  # population
    assert stats["mean"] == pytest.approx(mean, rel=1e-12)
    assert stats["std"] == pytest.approx(math.sqrt(var), rel=1e-12)
    assert stats["cv"] == pytest.approx(math.sqrt(var) / mean, rel=1e-12)
    spath = summary_path(str(tmp_path / "h.csv"))
    assert spath.endswith("h.csv.summary.json")
    write_summary(spath, rows)
    loaded = json.loads(Path(spath).read_text())
    assert loaded["huber"][some_method]["5"][first_param]["count"] == 3


def test_fmt17_round_trips():
    for x in (0.1, 1.0 / 3.0, 1e-17, 123456.789, 0.0):
        assert float(fmt17(x)) == x


def test_run_study_rejects_unknown():
    with pytest.raises(ValueError, match="unknown study"):
        run_study("mystery", None)
    with pytest.raises(ValueError, match="unknown study"):
        run_study("mystery", default_config("tsweep"))


@pytest.mark.parametrize("study", sorted(STUDY_CASES))
def test_failed_solve_gives_nan_rows(study, monkeypatch, tmp_path, capsys):
    overrides, bad_t, rows_per_failure = STUDY_CASES[study]
    cfg = config_from_dict(study, overrides)
    clean = run_study(study, cfg)
    real = experiments.mag_distance
    raised = []

    def failing(x, y, t):
        if t == bad_t:
            raised.append(t)
            raise CholeskyFailure("union matrix at pivot 3, near-duplicate points", 3)
        return real(x, y, t)

    monkeypatch.setattr(experiments, "mag_distance", failing)
    rows = run_study(study, cfg)

    def hit(r):  # the scale sits in the method label or ends the param
        return f"[t={bad_t:g}]" in r.method or r.param.endswith(f"t={fmt17(bad_t)}")

    assert [(r.method, r.dim, r.trial, r.param) for r in rows] == \
        [(r.method, r.dim, r.trial, r.param) for r in clean]
    failed = [r for r in rows if r.error]
    assert raised and len(failed) == rows_per_failure * len(raised)
    for r, c in zip(rows, clean):
        if hit(r):
            assert math.isnan(r.value)
            assert r.error == ("CholeskyFailure: union matrix at pivot 3; "
                               "near-duplicate points")
        else:
            assert r == c
    assert summarize(rows) == summarize([c for c in clean if not hit(c)])

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(overrides))
    out = str(tmp_path / "o.csv")
    assert main(["experiment", "--study", study, "--out", out,
                 "--config", str(cfg_path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["failed_rows"] == len(failed)
    lines = Path(out).read_text().splitlines()[1:]
    assert all(len(line.split(",")) == 7 for line in lines)
    assert sum(line.endswith("near-duplicate points") for line in lines) == len(failed)


def test_outlier2d_noisy_failure_fails_the_whole_scale(monkeypatch):
    # only the noisy pair fails, at t=5: all three of that scale's rows are
    # NaN with its error, the clean row included; t=20 and sliced W keep theirs
    cfg = config_from_dict("outlier2d", {}, trials=1, n_per_set=30)
    clean = run_study("outlier2d", cfg)
    real = experiments.mag_distance

    def failing(x, y, t):
        if t == 5.0 and len(y) > cfg.n_per_set:
            raise CholeskyFailure("noisy union at pivot 7, near-duplicate points", 7)
        return real(x, y, t)

    monkeypatch.setattr(experiments, "mag_distance", failing)
    rows = run_study("outlier2d", cfg)
    assert len(rows) == len(clean)
    assert sum(r.method == "magdist[t=5]" for r in rows) == 3
    for r, c in zip(rows, clean):
        if r.method == "magdist[t=5]":
            assert math.isnan(r.value)
            assert r.error == "CholeskyFailure: noisy union at pivot 7; near-duplicate points"
        else:
            assert r == c


@pytest.mark.parametrize("study", sorted(STUDY_CASES))
def test_mag_distance_calls_per_study(study, monkeypatch):
    cfg = config_from_dict(study, STUDY_CASES[study][0])
    real = experiments.mag_distance
    calls = []

    def counting(x, y, t):
        calls.append(t)
        return real(x, y, t)

    monkeypatch.setattr(experiments, "mag_distance", counting)
    run_study(study, cfg)
    assert len(calls) == MAG_DISTANCE_CALLS[study]


def test_study_bytes_independent_of_blas_threads(tmp_path):
    # The tsweep union has n=200, where a threaded OpenBLAS changes the bits
    # of the Cholesky solves; the package pins both bundled copies at import.
    src = os.path.dirname(os.path.dirname(magmetric.__file__))
    env = {**os.environ, "PYTHONPATH": src, "MAGMETRIC_THREADS": "1"}
    probe = ("import json, magmetric, numpy, scipy; "
             "from magmetric._blas import bundled; "
             "libs = {p.__name__: bundled(p.__name__) for p in (numpy, scipy)}; "
             "print(json.dumps({name: getattr(lib, 'scipy_openblas_get_num_threads' + sfx)() "
             "for name, (lib, sfx) in libs.items()}))")
    children = {}
    for threads in ("1", "2"):
        out = str(tmp_path / f"blas{threads}.csv")
        children[out] = subprocess.Popen(
            [sys.executable, "-m", "magmetric.cli", "experiment", "--study", "tsweep",
             "--out", out], env={**env, "OPENBLAS_NUM_THREADS": threads},
            stdout=subprocess.DEVNULL)
    probed = subprocess.Popen([sys.executable, "-c", probe], stdout=subprocess.PIPE,
                              text=True, env={**env, "OPENBLAS_NUM_THREADS": "2"})
    assert [child.wait() for child in children.values()] == [0, 0]
    one, two = children
    for suffix in ("", ".summary.json"):
        with open(one + suffix, "rb") as a, open(two + suffix, "rb") as b:
            assert a.read() == b.read(), suffix or "csv"
    threads, _ = probed.communicate()
    assert probed.returncode == 0
    assert json.loads(threads) == {"numpy": 1, "scipy": 1}
