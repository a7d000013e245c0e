"""Acceptance suite: thirteen behavioral criteria, one test and one printed
[criterion NN] PASS/FAIL line each. Tolerances are pinned inline."""
import math
import os

import numpy as np
import pytest

import conftest
from magmetric.core import (PointSet, RngState, sample_gaussian, union_sets,
                            write_point_csv)
from magmetric.distance import (ScaleSchedule, bound_check, check_triangle,
                                cross_polytope_counterexample, limit_probe,
                                mag_distance, mag_distance_gradient,
                                _value_and_gradient)
from magmetric.experiments import (config_from_dict, contamination_count,
                                   default_config, run_study, write_rows)
from magmetric.magnitude import magnitude, magnitude_gradient
from magmetric.maggn import (Generator, TrainConfig, forward, init_generator,
                             sample, train, _backward, _forward)


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, line


# ---------------------------------------------------------------- criterion 1

def test_01_two_point_closed_form():
    worst = 0.0
    for t in np.linspace(0.1, 10.0, 10):
        for d in np.linspace(0.1, 5.0, 10):
            got = magnitude(PointSet([[0.0], [d]]), t).magnitude
            want = 2.0 / (1.0 + math.exp(-t * d))
            worst = max(worst, abs(got - want))
    _report(1, worst <= 1e-12, f"two-point closed form, 10x10 grid, "
            f"max_abs_err={worst:.3e} (tol 1e-12)")


# ---------------------------------------------------------------- criterion 2

def test_02_cross_polytope_violation():
    res = cross_polytope_counterexample(500, 5.0)
    gap_ok = abs(res.gap - 7.18) <= 0.05
    slack_ok = res.slack < 0
    dense = cross_polytope_counterexample(50, 5.0, full_verify=True)
    dense_ok = abs(dense.dense_gap - dense.gap) <= 1e-9
    _report(2, gap_ok and slack_ok and dense_ok,
            f"dim=500 t=5: gap={res.gap:.6f} (7.18+-0.05) slack={res.slack:.4f}"
            f"(<0) dense_dim50_agreement={abs(dense.dense_gap - dense.gap):.2e}"
            f" (tol 1e-9)")


# ---------------------------------------------------------------- criterion 3

def _separated_cloud(rng: RngState, count: int, dim: int, min_sep: float,
                     box: float = 10.0) -> np.ndarray:
    pts: list[np.ndarray] = []
    while len(pts) < count:
        cand = rng.uniforms(dim) * box
        if not pts or np.min(np.linalg.norm(np.array(pts) - cand, axis=1)) >= min_sep:
            pts.append(cand)
    return np.array(pts)


def test_03_scale_limits():
    worst_small = 0.0
    worst_large = 0.0
    for seed in range(20):
        cloud = _separated_cloud(RngState(300 + seed), 40, 5, 0.5)
        x = PointSet(cloud[:20])
        y = PointSet(cloud[20:])
        probe = limit_probe(x, y, t_small=1e-4, t_large=40.0)
        assert probe.sym_diff == 40  # disjoint by construction
        worst_small = max(worst_small, probe.distance_small)
        worst_large = max(worst_large, abs(probe.distance_large - probe.sym_diff))
    ok = worst_small < 1e-2 and worst_large < 1e-3
    _report(3, ok, f"20 seeds, n=20, D=5, min_sep=0.5: max d(t=1e-4)="
            f"{worst_small:.2e} (<1e-2), max |d(t=40)-|XdY||={worst_large:.2e}"
            f" (<1e-3)")


# ---------------------------------------------------------------- criterion 4

def test_04_nonnegativity_and_symmetry():
    worst = 0.0
    asym = 0
    for seed in range(200):
        dim = seed % 10 + 1
        rng = RngState(400 + seed)
        x = sample_gaussian(rng.derive(0), 8, dim)
        y = sample_gaussian(rng.derive(1), 8, dim, mean=0.5)
        for t in (0.1, 1.0, 10.0):
            d_xy = mag_distance(x, y, t).distance
            d_yx = mag_distance(y, x, t).distance
            worst = min(worst, d_xy)
            if d_xy != d_yx:
                asym += 1
    ok = worst >= -1e-9 and asym == 0
    _report(4, ok, f"200 pairs x 3 scales, D in 1..10: min distance="
            f"{worst:.2e} (>=-1e-9), asymmetric_pairs={asym} (exact equality)")


# ---------------------------------------------------------------- criterion 5

def test_05_duplicate_invariance():
    mismatches = 0
    for seed in range(50):
        rng = RngState(500 + seed)
        pts = sample_gaussian(rng, 10, 1 + seed % 4)
        extra = pts.coords[rng.permutation(10)[:3]]
        dup = PointSet(np.vstack([pts.coords, extra]))
        if magnitude(pts, 1.0).magnitude != magnitude(dup, 1.0).magnitude:
            mismatches += 1
    _report(5, mismatches == 0,
            f"50 sets with injected duplicates: bitwise magnitude mismatches="
            f"{mismatches}")


# ---------------------------------------------------------------- criterion 6

def test_06_triangle_inequality_1d():
    worst = 0.0
    for seed in range(500):
        rng = RngState(600 + seed)
        x = sample_gaussian(rng.derive(0), 4, 1)
        y = sample_gaussian(rng.derive(1), 4, 1)
        z = sample_gaussian(rng.derive(2), 4, 1)
        for t in (0.2, 1.0, 5.0):
            worst = min(worst, check_triangle(x, y, z, t))
    _report(6, worst >= -1e-9, f"500 one-dimensional triples x 3 scales: "
            f"min slack={worst:.2e} (>=-1e-9)")


# ---------------------------------------------------------------- criterion 7

def test_07_boundedness():
    holds_1d = True
    for seed in range(20):
        rng = RngState(700 + seed)
        x = sample_gaussian(rng.derive(0), 6, 1)
        y = sample_gaussian(rng.derive(1), 6, 1, mean=1.0)
        for t in (0.1, 1.0, 10.0):
            holds_1d = holds_1d and bound_check(mag_distance(x, y, t)).holds
    applicable_found = 0
    holds_hd = True
    for seed in range(10):
        rng = RngState(750 + seed)
        x = sample_gaussian(rng.derive(0), 8, 3, std=2.0)
        y = sample_gaussian(rng.derive(1), 8, 3, mean=3.0, std=2.0)
        t = 4.0
        for _ in range(6):  # raise t until every weighting is nonnegative
            chk = bound_check(mag_distance(x, y, t))
            if chk.applicable:
                applicable_found += 1
                holds_hd = holds_hd and chk.holds
                break
            t *= 2.0
    ok = holds_1d and holds_hd and applicable_found == 10
    _report(7, ok, f"1D bound holds at all scales: {holds_1d}; R^3 with "
            f"nonnegative weightings: applicable {applicable_found}/10, "
            f"holds={holds_hd}")


# ---------------------------------------------------------------- criterion 8

def _rel_err(analytic: np.ndarray, fd: np.ndarray) -> float:
    return float(np.max(np.abs(analytic - fd)) / max(np.max(np.abs(fd)), 1e-8))


def _fd_magnitude(pts: PointSet, t: float, eps: float = 1e-6) -> np.ndarray:
    coords = pts.coords.copy()
    g = np.zeros_like(coords)
    for i in range(coords.shape[0]):
        for j in range(coords.shape[1]):
            coords[i, j] += eps
            up = magnitude(PointSet(coords), t).magnitude
            coords[i, j] -= 2 * eps
            dn = magnitude(PointSet(coords), t).magnitude
            coords[i, j] += eps
            g[i, j] = (up - dn) / (2 * eps)
    return g


def _fd_distance(x: PointSet, y: PointSet, t: float, normalized: bool,
                 eps: float = 1e-6) -> np.ndarray:
    coords = y.coords.copy()
    g = np.zeros_like(coords)
    for i in range(coords.shape[0]):
        for j in range(coords.shape[1]):
            coords[i, j] += eps
            rep = mag_distance(x, PointSet(coords), t)
            up = rep.normalized if normalized else rep.distance
            coords[i, j] -= 2 * eps
            rep = mag_distance(x, PointSet(coords), t)
            dn = rep.normalized if normalized else rep.distance
            coords[i, j] += eps
            g[i, j] = (up - dn) / (2 * eps)
    return g


def test_08_gradients():
    worst_mag = 0.0
    worst_plain = 0.0
    worst_norm = 0.0
    for k in range(20):
        rng = RngState(800 + k)
        n = 4 + k % 7          # 4..10
        dim = 1 + k % 5        # 1..5
        t = 0.4 + 0.1 * (k % 6)
        x = sample_gaussian(rng.derive(0), n, dim)
        y = sample_gaussian(rng.derive(1), max(3, n - 2), dim, mean=0.7)
        worst_mag = max(worst_mag, _rel_err(
            magnitude_gradient(x, t), _fd_magnitude(x, t)))
        worst_plain = max(worst_plain, _rel_err(
            mag_distance_gradient(x, y, t), _fd_distance(x, y, t, False)))
        worst_norm = max(worst_norm, _rel_err(
            mag_distance_gradient(x, y, t, normalized=True),
            _fd_distance(x, y, t, True)))

    # end-to-end parameter gradient on a two-parameter micro net
    data = PointSet([[0.0], [0.6], [1.2]])
    gen = Generator(layer_dims=(1, 1), weights=[np.array([[0.8]])],
                    biases=[np.array([0.1])])
    zs = RngState(3).normals(4).reshape(4, 1)
    out, acts = _forward(gen, zs)
    _, dY = _value_and_gradient(data, PointSet(out), 0.9, True)
    g_w, g_b = _backward(gen, acts, dY)
    worst_e2e = 0.0
    eps = 1e-6
    for arr, g, idx in ((gen.weights[0], g_w[0], (0, 0)),
                        (gen.biases[0], g_b[0], (0,))):
        arr[idx] += eps
        up, _ = _value_and_gradient(data, forward(gen, PointSet(zs)), 0.9, True)
        arr[idx] -= 2 * eps
        dn, _ = _value_and_gradient(data, forward(gen, PointSet(zs)), 0.9, True)
        arr[idx] += eps
        fd = (up - dn) / (2 * eps)
        worst_e2e = max(worst_e2e, abs(g[idx] - fd) / max(abs(fd), 1e-8))

    ok = worst_mag < 1e-5 and worst_plain < 1e-5 and worst_norm < 1e-5 \
        and worst_e2e < 1e-4
    _report(8, ok, f"20 instances vs central differences: magnitude="
            f"{worst_mag:.2e} plain={worst_plain:.2e} normalized="
            f"{worst_norm:.2e} (tol 1e-5); micro-net end-to-end="
            f"{worst_e2e:.2e} (tol 1e-4)")


# ------------------------------------------------------------ criteria 9..11

@pytest.fixture(scope="module")
def highdim_rows():
    return run_study("highdim", default_config("highdim"))


def _cell_means(rows, method):
    """dim -> (mean, population std) over non-error trials."""
    by_dim: dict = {}
    for r in rows:
        if r.method == method and not r.error:
            by_dim.setdefault(r.dim, []).append(r.value)
    out = {}
    for dim, vals in by_dim.items():
        arr = np.asarray(vals)
        out[dim] = (float(arr.mean()), float(arr.std()))
    return out


def test_09_high_dimension_study(highdim_rows):
    mmd = _cell_means(highdim_rows, "mmd2[sigma=1]")
    mmd_ratio = mmd[200][0] / mmd[2][0]
    prong_a = mmd_ratio < 0.10

    adaptive = _cell_means(highdim_rows, "magdist_norm[t=1/sqrt(D)]")
    means = [adaptive[d][0] for d in sorted(adaptive)]
    stability = max(means) / min(means)
    prong_b = stability < 3.0

    sw = _cell_means(highdim_rows, "sliced_wasserstein")
    cv_violations = []
    for dim in sorted(adaptive):
        cv_mag = adaptive[dim][1] / adaptive[dim][0]
        cv_sw = sw[dim][1] / sw[dim][0]
        if not cv_mag < cv_sw:
            cv_violations.append(dim)
    prong_c = not cv_violations

    _report(9, prong_a and prong_b and prong_c,
            f"(a) mmd2[sigma=1] D200/D2={mmd_ratio:.3f} (<0.10): "
            f"{'ok' if prong_a else 'VIOLATED'}; "
            f"(b) adaptive-scale max/min={stability:.2f} (<3): "
            f"{'ok' if prong_b else 'VIOLATED'}; "
            f"(c) magnitude CV < sliced-W CV at every dim: "
            f"{'ok' if prong_c else f'VIOLATED at dims {cv_violations}'}")


@pytest.fixture(scope="module")
def huber_rows():
    # Radii 1e4 and 1e5 carry the sweep past t*r = 1 for t = 0.001. Rows of
    # the first five radii are unchanged by appending them: the magnitude
    # rows draw nothing, and the sliced-W projections are drawn radius by
    # radius in sweep order.
    return run_study("huber", config_from_dict(
        "huber", {}, epsilons=(0.05,),
        radii=(10.0, 50.0, 100.0, 500.0, 1000.0, 1e4, 1e5)))


def test_10_contamination_study(huber_rows):
    k = contamination_count(0.05, 200)
    assert k == 10
    def radius_cells(method):
        cells: dict = {}
        for r in huber_rows:
            if r.method == method and not r.error:
                rad = float(dict(p.split("=") for p in r.param.split(";"))["r"])
                cells.setdefault(rad, []).append(r.value)
        return cells

    w = {rad: float(np.mean(v))
         for rad, v in radius_cells("sliced_wasserstein").items()}
    m = radius_cells("magdist[t=0.001]")
    w_ratio = w[1000.0] / w[10.0]
    prong_w = w_ratio > 10.0

    # Below t*r = 1 every similarity is ~1 - t*d and the distance grows with
    # r. Once t*r >> 1 each outlier is its own component of the union and of
    # the contaminated sample, adding 1 to both magnitudes, so d_t(X, Y)
    # tends to d_t(X, Y_bulk) + k, with d_t(X, Y_bulk) ~ 1e-3 here, while
    # sliced-W keeps growing linearly in r.
    m_ratio = float(np.mean(m[1000.0]) / np.mean(m[10.0]))
    plateau = m.get(1e5, [])
    plateau_err = max((abs(v - k) / k for v in plateau), default=math.inf)
    prong_m = len(plateau) == default_config("huber").trials and plateau_err <= 0.01
    w_growth = w[1e5] / w[1e4]
    prong_g = w_growth >= 9.0

    norm_vals = [r.value for r in huber_rows
                 if r.method == "magdist_norm[t=0.1]" and not r.error]
    worst_norm = max(norm_vals)
    prong_n = worst_norm <= 1.0 + 1e-9

    _report(10, prong_w and prong_m and prong_g and prong_n,
            f"sliced-W r1000/r10={w_ratio:.1f} (>10): "
            f"{'ok' if prong_w else 'VIOLATED'}; "
            f"magnitude at r=1e5 (t*r=100) within 1% of k={k} in every "
            f"trial, worst rel err={plateau_err:.1e} (<=0.01): "
            f"{'ok' if prong_m else 'VIOLATED'}; "
            f"sliced-W r1e5/r1e4={w_growth:.1f} (>=9): "
            f"{'ok' if prong_g else 'VIOLATED'}; "
            f"normalized max={worst_norm:.6f} (<=1+1e-9): "
            f"{'ok' if prong_n else 'VIOLATED'}; "
            f"magnitude r1000/r10={m_ratio:.1f} (t*r<=1, not asserted)")


def test_11_shift_sweep_monotone():
    rows = run_study("tsweep", default_config("tsweep"))
    cells: dict = {}
    for r in rows:
        if r.method == "magdist_norm" and not r.error:
            parts = dict(p.split("=") for p in r.param.split(";"))
            cells.setdefault(float(parts["t"]), {}).setdefault(
                float(parts["mu"]), []).append(r.value)
    worst_inversions = 0
    min_final = 1.0
    for t, by_mu in cells.items():
        mus = sorted(by_mu)
        means = [float(np.mean(by_mu[m])) for m in mus]
        inversions = sum(1 for a, b in zip(means, means[1:]) if b < a)
        worst_inversions = max(worst_inversions, inversions)
        min_final = min(min_final, means[-1])
    ok = worst_inversions <= 1 and min_final > 0.95
    _report(11, ok, f"normalized distance vs shift, {len(cells)} scales: "
            f"max inversions={worst_inversions} (<=1), value at largest "
            f"shift >= {min_final:.3f} (>0.95)")


# --------------------------------------------------------------- criterion 12

def test_12_generator_training():
    target = (3.0, 2.0)
    schedule = ScaleSchedule.parse("0.5@1,1.5@60,3.0@150")
    good = 0
    ratios = []
    errs = []
    for seed in range(10):
        data = sample_gaussian(RngState(1000 + seed), 256, 2, mean=target,
                               std=0.15)
        gen = init_generator(RngState(seed).derive(0), (2, 32, 32, 2))
        cfg = TrainConfig(schedule=schedule, epochs=300, batch_real=64,
                          batch_gen=64, learning_rate=0.01, seed=seed)
        gen, log = train(gen, data, cfg)
        ratio = log.rows[-1].loss / log.rows[0].loss
        pts = sample(gen, RngState(seed).derive(2), 500)
        err = float(np.linalg.norm(pts.coords.mean(axis=0) - np.array(target)))
        ratios.append(ratio)
        errs.append(err)
        if ratio <= 0.2 and err < 0.5:
            good += 1
    _report(12, good >= 8, f"10 seeds, 300 epochs, 3-scale curriculum: "
            f"{good}/10 reached final<=initial/5 and mean error<0.5 "
            f"(worst ratio={max(ratios):.3f}, worst mean err={max(errs):.3f})")


# --------------------------------------------------------------- criterion 13

def test_13_determinism(tmp_path, monkeypatch):
    cfg = config_from_dict("highdim", {}, dims=(2, 10), trials=3, n_per_set=40)
    paths = []
    for name, threads in (("serial1.csv", "1"), ("serial2.csv", "1"),
                          ("parallel.csv", "4")):
        monkeypatch.setenv("MAGMETRIC_THREADS", threads)
        path = os.path.join(tmp_path, name)
        write_rows(path, run_study("highdim", cfg))
        paths.append(path)
    blobs = [open(p, "rb").read() for p in paths]
    ok = blobs[0] == blobs[1] == blobs[2]
    _report(13, ok, f"rerun and 4-thread run byte-identical CSVs: {ok} "
            f"({len(blobs[0])} bytes)")
