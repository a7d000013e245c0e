"""Core primitives: RNG, point sets, dedupe, CSV io; the package namespace."""
import math
import os

import numpy as np
import pytest
from scipy.spatial.distance import pdist, squareform

import magmetric
from magmetric.core import (DimensionMismatch, PointCsvError, PointSet,
                            RngState, _block, _sq_distances, dedupe, pairwise_distances,
                            read_point_csv, sample_gaussian,
                            symmetric_difference_count,
                            union_sets, write_point_csv)

# Known-answer outputs for the 64-bit counter generator, seed 0.
SEED0_FIRST3 = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)


def test_rng_known_answers_seed0():
    rng = RngState(0)
    got = tuple(rng.next_u64() for _ in range(3))
    assert got == SEED0_FIRST3


def test_rng_bulk_matches_scalar():
    a = RngState(12345)
    b = RngState(12345)
    scalar = [a.next_u64() for _ in range(257)]
    bulk = list(b._bulk_u64(257))
    assert scalar == bulk


def test_rng_uniform_range_and_determinism():
    rng = RngState(7)
    u = rng.uniforms(10_000)
    assert u.min() > 0.0
    assert u.max() <= 1.0
    again = RngState(7).uniforms(10_000)
    assert np.array_equal(u, again)


def test_rng_normals_deterministic_and_shaped():
    z = RngState(9).normals(1001)
    assert z.shape == (1001,)
    assert np.array_equal(z, RngState(9).normals(1001))
    # odd count draws a full pair and truncates; prefix of a longer call differs
    # only in length for the even part
    z2 = RngState(9).normals(1000)
    assert np.array_equal(z[:1000], z2)


def test_rng_normals_moments():
    z = RngState(123).normals(200_000)
    assert abs(z.mean()) < 5.0 / math.sqrt(200_000)
    assert abs(z.std() - 1.0) < 5.0 / math.sqrt(200_000)


def test_rng_permutation_is_permutation():
    rng = RngState(77)
    p = rng.permutation(100)
    assert sorted(p.tolist()) == list(range(100))
    assert np.array_equal(p, RngState(77).permutation(100))
    assert RngState(77).permutation(0).size == 0


def test_rng_takes_numpy_integer_counts():
    # a numpy count must not overflow the Python-int state update
    for n in (0, 5, 6):
        assert RngState(4).normals(np.int64(n)).tobytes() == RngState(4).normals(n).tobytes()
        assert np.array_equal(RngState(4).permutation(np.int64(n)), RngState(4).permutation(n))


def test_rng_permutation_refuses_negative_count():
    rng = RngState(77)
    with pytest.raises(ValueError, match="count must be nonnegative"):
        rng.permutation(-1)
    # nothing was drawn
    assert np.array_equal(rng.permutation(10), RngState(77).permutation(10))


@pytest.mark.parametrize("rows, cols", [
    ([3, 0, 2], [1, 4, 0, 2]),        # unsorted
    ([1, 1, 4, 1], [2, 2, 0]),        # repeated
    ([], [0, 1]), ([2, 0], []), ([], []),  # empty
])
def test_block_is_ix_gather_bitwise(rows, cols):
    a = sample_gaussian(RngState(3), 5, 6).coords
    r, c = np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp)
    got, want = _block(a, r, c), a[np.ix_(r, c)]
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert got.flags.c_contiguous


def _scalar_permutation(rng, n):
    # the reference: Fisher-Yates with one numpy scalar modulo per swap
    idx = np.arange(n)
    if n > 1:
        words = rng._bulk_u64(n - 1)
        for pos, i in enumerate(range(n - 1, 0, -1)):
            j = int(words[pos] % np.uint64(i + 1))
            idx[i], idx[j] = idx[j], idx[i]
    return idx


@pytest.mark.parametrize("seed", [0, 77, 2**64 - 1])
def test_rng_permutation_matches_scalar_loop(seed):
    for n in (0, 1, 2, 3, 64, 256, 1000):
        rng, ref = RngState(seed).derive(n), RngState(seed).derive(n)
        got, want = rng.permutation(n), _scalar_permutation(ref, n)
        assert got.dtype == want.dtype == np.intp
        assert np.array_equal(got, want)
        # the same number of words was consumed
        assert rng.next_u64() == ref.next_u64()


def test_rng_derive_streams_disjoint_and_stable():
    base = RngState(42)
    d0 = base.derive(0)
    d1 = base.derive(1)
    assert d0.next_u64() != d1.next_u64()
    # deriving is a pure function of (seed, index)
    assert RngState(42).derive(1).next_u64() == RngState(42).derive(1).next_u64()
    # consuming draws from the parent does not move child streams
    base.next_u64()
    assert base.derive(0).seed == d0.seed


def test_pointset_validation():
    p = PointSet([[1.0, 2.0], [3.0, 4.0]])
    assert len(p) == 2 and p.dim == 2
    with pytest.raises(ValueError):
        PointSet(np.zeros((2, 0)))
    with pytest.raises(ValueError):
        PointSet([[np.nan, 0.0]])
    with pytest.raises(ValueError):
        PointSet([[np.inf, 0.0]])
    with pytest.raises(ValueError):
        PointSet(np.zeros(3))  # 1-d array is ambiguous


def test_pointset_immutable_and_copied():
    src = np.ones((2, 2))
    p = PointSet(src)
    src[0, 0] = 99.0
    assert p.coords[0, 0] == 1.0
    with pytest.raises(ValueError):
        p.coords[0, 0] = 5.0


def test_pointset_empty():
    e = PointSet.empty(3)
    assert len(e) == 0 and e.dim == 3


def test_pairwise_distances_matches_norms():
    pts = PointSet([[0.0, 0.0], [3.0, 4.0], [6.0, 8.0]])
    d = pairwise_distances(pts)
    assert d[0, 1] == pytest.approx(5.0, abs=1e-12)
    assert d[0, 2] == pytest.approx(10.0, abs=1e-12)
    assert np.array_equal(d, d.T)
    assert np.all(np.diag(d) == 0.0)


def test_sq_distances_small_sets():
    # zero rows give a 0 x 0 matrix, where squareform of pdist gives [[0.]]
    assert _sq_distances(np.empty((0, 3))).shape == (0, 0)
    assert _sq_distances(np.array([[1.5, -2.0]])).tolist() == [[0.0]]
    two = np.array([[0.0, 0.0], [3.0, 4.0]])
    assert _sq_distances(two).tolist() == [[0.0, 25.0], [25.0, 0.0]]
    assert pairwise_distances(PointSet([[7.0]])).tolist() == [[0.0]]
    # the kernels get each layout as given, with no wrapper to normalize it:
    # C- and F-ordered, negative-stride and strided rows are all bitwise
    # squareform(pdist)
    coords = RngState(3).normals(400 * 10).reshape(400, 10)
    for n in (1, 2, 3, 200):
        c = coords[:n, :5]
        for layout in (c, np.asfortranarray(c), c[::-1], c[::-1, ::-1],
                       coords[::-2][:n, 1::2]):
            want = squareform(pdist(layout, "sqeuclidean"))
            assert _sq_distances(layout).tobytes() == want.tobytes()


def test_dedupe_exact():
    pts = PointSet([[0.0, 1.0], [0.0, 1.0], [2.0, 2.0], [0.0, 1.0]])
    uniq, mult = dedupe(pts)
    assert len(uniq) == 2
    assert mult.tolist() == [3, 1]
    # first occurrence order is kept
    assert uniq.coords[0].tolist() == [0.0, 1.0]


def test_dedupe_signed_zero_collapses():
    pts = PointSet([[0.0], [-0.0]])
    uniq, mult = dedupe(pts)
    assert len(uniq) == 1 and mult.tolist() == [2]


def test_dedupe_matches_dict_reference():
    # rounding to a coarse grid gives many duplicates and, from small
    # negatives, -0.0 entries; Python floats hash -0.0 and 0.0 alike
    pts = PointSet(np.round(sample_gaussian(RngState(7), 60, 2).coords))
    groups = {}
    for i, row in enumerate(pts.coords):
        groups.setdefault(tuple(row), []).append(i)
    uniq, mult = dedupe(pts)
    firsts = [g[0] for g in groups.values()]
    assert uniq.coords.tobytes() == pts.coords[firsts].tobytes()
    assert mult.tolist() == [len(g) for g in groups.values()]
    assert len(firsts) < 20 and (np.signbit(pts.coords) & (pts.coords == 0)).any()


def test_dedupe_empty():
    uniq, mult = dedupe(PointSet.empty(2))
    assert len(uniq) == 0 and mult.size == 0


def test_union_sets_order_and_dedupe():
    x = PointSet([[0.0], [1.0]])
    y = PointSet([[1.0], [2.0]])
    u = union_sets(x, y)
    assert u.coords.ravel().tolist() == [0.0, 1.0, 2.0]
    with pytest.raises(DimensionMismatch):
        union_sets(x, PointSet([[0.0, 0.0]]))


def test_symmetric_difference_count():
    x = PointSet([[0.0], [1.0], [2.0]])
    y = PointSet([[1.0], [3.0]])
    assert symmetric_difference_count(x, y) == 3
    assert symmetric_difference_count(x, x) == 0


def test_sample_gaussian_layout_and_moments():
    pts = sample_gaussian(RngState(1), 50_000, 3, mean=2.0, std=0.5)
    assert pts.coords.shape == (50_000, 3)
    assert abs(pts.coords.mean() - 2.0) < 5 * 0.5 / math.sqrt(150_000)
    assert abs(pts.coords.std() - 0.5) < 5 * 0.5 / math.sqrt(150_000)
    # vector mean shifts the same underlying draws
    pts2 = sample_gaussian(RngState(1), 10, 2, mean=(1.0, -1.0))
    base = sample_gaussian(RngState(1), 10, 2)
    assert np.allclose(pts2.coords - np.array([1.0, -1.0]), base.coords,
                       atol=1e-15)


def test_point_csv_roundtrip(tmp_path):
    path = os.path.join(tmp_path, "pts.csv")
    pts = sample_gaussian(RngState(4), 17, 3)
    write_point_csv(path, pts)
    back = read_point_csv(path)
    assert np.array_equal(back.coords, pts.coords)
    with open(path, "rb") as fh:
        raw = fh.read()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")


def test_point_csv_header_and_blank_lines(tmp_path):
    path = os.path.join(tmp_path, "h.csv")
    with open(path, "w") as fh:
        fh.write("a,b\n1.0,2.0\n\n3.0,4.0\n")
    pts = read_point_csv(path, skip_header=True)
    assert pts.coords.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    with pytest.raises(PointCsvError):
        read_point_csv(path)  # header not skipped -> parse failure


def test_point_csv_error_line_numbers(tmp_path):
    path = os.path.join(tmp_path, "bad.csv")
    with open(path, "w") as fh:
        fh.write("1.0,2.0\n3.0,oops\n")
    with pytest.raises(PointCsvError) as err:
        read_point_csv(path)
    assert err.value.line == 2

    with open(path, "w") as fh:
        fh.write("1.0,2.0\n3.0\n")
    with pytest.raises(PointCsvError) as err:
        read_point_csv(path)
    assert err.value.line == 2

    with open(path, "w") as fh:
        fh.write("\n\n")
    with pytest.raises(PointCsvError) as err:
        read_point_csv(path)
    assert err.value.line == 0  # no points at all


def test_public_names_resolve():
    # every exported name exists on the package, and none is listed twice
    assert [name for name in magmetric.__all__ if not hasattr(magmetric, name)] == []
    assert len(set(magmetric.__all__)) == len(magmetric.__all__)
