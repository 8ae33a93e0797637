"""Kernel configuration and Gram matrices."""

import tracemalloc

import numpy as np
import pytest

from latentcause import InvalidConfig, KernelSpec, simulate_multiproxy, three_cluster_gaussian
from latentcause.kernels import gram
from latentcause.kernels import _BLOCK_CELLS, KernelRows


def _direct_gram(bandwidth, x, y):
    """exp(-||x - y||^2 / (2 s^2)) entry by entry, in extended precision."""
    x, y = x.astype(np.longdouble), y.astype(np.longdouble)
    sq = np.sum((x[:, None, :] - y[None, :, :]) ** 2, axis=2)
    return np.exp(-sq / (2 * np.longdouble(bandwidth) ** 2))


ROWS_PER_BLOCK = _BLOCK_CELLS // 5      # against five points


@pytest.mark.parametrize("n, m", [
    pytest.param(7, 5, id="n_below_one_block"),
    pytest.param(ROWS_PER_BLOCK + 1, 5, id="one_row_remainder"),
    pytest.param(3, _BLOCK_CELLS + 1, id="one_row_per_block"),     # m above the budget
    pytest.param(1, 5, id="single_point"),
])
def test_gram_matches_direct_formula(n, m):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((n, 3))
    y = rng.standard_normal((m, 3))
    for bandwidth in (1.3, 0.7):
        spec = KernelSpec(bandwidth=bandwidth)
        got = gram(spec, x, y)
        assert np.max(np.abs(got - _direct_gram(bandwidth, x, y))) <= 1e-14
        assert np.array_equal(gram(spec, x, y), got)
        assert got.min() >= 0.0 and got.max() <= 1.0
        coefficients = rng.standard_normal((3, m))
        rows = KernelRows(spec, x, y)
        reduced = rows @ coefficients.T
        want = got @ coefficients.T
        assert np.max(np.abs(reduced - want)) <= 1e-13 * np.max(np.abs(want))
        weights = rng.standard_normal((n, 2))
        summed, want = rows.tdot(weights), got.T @ weights
        assert np.max(np.abs(summed - want)) <= 1e-13 * np.max(np.abs(want))


def test_gram_diagonal_is_one_on_shared_points():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((6, 2))
    got = gram(KernelSpec(bandwidth=0.7), x, x)
    assert np.allclose(np.diag(got), 1.0, atol=1e-15)
    assert np.max(np.abs(got - got.T)) <= 1e-15


def test_kernel_rows_hold_the_points_norms_and_one_padded_block():
    # n row norms and O(r d) floats besides the caller's points, not an
    # n x (d + 2) padded copy of them (2.45 MiB here)
    data, _ = simulate_multiproxy(three_cluster_gaussian(), 64000, seed=7)
    x = data["z1"]
    (n, d), r = x.shape, 250
    anchors = x[:r].copy()
    tracemalloc.start()
    try:
        rows = KernelRows(KernelSpec(), x, anchors)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert rows.shape == (n, r)
    assert held <= (n + 4 * r * (d + 2)) * 8


def test_blocks_tile_the_rows_in_one_buffer():
    # runs around the piece height on an n that is no multiple of it: each
    # run's pieces start at its first row, as gram's do on that run alone
    rng = np.random.default_rng(3)
    m = 700
    piece = _BLOCK_CELLS // m
    n = 3 * piece + 11
    x, y = rng.standard_normal((n, 2)), rng.standard_normal((m, 2))
    spec = KernelSpec(bandwidth=1.3)
    rows, want = KernelRows(spec, x, y), _direct_gram(1.3, x, y)
    for run in (1, piece - 1, piece, piece + 1, n - 1, n, n + 5):
        seen, first = [], None
        for lo, hi, block in rows.blocks(run):
            first = block if first is None else first
            assert np.shares_memory(block, first)
            assert np.max(np.abs(block - want[lo:hi])) <= 1e-14
            assert np.array_equal(block, gram(spec, x[lo:hi], y))
            seen.append((lo, hi))
        assert seen == [(lo, min(lo + run, n)) for lo in range(0, n, run)], run
    assert not list(KernelRows(spec, x[:0], y).blocks(piece))
    assert gram(spec, x[:0], y).shape == (0, m)


def test_gram_holds_one_array():
    # one n x m array and O(m d) floats besides: no second n x m buffer
    rng = np.random.default_rng(4)
    n = m = 1000
    x, y = rng.standard_normal((n, 3)), rng.standard_normal((m, 3))
    tracemalloc.start()
    try:
        got = gram(KernelSpec(), x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.shape == (n, m)
    assert peak <= (n * m + _BLOCK_CELLS) * 8      # plus one piece of _BLOCK_CELLS entries


def test_kernel_spec_validation():
    with pytest.raises(InvalidConfig):
        KernelSpec(bandwidth=-1.0)
    for bad in (1e400, float("nan"), 0.0, "x", [1.0], None, True, np.True_):
        with pytest.raises(InvalidConfig, match="bandwidth"):
            KernelSpec(bandwidth=bad)
    with pytest.raises(InvalidConfig, match="bandwidth must be numbers"):
        KernelSpec(bandwidth="1.0")      # a numeric string is not a number, as for landmark_count
    for bad in (1e400, 2.5, 0, "10", None, True):
        with pytest.raises(InvalidConfig, match="landmark_count"):
            KernelSpec(landmark_count=bad)
    assert type(KernelSpec(landmark_count=np.int64(7)).landmark_count) is int
