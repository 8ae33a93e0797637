"""Kernel configuration, Gram matrices, and bandwidth rules."""

import numpy as np
import pytest

from latentcause import InvalidConfig, KernelSpec, gram, median_heuristic, power_rule_bandwidth
from latentcause.kernels import _BLOCK_CELLS, KernelRows, _row_product


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
        reduced = _row_product(KernelRows(spec, x, y), coefficients.T)
        want = got @ coefficients.T
        assert np.max(np.abs(reduced - want)) <= 1e-13 * np.max(np.abs(want))


def test_gram_diagonal_is_one_on_shared_points():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((6, 2))
    got = gram(KernelSpec(bandwidth=0.7), x, x)
    assert np.allclose(np.diag(got), 1.0, atol=1e-15)
    assert np.max(np.abs(got - got.T)) <= 1e-15


def test_gram_requires_resolved_bandwidth():
    with pytest.raises(InvalidConfig):
        gram(KernelSpec(), np.zeros((2, 1)), np.zeros((2, 1)))


def test_median_heuristic_matches_brute_force():
    rng = np.random.default_rng(3)
    pts = rng.standard_normal((40, 2))
    dists = [float(np.linalg.norm(pts[i] - pts[j]))
             for i in range(40) for j in range(i + 1, 40)]
    got = median_heuristic(pts, np.random.default_rng(0))
    assert abs(got - float(np.median(dists))) <= 1e-12


def test_median_heuristic_rejects_identical_points():
    pts = np.ones((5, 2))
    with pytest.raises(InvalidConfig):
        median_heuristic(pts, np.random.default_rng(0))


def test_power_rule_value():
    got = power_rule_bandwidth(2.0, 2.0, 1000, 3)
    assert abs(got - 2.0 * 1000 ** (-1.0 / 25.0)) <= 1e-15


def test_resolve_median_and_power_rules():
    rng = np.random.default_rng(4)
    pts = rng.standard_normal((200, 2))
    resolved = KernelSpec().resolve(pts, 200, np.random.default_rng(1))
    assert resolved.is_resolved and resolved.bandwidth > 0
    fixed = KernelSpec(bandwidth=0.9).resolve(pts, 200, np.random.default_rng(1))
    assert fixed.bandwidth == 0.9
    powered = KernelSpec(rule="power_rule", power_c=1.5).resolve(pts, 200,
                                                                 np.random.default_rng(1))
    assert abs(powered.bandwidth - power_rule_bandwidth(1.5, 2.0, 200, 2)) <= 1e-15


def test_kernel_spec_validation():
    with pytest.raises(InvalidConfig):
        KernelSpec(bandwidth=-1.0)
    with pytest.raises(InvalidConfig):
        KernelSpec(rule="guess")
    for bad in (1e400, float("nan"), 0.0, "x", [1.0]):
        with pytest.raises(InvalidConfig, match="bandwidth"):
            KernelSpec(bandwidth=bad)
    assert KernelSpec(bandwidth="1.0").bandwidth == 1.0
    for bad in (1e400, 2.5, 0, "10", None):
        with pytest.raises(InvalidConfig, match="landmark_count"):
            KernelSpec(landmark_count=bad)
    assert type(KernelSpec(landmark_count=np.int64(7)).landmark_count) is int
