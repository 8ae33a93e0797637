"""The numpy landmark factor, its inverse and the Lanczos SVD against LAPACK and numpy."""

import dataclasses

import numpy as np
import pytest
from scipy.linalg.lapack import dpstrf, dtrtri

from latentcause import KernelSpec, simulate_multiproxy, three_cluster_gaussian
from latentcause import mixture
from latentcause.kernels import gram
from latentcause.linalg import _lanczos_svd, _pivoted_cholesky, _triangular_inverse
from latentcause.mixture import PIVOT_FLOOR, _nystrom_features


def _landmark_gram(design, n, landmarks):
    """The first view's landmark gram as fit_multiview(seed=0) draws it."""
    data, _ = simulate_multiproxy(design, n, seed=7)
    rng = np.random.default_rng(mixture._seed_sequence(0).spawn(3)[1])
    z = data["z1"][np.sort(rng.choice(n, size=landmarks, replace=False))]
    return gram(KernelSpec(), z, z)


_REFERENCE_GRAMS = {
    "paper-7.1": lambda: _landmark_gram(three_cluster_gaussian(), 4000, 1000),
    "overlap": lambda: _landmark_gram(
        dataclasses.replace(three_cluster_gaussian(), proxy_sigma=2.4), 4000, 1000),
    "tall": lambda: _landmark_gram(three_cluster_gaussian(), 64000, 250),
}


@pytest.mark.parametrize("design", sorted(_REFERENCE_GRAMS))
def test_landmark_factor_matches_lapack(design):
    # dpstrf's pivots and triangle, and dtrtri's inverse of that triangle
    kmm = _REFERENCE_GRAMS[design]()
    chol, piv, rank, _ = dpstrf(kmm, lower=1, tol=PIVOT_FLOOR)
    got = kmm.copy()
    order, r = _pivoted_cholesky(got, PIVOT_FLOOR)
    assert r == rank and np.array_equal(order[:r], piv[:r] - 1)
    triangle = np.tril(got[:r, :r])
    assert np.max(np.abs(triangle - np.tril(chol[:r, :r]))) <= 1e-12
    inverse, want = _triangular_inverse(triangle.copy()), dtrtri(triangle, lower=1)[0]
    assert np.array_equal(inverse, np.tril(inverse))
    assert np.max(np.abs(inverse - want)) <= 1e-12 * np.max(np.abs(want))


def _c12(design, n, landmarks):
    """Views 1 and 2's whitened cross moment as fit_multiview(seed=0) forms it."""
    data, _ = simulate_multiproxy(design, n, seed=7)
    rng = np.random.default_rng(mixture._seed_sequence(0).spawn(3)[1])
    kernel = KernelSpec(landmark_count=landmarks)
    f1, f2 = (_nystrom_features(data[f"z{v}"], kernel, rng) for v in (1, 2))
    return f1.cross(f2)


@pytest.mark.parametrize("shape", ["square", "tall", "wide"])
def test_lanczos_triplets_match_the_dense_svd(shape):
    k = 4                                           # the core asks for K + 1 at K = 3
    if shape == "square":                           # every landmark kept: r1 = r2
        c = _c12(dataclasses.replace(three_cluster_gaussian(), proxy_sigma=2.4), 2000, 400)
    else:                                           # the pivot floor keeps r1 != r2
        c = _c12(three_cluster_gaussian(), 2000, 1000)
        c = c if (c.shape[0] > c.shape[1]) == (shape == "tall") else c.T
    assert (c.shape[0] == c.shape[1]) == (shape == "square")
    v0 = np.random.default_rng(0).standard_normal(min(c.shape))
    u, s, v = _lanczos_svd(c, k, v0)
    uu, ss, vvt = np.linalg.svd(c)
    assert u.shape == (c.shape[0], k) and v.shape == (c.shape[1], k)
    assert np.max(np.abs(s - ss[:k]) / ss[:k]) <= 1e-12
    signs = np.sign(np.sum(u * uu[:, :k], axis=0))
    assert np.max(np.abs(u * signs - uu[:, :k])) <= 1e-10
    assert np.max(np.abs(v * signs - vvt[:k].T)) <= 1e-10


@pytest.mark.parametrize("spectrum", ["repeated", "rank_two"])
def test_lanczos_passes_repeated_and_missing_singular_values(spectrum):
    # one start vector spans one direction per distinct singular value: a
    # repeat or an exhausted rank restarts the basis from a seeded direction
    rng = np.random.default_rng(31)
    q1, q2 = (np.linalg.qr(rng.standard_normal((n, n)))[0] for n in (120, 90))
    s = np.sort(rng.random(90))[::-1]
    if spectrum == "repeated":
        s[:3] = 2.0
    else:
        s[2:] = 0.0
    c = (q1[:, :90] * s) @ q2.T
    u, got, v = _lanczos_svd(c, 4, np.random.default_rng(0).standard_normal(90))
    assert np.max(np.abs(got - s[:4])) <= 1e-12 * s[0]
    assert np.max(np.abs(c @ v - u * got)) <= 1e-12 * s[0]
