"""Tensor layer: whitening, the whitened third moment, and its decomposition."""

import dataclasses
import itertools

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from latentcause import (
    DegenerateSpectrum,
    KernelSpec,
    NonConvergence,
    fit_multiview,
    simulate_multiproxy,
    three_cluster_gaussian,
)
from latentcause import mixture, tensor_spectral
from latentcause.tensor_spectral import (
    build_whitener,
    robust_power_method,
    whitened_third_moment,
)

from oracles import planted_orthogonal_tensor, third_moment_loop


def _symmetrized(raw):
    return sum(raw.transpose(p) for p in itertools.permutations(range(3))) / 6.0


def _restarted_power_method(t, k, seed, restarts=50, iters=200, tol=1e-10):
    """Reference: restarted tensor power iteration with deflation.

    For each component, v <- T(I, v, v) / ||.|| runs from ``restarts`` seeded
    unit starts; the converged start with the largest T(v, v, v) wins and is
    deflated before the next component.
    """
    work = t.copy()
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    starts = root.spawn(k * restarts)
    lambdas, vectors = np.zeros(k), np.zeros((k, t.shape[0]))
    for j in range(k):
        best_lam, best_vec = None, None
        for r in range(restarts):
            v = np.random.default_rng(starts[j * restarts + r]).standard_normal(t.shape[0])
            v /= np.linalg.norm(v)
            for _ in range(iters):
                step = np.einsum("ijk,j,k->i", work, v, v)
                step /= np.linalg.norm(step)
                done = np.linalg.norm(step - v) < tol
                v = step
                if done:
                    break
            else:
                continue
            lam = float(np.einsum("ijk,i,j,k->", work, v, v, v))
            if lam < 0.0:
                lam, v = -lam, -v
            if best_lam is None or lam > best_lam:
                best_lam, best_vec = lam, v
        lambdas[j], vectors[j] = best_lam, best_vec
        work -= best_lam * np.einsum("i,j,k->ijk", best_vec, best_vec, best_vec)
    return lambdas, vectors, float(np.linalg.norm(work))


def _noisy_planted(rng, k, noise=1e-3):
    basis = np.linalg.qr(rng.standard_normal((k, k)))[0]
    lambdas = rng.uniform(1.0, 3.0, size=k)
    t = planted_orthogonal_tensor(lambdas, basis.T)
    return t + noise * _symmetrized(rng.standard_normal((k, k, k)))


def _parity_gap(t, k, seed):
    """Largest relative gap of eigenpairs, in order, against the reference."""
    eig = robust_power_method(t, k, seed=seed)
    lam, vec, residual = _restarted_power_method(t, k, seed)
    return max(float(np.max(np.abs(eig.lambdas - lam)) / np.max(lam)),
               float(np.max(np.abs(eig.vectors - vec))),
               abs(eig.residual - residual) / np.max(lam))


def test_symmetrize_produces_full_permutation_symmetry():
    rng = np.random.default_rng(1)
    t = whitened_third_moment(*(rng.standard_normal((30, 4)) for _ in range(3)))
    for perm in ((0, 2, 1), (1, 0, 2), (2, 1, 0), (1, 2, 0), (2, 0, 1)):
        assert np.max(np.abs(t - np.transpose(t, perm))) <= 1e-12


def test_third_moment_matches_loop_oracle():
    rng = np.random.default_rng(7)
    xi = [rng.standard_normal((20, 3)) for _ in range(3)]
    got = whitened_third_moment(*xi)
    want = third_moment_loop(*xi)
    assert np.max(np.abs(got - want)) <= 1e-12


def test_whitener_orders_descending_and_reconstructs():
    rng = np.random.default_rng(3)
    basis, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    spectrum = np.array([4.0, 2.5, 1.0, 0.2, 0.05])
    m = (basis * spectrum) @ basis.T
    w_map, w_spectrum = build_whitener(m, 3)
    assert np.allclose(w_spectrum, spectrum[:3], atol=1e-12)
    vecs = w_map * np.sqrt(w_spectrum)[None, :]
    recon = (vecs * w_spectrum) @ vecs.T + (basis[:, 3:] * spectrum[3:]) @ basis[:, 3:].T
    assert np.max(np.abs(recon - m)) <= 1e-10


@pytest.mark.parametrize("diag", [(1.0, 1e-14, 1e-15), (0.0, 0.0, 0.0), (0.0, 0.0, -1.0)],
                         ids=["tiny_tail", "zero", "no_positive"])
def test_whitener_raises_on_degenerate_spectrum(diag):
    with pytest.raises(DegenerateSpectrum):
        build_whitener(np.diag(diag), 2)


def test_whitener_identity():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((500, 6))
    m = x.T @ x / 500
    w_map, _ = build_whitener(m, 4)
    gram = w_map.T @ m @ w_map
    assert np.max(np.abs(gram - np.eye(4))) <= 1e-8


def test_power_method_recovers_planted_orthogonal_decomposition():
    rng = np.random.default_rng(5)
    basis, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    lambdas = np.array([3.0, 2.0, 1.2, 0.7])
    t = planted_orthogonal_tensor(lambdas, basis.T)
    eig = robust_power_method(t, 4, seed=2)
    order = np.argsort(eig.lambdas)[::-1]
    got_l = eig.lambdas[order]
    got_v = eig.vectors[order]
    assert np.max(np.abs(got_l - lambdas)) <= 1e-9
    for row, truth in zip(got_v, basis.T):
        aligned = row if row @ truth > 0 else -row
        assert np.max(np.abs(aligned - truth)) <= 1e-9
    assert eig.residual <= 1e-9


def test_power_method_rank_one_recovery():
    v = np.array([0.6, -0.8, 0.0])
    t = planted_orthogonal_tensor([2.0], [v])
    eig = robust_power_method(t, 1, seed=0)
    assert abs(eig.lambdas[0] - 2.0) <= 1e-9
    row = eig.vectors[0] if eig.vectors[0] @ v > 0 else -eig.vectors[0]
    assert np.max(np.abs(row - v)) <= 1e-9


def test_power_method_is_deterministic_in_seed():
    rng = np.random.default_rng(9)
    basis, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    t = planted_orthogonal_tensor([2.0, 1.0, 0.5], basis.T)
    a = robust_power_method(t, 3, seed=4)
    b = robust_power_method(t, 3, seed=4)
    assert np.array_equal(a.lambdas, b.lambdas)
    assert np.array_equal(a.vectors, b.vectors)


@pytest.mark.parametrize("t, k", [
    (planted_orthogonal_tensor([2.0], [[0.6, -0.8]]), 2),
    (np.zeros((3, 3, 3)), 1),
], ids=["rank_one_at_k2", "zero_tensor"])
def test_power_method_raises_when_tensor_carries_fewer_than_k(t, k):
    with pytest.raises(DegenerateSpectrum):
        robust_power_method(t, k, seed=0)


def test_power_method_raises_when_polish_does_not_settle(monkeypatch):
    t = _noisy_planted(np.random.default_rng(4), 3)
    monkeypatch.setattr(tensor_spectral, "POWER_ITERS", 1)
    with pytest.raises(NonConvergence):
        robust_power_method(t, 3, seed=0)


def test_matches_restarted_power_method_on_300_noisy_planted_tensors():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for i in range(300):
        k = int(rng.integers(2, 6))
        worst = max(worst, _parity_gap(_noisy_planted(rng, k), k, seed=i))
    assert worst <= 1e-10


def test_matches_restarted_power_method_on_overlap_fit(monkeypatch):
    captured = []

    def record(t, k, seed=0):
        captured.append((t, k, seed))
        return robust_power_method(t, k, seed=seed)

    monkeypatch.setattr(mixture, "robust_power_method", record)
    scenario = dataclasses.replace(three_cluster_gaussian(), proxy_sigma=2.4)
    data, _ = simulate_multiproxy(scenario, 1500, seed=3)
    fit_multiview(data["z1"], data["z2"], data["z3"], 3,
                  kernel=KernelSpec(bandwidth=1.0), seed=0)
    (t, k, seed), = captured
    assert _parity_gap(t, k, seed) <= 1e-10


def test_planted_recovery_is_descending_and_seed_deterministic():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    cases = st.integers(1, 6).flatmap(lambda k: st.tuples(
        st.lists(st.floats(0.5, 5.0), min_size=k, max_size=k),
        st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)))

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(cases)
    def check(case):
        lambdas, basis_seed, seed = case
        k = len(lambdas)
        basis = np.linalg.qr(np.random.default_rng(basis_seed).standard_normal((k, k)))[0]
        t = planted_orthogonal_tensor(lambdas, basis.T)
        eig = robust_power_method(t, k, seed=seed)
        assert np.all(np.diff(eig.lambdas) <= 1e-12)
        rows, cols = linear_sum_assignment(-np.abs(eig.vectors @ basis))
        assert np.max(np.abs(eig.lambdas[rows] - np.asarray(lambdas)[cols])) <= 1e-9
        assert np.max(np.abs(eig.vectors[rows] - basis.T[cols])) <= 1e-9
        again = robust_power_method(t, k, seed=seed)
        assert np.array_equal(eig.lambdas, again.lambdas)
        assert np.array_equal(eig.vectors, again.vectors)

    check()
