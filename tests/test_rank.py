"""Rank diagnostics: cross-view spectra and the gap selector."""

import numpy as np
import pytest

from latentcause import (
    DimensionMismatch,
    InvalidConfig,
    KernelSpec,
    fit_discrete_multiview,
    posteriors,
    scree,
    scree_discrete,
    select_rank,
    simulate_multiproxy,
    simulate_multitreatment,
    three_cluster_gaussian,
    two_state_discrete,
)

from oracles import discrete_cross_moment


def test_select_rank_picks_largest_gap():
    assert select_rank(np.array([10.0, 8.0, 6.0, 0.5, 0.4])) == 3
    assert select_rank(np.array([5.0, 0.1])) == 1
    assert select_rank(np.array([3.0, 2.9, 0.3, 0.29, 0.28])) == 2


def test_select_rank_handles_zero_tail():
    assert select_rank(np.array([4.0, 2.0, 0.0, 0.0])) == 2


def test_select_rank_needs_two_values():
    with pytest.raises(InvalidConfig):
        select_rank(np.array([1.0]))


@pytest.mark.parametrize("values", [[np.nan, 1.0], [None, 1.0], ["x", 1.0], [1.0, -2.0, 0.5]],
                         ids=["nan", "none", "string", "negative"])
def test_select_rank_refuses_values_that_are_not_singular_values(values):
    with pytest.raises(InvalidConfig):
        select_rank(values)


def test_scree_recovers_three_cluster_rank():
    scenario = three_cluster_gaussian()
    hits = 0
    for seed in range(3):
        data, _ = simulate_multiproxy(scenario, 2000, seed=100 + seed)
        sv = scree(data["z1"], data["z2"], kernel=KernelSpec(bandwidth=1.0),
                   max_k=8, seed=seed)
        assert sv.shape == (8,)
        assert np.all(np.diff(sv) <= 1e-12)
        hits += (select_rank(sv) == 3)
    assert hits == 3


def test_scree_single_component_selects_one():
    rng = np.random.default_rng(21)
    z1 = rng.standard_normal((2000, 3)) * 0.8 + np.array([1.0, -2.0, 0.5])
    z2 = rng.standard_normal((2000, 3)) * 0.8 + np.array([0.5, 1.0, -1.0])
    sv = scree(z1, z2, kernel=KernelSpec(bandwidth=1.0), max_k=8, seed=0)
    assert select_rank(sv) == 1


def test_scree_discrete_recovers_two_state_rank():
    scenario = two_state_discrete()
    data, _ = simulate_multitreatment(scenario, 2000, seed=0)
    sv = scree_discrete(data["a1"], data["a2"], max_k=5)
    assert select_rank(sv) == 2


def test_scree_discrete_exact_rank_k_cutoff():
    # pair counts built as a sum of two rank-1 blocks give an empirical
    # cross moment of rank exactly 2 over four levels per view; past K the
    # spectrum must vanish at machine precision
    counts = np.zeros((4, 4), dtype=int)
    counts[:2, :2] = np.outer([1, 2], [3, 1])
    counts[2:, 2:] = np.outer([2, 1], [1, 2])
    pairs = [(i, j) for i in range(4) for j in range(4)
             for _ in range(counts[i, j])]
    a1 = np.array([p[0] for p in pairs])
    a2 = np.array([p[1] for p in pairs])
    sv = scree_discrete(a1, a2, max_k=4)
    assert sv.shape[0] == 4
    assert sv[2] <= 1e-10 * sv[0]
    assert select_rank(sv) == 2


def test_scree_discrete_matches_moment_oracle_shape():
    emissions = np.array([
        [0.7, 0.1],
        [0.2, 0.2],
        [0.1, 0.7],
    ])
    priors = np.array([0.5, 0.5])
    cross = discrete_cross_moment(priors, emissions, emissions)
    marg = cross.sum(axis=1)
    core = cross / np.sqrt(marg)[:, None] / np.sqrt(marg)[None, :]
    pop_sv = np.linalg.svd(core, compute_uv=False)
    assert abs(pop_sv[0] - 1.0) <= 1e-12
    assert pop_sv[2] <= 1e-12

    rng = np.random.default_rng(8)
    n = 20000
    u = rng.choice(2, size=n, p=priors)
    draw = lambda: np.array([rng.choice(3, p=emissions[:, i]) for i in u])
    sv = scree_discrete(draw(), draw(), max_k=3)
    assert np.max(np.abs(sv[:2] - pop_sv[:2])) <= 0.05
    assert select_rank(sv) == 2


def test_scree_discrete_validation():
    with pytest.raises(DimensionMismatch):
        scree_discrete(np.array([0, 1]), np.array([0, 1, 2]))
    with pytest.raises(InvalidConfig):
        scree_discrete(np.array([0, -1]), np.array([0, 1]))
    # the level count comes from the data: a fitted estimate fixes it, and
    # scoring a level past it is refused
    views = [np.array([0, 1, 2, 1, 0, 2])] * 3
    est = fit_discrete_multiview(*views, 1, seed=0)
    with pytest.raises(InvalidConfig):
        posteriors(est, np.array([0, 5]), np.array([0, 1]), np.array([1, 2]))


def test_scree_max_k_caps_output():
    scenario = three_cluster_gaussian()
    data, _ = simulate_multiproxy(scenario, 500, seed=1)
    sv = scree(data["z1"], data["z2"], kernel=KernelSpec(bandwidth=1.0),
               max_k=4, seed=0)
    assert sv.shape == (4,)
    assert np.array_equal(scree(data["z1"], data["z2"], max_k=4, seed=0), sv)
