"""Repeated discrete treatments: Algorithm-style joint fit and effects."""

import numpy as np
import pytest

from latentcause import (
    DimensionMismatch,
    InvalidConfig,
    align_permutation,
    fit_multitreatment,
    mt_ate,
    mt_cate,
    true_ate_multitreatment,
)

from frozen import TWO_STATE_GAMMA_NORMS


def test_fit_recovers_outcome_coefficients(discrete_case):
    scenario, data, _ = discrete_case
    model = fit_multitreatment(data["a1"], data["a2"], data["a3"], data["y"],
                               2, seed=0)
    perm = align_permutation(model.gamma, scenario.gamma)
    assert np.max(np.abs(model.gamma[perm] - scenario.gamma)) <= 0.25
    norms = np.linalg.norm(model.gamma[perm], axis=1)
    assert np.max(np.abs(norms - TWO_STATE_GAMMA_NORMS)) <= 0.25
    assert np.max(np.abs(np.sort(model.priors) - np.sort(scenario.priors))) <= 0.05


def test_ate_near_truth_at_unit_interventions(discrete_case):
    scenario, data, _ = discrete_case
    model = fit_multitreatment(data["a1"], data["a2"], data["a3"], data["y"],
                               2, seed=0)
    got = mt_ate(model, (1, 1, 1))
    want = true_ate_multitreatment(scenario, (1, 1, 1))
    assert abs(got - want) <= 0.2


def test_cate_is_feature_dot(discrete_case):
    scenario, data, _ = discrete_case
    model = fit_multitreatment(data["a1"], data["a2"], data["a3"], data["y"],
                               2, seed=0)
    point = (2.0, 0.0, 3.0)
    xi = np.array([1.0, 2.0, 0.0, 3.0])
    for u in range(2):
        assert abs(mt_cate(model, u, point) - float(model.gamma[u] @ xi)) <= 1e-12
    mix = sum(p * mt_cate(model, u, point)
              for u, p in enumerate(model.priors))
    assert abs(mt_ate(model, point) - mix) <= 1e-12


def test_single_component_reduces_to_ols(discrete_case):
    scenario, data, _ = discrete_case
    model = fit_multitreatment(data["a1"], data["a2"], data["a3"], data["y"],
                               1, seed=0)
    feats = np.column_stack([np.ones(data["y"].shape[0]),
                             data["a1"], data["a2"], data["a3"]])
    want, *_ = np.linalg.lstsq(feats, data["y"], rcond=None)
    assert np.max(np.abs(model.gamma[0] - want)) <= 1e-10


def test_fit_is_deterministic(discrete_case):
    scenario, data, _ = discrete_case
    a = fit_multitreatment(data["a1"], data["a2"], data["a3"], data["y"], 2, seed=3)
    b = fit_multitreatment(data["a1"], data["a2"], data["a3"], data["y"], 2, seed=3)
    assert np.array_equal(a.gamma, b.gamma)
    assert np.array_equal(a.priors, b.priors)


def test_input_validation(discrete_case):
    scenario, data, _ = discrete_case
    with pytest.raises(DimensionMismatch):
        fit_multitreatment(data["a1"], data["a2"], data["a3"][:-1], data["y"], 2)
    bad_y = data["y"].copy()
    bad_y[0] = np.inf
    with pytest.raises(InvalidConfig):
        fit_multitreatment(data["a1"], data["a2"], data["a3"], bad_y, 2)
    model = fit_multitreatment(data["a1"], data["a2"], data["a3"], data["y"],
                               2, seed=0)
    with pytest.raises(InvalidConfig):
        mt_cate(model, 5, (1, 1, 1))
    with pytest.raises(DimensionMismatch, match="exactly three treatment values, got 2"):
        mt_ate(model, (1, 1))
