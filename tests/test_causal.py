"""Weighted regression stages and effect estimation."""

import dataclasses
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from latentcause import (
    DegenerateCluster,
    DimensionMismatch,
    EmptyInput,
    InvalidConfig,
    KernelSpec,
    PosteriorMatrix,
    SingularSystem,
    align_permutation,
    estimate_ate,
    estimate_cate,
    fit_effects,
    fit_multitreatment,
    fit_multiview,
    fit_outcome,
    fit_treatment,
    mt_ate,
    mt_cate,
    oracle_posteriors,
    posteriors,
    true_ate_multiproxy,
    update_posteriors,
)
from latentcause.causal import _component_means, _regressors

from oracles import (
    per_group_mean_sq_residual,
    per_group_ols,
    treatment_updated_row,
)


# --------------------------------------------------------------------------
# regressor layouts
# --------------------------------------------------------------------------

def test_treatment_feature_map_shapes():
    z = np.arange(12.0).reshape(4, 3)
    assert np.array_equal(_regressors(None, z), z)


def test_outcome_feature_map_layout():
    a = np.array([1.0, 2.0])
    z = np.array([[3.0, 4.0], [5.0, 6.0]])
    want = np.array([[1.0, 1.0, 3.0, 4.0], [1.0, 2.0, 5.0, 6.0]])
    assert np.array_equal(_regressors(a, z), want)


def test_outcome_feature_map_broadcasts_fixed_intervention():
    out = _regressors(np.array([2.0]), np.array([[1.0], [2.0], [3.0]]))
    assert out.shape == (3, 3)
    assert np.allclose(out[:, 1], 2.0)


def test_outcome_feature_map_three_treatments():
    a = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    assert np.array_equal(_regressors(a, None), np.column_stack([np.ones(2), a]))


@pytest.fixture(scope="module")
def small_models(proxy_case, discrete_case):
    _, data, _ = proxy_case
    part = {key: value[:600] for key, value in data.items()}
    mixture = fit_multiview(part["z1"], part["z2"], part["z3"], 3,
                            kernel=KernelSpec(bandwidth=1.0, landmark_count=100), seed=0)
    ce = fit_effects(part, mixture)
    _, mt_data, _ = discrete_case
    mt = fit_multitreatment(mt_data["a1"], mt_data["a2"], mt_data["a3"],
                            mt_data["y"], 2, seed=0)
    w = PosteriorMatrix(weights=np.full((5, 3), 1.0 / 3.0), flavor="proxy_only")
    return ce, mt, part["z1"][:5], part["a"][:5], w


# each case gets (CausalEstimate, MultiTreatmentModel, z rows, a rows, weights)
PREDICTION_EDGES = {
    "regressor_rows": lambda ce, mt, z, a, w: _regressors(np.ones(3), np.ones((4, 1))),
    "cate_without_z": lambda ce, mt, z, a, w: estimate_cate(ce.outcome, 0, 1.0),
    "cate_wide_z": lambda ce, mt, z, a, w: estimate_cate(ce.outcome, 0, 1.0,
                                                         z=np.zeros(4)),
    "update_narrow_z": lambda ce, mt, z, a, w: update_posteriors(w, ce.treatment,
                                                                 a, z[:, :2]),
    "ate_two_levels": lambda ce, mt, z, a, w: estimate_ate(ce, [1.0, 2.0]),
    "mt_cate_two_treatments": lambda ce, mt, z, a, w: mt_cate(mt, 0, (1, 1)),
    "mt_ate_four_treatments": lambda ce, mt, z, a, w: mt_ate(mt, (1, 1, 1, 1)),
}


@pytest.mark.parametrize("case", list(PREDICTION_EDGES))
def test_prediction_inputs_raise_typed_errors(small_models, case):
    with pytest.raises(DimensionMismatch):
        PREDICTION_EDGES[case](*small_models)


def _with_nan(x):
    out = np.array(x, dtype=float)
    out.flat[0] = np.nan
    return out


def _updated(w):
    return PosteriorMatrix(weights=w.weights, flavor="treatment_updated")


# every stage and prediction builds its regressors in one place, which
# refuses non-finite treatment or z values
NON_FINITE_INPUTS = {
    "fit_treatment_z": lambda ce, mt, z, a, w: fit_treatment(a, _with_nan(z), w),
    "fit_outcome_a": lambda ce, mt, z, a, w: fit_outcome(_with_nan(a), z, a, _updated(w)),
    "fit_outcome_z": lambda ce, mt, z, a, w: fit_outcome(a, _with_nan(z), a, _updated(w)),
    "update_posteriors_z": lambda ce, mt, z, a, w: update_posteriors(
        w, ce.treatment, a, _with_nan(z)),
    "cate_a": lambda ce, mt, z, a, w: estimate_cate(ce.outcome, 0, np.nan, z=z[0]),
    "cate_z": lambda ce, mt, z, a, w: estimate_cate(ce.outcome, 0, 1.0,
                                                    z=_with_nan(z[0])),
    "ate_nan": lambda ce, mt, z, a, w: estimate_ate(ce, np.nan),
    "ate_inf": lambda ce, mt, z, a, w: estimate_ate(ce, np.inf),
    "mt_ate": lambda ce, mt, z, a, w: mt_ate(mt, (np.nan, 1, 1)),
    "mt_cate": lambda ce, mt, z, a, w: mt_cate(mt, 0, (1, -np.inf, 1)),
}


@pytest.mark.parametrize("case", list(NON_FINITE_INPUTS))
def test_non_finite_treatment_or_z_raises_invalid_config(small_models, case):
    with pytest.raises(InvalidConfig, match="treatment and z values must be finite"):
        NON_FINITE_INPUTS[case](*small_models)


# --------------------------------------------------------------------------
# treatment stage
# --------------------------------------------------------------------------

def test_one_hot_treatment_mean_equals_per_group_ols(proxy_case, one_hot_weights):
    scenario, data, labels = proxy_case
    w = one_hot_weights(labels, 3)
    alpha = fit_treatment(data["a"], data["z1"], w).alpha
    want = per_group_ols(data["z1"], data["a"], labels, 3)
    assert np.max(np.abs(alpha - want)) <= 1e-10


def test_one_hot_variance_equals_per_group_residual(proxy_case, one_hot_weights):
    scenario, data, labels = proxy_case
    w = one_hot_weights(labels, 3)
    tm = fit_treatment(data["a"], data["z1"], w)
    alpha, sigma2 = tm.alpha, tm.sigma2
    want = per_group_mean_sq_residual(data["z1"], data["a"], labels, alpha, 3)
    assert np.max(np.abs(sigma2 - want)) <= 1e-10


def test_fit_treatment_recovers_generating_coefficients(proxy_case):
    scenario, data, labels = proxy_case
    w = oracle_posteriors(scenario, data)
    tm = fit_treatment(data["a"], data["z1"], w)
    perm = align_permutation(tm.alpha, scenario.alpha)
    assert np.max(np.abs(tm.alpha[perm] - scenario.alpha)) <= 0.15
    assert np.max(np.abs(tm.sigma2[perm] - scenario.treatment_var)) <= 0.15


def test_treatment_density_matches_normal_formula(proxy_case):
    # update_posteriors weighs each component by the normal density of a
    # around alpha_u . z with variance sigma2_u
    scenario, data, _ = proxy_case
    w = oracle_posteriors(scenario, data)
    tm = fit_treatment(data["a"], data["z1"], w)
    z, a = data["z1"], data["a"]
    updated = update_posteriors(w, tm, a, z).weights
    for i in range(5):
        means = z[i] @ tm.alpha.T
        dens = (np.exp(-0.5 * (a[i] - means) ** 2 / tm.sigma2)
                / np.sqrt(2 * np.pi * tm.sigma2))
        want = w.weights[i] * dens / (w.weights[i] @ dens)
        assert np.max(np.abs(updated[i] - want)) <= 1e-12
        assert np.max(np.abs(updated[i] - treatment_updated_row(
            w.weights[i], float(a[i]), means, tm.sigma2))) <= 1e-12


def test_import_leaves_scipy_stats_unloaded():
    # the Gaussian densities are written out, so importing the package
    # need not pay for loading scipy.stats
    code = "import sys, latentcause; print('scipy.stats' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "False"


def test_update_posteriors_matches_loop_oracle(proxy_case):
    scenario, data, _ = proxy_case
    w = oracle_posteriors(scenario, data)
    tm = fit_treatment(data["a"], data["z1"], w)
    updated = update_posteriors(w, tm, data["a"], data["z1"])
    assert updated.flavor == "treatment_updated"
    for i in range(50):
        means = [float(tm.alpha[u] @ data["z1"][i]) for u in range(3)]
        want = treatment_updated_row(w.weights[i], float(data["a"][i]),
                                     means, tm.sigma2)
        assert np.max(np.abs(updated.weights[i] - want)) <= 1e-12


def test_update_posteriors_leaves_overflowing_rows_as_supplied(small_models):
    ce, _, z, a, w = small_models
    z = z.copy()
    z[2] = 1e200                         # finite, but its Gaussian likelihood overflows
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        updated = update_posteriors(w, ce.treatment, a, z)
    ours = [r for r in record if "left as supplied" in str(r.message)]
    assert [str(r.message) for r in ours] == [
        "1 of 5 rows had no usable treatment likelihood; "
        "their weights were left as supplied"]
    assert ours[0].filename == __file__
    assert updated.fallback_count == 1
    assert np.array_equal(updated.weights[2], w.weights[2])
    assert not np.array_equal(updated.weights[0], w.weights[0])


def test_update_posteriors_is_oracle_fixed_point(proxy_case):
    # feeding the true treatment parameters reproduces the closed-form
    # treatment-updated oracle posteriors
    scenario, data, _ = proxy_case
    base = oracle_posteriors(scenario, data)
    tm = fit_treatment(data["a"], data["z1"], base)
    truth = dataclasses.replace(tm, alpha=scenario.alpha,
                                sigma2=scenario.treatment_var)
    updated = update_posteriors(base, truth, data["a"], data["z1"])
    want = oracle_posteriors(scenario, data, flavor="treatment_updated")
    assert np.max(np.abs(updated.weights - want.weights)) <= 1e-10


def test_fit_treatment_rejects_updated_flavor(proxy_case):
    scenario, data, _ = proxy_case
    w = oracle_posteriors(scenario, data, flavor="treatment_updated")
    with pytest.raises(InvalidConfig):
        fit_treatment(data["a"], data["z1"], w)


def test_variance_floor_clamps_deterministic_treatment(one_hot_weights):
    rng = np.random.default_rng(0)
    z = rng.standard_normal((200, 2))
    labels = rng.integers(0, 2, size=200)
    alpha = np.array([[1.0, -1.0], [0.5, 2.0]])
    a = np.einsum("ij,ij->i", z, alpha[labels])
    w = one_hot_weights(labels, 2)
    with pytest.warns(RuntimeWarning, match="variance"):
        tm = fit_treatment(a, z, w)
    assert np.all(tm.sigma2 == 1e-6)
    assert tm.diagnostics["variance_clamped"] == 2


# --------------------------------------------------------------------------
# outcome stage and effects
# --------------------------------------------------------------------------

def fitted_estimate(scenario, data, seed=0):
    mixture = fit_multiview(data["z1"], data["z2"], data["z3"], 3,
                            kernel=KernelSpec(bandwidth=1.0), seed=seed)
    return fit_effects(data, mixture)


def test_one_hot_outcome_equals_per_group_ols(proxy_case, one_hot_weights):
    scenario, data, labels = proxy_case
    w = one_hot_weights(labels, 3, flavor="treatment_updated")
    om = fit_outcome(data["a"], data["z1"], data["y"], w)
    feats = np.column_stack([np.ones(labels.shape[0]), data["a"], data["z1"]])
    want = per_group_ols(feats, data["y"], labels, 3)
    assert np.max(np.abs(om.beta - want)) <= 1e-10


def test_fit_effects_recovers_slopes_and_ate(proxy_case):
    scenario, data, _ = proxy_case
    ce = fitted_estimate(scenario, data)
    perm = align_permutation(ce.outcome.beta, scenario.beta)
    slopes = ce.outcome.beta[perm, 1]
    assert np.max(np.abs(slopes - scenario.beta[:, 1])) <= 0.35
    got = estimate_ate(ce, 1.0) - estimate_ate(ce, 0.0)
    want = true_ate_multiproxy(scenario, 1.0) - true_ate_multiproxy(scenario, 0.0)
    assert abs(got - want) <= 0.3


def test_estimate_ate_stored_and_data_paths_agree(proxy_case):
    # the stored means the dose response reads are the proxy-posterior
    # weighted averages of z1 over the training rows
    scenario, data, _ = proxy_case
    ce = fitted_estimate(scenario, data)
    w = posteriors(ce.mixture, data["z1"], data["z2"], data["z3"]).weights
    want = (w.T @ data["z1"]) / w.sum(axis=0)[:, None]
    assert np.max(np.abs(ce.z_feature_means - want)) <= 1e-12
    feats = np.column_stack([np.ones(3), np.full(3, 0.8), want])
    explicit = float(ce.priors @ np.einsum("km,km->k", ce.outcome.beta, feats))
    assert abs(estimate_ate(ce, 0.8) - explicit) <= 1e-10


def test_estimate_ate_affine_in_intervention(proxy_case):
    scenario, data, _ = proxy_case
    ce = fitted_estimate(scenario, data)
    lam = 0.3
    a1, a2 = -1.2, 2.4
    mixed = estimate_ate(ce, lam * a1 + (1 - lam) * a2)
    combo = lam * estimate_ate(ce, a1) + (1 - lam) * estimate_ate(ce, a2)
    assert abs(mixed - combo) <= 1e-10


def test_pipeline_is_permutation_equivariant(proxy_case):
    scenario, data, _ = proxy_case
    mixture = fit_multiview(data["z1"], data["z2"], data["z3"], 3,
                            kernel=KernelSpec(bandwidth=1.0), seed=0)
    perm = np.array([2, 0, 1])
    shuffled = dataclasses.replace(
        mixture,
        lambdas=mixture.lambdas[perm],
        coefficients=tuple(c[perm] for c in mixture.coefficients),
    )
    ce = fit_effects(data, mixture)
    cs = fit_effects(data, shuffled)
    assert np.max(np.abs(cs.outcome.beta - ce.outcome.beta[perm])) <= 1e-10
    assert abs(estimate_ate(cs, 0.5) - estimate_ate(ce, 0.5)) <= 1e-10


def test_estimate_cate_matches_feature_dot(proxy_case):
    scenario, data, _ = proxy_case
    ce = fitted_estimate(scenario, data)
    z = np.array([0.5, -1.0, 2.0])
    got = estimate_cate(ce.outcome, 2, 1.5, z=z)
    want = float(ce.outcome.beta[2] @ np.concatenate(([1.0, 1.5], z)))
    assert abs(got - want) <= 1e-12
    with pytest.raises(InvalidConfig):
        estimate_cate(ce.outcome, 3, 1.5, z=z)
    with pytest.raises(InvalidConfig):
        estimate_cate(ce.outcome, -1, 1.5, z=z)


def test_single_component_reduces_to_ols(one_hot_weights):
    rng = np.random.default_rng(5)
    n = 400
    z = rng.standard_normal((n, 2))
    a = z @ np.array([1.0, -0.5]) + 0.3 * rng.standard_normal(n)
    y = 2.0 + 1.5 * a + z @ np.array([0.5, 0.25]) + 0.2 * rng.standard_normal(n)
    w = one_hot_weights(np.zeros(n, dtype=int), 1, flavor="treatment_updated")
    om = fit_outcome(a, z, y, w)
    feats = np.column_stack([np.ones(n), a, z])
    want, *_ = np.linalg.lstsq(feats, y, rcond=None)
    assert np.max(np.abs(om.beta[0] - want)) <= 1e-10


def test_estimate_ate_argument_validation(proxy_case):
    scenario, data, _ = proxy_case
    ce = fitted_estimate(scenario, data)
    assert estimate_ate(ce, np.array([0.8])) == estimate_ate(ce, 0.8)
    with pytest.raises(DimensionMismatch):
        estimate_ate(ce, np.array([0.8, 1.0]))
    with pytest.raises(DimensionMismatch):
        estimate_ate(ce, [])


def test_component_means_degenerate_cluster(proxy_case):
    _, data, _ = proxy_case
    weights = np.zeros((6, 3))
    weights[:, 0] = 1.0
    with pytest.raises(DegenerateCluster):
        _component_means(weights, data["z1"][:6])


def test_stacked_solver_escalates_ridge_on_collinear_features(one_hot_weights):
    rng = np.random.default_rng(7)
    n = 300
    z = rng.standard_normal((n, 1))
    z_dup = np.column_stack([z[:, 0], z[:, 0]])
    a = z[:, 0] + 0.1 * rng.standard_normal(n)
    w = one_hot_weights(np.zeros(n, dtype=int), 1)
    with pytest.warns(RuntimeWarning, match="ridge"):
        tm = fit_treatment(a, z_dup, w)
    assert tm.diagnostics["ridge"] > 0.0


def test_stacked_solver_raises_when_ridge_ladder_exhausted(one_hot_weights):
    n = 50
    huge = np.full((n, 2), 1e150)
    a = np.ones(n)
    w = one_hot_weights(np.zeros(n, dtype=int), 1)
    with pytest.raises(SingularSystem):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fit_treatment(a, huge, w)


def test_empty_and_nonfinite_inputs_rejected(one_hot_weights):
    w = one_hot_weights(np.zeros(0, dtype=int), 1)
    with pytest.raises(EmptyInput):
        fit_treatment(np.zeros(0), np.zeros((0, 2)), w)
    w2 = one_hot_weights(np.zeros(3, dtype=int), 1, flavor="treatment_updated")
    with pytest.raises(InvalidConfig):
        fit_outcome(np.ones(3), np.ones((3, 1)), np.array([1.0, np.nan, 2.0]), w2)


def test_fit_effects_requires_complete_data(proxy_case):
    scenario, data, _ = proxy_case
    mixture = fit_multiview(data["z1"], data["z2"], data["z3"], 3,
                            kernel=KernelSpec(bandwidth=1.0), seed=0)
    partial = {k: v for k, v in data.items() if k != "y"}
    with pytest.raises(InvalidConfig):
        fit_effects(partial, mixture)
