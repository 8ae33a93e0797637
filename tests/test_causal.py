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
    LatentCauseError,
    KernelSpec,
    PosteriorMatrix,
    SingularSystem,
    UnfittedModel,
    align_permutation,
    density,
    estimate_ate,
    estimate_cate,
    fit_discrete_multiview,
    fit_effects,
    fit_multitreatment,
    fit_multiview,
    mt_ate,
    mt_cate,
    oracle_posteriors,
    posteriors,
    select_rank,
    simulate_multiproxy,
    simulate_multitreatment,
    three_cluster_gaussian,
    true_ate_multiproxy,
    two_state_discrete,
)
from latentcause.causal import (
    _component_means,
    _regressors,
    fit_outcome,
    fit_treatment,
    update_posteriors,
)

from oracles import (
    per_group_mean_sq_residual,
    per_group_ols,
    treatment_updated_row,
)


# --------------------------------------------------------------------------
# regressor layouts
# --------------------------------------------------------------------------

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
    w = PosteriorMatrix(weights=np.full((5, 3), 1.0 / 3.0))
    return ce, mt, part["z1"][:5], part["a"][:5], w


# each case gets (CausalEstimate, MultiTreatmentModel, z rows, a rows, weights)
PREDICTION_EDGES = {
    "regressor_rows": lambda ce, mt, z, a, w: _regressors(np.ones(3), np.ones((4, 1))),
    "cate_wide_z": lambda ce, mt, z, a, w: estimate_cate(ce.outcome, 0, 1.0,
                                                         z=np.zeros(4)),
    "ate_two_levels": lambda ce, mt, z, a, w: estimate_ate(ce, [1.0, 2.0]),
    "mt_cate_two_treatments": lambda ce, mt, z, a, w: mt_cate(mt, 0, (1, 1)),
    "mt_ate_four_treatments": lambda ce, mt, z, a, w: mt_ate(mt, (1, 1, 1, 1)),
}


@pytest.mark.parametrize("case", list(PREDICTION_EDGES))
def test_prediction_inputs_raise_typed_errors(small_models, case):
    with pytest.raises(DimensionMismatch):
        PREDICTION_EDGES[case](*small_models)


# a CausalEstimate where a mixture is expected, and a 3-d z: (call, error, message)
FITTED_INPUT_REFUSALS = {
    "posteriors_of_effects": (lambda ce, mt, z, a, w: posteriors(ce, z, z, z),
                              UnfittedModel, "expected a fitted MixtureEstimate"),
    "density_of_effects": (lambda ce, mt, z, a, w: density(ce, 0, 0, z[0]),
                           UnfittedModel, "expected a fitted MixtureEstimate"),
    "cate_3d_z": (lambda ce, mt, z, a, w: estimate_cate(ce.outcome, 0, 1.0, z=z[None]),
                  DimensionMismatch, "treatment and z inputs must be at most 2-d"),
}


@pytest.mark.parametrize("case", list(FITTED_INPUT_REFUSALS))
def test_fitted_inputs_of_the_wrong_kind_raise_typed_errors(small_models, case):
    call, error, message = FITTED_INPUT_REFUSALS[case]
    with pytest.raises(error, match=message):
        call(*small_models)


def _with_nan(x):
    out = np.array(x, dtype=float)
    out.flat[0] = np.nan
    return out


# each effect summary reads its own treatment and z values and refuses
# non-finite ones; the stages take columns fit_effects has checked
NON_FINITE_INPUTS = {
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


# each public reader of numbers refuses a value that is not one, as it does
# a non-finite value; a string is not a number even when it reads as one, as
# for integer arguments
NON_NUMERIC_INPUTS = {
    "estimate_ate": lambda ce, mt, z, a, w, bad: estimate_ate(ce, bad),
    "estimate_cate": lambda ce, mt, z, a, w, bad: estimate_cate(ce.outcome, 0, bad, z=z[0]),
    "mt_ate": lambda ce, mt, z, a, w, bad: mt_ate(mt, (bad, 1, 1)),
    "mt_cate": lambda ce, mt, z, a, w, bad: mt_cate(mt, 0, (1, bad, 1)),
    "fit_multitreatment_y": lambda ce, mt, z, a, w, bad: fit_multitreatment(
        [0, 1, 1], [1, 0, 1], [0, 0, 1], [bad, 1.0, 2.0], 1),
    "align_permutation": lambda ce, mt, z, a, w, bad: align_permutation(
        [[bad], [1.0]], [[0.0], [1.0]]),
    "select_rank": lambda ce, mt, z, a, w, bad: select_rank([bad, 1.0]),
}


@pytest.mark.parametrize("case, bad", [(case, "x") for case in NON_NUMERIC_INPUTS] + [
    (case, np.nan) for case in ("fit_multitreatment_y", "align_permutation")] + [
    (case, "3") for case in NON_NUMERIC_INPUTS] + [("estimate_ate", b"1")])
def test_non_numeric_input_raises_invalid_config(small_models, case, bad):
    with pytest.raises(InvalidConfig, match="must be (numbers|finite)"):
        NON_NUMERIC_INPUTS[case](*small_models, bad)


def test_all_string_inputs_raise_invalid_config(small_models):
    with pytest.raises(InvalidConfig, match="treatment and z values must be numbers"):
        mt_ate(small_models[1], ("1", "1", "1"))
    with pytest.raises(InvalidConfig, match="singular values must be numbers"):
        select_rank(["3", "1"])


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


_MULTITREATMENT_ROUND_TRIP = """
import sys
import latentcause as lc
data, _ = lc.simulate_multitreatment(lc.two_state_discrete(), 2000, seed=3)
model = lc.fit_multitreatment(data["a1"], data["a2"], data["a3"], data["y"], 2, seed=0)
path = sys.argv[1]
lc.save_model(path, model)
assert lc.mt_ate(lc.load_model(path), (1, 1, 1)) == lc.mt_ate(model, (1, 1, 1))
"""


_KERNEL_AND_WIDE_DISCRETE_FITS = """
import sys
import numpy as np
import latentcause as lc
data, _ = lc.simulate_multiproxy(lc.three_cluster_gaussian(), 600, seed=3)
kernel = lc.KernelSpec(landmark_count=200)
model = lc.fit_effects(data, lc.fit_multiview(data["z1"], data["z2"], data["z3"], 3,
                                              kernel=kernel, seed=0))
lc.scree(data["z1"], data["z2"], kernel=kernel, max_k=5)
path = sys.argv[1]
lc.save_model(path, model)
assert lc.estimate_ate(lc.load_model(path), 1.0) == lc.estimate_ate(model, 1.0)
rng = np.random.default_rng(3)
u = rng.integers(0, 2, size=5000)
views = [np.where(rng.random(5000) < 0.7, 40 * u + rng.integers(0, 40, 5000),
                  rng.integers(0, 80, 5000)) for _ in range(3)]
assert lc.fit_discrete_multiview(*views, 2, seed=0).emissions[0].shape == (80, 2)
"""


def test_import_leaves_scipy_stats_unloaded(tmp_path):
    # the Gaussian densities are written out and the normal equations and the
    # component matching use numpy: neither the import nor a multitreatment
    # fit, its effect and a save/load round trip load any scipy module
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    report = "\nimport sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    for code in ("import latentcause", _MULTITREATMENT_ROUND_TRIP):
        out = subprocess.run([sys.executable, "-c", code + report, str(tmp_path / "mt.json")],
                             capture_output=True, text=True, check=True, env=env)
        assert out.stdout.strip() == "[]", code


def test_no_fit_loads_scipy(tmp_path):
    # the landmark factor, its inverse and the truncated SVD run in numpy: a
    # kernel fit with its effects, scree, a save/load round trip and a
    # discrete fit over more than DENSE_SVD_MAX levels load no scipy module
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    report = "\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", _KERNEL_AND_WIDE_DISCRETE_FITS + report,
                          str(tmp_path / "kernel.json")],
                         capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"


def test_update_posteriors_matches_loop_oracle(proxy_case):
    scenario, data, _ = proxy_case
    w = oracle_posteriors(scenario, data)
    tm = fit_treatment(data["a"], data["z1"], w)
    updated = update_posteriors(w, tm, data["a"], data["z1"])
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
    # numpy's own overflow warning stays inside; only the typed fallback one escapes
    assert [(r.category, str(r.message)) for r in record] == [
        (RuntimeWarning, "1 of 5 rows had no usable treatment likelihood; "
                         "their weights were left as supplied")]
    assert record[0].filename == __file__
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
    for i in range(data["a"].shape[0]):
        means = [float(scenario.alpha[u] @ data["z1"][i]) for u in range(3)]
        want = treatment_updated_row(base.weights[i], float(data["a"][i]),
                                     means, scenario.treatment_var)
        assert np.max(np.abs(updated.weights[i] - want)) <= 1e-10


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
    w = one_hot_weights(labels, 3)
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


def test_estimate_cate_takes_rows(small_models):
    # n rows of (a, z) give the n per-row values; a scalar a broadcasts over z rows
    om = small_models[0].outcome
    rng = np.random.default_rng(3)
    a, z = rng.standard_normal(4), rng.standard_normal((4, 3))
    for level, want in ((a, [estimate_cate(om, 1, ai, zi) for ai, zi in zip(a, z)]),
                        (0.7, [estimate_cate(om, 1, 0.7, zi) for zi in z])):
        got = estimate_cate(om, 1, level, z)
        assert isinstance(want[0], float) and got.shape == (4,)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.fixture(scope="module", params=[{}, {"proxy_sigma": 2.4}], ids=["paper-7.1", "overlap"])
def rescaling_fit(request):
    scenario = dataclasses.replace(three_cluster_gaussian(), **request.param)
    data, _ = simulate_multiproxy(scenario, 1500, seed=1000)
    mixture = fit_multiview(data["z1"], data["z2"], data["z3"], 3,
                            kernel=KernelSpec(bandwidth=1.0, landmark_count=200), seed=0)
    ce = fit_effects(data, mixture)
    assert ce.diagnostics["variance_clamped"] == 0       # a clamp breaks the scaling
    return data, mixture, ce


def _relative_gap(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


def test_outcome_rescaling_maps_the_coefficients(rescaling_fit):
    # y' = 3y - 2 gives beta' = 3 beta - 2 e0 and leaves the treatment stage alone
    data, mixture, ce = rescaling_fit
    cs = fit_effects({**data, "y": 3.0 * data["y"] - 2.0}, mixture)
    want = 3.0 * ce.outcome.beta
    want[:, 0] -= 2.0
    assert _relative_gap(cs.outcome.beta, want) <= 1e-10
    assert np.array_equal(cs.treatment.sigma2, ce.treatment.sigma2)


def test_treatment_rescaling_maps_the_coefficients(rescaling_fit):
    # a' = 2.5a gives alpha' = 2.5 alpha, sigma2' = 6.25 sigma2 and beta'_a = beta_a / 2.5,
    # with the other beta columns unchanged
    data, mixture, ce = rescaling_fit
    cs = fit_effects({**data, "a": 2.5 * data["a"]}, mixture)
    assert cs.diagnostics["variance_clamped"] == 0
    assert _relative_gap(cs.treatment.alpha, 2.5 * ce.treatment.alpha) <= 1e-10
    assert _relative_gap(cs.treatment.sigma2, 6.25 * ce.treatment.sigma2) <= 1e-10
    want = ce.outcome.beta.copy()
    want[:, 1] /= 2.5
    assert _relative_gap(cs.outcome.beta, want) <= 1e-10


def test_single_component_reduces_to_ols(one_hot_weights):
    rng = np.random.default_rng(5)
    n = 400
    z = rng.standard_normal((n, 2))
    a = z @ np.array([1.0, -0.5]) + 0.3 * rng.standard_normal(n)
    y = 2.0 + 1.5 * a + z @ np.array([0.5, 0.25]) + 0.2 * rng.standard_normal(n)
    w = one_hot_weights(np.zeros(n, dtype=int), 1)
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


# fit_effects reads the z1, treatment and outcome columns once, before any
# stage runs; each case edits a copy of the first rows: (edit, error, message)
FIT_EFFECTS_REFUSALS = {
    "z1_nan": (lambda d: {**d, "z1": _with_nan(d["z1"])}, InvalidConfig,
               "view values must be finite"),
    "a_nan": (lambda d: {**d, "a": _with_nan(d["a"])}, InvalidConfig,
              "treatment values must be finite"),
    "a_text": (lambda d: {**d, "a": ["x", *d["a"][1:]]}, InvalidConfig,
               "treatment values must be numbers"),
    "a_numeric_text": (lambda d: {**d, "a": ["3", *d["a"][1:]]}, InvalidConfig,
                       "treatment values must be numbers"),
    "y_nan": (lambda d: {**d, "y": _with_nan(d["y"])}, InvalidConfig,
              "outcome values must be finite"),
    "z1_scalar": (lambda d: {**d, "z1": 1.0}, DimensionMismatch, "view must be 1-d or 2-d"),
    "a_short": (lambda d: {**d, "a": d["a"][1:]}, DimensionMismatch, None),
    "y_short": (lambda d: {**d, "y": d["y"][1:]}, DimensionMismatch, None),
    "no_rows": (lambda d: {key: col[:0] for key, col in d.items()}, EmptyInput, None),
    "a_empty": (lambda d: {**d, "a": d["a"][:0]}, EmptyInput, "no treatment values"),
    "y_empty": (lambda d: {**d, "y": d["y"][:0]}, EmptyInput, "no outcome values"),
}


@pytest.mark.parametrize("case", list(FIT_EFFECTS_REFUSALS))
def test_fit_effects_refuses_bad_treatment_and_outcome(proxy_case, small_models, case):
    _, data, _ = proxy_case
    edit, error, message = FIT_EFFECTS_REFUSALS[case]
    with pytest.raises(error, match=message):
        fit_effects(edit({key: col[:40] for key, col in data.items()}), small_models[0].mixture)


def test_fit_effects_refuses_a_discrete_mixture():
    # paper-7.2's treatments as the three views: the level views would read as
    # n x 1 continuous ones, so the discrete mixture is refused by name first
    data, _ = simulate_multitreatment(two_state_discrete(), 3000, seed=1)
    est = fit_discrete_multiview(data["a1"], data["a2"], data["a3"], 2, seed=0)
    views = {"z1": data["a1"], "z2": data["a2"], "z3": data["a3"], "a": data["a1"]}
    message = "fit_effects takes a fit_multiview .* fit_multitreatment"
    with pytest.raises(InvalidConfig, match=message):
        fit_effects({**data, **views}, est)


def test_fit_effects_requires_complete_data(proxy_case):
    scenario, data, _ = proxy_case
    mixture = fit_multiview(data["z1"], data["z2"], data["z3"], 3,
                            kernel=KernelSpec(bandwidth=1.0), seed=0)
    partial = {k: v for k, v in data.items() if k != "y"}
    with pytest.raises(InvalidConfig):
        fit_effects(partial, mixture)


def test_drawn_small_inputs_fit_finite_or_raise_typed():
    # tiny proxy tables with tied rows and badly scaled outcomes: the kernel
    # pipeline either answers in finite numbers or fails with a LatentCauseError
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    kernel = KernelSpec(bandwidth=1.0, landmark_count=8)

    @st.composite
    def cases(draw):
        n, d, distinct = draw(st.integers(1, 12)), draw(st.integers(1, 2)), draw(st.integers(1, 4))
        points = np.array(draw(st.lists(st.floats(-3, 3), min_size=3 * distinct * d,
                                        max_size=3 * distinct * d))).reshape(3, distinct, d)
        rows = draw(st.lists(st.integers(0, distinct - 1), min_size=n, max_size=n))
        a, y = (np.array(draw(st.lists(st.floats(-3, 3), min_size=n, max_size=n)))
                for _ in range(2))
        data = {"z1": points[0][rows], "z2": points[1][rows], "z3": points[2][rows],
                "a": a, "y": y * draw(st.sampled_from([1.0, 1e-300, 1e300]))}
        return data, draw(st.integers(1, 3))

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(cases())
    def finite_or_typed(case):
        data, k = case
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                est = fit_multiview(data["z1"], data["z2"], data["z3"], k, kernel=kernel, seed=0)
                ce = fit_effects(data, est)
                ate = estimate_ate(ce, 1.0)
        except LatentCauseError:
            return
        assert np.all(np.isfinite(ce.priors)) and np.all(np.isfinite(ce.outcome.beta))
        assert np.isfinite(ate)

    finite_or_typed()
