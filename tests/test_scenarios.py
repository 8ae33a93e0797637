"""Built-in designs: frozen parameters, simulation, and oracle quantities."""

import dataclasses

import numpy as np
import pytest

from latentcause import (
    DimensionMismatch,
    InvalidConfig,
    KernelSpec,
    oracle_discrete_posteriors,
    oracle_posteriors,
    scenario_from_dict,
    scenario_to_dict,
    simulate_multiproxy,
    simulate_multitreatment,
    three_cluster_gaussian,
    true_ate_multiproxy,
    true_ate_multitreatment,
    two_state_discrete,
)

import frozen
from oracles import (
    discrete_posteriors_loop,
    monte_carlo_dose_response,
    proxy_posteriors_loop,
)


def test_three_cluster_parameters_match_frozen_reference():
    s = three_cluster_gaussian()
    assert np.array_equal(s.priors, frozen.THREE_CLUSTER_PRIORS)
    for v in range(3):
        assert np.array_equal(s.means[v], frozen.THREE_CLUSTER_MEANS[v])
    assert s.proxy_sigma == frozen.THREE_CLUSTER_PROXY_SIGMA[0]
    assert np.array_equal(s.alpha, frozen.THREE_CLUSTER_ALPHA)
    assert np.array_equal(s.treatment_var, frozen.THREE_CLUSTER_TREATMENT_VAR)
    assert np.array_equal(s.beta, frozen.THREE_CLUSTER_BETA)
    assert s.outcome_sigma == frozen.THREE_CLUSTER_OUTCOME_SIGMA


def test_two_state_parameters_match_frozen_reference():
    s = two_state_discrete()
    assert np.array_equal(s.priors, frozen.TWO_STATE_PRIORS)
    assert s.levels == frozen.TWO_STATE_LEVELS
    assert np.array_equal(s.gamma, frozen.TWO_STATE_GAMMA)
    for v in range(3):
        em = s.emissions[v]
        assert em.shape == (frozen.TWO_STATE_LEVELS, 2)
        assert np.max(np.abs(em.sum(axis=0) - 1.0)) <= 1e-12


def test_simulate_multiproxy_shapes_and_determinism():
    s = three_cluster_gaussian()
    data, labels = simulate_multiproxy(s, 300, seed=9)
    assert labels.shape == (300,)
    for key in ("z1", "z2", "z3"):
        assert data[key].shape == (300, 3)
    assert data["a"].shape == (300,) and data["y"].shape == (300,)
    again, labels2 = simulate_multiproxy(s, 300, seed=9)
    assert np.array_equal(labels, labels2)
    assert all(np.array_equal(data[k], again[k]) for k in data)
    other, _ = simulate_multiproxy(s, 300, seed=10)
    assert not np.array_equal(data["z1"], other["z1"])


def test_simulate_multiproxy_respects_generating_equations():
    s = three_cluster_gaussian()
    data, labels = simulate_multiproxy(s, 200000, seed=4)
    for u in range(3):
        mask = labels == u
        assert np.max(np.abs(data["z1"][mask].mean(axis=0) - s.means[0][u])) <= 0.02
        resid = data["a"][mask] - data["z1"][mask] @ s.alpha[u]
        assert abs(np.var(resid) - s.treatment_var[u]) <= 0.02
        feats = np.column_stack([np.ones(mask.sum()), data["a"][mask],
                                 data["z1"][mask]])
        out_resid = data["y"][mask] - feats @ s.beta[u]
        assert abs(np.mean(out_resid)) <= 0.02
        assert abs(np.var(out_resid) - s.outcome_sigma ** 2) <= 0.03


def test_simulate_multitreatment_shapes_and_levels():
    s = two_state_discrete()
    data, labels = simulate_multitreatment(s, 500, seed=2)
    for key in ("a1", "a2", "a3"):
        vals = data[key]
        assert vals.shape == (500,)
        assert vals.min() >= 0 and vals.max() < s.levels
    assert data["y"].shape == (500,)
    assert set(np.unique(labels)) <= {0, 1}


def test_oracle_posteriors_match_loop_oracle():
    s = three_cluster_gaussian()
    data, _ = simulate_multiproxy(s, 50, seed=5)
    w = oracle_posteriors(s, data)
    sigma = np.full(3, s.proxy_sigma)
    want = proxy_posteriors_loop(s.priors, s.means, sigma,
                                 data["z1"], data["z2"], data["z3"])
    assert np.max(np.abs(w.weights - want)) <= 1e-12


def test_oracle_discrete_posteriors_rows_sum_to_one():
    s = two_state_discrete()
    data, _ = simulate_multitreatment(s, 120, seed=3)
    w = oracle_discrete_posteriors(s, data)
    assert np.max(np.abs(w.weights.sum(axis=1) - 1.0)) <= 1e-12


def test_oracle_discrete_posteriors_take_more_levels_than_a_fit_tabulates():
    # the fits refuse S^2 above their table budget (S > 2048); the oracle
    # forms no S x S table, so a design with more levels still has posteriors
    rng = np.random.default_rng(4)
    emissions = tuple(rng.dirichlet(np.ones(3000), size=2).T for _ in range(3))
    s = dataclasses.replace(two_state_discrete(), emissions=emissions)
    data, _ = simulate_multitreatment(s, 50, seed=4)
    want = discrete_posteriors_loop(s.priors, s.emissions, data["a1"], data["a2"], data["a3"])
    assert np.max(np.abs(oracle_discrete_posteriors(s, data).weights - want)) <= 1e-12


def _one_column_design():
    """paper-7.1's design on the first coordinate of each view: d = 1."""
    s = three_cluster_gaussian()
    return dataclasses.replace(s, means=tuple(m[:, :1] for m in s.means),
                               alpha=s.alpha[:, :1], beta=s.beta[:, :3])


def test_oracle_posteriors_read_1d_views_as_their_n_by_1_columns():
    s = _one_column_design()
    data, _ = simulate_multiproxy(s, 500, seed=8)
    flat = {**data, **{f"z{v}": data[f"z{v}"].ravel() for v in (1, 2, 3)}}
    got = oracle_posteriors(s, flat).weights
    assert got.shape == (500, 3)
    assert np.array_equal(got, oracle_posteriors(s, data).weights)


def _without(data, key):
    return {name: col for name, col in data.items() if name != key}


def _with_level(data, level):
    a1 = data["a1"].copy()
    a1[0] = level
    return {**data, "a1": a1}


PROXY, DISCRETE = three_cluster_gaussian(), two_state_discrete()

# the shipped oracles read their inputs as the fits do: (call on 40-row draws
# of the proxy and the discrete design, error, message)
ORACLE_REFUSALS = {
    "z2_missing": (lambda p, m: oracle_posteriors(PROXY, _without(p, "z2")),
                   InvalidConfig, "missing the 'z2' column"),
    "views_two_wide": (lambda p, m: oracle_posteriors(PROXY, {**p, "z1": p["z1"][:, :2],
                                                             "z2": p["z2"][:, :2],
                                                             "z3": p["z3"][:, :2]}),
                       DimensionMismatch, "design's 3 columns"),
    "a3_missing": (lambda p, m: oracle_discrete_posteriors(DISCRETE, _without(m, "a3")),
                   InvalidConfig, "missing the 'a3' column"),
    "level_99": (lambda p, m: oracle_discrete_posteriors(DISCRETE, _with_level(m, 99)),
                 InvalidConfig, r"outside 0\.\.4"),
    "level_negative": (lambda p, m: oracle_discrete_posteriors(DISCRETE, _with_level(m, -1)),
                       InvalidConfig, "nonnegative"),
    "ate_text": (lambda p, m: true_ate_multiproxy(PROXY, "x"), InvalidConfig, "must be numbers"),
    "ate_two_levels": (lambda p, m: true_ate_multiproxy(PROXY, [0.0, 1.0]),
                       DimensionMismatch, "one treatment level"),
    "mt_ate_text": (lambda p, m: true_ate_multitreatment(DISCRETE, ("x", 1, 1)),
                    InvalidConfig, "must be numbers"),
    "mt_ate_two_levels": (lambda p, m: true_ate_multitreatment(DISCRETE, (1, 1)),
                          DimensionMismatch, "treatment vector must have three entries"),
}


@pytest.mark.parametrize("case", list(ORACLE_REFUSALS))
def test_oracles_refuse_malformed_inputs_with_typed_errors(case):
    call, error, message = ORACLE_REFUSALS[case]
    proxy_data, _ = simulate_multiproxy(PROXY, 40, seed=9)
    discrete_data, _ = simulate_multitreatment(DISCRETE, 40, seed=9)
    with pytest.raises(error, match=message):
        call(proxy_data, discrete_data)


def test_true_ate_multiproxy_slope():
    s = three_cluster_gaussian()
    slope = true_ate_multiproxy(s, 1.0) - true_ate_multiproxy(s, 0.0)
    assert abs(slope - frozen.THREE_CLUSTER_ATE_SLOPE) <= 1e-12


def test_true_ate_matches_monte_carlo_oracle():
    s = three_cluster_gaussian()

    def draw(rng, size):
        u = rng.choice(s.n_states, size=size, p=s.priors)
        return u, s.means[0][u] + s.proxy_sigma * rng.standard_normal((size, s.dim))

    def psi(a, z):
        return np.column_stack([np.ones(z.shape[0]), np.full(z.shape[0], a), z])

    value, se = monte_carlo_dose_response(draw, s.beta, psi, s.priors, 0.7,
                                          draws=200_000, seed=12)
    assert abs(true_ate_multiproxy(s, 0.7) - value) <= 4.0 * se


def test_true_ate_multitreatment_at_ones():
    s = two_state_discrete()
    assert abs(true_ate_multitreatment(s, (1, 1, 1))
               - frozen.TWO_STATE_ATE_AT_ONES) <= 1e-12


def test_simulate_rejects_negative_n():
    with pytest.raises(InvalidConfig):
        simulate_multiproxy(three_cluster_gaussian(), -1)
    for bad in (True, 2.5, "10"):
        with pytest.raises(InvalidConfig, match="n must be a nonnegative integer"):
            simulate_multitreatment(two_state_discrete(), bad)


# (design, key path into its scenario document, edit of the value there, error,
# message or None): one case per refusal in the two scenario checks, then
# non-numeric values, malformed shapes and scales that are not one number
@pytest.mark.parametrize("design, keys, edit, error, message", [
    pytest.param(three_cluster_gaussian, ("priors",), lambda p: [0.5, 0.5, 0.5],
                 InvalidConfig, None, id="proxy-priors-sum"),
    pytest.param(three_cluster_gaussian, ("means",), lambda m: m[:2],
                 DimensionMismatch, None, id="proxy-two-mean-matrices"),
    pytest.param(three_cluster_gaussian, ("means",), lambda m: [v[:2] for v in m],
                 DimensionMismatch, None, id="proxy-mean-rows"),
    pytest.param(three_cluster_gaussian, ("alpha",), lambda a: a[:2],
                 DimensionMismatch, None, id="proxy-alpha-shape"),
    pytest.param(three_cluster_gaussian, ("beta",), lambda b: [row[:-1] for row in b],
                 DimensionMismatch, None, id="proxy-beta-shape"),
    pytest.param(three_cluster_gaussian, ("treatment_var", 1), lambda v: 0.0,
                 InvalidConfig, None, id="proxy-treatment-variance"),
    pytest.param(three_cluster_gaussian, ("outcome_sigma",), lambda s: -1.0,
                 InvalidConfig, None, id="proxy-noise-scale"),
    pytest.param(three_cluster_gaussian, ("priors", 0), lambda p: float("nan"),
                 InvalidConfig, None, id="proxy-nan-prior"),
    pytest.param(three_cluster_gaussian, ("means", 1, 0, 2), lambda m: float("inf"),
                 InvalidConfig, None, id="proxy-inf-mean"),
    pytest.param(two_state_discrete, ("priors",), lambda p: [0.7, 0.7],
                 InvalidConfig, None, id="discrete-priors-sum"),
    pytest.param(two_state_discrete, ("emissions", 2), lambda e: e[:-1],
                 DimensionMismatch, None, id="discrete-emission-shapes"),
    pytest.param(two_state_discrete, ("emissions",),
                 lambda ems: [[row + [0.0] for row in e] for e in ems],
                 DimensionMismatch, None, id="discrete-emission-columns"),
    pytest.param(two_state_discrete, ("emissions", 0, 0, 0), lambda v: -0.1,
                 InvalidConfig, None, id="discrete-emission-not-stochastic"),
    pytest.param(two_state_discrete, ("emissions", 1),
                 lambda e: [[row[0], row[0]] for row in e],
                 InvalidConfig, None, id="discrete-emission-rank"),
    pytest.param(two_state_discrete, ("gamma",), lambda g: [row[:3] for row in g],
                 DimensionMismatch, None, id="discrete-gamma-shape"),
    pytest.param(two_state_discrete, ("noise_sigma",), lambda s: 0.0,
                 InvalidConfig, None, id="discrete-noise-scale"),
    pytest.param(two_state_discrete, ("emissions", 0, 0, 1), lambda v: float("nan"),
                 InvalidConfig, None, id="discrete-nan-emission"),
    pytest.param(two_state_discrete, ("gamma", 0, 0), lambda g: "x",
                 InvalidConfig, None, id="discrete-string-gamma"),
    pytest.param(three_cluster_gaussian, ("priors",), lambda p: 1.0,
                 InvalidConfig, "probability vector", id="proxy-scalar-priors"),
    pytest.param(two_state_discrete, ("priors",), lambda p: 1.0,
                 InvalidConfig, "probability vector", id="discrete-scalar-priors"),
    pytest.param(three_cluster_gaussian, ("means",), lambda m: [[0, 0, 0]] * 3,
                 DimensionMismatch, "2-d mean matrices", id="proxy-1d-means"),
    pytest.param(two_state_discrete, ("emissions",), lambda ems: [[r[0] for r in e] for e in ems],
                 DimensionMismatch, "2-d emission matrices", id="discrete-1d-emissions"),
    pytest.param(three_cluster_gaussian, ("proxy_sigma",), lambda s: [1, 2],
                 InvalidConfig, "proxy_sigma must be finite and positive", id="proxy-sigma-list"),
    pytest.param(three_cluster_gaussian, ("proxy_sigma",), lambda s: True,
                 InvalidConfig, "proxy_sigma must be finite and positive", id="proxy-sigma-bool"),
    pytest.param(two_state_discrete, ("noise_sigma",), lambda s: [1],
                 InvalidConfig, "noise_sigma must be finite and positive", id="discrete-sigma-list"),
])
def test_scenario_documents_with_bad_fields_are_refused(design, keys, edit, error, message):
    doc = scenario_to_dict(design())
    target = doc
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = edit(target[keys[-1]])
    with pytest.raises(error, match=message):
        scenario_from_dict(doc)


# the four positive scales share one reader: each reads one finite number above
# 0 as a float, and refuses anything else with InvalidConfig naming the scale
SCALES = {
    "bandwidth": lambda v: KernelSpec(bandwidth=v).bandwidth,
    "proxy_sigma": lambda v: dataclasses.replace(PROXY, proxy_sigma=v).proxy_sigma,
    "outcome_sigma": lambda v: dataclasses.replace(PROXY, outcome_sigma=v).outcome_sigma,
    "noise_sigma": lambda v: dataclasses.replace(DISCRETE, noise_sigma=v).noise_sigma,
}
NOT_SCALES = {"numeric-string": "2.5", "bool": True, "numpy-bool": np.True_, "list": [1.5],
              "zero": 0, "negative": -1, "nan": float("nan"), "inf": float("inf"),
              "none": None, "text": "x"}


@pytest.mark.parametrize("value", list(NOT_SCALES.values()), ids=list(NOT_SCALES))
@pytest.mark.parametrize("scale", list(SCALES))
def test_positive_scales_refuse_what_is_not_one_positive_number(scale, value):
    with pytest.raises(InvalidConfig, match=scale):
        SCALES[scale](value)


@pytest.mark.parametrize("scale", list(SCALES))
def test_positive_scales_read_one_positive_number_as_a_float(scale):
    for value in (2, np.int64(2), np.float32(2.0), np.array(2.0)):
        got = SCALES[scale](value)
        assert type(got) is float and got == 2.0
