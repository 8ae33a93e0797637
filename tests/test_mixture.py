"""Mixture recovery: spectral fits, posteriors, priors, and alignment."""

import dataclasses
import functools
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from latentcause import (
    DimensionMismatch,
    EmptyInput,
    InvalidConfig,
    KernelSpec,
    LatentCauseError,
    MixtureEstimate,
    NonConvergence,
    PosteriorMatrix,
    RankDeficiency,
    align_permutation,
    density,
    fit_discrete_multiview,
    fit_multitreatment,
    fit_multiview,
    mt_cate,
    oracle_posteriors,
    posteriors,
    run_benchmark,
    scree,
    scree_discrete,
    simulate_multiproxy,
    simulate_multitreatment,
    three_cluster_gaussian,
    two_state_discrete,
)
from latentcause import linalg, mixture
from latentcause.kernels import _BLOCK_CELLS, KernelRows, gram
from latentcause.mixture import (
    _PANEL_CELLS,
    DENSE_SVD_MAX,
    DENSITY_FLOOR,
    _cross_moment_core,
    _LandmarkFeatures,
    _nystrom_features,
    _OneHotFeatures,
    _triple_table,
    priors_from_lambdas,
)
from latentcause.tensor_spectral import (
    build_whitener,
    robust_power_method,
    whitened_third_moment,
)

from frozen import PRIOR_FROM_LAMBDA_TWO
from oracles import (
    DenseRows,
    brute_force_alignment,
    discrete_posteriors_loop,
    materialized,
    population_support_table,
)


def symmetric_views(priors, n, seed, means=(-2.0, 2.0), sigma=0.6):
    rng = np.random.default_rng(seed)
    u = rng.choice(len(priors), size=n, p=priors)
    locs = np.asarray(means)[u]
    return [locs + sigma * rng.standard_normal(n) for _ in range(3)], u


def test_priors_from_lambdas_spot_value():
    raw, usable = priors_from_lambdas(np.array([2.0, 2.0 ** -0.5]))
    assert abs(raw[0] - PRIOR_FROM_LAMBDA_TWO) <= 1e-15
    assert abs(raw[1] - 2.0) <= 1e-12
    assert abs(usable.sum() - 1.0) <= 1e-12


def test_symmetric_fit_recovers_priors_and_raw_contract():
    views, _ = symmetric_views([0.4, 0.6], 6000, seed=0)
    est = fit_multiview(*views, 2, kernel=KernelSpec(bandwidth=0.6), seed=1)
    assert np.max(np.abs(np.sort(est.priors) - np.array([0.4, 0.6]))) <= 0.05
    assert np.max(np.abs(est.priors_raw - est.lambdas ** -2.0)) <= 1e-12


def test_symmetric_fit_posterior_separation():
    views, labels = symmetric_views([0.5, 0.5], 4000, seed=3)
    est = fit_multiview(*views, 2, kernel=KernelSpec(bandwidth=0.6), seed=0)
    w = posteriors(est, *views)
    hard = np.argmax(w.weights, axis=1)
    flips = min(np.mean(hard != labels), np.mean(hard != 1 - labels))
    assert flips <= 0.01


def test_crossmoment_fit_on_three_cluster_design():
    scenario = three_cluster_gaussian()
    data, labels = simulate_multiproxy(scenario, 3000, seed=2)
    est = fit_multiview(data["z1"], data["z2"], data["z3"], 3,
                        kernel=KernelSpec(bandwidth=1.0), seed=0)
    assert abs(est.priors.sum() - 1.0) <= 1e-12
    default = fit_multiview(data["z1"], data["z2"], data["z3"], 3, seed=0)
    assert default.kernel == est.kernel
    assert np.array_equal(default.lambdas, est.lambdas)
    for got, want in zip(default.anchors + default.coefficients,
                         est.anchors + est.coefficients):
        assert np.array_equal(got, want)
    w = posteriors(est, data["z1"], data["z2"], data["z3"])
    oracle = oracle_posteriors(scenario, data)
    perm = align_permutation(w.weights[:200].T, oracle.weights[:200].T)
    mad = float(np.mean(np.abs(w.weights[:, perm] - oracle.weights)))
    assert mad <= 0.05
    assert np.max(np.abs(np.sort(est.priors) - np.sort(scenario.priors))) <= 0.05


def test_posteriors_rows_are_stochastic():
    views, _ = symmetric_views([0.3, 0.7], 2000, seed=8)
    est = fit_multiview(*views, 2, kernel=KernelSpec(bandwidth=0.6), seed=0)
    w = posteriors(est, *views)
    assert np.all(w.weights >= 0.0)
    assert np.max(np.abs(w.weights.sum(axis=1) - 1.0)) <= 1e-12


def test_discrete_fit_and_posterior_oracle_equivalence():
    rng = np.random.default_rng(4)
    priors = np.array([0.35, 0.65])
    emissions = np.array([
        [0.70, 0.05],
        [0.15, 0.10],
        [0.05, 0.10],
        [0.05, 0.15],
        [0.05, 0.60],
    ])
    n = 6000
    u = rng.choice(2, size=n, p=priors)
    views = [np.array([rng.choice(5, p=emissions[:, ui]) for ui in u])
             for _ in range(3)]
    est = fit_discrete_multiview(*views, 2, seed=0)
    perm = align_permutation(np.vstack(est.emissions).T, np.vstack([emissions] * 3).T)
    assert np.max(np.abs(est.priors[perm] - priors)) <= 0.05
    for v in range(3):
        assert np.max(np.abs(est.emissions[v][:, perm] - emissions)) <= 0.06
        cols = est.emissions[v].sum(axis=0)
        assert np.max(np.abs(cols - 1.0)) <= 1e-10

    w = posteriors(est, *views)
    want = discrete_posteriors_loop(est.priors, est.emissions, *views)
    assert np.max(np.abs(w.weights - want)) <= 1e-12


def test_discrete_k1_short_circuit():
    rng = np.random.default_rng(6)
    views = [rng.integers(0, 4, size=500) for _ in range(3)]
    est = fit_discrete_multiview(*views, 1, seed=0)
    assert est.priors.shape == (1,)
    assert abs(est.priors[0] - 1.0) <= 1e-15
    for v in range(3):
        counts = np.bincount(views[v], minlength=4) / 500
        assert np.max(np.abs(est.emissions[v][:, 0] - counts)) <= 1e-12


def test_density_discrete_lookup_and_kernel_positivity():
    rng = np.random.default_rng(9)
    views = [rng.integers(0, 3, size=400) for _ in range(3)]
    est = fit_discrete_multiview(*views, 1, seed=0)
    val = density(est, 0, 0, 1)
    assert abs(val - est.emissions[0][1, 0]) <= 1e-15

    cont, _ = symmetric_views([1.0], 500, seed=1, means=(0.0,), sigma=1.0)
    kest = fit_multiview(*cont, 1, kernel=KernelSpec(bandwidth=1.0), seed=0)
    assert density(kest, 0, 0, np.array([0.0])) > 0.0


def test_recovered_density_mass_is_component_independent():
    # every recovered component density carries the same total mass,
    # sqrt(2 pi) * bandwidth, regardless of its mixing weight
    views, _ = symmetric_views([0.25, 0.75], 8000, seed=12)
    est = fit_multiview(*views, 2, kernel=KernelSpec(bandwidth=0.6), seed=0)
    grid = np.linspace(-6.0, 6.0, 481)
    masses = []
    for c in range(2):
        vals = np.array([density(est, 0, c, np.array([g])) for g in grid])
        masses.append(float(np.trapezoid(vals, grid)))
    expected = np.sqrt(2.0 * np.pi) * 0.6
    assert abs(masses[0] - masses[1]) <= 0.05 * expected
    assert np.max(np.abs(np.array(masses) - expected)) <= 0.08 * expected


def test_rank_deficiency_when_views_lack_components():
    views, _ = symmetric_views([1.0], 1500, seed=10, means=(0.0,), sigma=1.0)
    with pytest.raises((RankDeficiency, DimensionMismatch)):
        fit_multiview(*views, 40, kernel=KernelSpec(bandwidth=1.0,
                                                    landmark_count=30), seed=0)


def test_rank_deficiency_when_view_three_lacks_components():
    # views 1 and 2 carry k components and view 3 one: its span is too narrow to whiten
    data, _ = simulate_multiproxy(three_cluster_gaussian(), 600, seed=3)
    with pytest.raises(RankDeficiency, match="view 3's features have rank 1, below k=2"):
        fit_multiview(data["z1"], data["z2"], np.zeros_like(data["z3"]), 2,
                      kernel=KernelSpec(landmark_count=100), seed=0)


def test_align_permutation_matches_brute_force():
    rng = np.random.default_rng(13)
    for _ in range(20):
        k = int(rng.integers(2, 6))
        ref = rng.standard_normal((k, 3))
        perm_true = rng.permutation(k)
        est = ref[perm_true] + 0.01 * rng.standard_normal((k, 3))
        got = align_permutation(est, ref)
        want, _ = brute_force_alignment(est, ref)
        assert np.array_equal(got, want)


def test_align_permutation_single_component_and_refused_inputs():
    assert np.array_equal(align_permutation([[2.0, 1.0]], [[-1.0, 0.5]]), [0])
    with pytest.raises(DimensionMismatch):
        align_permutation(np.zeros((3, 2)), np.zeros((2, 2)))
    with pytest.raises(InvalidConfig, match="finite"):
        align_permutation([[np.nan], [0.0]], [[1.0], [0.0]])


def test_align_permutation_reaches_the_optimal_cost_at_k30():
    rng = np.random.default_rng(15)
    for _ in range(5):
        est, ref = rng.standard_normal((30, 4)), rng.standard_normal((30, 4))
        cost = np.linalg.norm(est[:, None, :] - ref[None, :, :], axis=2)
        rows, cols = linear_sum_assignment(cost)
        perm = align_permutation(est, ref)
        assert np.array_equal(np.sort(perm), np.arange(30))
        assert abs(cost[perm, np.arange(30)].sum() - cost[rows, cols].sum()) <= 1e-12


def test_align_permutation_recovers_planted_permutation_at_k9():
    rng = np.random.default_rng(14)
    ref = rng.standard_normal((9, 2))
    perm_true = rng.permutation(9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        perm = align_permutation(ref[perm_true], ref)
    assert np.array_equal(perm, np.argsort(perm_true))


def test_kernel_posteriors_fall_back_to_priors_at_the_density_floor():
    est, views = _proxy_fit()
    far = [np.vstack([z[:5], np.full((1, 3), 100.0)]) for z in views]
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        w = posteriors(est, *far)
    assert [str(r.message) for r in record] == [
        "1 of 6 rows had every likelihood at the floor; "
        "their posteriors fall back to the priors"]
    assert record[0].category is RuntimeWarning
    assert record[0].filename == __file__
    assert w.fallback_count == 1
    assert w.fallback.tolist() == [False] * 5 + [True]
    assert np.array_equal(w.weights[5], est.priors)
    assert not np.array_equal(w.weights[0], est.priors)


def test_discrete_posteriors_fall_back_exactly_where_every_likelihood_is_at_the_floor():
    # the fallback contract: finite stochastic rows, the flags exactly where every
    # component is at the floor in all three views, and those rows the priors
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def cases(draw):
        s, k, n = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 12))
        floor = st.sampled_from([0.0, DENSITY_FLOOR / 2, DENSITY_FLOOR])
        emissions = []
        for _ in range(3):
            rows = [draw(st.lists(floor if draw(st.booleans()) else floor | st.floats(1e-3, 1.0),
                                  min_size=k, max_size=k)) for _ in range(s)]
            emissions.append(np.array(rows).reshape(s, k))
        lambdas = draw(st.lists(st.floats(1.0, 4.0), min_size=k, max_size=k))
        est = MixtureEstimate(backend="discrete", lambdas=np.array(lambdas),
                              emissions=tuple(emissions))
        levels = np.array(draw(st.lists(st.integers(0, s - 1), min_size=3 * n,
                                        max_size=3 * n))).reshape(3, n)
        return est, levels

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(cases())
    def check(case):
        est, levels = case
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            w = posteriors(est, *levels)
        assert np.all(np.isfinite(w.weights))
        assert np.max(np.abs(w.weights.sum(axis=1) - 1.0)) <= 1e-12
        floored = np.all([e[a] <= DENSITY_FLOOR for e, a in zip(est.emissions, levels)],
                         axis=(0, 2))
        assert w.fallback.tolist() == floored.tolist()
        assert w.fallback_count == int(floored.sum())
        assert np.array_equal(w.weights[floored], np.tile(est.priors, (int(floored.sum()), 1)))

    check()


def test_posterior_matrix_validation():
    with pytest.raises(InvalidConfig):
        PosteriorMatrix(weights=np.array([[0.5, 0.6]]))
    with pytest.raises(DimensionMismatch):
        PosteriorMatrix(weights=np.ones(3))


# the view and level readers' refusals and a posterior entry above 1:
# (call, error, message)
READER_REFUSALS = {
    "view_3d": (lambda: fit_multiview(*[np.zeros((10, 2, 2))] * 3, 2),
                DimensionMismatch, "view must be 1-d or 2-d"),
    "views_unequal": (lambda: scree(np.zeros((10, 2)), np.zeros((10, 3))),
                      DimensionMismatch, "views must share one shape"),
    "views_empty": (lambda: fit_multiview(*[np.zeros((0, 2))] * 3, 2),
                    EmptyInput, "views contain no samples"),
    "levels_2d": (lambda: fit_discrete_multiview(*[np.zeros((10, 2), dtype=int)] * 3, 2),
                  DimensionMismatch, "categorical views must be 1-d"),
    "levels_empty": (lambda: fit_discrete_multiview(*[np.zeros(0, dtype=int)] * 3, 2),
                     EmptyInput, "views contain no samples"),
    "posterior_entry_1_5": (lambda: PosteriorMatrix(weights=np.array([[1.5, -0.5]])),
                            InvalidConfig, r"entries must lie in \[0, 1\]"),
    "fallback_flags_short": (lambda: PosteriorMatrix(weights=np.full((2, 2), 0.5),
                                                     fallback=np.array([True])),
                             DimensionMismatch, r"a fallback flag per row, got \(1,\)"),
}


@pytest.mark.parametrize("case", list(READER_REFUSALS))
def test_view_and_level_readers_refuse_malformed_arrays(case):
    call, error, message = READER_REFUSALS[case]
    with pytest.raises(error, match=message):
        call()


# fields read as sequences, given a value that cannot be iterated: (call, message)
SEQUENCE_REFUSALS = {
    "means_int": (lambda: dataclasses.replace(three_cluster_gaussian(), means=5),
                  "means must be a sequence, got 5"),
    "means_none": (lambda: dataclasses.replace(three_cluster_gaussian(), means=None),
                   "means must be a sequence, got None"),
    "emissions_int": (lambda: dataclasses.replace(two_state_discrete(), emissions=5),
                      "emissions must be a sequence, got 5"),
    "emissions_none": (lambda: dataclasses.replace(two_state_discrete(), emissions=None),
                       "emissions must be a sequence, got None"),
    "kernel_anchors_int": (lambda: MixtureEstimate(backend="kernel", lambdas=[1.5, 1.5],
                                                   kernel=KernelSpec(), anchors=5,
                                                   coefficients=5),
                           "anchors must be a sequence, got 5"),
    "discrete_emissions_int": (lambda: MixtureEstimate(backend="discrete", lambdas=[1.5, 1.5],
                                                       emissions=5),
                               "emissions must be a sequence, got 5"),
    "benchmark_ns_int": (lambda: run_benchmark("multitreatment", 500, 1),
                         "ns must be a sequence, got 500"),
}


@pytest.mark.parametrize("case", list(SEQUENCE_REFUSALS))
def test_sequence_fields_refuse_what_cannot_be_iterated(case):
    call, message = SEQUENCE_REFUSALS[case]
    with pytest.raises(InvalidConfig, match=message):
        call()


def _fit_with_bad_value(bad):
    views, _ = symmetric_views([0.5, 0.5], 300, seed=15)
    views[1] = list(views[1])                           # a user's plain list
    views[1][7] = bad
    # more rows than landmarks, so the bad value reaches the cross moments
    fit_multiview(*views, 2, kernel=KernelSpec(bandwidth=0.6, landmark_count=50),
                  seed=0)


def _posteriors_with_bad_value(bad):
    views, _ = symmetric_views([0.5, 0.5], 300, seed=15)
    est = fit_multiview(*views, 2, kernel=KernelSpec(bandwidth=0.6), seed=0)
    views[2] = list(views[2])
    views[2][3] = bad
    posteriors(est, *views)


def _posterior_matrix_with_bad_value(bad):
    PosteriorMatrix(weights=np.array([[0.5, 0.5], [bad, 1.0]]))


@functools.lru_cache(maxsize=None)
def _discrete_fit():
    data, _ = simulate_multitreatment(two_state_discrete(), 600, seed=5)
    est = fit_discrete_multiview(data["a1"], data["a2"], data["a3"], 2, seed=0)
    return est, data


LEVELS = two_state_discrete().emissions[0].shape[0]   # S, also the fit's S


def _discrete_posteriors_with_bad_level(bad):
    est, data = _discrete_fit()
    a1 = data["a1"].astype(float)
    a1[4] = bad
    posteriors(est, a1, data["a2"], data["a3"])


def _discrete_density_at_bad_level(bad):
    est, _ = _discrete_fit()
    density(est, 0, 1, bad)


def _scree_with_bad_value(bad):
    views, _ = symmetric_views([0.5, 0.5], 300, seed=15)
    views[0][5] = bad
    scree(views[0], views[1], kernel=KernelSpec(bandwidth=0.6), max_k=3)


def _kernel_scree_with_max_k(max_k):
    views, _ = symmetric_views([0.5, 0.5], 300, seed=15)
    scree(views[0], views[1], kernel=KernelSpec(bandwidth=0.6), max_k=max_k)


def _discrete_scree_with_max_k(max_k):
    data = _discrete_fit()[1]
    scree_discrete(data["a1"], data["a2"], max_k=max_k)


def _discrete_fit_with_k(k):
    data = _discrete_fit()[1]
    fit_discrete_multiview(data["a1"], data["a2"], data["a3"], k, seed=0)


def _kernel_fit_with_k(k):
    views, _ = symmetric_views([0.5, 0.5], 300, seed=15)
    fit_multiview(*views, k, kernel=KernelSpec(bandwidth=0.6), seed=0)


def _mt_cate_of_component(u):
    data = _discrete_fit()[1]
    model = fit_multitreatment(data["a1"], data["a2"], data["a3"], data["y"], 2, seed=0)
    mt_cate(model, u, (1, 1, 1))


def _kernel_density_at_bad_point(bad):
    views, _ = symmetric_views([0.5, 0.5], 300, seed=15)
    est = fit_multiview(*views, 2, kernel=KernelSpec(bandwidth=0.6), seed=0)
    density(est, 0, 0, np.array([bad]))


def _density_of_view(view):
    density(_discrete_fit()[0], view, 0, 1)


def _density_of_component(component):
    density(_discrete_fit()[0], 0, component, 1)


@functools.lru_cache(maxsize=None)
def _proxy_fit():
    data, _ = simulate_multiproxy(three_cluster_gaussian(), 300, seed=5)
    views = [data[f"z{v}"] for v in (1, 2, 3)]
    return fit_multiview(*views, 3, kernel=KernelSpec(bandwidth=1.0), seed=0), views


def _kernel_posteriors_with_columns(cols):
    est, views = _proxy_fit()                            # d = 3
    posteriors(est, *(z[:, :cols] for z in views))


def _kernel_density_with_columns(cols):
    density(_proxy_fit()[0], 0, 0, np.zeros(cols))


def _kernel_density_at_points(count):
    density(_proxy_fit()[0], 0, 0, np.zeros((count, 3)))


def _discrete_density_at_levels(count):
    density(_discrete_fit()[0], 0, 1, np.ones(count, dtype=int))


def _discrete_fit_with_level(bad):
    _, data = _discrete_fit()
    a1 = list(data["a1"])                                # a user's plain list
    a1[4] = bad
    fit_discrete_multiview(a1, data["a2"], data["a3"], 2, seed=0)


def _discrete_posteriors_with_level(bad):
    est, data = _discrete_fit()
    a1 = list(data["a1"])
    a1[4] = bad
    posteriors(est, a1, data["a2"], data["a3"])


def _discrete_estimate_with(emissions):
    est, _ = _discrete_fit()
    ems = est.emissions
    dataclasses.replace(est, emissions={
        "one_column": tuple(e[:, :1] for e in ems),
        "two_views": ems[:2],
        "mixed_levels": (ems[0], ems[1][:-1], ems[2]),
        "negative": (ems[0], -ems[1], ems[2]),
        "nan": (ems[0], ems[1] * np.nan, ems[2]),
    }[emissions])


def _kernel_estimate_with(parts):
    est, _ = _proxy_fit()
    an, co = est.anchors, est.coefficients
    dataclasses.replace(est, **{
        "two_views": dict(anchors=an[:2], coefficients=co[:2]),
        "mixed_dims": dict(anchors=(an[0], an[1][:, :2], an[2])),
        "short_block": dict(coefficients=(co[0], co[1][:, :-1], co[2])),
        "k_minus_1_rows": dict(coefficients=tuple(c[:2] for c in co)),
        "short_lambdas": dict(lambdas=est.lambdas[:2]),
    }[parts])


@pytest.mark.parametrize("build, bad", [
    (_fit_with_bad_value, np.nan),
    (_fit_with_bad_value, np.inf),
    (_fit_with_bad_value, "x"),
    (_posteriors_with_bad_value, np.nan),
    (_posteriors_with_bad_value, -np.inf),
    (_posteriors_with_bad_value, "x"),
    (_posterior_matrix_with_bad_value, np.nan),
    (_discrete_posteriors_with_bad_level, np.nan),
    (_discrete_posteriors_with_bad_level, LEVELS),
    (_discrete_posteriors_with_bad_level, -1),
    (_discrete_posteriors_with_bad_level, 2.5),
    (_discrete_density_at_bad_level, np.nan),
    (_discrete_density_at_bad_level, LEVELS),
    (_discrete_density_at_bad_level, -1),
    (_discrete_density_at_bad_level, 2.5),
    (_scree_with_bad_value, np.nan),
    (_kernel_density_at_bad_point, np.nan),
    (_density_of_view, 3),
    (_density_of_component, 2),                         # K = 2
    (_kernel_posteriors_with_columns, 2),
    (_kernel_density_with_columns, 2),
    (_discrete_fit_with_level, "a"),
    (_discrete_fit_with_level, None),
    (_discrete_posteriors_with_level, "a"),
    (_discrete_posteriors_with_level, None),
    (_discrete_estimate_with, "one_column"),
    (_discrete_estimate_with, "two_views"),
    (_discrete_estimate_with, "mixed_levels"),
    (_discrete_estimate_with, "negative"),
    (_discrete_estimate_with, "nan"),
    (_kernel_estimate_with, "two_views"),
    (_kernel_estimate_with, "mixed_dims"),
    (_kernel_estimate_with, "short_block"),
    (_kernel_estimate_with, "k_minus_1_rows"),
    (_kernel_estimate_with, "short_lambdas"),
    (_kernel_fit_with_k, True),
    (_discrete_fit_with_k, True),
    (_discrete_fit_with_k, 2.5),
    (_mt_cate_of_component, True),
    (_density_of_view, True),
    (_density_of_component, True),
    (_kernel_scree_with_max_k, 2.5),
    (_kernel_scree_with_max_k, "3"),
    (_kernel_scree_with_max_k, True),
    (_discrete_scree_with_max_k, 2.5),
    (_discrete_scree_with_max_k, "3"),
    (_discrete_scree_with_max_k, True),
    (_kernel_density_at_points, 2),                     # density scores one point
    (_discrete_density_at_levels, 2),
])
def test_non_finite_input_raises_typed_error(build, bad):
    with pytest.raises(LatentCauseError):
        build(bad)


_POINTS = np.random.default_rng(0).standard_normal((30, 1))
_LEVELS = np.arange(30) % 3
SEED_CONSUMERS = {
    "fit_multiview": lambda seed: fit_multiview(_POINTS, _POINTS, _POINTS, 2, seed=seed),
    "fit_discrete_multiview_k1": lambda seed: fit_discrete_multiview(
        _LEVELS, _LEVELS, _LEVELS, 1, seed=seed),
    "fit_multitreatment_k1": lambda seed: fit_multitreatment(
        _LEVELS, _LEVELS, _LEVELS, np.arange(30.0), 1, seed=seed),
    "scree": lambda seed: scree(_POINTS, _POINTS, seed=seed),
    "simulate_multiproxy": lambda seed: simulate_multiproxy(
        three_cluster_gaussian(), 10, seed=seed),
    "simulate_multitreatment": lambda seed: simulate_multitreatment(
        two_state_discrete(), 10, seed=seed),
    "run_benchmark": lambda seed: run_benchmark("multitreatment", [50], trials=1,
                                                seed=seed, workers=1),
}


@pytest.mark.parametrize("seed", [-1, 1.5, "7", True, np.random.SeedSequence(3)],
                         ids=["negative", "float", "text", "bool", "seed_sequence"])
@pytest.mark.parametrize("consumer", list(SEED_CONSUMERS))
def test_every_seed_consumer_refuses_a_bad_seed(consumer, seed):
    with pytest.raises(InvalidConfig, match="seed must be a nonnegative integer"):
        SEED_CONSUMERS[consumer](seed)


@pytest.mark.parametrize("k", [1, 2])
def test_discrete_fit_of_a_count_table_is_the_fit_of_its_rows(k):
    data, _ = simulate_multitreatment(two_state_discrete(), 2000, seed=9)
    views = [data[f"a{v}"] for v in (1, 2, 3)]
    table, counts = np.unique(np.column_stack(views), axis=0, return_counts=True)
    # shuffled, with an observed and an unobserved triple at count 0
    table = np.vstack([table, table[:1], [[LEVELS - 1] * 3]])
    counts = np.concatenate([counts, [0, 0]])
    order = np.random.default_rng(0).permutation(len(counts))
    got = fit_discrete_multiview(*table[order].T, k, seed=3, counts=counts[order])
    want = fit_discrete_multiview(*views, k, seed=3)
    assert np.array_equal(got.lambdas, want.lambdas)
    for a, b in zip(got.emissions, want.emissions):
        assert np.array_equal(a, b)
    assert got.diagnostics.keys() == want.diagnostics.keys()
    for key, value in want.diagnostics.items():
        assert np.array_equal(got.diagnostics[key], value), key


@pytest.mark.parametrize("counts, error", [
    (np.ones(599), DimensionMismatch),
    (np.ones((600, 1)), DimensionMismatch),
    (np.full(600, -1), InvalidConfig),
    (np.full(600, 1.5), InvalidConfig),
    (np.full(600, np.nan), InvalidConfig),
    (["1"] * 600, InvalidConfig),
    (np.zeros(600), EmptyInput),
], ids=["short", "column", "negative", "fraction", "nan", "text", "all-zero"])
def test_discrete_fit_refuses_bad_row_counts(counts, error):
    data = _discrete_fit()[1]
    with pytest.raises(error):
        fit_discrete_multiview(data["a1"], data["a2"], data["a3"], 2, counts=counts)


LEVEL_READERS = {
    "fit_discrete_multiview": lambda v: fit_discrete_multiview(v, v, v, 2, seed=0),
    "fit_multitreatment": lambda v: fit_multitreatment(v, v, v, np.ones(v.shape[0]), 2,
                                                       seed=0),
    "scree_discrete": lambda v: scree_discrete(v, v),
}


@pytest.mark.parametrize("levels", [
    np.array([0, 1, 2**63] * 10, dtype=np.uint64),
    np.array([0.0, 1.0, 2.0**63] * 10),
], ids=["uint64", "whole_float"])
@pytest.mark.parametrize("reader", list(LEVEL_READERS))
def test_levels_beyond_int64_are_refused(reader, levels):
    # cast to int64 they wrap negative; no cast warning may leak either
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidConfig):
            LEVEL_READERS[reader](levels)


@pytest.mark.parametrize("reader", list(LEVEL_READERS))
def test_level_counts_beyond_the_table_budget_are_refused(reader):
    levels = np.zeros(1000, dtype=int)
    levels[0] = 10**6                                    # S x S tables of 7.3 TiB
    with pytest.raises(InvalidConfig, match="S = 1000001 levels"):
        LEVEL_READERS[reader](levels)


def test_numpy_integer_seed_fits_as_the_plain_integer():
    data, _ = simulate_multitreatment(two_state_discrete(), 2000, seed=np.int64(7))
    assert np.array_equal(data["y"], simulate_multitreatment(
        two_state_discrete(), 2000, seed=7)[0]["y"])
    views = [data[f"a{v}"] for v in (1, 2, 3)]
    plain, wide = (fit_discrete_multiview(*views, 2, seed=s) for s in (7, np.int64(7)))
    assert type(wide.seed) is int and wide.seed == 7
    assert np.array_equal(plain.lambdas, wide.lambdas)
    for a, b in zip(plain.emissions, wide.emissions):
        assert np.array_equal(a, b)
    z = simulate_multiproxy(three_cluster_gaussian(), 300, seed=3)[0]
    kernel = KernelSpec(bandwidth=1.0, landmark_count=100)
    plain, wide = (fit_multiview(z["z1"], z["z2"], z["z3"], 3, kernel=kernel, seed=s)
                   for s in (7, np.int64(7)))
    assert type(wide.seed) is int
    assert np.array_equal(plain.lambdas, wide.lambdas)
    for a, b in zip(plain.coefficients, wide.coefficients):
        assert np.array_equal(a, b)


def test_discrete_posteriors_score_only_valid_levels():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    est, data = _discrete_fit()
    odd = st.sampled_from([np.nan, np.inf, 2.5, -0.5])

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(st.lists(st.integers(-2, 8) | odd, min_size=1, max_size=8))
    def check(values):
        a1 = np.array(values, dtype=float)
        n = a1.shape[0]
        try:
            w = posteriors(est, a1, data["a2"][:n], data["a3"][:n])
        except LatentCauseError:
            return
        assert all(float(v).is_integer() and 0 <= v < LEVELS for v in values)
        assert np.all(np.isfinite(w.weights))
        assert np.max(np.abs(w.weights.sum(axis=1) - 1.0)) <= 1e-12

    check()


# ---------------------------------------------------------------------------
# the rank-K cross-moment core against the dense m x m construction
# ---------------------------------------------------------------------------

def _dense_pinv_rank(c, k):
    u, s, vt = np.linalg.svd(c, full_matrices=False)
    if s.shape[0] < k or s[k - 1] < 1e-10 * max(s[0], 1e-300):
        raise RankDeficiency("views carry fewer than K components")
    return vt[:k].T @ (u[:, :k] / s[:k][None, :]).T


def _dense_cross_moment_core(feats, k, power_ss):
    """Reference: every cross moment, map and second moment at full size."""
    f1, f2, f3 = feats
    n = f1.shape[0]
    c12 = f1.T @ f2 / n
    c13 = f1.T @ f3 / n
    c23 = f2.T @ f3 / n
    p1 = c23.T @ _dense_pinv_rank(c12, k)
    p2 = c13.T @ _dense_pinv_rank(c12.T, k)
    x1 = f1 @ p1.T
    x2 = f2 @ p2.T
    m2 = (x1.T @ x2 + x2.T @ x1) / (2.0 * n)
    w_map, spectrum = build_whitener(m2, k)
    t_hat = whitened_third_moment(x1 @ w_map, x2 @ w_map, f3 @ w_map)
    eig = robust_power_method(t_hat, k, seed=power_ss)
    _, priors = priors_from_lambdas(eig.lambdas)
    unwhiten = w_map * spectrum[None, :]
    m3 = unwhiten @ (eig.vectors.T * eig.lambdas[None, :])
    m3_pinv_t = np.linalg.pinv(m3).T
    return (eig.lambdas, priors,
            [c13 @ m3_pinv_t / priors[None, :], c23 @ m3_pinv_t / priors[None, :], m3])


def _relative_gap(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def _overlap_features():
    scenario = dataclasses.replace(three_cluster_gaussian(), proxy_sigma=2.4)
    data, _ = simulate_multiproxy(scenario, 1500, seed=3)
    kernel = KernelSpec(bandwidth=1.0)
    rng = np.random.default_rng(0)
    return [_nystrom_features(data[f"z{v}"], kernel, rng) for v in (1, 2, 3)], 3


def _one_hot_features():
    levels = 80                                      # above DENSE_SVD_MAX
    rng = np.random.default_rng(3)
    emissions = tuple(rng.dirichlet(np.full(levels, 0.5), size=2).T for _ in range(3))
    scenario = dataclasses.replace(two_state_discrete(), emissions=emissions)
    data, _ = simulate_multitreatment(scenario, 20000, seed=3)
    return [_OneHotFeatures(data[f"a{v}"], levels) for v in (1, 2, 3)], 2


def _assert_core_matches_dense_reference(views, k):
    feats = [materialized(f) for f in views]
    ss = np.random.SeedSequence(11)
    lam, _, means, info = _cross_moment_core(views, k, ss)
    priors = priors_from_lambdas(lam)[1]
    want_lam, want_priors, want_means = _dense_cross_moment_core(feats, k, ss)
    assert _relative_gap(priors, want_priors) <= 1e-8
    assert _relative_gap(lam, want_lam) <= 1e-8
    for got, want in zip(means, want_means):
        assert _relative_gap(got, want) <= 1e-8
    s = np.linalg.svd(feats[0].T @ feats[1] / feats[0].shape[0], compute_uv=False)
    assert abs(info["rank_margin"] - s[k - 1] / s[k]) <= 1e-8 * s[k - 1] / s[k]


@pytest.mark.parametrize("features", [_overlap_features, _one_hot_features])
def test_rank_k_core_matches_dense_reference(features):
    views, k = features()
    widths = [f.shape[1] for f in views[:2]]
    assert min(widths) > max(k + 1, DENSE_SVD_MAX)      # the Lanczos SVD
    _assert_core_matches_dense_reference(views, k)


# (points per view, K, spacing, d): views that take finitely many points, so a
# table of every support triple, weighted by its probability, is the population
POPULATION_DESIGNS = {
    "7_points_k3": (7, 3, 1.5, 1),
    "5_points_k2": (5, 2, 1.5, 1),
    "10_points_k3": (10, 3, 1.2, 1),
    "7_close_points_k3": (7, 3, 0.8, 1),
    "6_points_k3_d2": (6, 3, 1.5, 2),
}


@pytest.mark.parametrize("design, panel_cells", [
    *((name, None) for name in POPULATION_DESIGNS),
    # c12 in 32-cell panels: at r <= 10 one panel holds it all otherwise, and
    # the factors' in-place products then take one block whatever their order
    pytest.param("7_points_k3", 32, id="7_points_k3-32_cell_panels"),
])
def test_kernel_core_recovers_a_finite_support_population(monkeypatch, design, panel_cells):
    if panel_cells is not None:
        monkeypatch.setattr(mixture, "_PANEL_CELLS", panel_cells)
    points, k, spacing, d = POPULATION_DESIGNS[design]
    rng = np.random.default_rng(points * 10 + k)
    grid = np.array(list(np.ndindex(*((2, points // 2) if d == 2 else (points,)))), dtype=float)
    support = [spacing * grid + 0.3 * v for v in range(3)]
    probs = [rng.dirichlet(np.full(points, 0.5), size=k).T for _ in range(3)]
    priors = np.arange(k, 2 * k) / np.arange(k, 2 * k).sum()
    *views, weights = population_support_table(priors, support, probs)
    # every row a landmark: the pivot floor keeps each distinct support point once
    kernel = KernelSpec(landmark_count=weights.shape[0])
    rng = np.random.default_rng(0)
    feats = [_nystrom_features(view, kernel, rng) for view in views]
    lam, _, means, _ = _cross_moment_core(feats, k, np.random.SeedSequence(0), weights)
    got = [gram(kernel, z, f.anchors) @ (f.factor @ m) for z, f, m in zip(support, feats, means)]
    want = [gram(kernel, z, z) @ p for z, p in zip(support, probs)]
    perm = align_permutation(np.vstack(got).T, np.vstack(want).T)
    assert [f.anchors.shape[0] for f in feats] == [points] * 3
    assert np.max(np.abs(priors_from_lambdas(lam)[1][perm] - priors)) <= 1e-12
    for g, w in zip(got, want):
        assert np.max(np.abs(g[:, perm] - w)) <= 1e-12 * np.max(np.abs(w))


@functools.cache
def _shared_anchors():
    """One anchor set and its whitening factor, used by all three views."""
    pool, _ = simulate_multiproxy(three_cluster_gaussian(), 120, seed=31)
    kernel = KernelSpec(bandwidth=1.0)
    f = _nystrom_features(pool["z1"], kernel, np.random.default_rng(0))
    return kernel, f.factor, f.anchors


def _kernel_row_views(n):
    kernel, a, anchors = _shared_anchors()
    data, _ = simulate_multiproxy(three_cluster_gaussian(), n, seed=32)
    return [_LandmarkFeatures(KernelRows(kernel, data[f"z{v}"], anchors), a, anchors)
            for v in (1, 2, 3)], 3


BOUNDARY_LEVELS = 40


def _one_hot_row_views(n):
    rng = np.random.default_rng(33)
    emissions = tuple(rng.dirichlet(np.full(BOUNDARY_LEVELS, 0.5), size=2).T
                      for _ in range(3))
    scenario = dataclasses.replace(two_state_discrete(), emissions=emissions)
    data, _ = simulate_multitreatment(scenario, n, seed=34)
    return [_OneHotFeatures(data[f"a{v}"], BOUNDARY_LEVELS) for v in (1, 2, 3)], 2


@pytest.mark.parametrize("rows_at", [
    pytest.param(lambda block, panel: block // 2, id="below_one_block"),
    pytest.param(lambda block, panel: block, id="one_block"),
    pytest.param(lambda block, panel: block + 1, id="one_row_past_a_block"),
    pytest.param(lambda block, panel: panel + 1, id="one_row_past_a_panel"),
])
@pytest.mark.parametrize("backend", ["kernel", "discrete"])
def test_streamed_core_matches_dense_reference_at_block_boundaries(backend, rows_at):
    width = _shared_anchors()[2].shape[0] if backend == "kernel" else BOUNDARY_LEVELS
    n = rows_at(_BLOCK_CELLS // width, _PANEL_CELLS // width)
    views, k = (_kernel_row_views if backend == "kernel" else _one_hot_row_views)(n)
    assert all(f.shape == (n, width) for f in views)
    _assert_core_matches_dense_reference(views, k)


def _paper_landmark_pair():
    # 1000 landmarks on paper-7.1: the pivot floor keeps a different count per
    # view, and neither count is a whole number of c12's blocks
    data, _ = simulate_multiproxy(three_cluster_gaussian(), 2000, seed=7)
    rng = np.random.default_rng(0)
    views = [_nystrom_features(data[z], KernelSpec(), rng) for z in ("z1", "z2")]
    (r1, r2), half = (f.shape[1] for f in views), _PANEL_CELLS // 2
    assert r1 != r2 and r1 % (half // r2) and r2 % (half // r1)
    return views, None


def _counted_one_hot_pair():
    rng = np.random.default_rng(35)
    s, n = BOUNDARY_LEVELS, 3 * _PANEL_CELLS // BOUNDARY_LEVELS + 7
    return ([_OneHotFeatures(rng.integers(0, s, size=n), s) for _ in range(2)],
            rng.integers(1, 6, size=n).astype(float))


def _pair_below_one_block():
    views, _ = _kernel_row_views(3000)
    r = views[0].shape[1]
    assert r <= _PANEL_CELLS // 2 // r                  # c12's first block holds every row
    return views[:2], None


@pytest.mark.parametrize("pair", [_paper_landmark_pair, _counted_one_hot_pair,
                                  _pair_below_one_block])
def test_cross_moment_matches_multiplied_out_features(pair):
    # a rounding of k1'Wk2/n reaches c12 through both factors, so the gap is
    # held to the scale they can amplify it to, |a1| |k1'Wk2/n| |a2|: against
    # c12's largest entry the features' own rounding reads 4.9e-9 on paper-7.1
    views, weights = pair()
    (rows1, a1), (rows2, a2) = (_factored(f) for f in views)
    n = rows1.shape[0]
    w = np.ones(n) if weights is None else weights
    want = (rows1 @ a1).T @ (w[:, None] * (rows2 @ a2)) / n
    scale = np.prod([np.linalg.norm(m, 2) for m in (a1, rows1.T @ (w[:, None] * rows2) / n, a2)])
    assert np.max(np.abs(views[0].cross(views[1], weights) - want)) <= 1e-15 * scale


def _factored(f):
    """(rows, factor) of landmark features; of one-hot ones, the rows and I."""
    if isinstance(f, _LandmarkFeatures):
        return materialized(f.rows), f.factor
    return materialized(f), np.eye(f.shape[1])


def test_rank_margin_is_none_without_a_further_singular_value():
    rng = np.random.default_rng(16)
    u = rng.integers(0, 2, size=2000)
    views = [np.where(rng.random(2000) < 0.8, u, 1 - u) for _ in range(3)]  # S = K
    est = fit_discrete_multiview(*views, 2, seed=0)
    assert est.diagnostics["rank_margin"] is None


@pytest.fixture()
def lanczos_calls(monkeypatch):
    """Shapes of the matrices the fits hand to the Lanczos SVD."""
    calls = []
    exact = mixture._lanczos_svd

    def counting_lanczos(c, *args):
        calls.append(c.shape)
        return exact(c, *args)

    monkeypatch.setattr(mixture, "_lanczos_svd", counting_lanczos)
    return calls


def test_rank_deficient_features_raise_through_truncated_svd(lanczos_calls):
    rng = np.random.default_rng(17)
    k, n, m = 3, 800, 80                                 # m above DENSE_SVD_MAX
    hidden = rng.standard_normal((n, k - 1))
    feats = [hidden @ rng.standard_normal((k - 1, m)) for _ in range(3)]
    with pytest.raises(RankDeficiency):
        _cross_moment_core([DenseRows(f) for f in feats], k,
                           np.random.SeedSequence(0))
    assert lanczos_calls == [(m, m)]


def test_truncated_svd_step_cap_surfaces_as_typed_error(monkeypatch):
    monkeypatch.setattr(linalg, "_KRYLOV_STEPS", 3)
    views, _ = symmetric_views([0.5, 0.5], 300, seed=15)
    kernel = KernelSpec(bandwidth=0.15)      # keeps about 80 landmarks, above DENSE_SVD_MAX
    with pytest.raises(NonConvergence, match="3 Lanczos steps"):
        fit_multiview(*views, 2, kernel=kernel, seed=0)


@pytest.mark.parametrize("max_k, lanczos", [
    pytest.param(6, True, id="lanczos"),
    pytest.param(50, True, id="lanczos_at_a_quarter_of_its_steps"),
    pytest.param(250, False, id="dense_past_the_step_cap"),
])
def test_scree_matches_a_dense_svd_of_c12(lanczos_calls, max_k, lanczos):
    scenario = dataclasses.replace(three_cluster_gaussian(), proxy_sigma=2.4)
    data, _ = simulate_multiproxy(scenario, 1500, seed=3)
    kernel = KernelSpec(landmark_count=400)
    got = scree(data["z1"], data["z2"], kernel=kernel, max_k=max_k, seed=5)
    rng = np.random.default_rng(mixture._seed_sequence(5).spawn(2)[1])
    f1, f2 = (_nystrom_features(data[z], kernel, rng) for z in ("z1", "z2"))
    want = np.linalg.svd(f1.cross(f2), compute_uv=False)[:max_k]
    assert bool(lanczos_calls) == lanczos
    assert got.shape == want.shape == (max_k,)
    assert np.max(np.abs(got - want)) <= 1e-12 * want[0]


def _traced_peak(call):
    """(call(), its tracemalloc peak in bytes)."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_discrete_fit_streams_its_one_hot_rows():
    # 300 levels over 10,000 rows: nearly every triple is distinct, and the
    # three one-hot arrays of the distinct triples would take 3 P S floats.
    # The fit holds S x S tables (c12 and its SVD) and arrays of at most n
    # rows (the key, its sort, the triples' gathers): 2.6 MB measured, where
    # one P x S table alone takes 24 MB
    rng = np.random.default_rng(23)
    s, n = 300, 10_000
    views = [rng.integers(0, s, size=n) for _ in range(3)]
    p = _triple_table(views, s)[1].shape[0]
    _, peak = _traced_peak(lambda: fit_discrete_multiview(*views, 2, seed=0))
    assert peak <= (3 * s * s + 20 * n) * 8 < p * s * 8


def test_widest_discrete_fit_holds_its_peak_to_the_pair_tables():
    # 2048 levels, the widest S that _TABLE_CELLS admits, at n = 20,000 on
    # two components: its S x S float tables are 32 MiB each, and the fit
    # peaked at 65 MiB. Grouping the rows by a P x S table took 317 MiB
    rng = np.random.default_rng(7)
    n, half = 20_000, 1024
    u = rng.integers(0, 2, size=n)
    views = [np.where(rng.random(n) < 0.7, half * u + rng.integers(0, half, n),
                      rng.integers(0, 2 * half, n)) for _ in range(3)]
    est, peak = _traced_peak(lambda: fit_discrete_multiview(*views, 2, seed=0))
    assert est.emissions[0].shape == (2 * half, 2)
    assert peak <= 96 * 2 ** 20


# ---------------------------------------------------------------------------
# the pivoted-Cholesky landmark factor
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("landmark_count", [60, 200])   # a subsample, and every row
def test_landmark_factor_drops_near_duplicates_and_whitens_the_rest(landmark_count):
    rng = np.random.default_rng(21)
    base = rng.uniform(-3.0, 3.0, size=(40, 2))
    view = np.vstack((base, base + 1e-9 * rng.standard_normal(base.shape)))
    kernel = KernelSpec(bandwidth=0.5, landmark_count=landmark_count)
    f = _nystrom_features(view, kernel, np.random.default_rng(0))
    anchors, a = f.anchors, f.factor
    r = anchors.shape[0]
    assert r < min(landmark_count, view.shape[0]) and a.shape == (r, r)
    assert np.array_equal(materialized(f.rows), gram(kernel, view, anchors))
    whitened = a.T @ gram(kernel, anchors, anchors) @ a
    assert np.max(np.abs(whitened - np.eye(r))) <= 1e-8


def test_landmark_factor_keeps_eigenvector_rounding_at_its_own_scale(monkeypatch):
    # eigenvectors nudged by one part in 1e15: a factor kept down to tiny pivots
    # (1e-10 kept about 940 anchors here) amplified that into a 4.6e-7 shift
    # of the density coefficients; the pivot floor holds it near 2e-9
    data, _ = simulate_multiproxy(three_cluster_gaussian(), 2000, seed=7)
    views = [data[f"z{v}"] for v in (1, 2, 3)]
    base = fit_multiview(*views, 3, seed=0)
    exact = mixture.robust_power_method

    def nudged(*args, **kwargs):
        eig = exact(*args, **kwargs)
        return dataclasses.replace(eig, vectors=eig.vectors * (1.0 + 1e-15))

    monkeypatch.setattr(mixture, "robust_power_method", nudged)
    moved = fit_multiview(*views, 3, seed=0)
    shift = max(np.max(np.abs(c1 - c0)) / np.max(np.abs(c0))
                for c0, c1 in zip(base.coefficients, moved.coefficients))
    assert max(base.diagnostics["landmark_rank"]) < 800
    assert shift <= 1e-7


def test_overlap_fit_keeps_every_landmark():
    # the overlap design's landmark gram never reaches the pivot floor, so its
    # default fit keeps the 1000 anchors and the estimates of a full factor
    scenario = dataclasses.replace(three_cluster_gaussian(), proxy_sigma=2.4)
    data, _ = simulate_multiproxy(scenario, 4000, seed=1000)
    est = fit_multiview(data["z1"], data["z2"], data["z3"], 3, seed=0)
    assert est.diagnostics["landmark_rank"] == [1000, 1000, 1000]


def test_fit_records_the_landmarks_kept_per_view():
    est, _ = _proxy_fit()
    rank = est.diagnostics["landmark_rank"]
    assert rank == [a.shape[0] for a in est.anchors]
    assert all(isinstance(r, int) and 0 < r <= est.diagnostics["anchor_count"]
               for r in rank)


def test_fit_multiview_peak_memory_stays_below_one_landmark_gram():
    n, m = 20000, 250
    data, _ = simulate_multiproxy(three_cluster_gaussian(), n, seed=5)
    kernel = KernelSpec(bandwidth=1.0, landmark_count=m)
    _, peak = _traced_peak(
        lambda: fit_multiview(data["z1"], data["z2"], data["z3"], 3, kernel=kernel, seed=0))
    assert peak <= 0.75 * n * m * 8


def test_posteriors_peak_memory_stays_far_below_one_landmark_gram():
    n, m = 20000, 250
    data, _ = simulate_multiproxy(three_cluster_gaussian(), n, seed=5)
    kernel = KernelSpec(bandwidth=1.0, landmark_count=m)
    est = fit_multiview(data["z1"], data["z2"], data["z3"], 3, kernel=kernel, seed=0)
    _, peak = _traced_peak(lambda: posteriors(est, data["z1"], data["z2"], data["z3"]))
    assert peak <= 0.25 * n * m * 8


def test_warm_kernel_fit_and_scree_hold_at_most_five_and_a_quarter_r_by_r_arrays():
    # while c12 is summed: views 1 and 2's factors, c12, two row panels and a
    # block buffer (1.8 r^2 at r = 600), as view 3 is factored after c12's SVD
    # and the factors multiply c12 in place; 4.86 r^2 measured, and scree
    # runs the same pass
    scenario = dataclasses.replace(three_cluster_gaussian(), proxy_sigma=2.4)
    data, _ = simulate_multiproxy(scenario, 2000, seed=7)
    views = data["z1"], data["z2"], data["z3"]
    r = 600
    kernel = KernelSpec(landmark_count=r)
    fit_multiview(*views, 3, kernel=kernel, seed=0)     # warm: first-call set-up
    est, fit_peak = _traced_peak(lambda: fit_multiview(*views, 3, kernel=kernel, seed=0))
    _, scree_peak = _traced_peak(lambda: scree(*views[:2], kernel=kernel, seed=0))
    assert est.diagnostics["landmark_rank"] == [r] * 3
    assert max(fit_peak, scree_peak) <= 5.25 * r * r * 8


def test_fit_anchors_are_the_in_order_landmark_draws():
    # views 1, 2 and 3 draw their landmarks in that order from one seeded stream
    data, _ = simulate_multiproxy(three_cluster_gaussian(), 1500, seed=9)
    views = [data[f"z{v}"] for v in (1, 2, 3)]
    kernel = KernelSpec(landmark_count=300)
    est = fit_multiview(*views, 3, kernel=kernel, seed=4)
    rng = np.random.default_rng(mixture._seed_sequence(4).spawn(3)[1])
    eager = [_nystrom_features(v, kernel, rng).anchors for v in views]
    for got, want in zip(est.anchors, eager):
        assert np.array_equal(got, want)
