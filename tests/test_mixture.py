"""Mixture recovery: spectral fits, posteriors, priors, and alignment."""

import dataclasses
import functools
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.sparse.linalg import ArpackNoConvergence, svds

from latentcause import (
    DimensionMismatch,
    InvalidConfig,
    KernelSpec,
    LatentCauseError,
    PosteriorMatrix,
    RankDeficiency,
    align_permutation,
    density,
    fit_discrete_multiview,
    fit_multiview,
    oracle_posteriors,
    posteriors,
    priors_from_lambdas,
    scree,
    simulate_multiproxy,
    simulate_multitreatment,
    three_cluster_gaussian,
    two_state_discrete,
)
from latentcause.kernels import _BLOCK_CELLS, KernelRows, gram
from latentcause.mixture import (
    _PANEL_CELLS,
    DENSE_SVD_MAX,
    _cross_moment_core,
    _nystrom_features,
)
from latentcause.tensor_spectral import (
    build_whitener,
    robust_power_method,
    whitened_third_moment,
)

from frozen import PRIOR_FROM_LAMBDA_TWO
from oracles import brute_force_alignment, discrete_posteriors_loop


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
    assert w.flavor == "proxy_only"
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
    assert np.array_equal(w.weights[5], est.priors)
    assert not np.array_equal(w.weights[0], est.priors)


def test_posterior_matrix_validation():
    with pytest.raises(InvalidConfig):
        PosteriorMatrix(weights=np.array([[0.5, 0.6]]), flavor="proxy_only")
    with pytest.raises(InvalidConfig):
        PosteriorMatrix(weights=np.array([[0.5, 0.5]]), flavor="rumor")
    with pytest.raises(DimensionMismatch):
        PosteriorMatrix(weights=np.ones(3), flavor="proxy_only")


def _fit_with_bad_value(bad):
    views, _ = symmetric_views([0.5, 0.5], 300, seed=15)
    views[1][7] = bad
    # more rows than landmarks, so the bad value reaches the cross moments
    fit_multiview(*views, 2, kernel=KernelSpec(bandwidth=0.6, landmark_count=50),
                  seed=0)


def _power_rule_fit_with(bad):
    data, _ = simulate_multiproxy(three_cluster_gaussian(), 200, seed=5)   # d = 3
    fit_multiview(data["z1"], data["z2"], data["z3"], 3,
                  kernel=KernelSpec(rule="power_rule", **bad), seed=0)


def _posteriors_with_bad_value(bad):
    views, _ = symmetric_views([0.5, 0.5], 300, seed=15)
    est = fit_multiview(*views, 2, kernel=KernelSpec(bandwidth=0.6), seed=0)
    views[2][3] = bad
    posteriors(est, *views)


def _posterior_matrix_with_bad_value(bad):
    PosteriorMatrix(weights=np.array([[0.5, 0.5], [bad, 1.0]]), flavor="proxy_only")


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
    (_posteriors_with_bad_value, np.nan),
    (_posteriors_with_bad_value, -np.inf),
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
    (_power_rule_fit_with, {"power_c": "x"}),
    (_power_rule_fit_with, {"power_c": None}),
    (_power_rule_fit_with, {"power_b": -10.5}),         # 2b + 7d = 0 at d = 3
    (_power_rule_fit_with, {"power_b": np.inf}),
    (_power_rule_fit_with, {"power_b": 0.0}),
])
def test_non_finite_input_raises_typed_error(build, bad):
    with pytest.raises(LatentCauseError):
        build(bad)


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
    whitener = build_whitener(m2, k)
    t_hat = whitened_third_moment(x1 @ whitener.map, x2 @ whitener.map,
                                  f3 @ whitener.map)
    eig = robust_power_method(t_hat, k, seed=power_ss)
    _, priors = priors_from_lambdas(eig.lambdas)
    unwhiten = whitener.map * whitener.spectrum[None, :]
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
    return [_nystrom_features(data[f"z{v}"], kernel, rng)[:2] for v in (1, 2, 3)], 3


def _one_hot_features():
    levels = 80                                      # above DENSE_SVD_MAX
    rng = np.random.default_rng(3)
    emissions = tuple(rng.dirichlet(np.full(levels, 0.5), size=2).T for _ in range(3))
    scenario = dataclasses.replace(two_state_discrete(), emissions=emissions)
    data, _ = simulate_multitreatment(scenario, 20000, seed=3)
    eye = np.eye(levels)
    return [(eye[data[f"a{v}"]], eye) for v in (1, 2, 3)], 2


def _assert_core_matches_dense_reference(views, k):
    feats = [k_v[:] @ a_v for k_v, a_v in views]        # rows materialized
    ss = np.random.SeedSequence(11)
    lam, means, info = _cross_moment_core(views, k, ss)
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
    widths = [a_v.shape[1] for _, a_v in views[:2]]
    assert min(widths) > max(k + 1, DENSE_SVD_MAX)      # ARPACK
    _assert_core_matches_dense_reference(views, k)


@functools.cache
def _shared_anchors():
    """One anchor set and its whitening factor, used by all three views."""
    pool, _ = simulate_multiproxy(three_cluster_gaussian(), 120, seed=31)
    kernel = KernelSpec(bandwidth=1.0)
    _, a, anchors = _nystrom_features(pool["z1"], kernel, np.random.default_rng(0))
    return kernel, a, anchors


def _kernel_row_views(n):
    kernel, a, anchors = _shared_anchors()
    data, _ = simulate_multiproxy(three_cluster_gaussian(), n, seed=32)
    return [(KernelRows(kernel, data[f"z{v}"], anchors), a) for v in (1, 2, 3)], 3


BOUNDARY_LEVELS = 40


def _one_hot_row_views(n):
    rng = np.random.default_rng(33)
    emissions = tuple(rng.dirichlet(np.full(BOUNDARY_LEVELS, 0.5), size=2).T
                      for _ in range(3))
    scenario = dataclasses.replace(two_state_discrete(), emissions=emissions)
    data, _ = simulate_multitreatment(scenario, n, seed=34)
    eye = np.eye(BOUNDARY_LEVELS)
    return [(eye[data[f"a{v}"]], eye) for v in (1, 2, 3)], 2


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
    assert all(k_v.shape == (n, width) for k_v, _ in views)
    _assert_core_matches_dense_reference(views, k)


def test_rank_margin_is_none_without_a_further_singular_value():
    rng = np.random.default_rng(16)
    u = rng.integers(0, 2, size=2000)
    views = [np.where(rng.random(2000) < 0.8, u, 1 - u) for _ in range(3)]  # S = K
    est = fit_discrete_multiview(*views, 2, seed=0)
    assert est.diagnostics["rank_margin"] is None


def test_rank_deficient_features_raise_through_truncated_svd(monkeypatch):
    rng = np.random.default_rng(17)
    k, n, m = 3, 800, 80                                 # m above DENSE_SVD_MAX
    hidden = rng.standard_normal((n, k - 1))
    feats = [hidden @ rng.standard_normal((k - 1, m)) for _ in range(3)]
    calls = []

    def counting_svds(*args, **kwargs):
        calls.append(args[0].shape)
        return svds(*args, **kwargs)

    monkeypatch.setattr("latentcause.mixture.svds", counting_svds)
    with pytest.raises(RankDeficiency):
        _cross_moment_core([(f, np.eye(m)) for f in feats], k, np.random.SeedSequence(0))
    assert calls == [(m, m)]


def test_arpack_failure_surfaces_as_typed_error(monkeypatch):
    def fail(*args, **kwargs):
        raise ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((0, 0)))

    monkeypatch.setattr("latentcause.mixture.svds", fail)
    views, _ = symmetric_views([0.5, 0.5], 300, seed=15)
    kernel = KernelSpec(bandwidth=0.15)      # keeps about 80 landmarks, above DENSE_SVD_MAX
    with pytest.raises(LatentCauseError):
        fit_multiview(*views, 2, kernel=kernel, seed=0)


# ---------------------------------------------------------------------------
# the pivoted-Cholesky landmark factor
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("landmark_count", [60, 200])   # a subsample, and every row
def test_landmark_factor_drops_near_duplicates_and_whitens_the_rest(landmark_count):
    rng = np.random.default_rng(21)
    base = rng.uniform(-3.0, 3.0, size=(40, 2))
    view = np.vstack((base, base + 1e-9 * rng.standard_normal(base.shape)))
    kernel = KernelSpec(bandwidth=0.5, landmark_count=landmark_count)
    k_v, a, anchors = _nystrom_features(view, kernel, np.random.default_rng(0))
    r = anchors.shape[0]
    assert r < min(landmark_count, view.shape[0]) and a.shape == (r, r)
    assert np.array_equal(k_v[:], gram(kernel, view, anchors))
    whitened = a.T @ gram(kernel, anchors, anchors) @ a
    assert np.max(np.abs(whitened - np.eye(r))) <= 1e-8


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
    tracemalloc.start()
    try:
        fit_multiview(data["z1"], data["z2"], data["z3"], 3, kernel=kernel, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.75 * n * m * 8


def test_posteriors_peak_memory_stays_far_below_one_landmark_gram():
    n, m = 20000, 250
    data, _ = simulate_multiproxy(three_cluster_gaussian(), n, seed=5)
    kernel = KernelSpec(bandwidth=1.0, landmark_count=m)
    est = fit_multiview(data["z1"], data["z2"], data["z3"], 3, kernel=kernel, seed=0)
    tracemalloc.start()
    try:
        posteriors(est, data["z1"], data["z2"], data["z3"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.25 * n * m * 8
