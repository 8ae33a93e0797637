"""Repeated discrete treatments: Algorithm-style joint fit and effects."""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from latentcause import (
    DimensionMismatch,
    InvalidConfig,
    LatentCauseError,
    MixtureEstimate,
    align_permutation,
    fit_discrete_multiview,
    fit_multitreatment,
    mt_ate,
    mt_cate,
    posteriors,
    simulate_multitreatment,
    true_ate_multitreatment,
    two_state_discrete,
)
from latentcause import mixture, multitreatment
from latentcause.causal import _regressors, _stacked_regression
from latentcause.mixture import (
    _cross_moment_core,
    _stochastic_columns,
    _triple_table,
)

from frozen import TWO_STATE_GAMMA_NORMS
from oracles import DenseRows, population_triple_table


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
    with pytest.raises(DimensionMismatch):
        fit_multitreatment(data["a1"], data["a2"], data["a3"], data["y"][:-1], 2)
    for bad in (np.inf, np.nan):
        bad_y = data["y"].copy()
        bad_y[0] = bad
        with pytest.raises(InvalidConfig):
            fit_multitreatment(data["a1"], data["a2"], data["a3"], bad_y, 2)
    model = fit_multitreatment(data["a1"], data["a2"], data["a3"], data["y"],
                               2, seed=0)
    with pytest.raises(InvalidConfig):
        mt_cate(model, 5, (1, 1, 1))
    with pytest.raises(DimensionMismatch, match="exactly three treatment values, got 2"):
        mt_ate(model, (1, 1))


# ---------------------------------------------------------------------------
# the count-table fit against the n-row pipeline
# ---------------------------------------------------------------------------

def _row_level_reference(data, k, seed=0):
    """The n-row fit: one-hot rows through the unweighted core, every row scored
    and regressed."""
    views = [np.asarray(data[f"a{v}"]) for v in (1, 2, 3)]
    eye = np.eye(max(int(v.max()) for v in views) + 1)
    power_ss = np.random.SeedSequence(seed).spawn(1)[0]
    lam, _, means, _ = _cross_moment_core([DenseRows(eye[v]) for v in views], k, power_ss)
    est = MixtureEstimate(backend="discrete", lambdas=lam,
                          emissions=tuple(_stochastic_columns(m) for m in means))
    w = posteriors(est, *views)
    gamma, _ = _stacked_regression(_regressors(np.column_stack(views), None),
                                   w.weights, data["y"])
    return est, gamma


def _relative_gap(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


WIDE_LEVELS = 80                                     # S^3 = 512,000 cells against n = 600


def _wide_case(n, seed):
    rng = np.random.default_rng(3)
    emissions = tuple(rng.dirichlet(np.full(WIDE_LEVELS, 0.5), size=2).T
                      for _ in range(3))
    scenario = dataclasses.replace(two_state_discrete(), emissions=emissions)
    return simulate_multitreatment(scenario, n, seed=seed)[0]


def test_prior_error_falls_at_the_root_n_rate():
    # the n-ladder of the paper's rate: the median over 20 data seeds of the
    # max prior error, at n = 1e3, 1e4 and 1e5, falls with a log-log slope
    # near -1/2. On 50 sets of 20 other seeds (1000-1999) the slope read
    # -0.50 +- 0.064 (range -0.61 to -0.34); the bound is that mean +- 4 sd,
    # so a bias floor (slope 0) or a broken estimator fails it
    scenario = two_state_discrete()
    ref = np.hstack([e.T for e in scenario.emissions])
    ns = (1_000, 10_000, 100_000)
    medians = []
    for n in ns:
        errors = []
        for seed in range(20):
            data, _ = simulate_multitreatment(scenario, n, seed=seed)
            est = fit_discrete_multiview(data["a1"], data["a2"], data["a3"], 2, seed=0)
            perm = align_permutation(np.hstack([e.T for e in est.emissions]), ref)
            errors.append(np.max(np.abs(est.priors[perm] - scenario.priors)))
        medians.append(np.median(errors))
    slope = np.polyfit(np.log(ns), np.log(medians), 1)[0]
    assert -0.75 <= slope <= -0.25, (slope, medians)


@pytest.mark.parametrize("case", [
    pytest.param(lambda: simulate_multitreatment(two_state_discrete(), 5000, seed=11)[0],
                 id="two_state_discrete-seed11"),
    pytest.param(lambda: simulate_multitreatment(two_state_discrete(), 5000, seed=12)[0],
                 id="two_state_discrete-seed12"),
    pytest.param(lambda: _wide_case(600, 5), id="80-levels-n600"),
])
def test_count_table_fit_matches_row_level_fit(case):
    data = case()
    model = fit_multitreatment(data["a1"], data["a2"], data["a3"], data["y"], 2, seed=0)
    est, gamma = _row_level_reference(data, 2)
    assert _relative_gap(model.mixture.lambdas, est.lambdas) <= 1e-10
    for got, want in zip(model.mixture.emissions, est.emissions):
        assert _relative_gap(got, want) <= 1e-10
    assert _relative_gap(model.gamma, gamma) <= 1e-10
    assert model.diagnostics["fallbacks"] == 0


def test_population_table_recovers_the_design_to_rounding():
    # paper-7.2's joint table of the 125 triples at population size 1e12, with
    # no sampling noise, so a bias cannot hide behind it: the errors measured
    # 4.1e-12 (emissions), 3.3e-12 (priors) and 2.8e-11 (gamma), the rounding
    # of the counts. gamma is the stacked regression on the population y sums
    scenario = two_state_discrete()
    *triples, counts, y_sums = population_triple_table(
        scenario.priors, scenario.emissions, scenario.gamma, 1e12)
    est = fit_discrete_multiview(*triples, 2, seed=0, counts=counts)
    w = posteriors(est, *triples)
    root = np.sqrt(counts)
    gamma, _ = _stacked_regression(_regressors(np.column_stack(triples), None),
                                   w.weights * root[:, None], y_sums / root)
    perm = align_permutation(np.hstack([e.T for e in est.emissions]),
                             np.hstack([e.T for e in scenario.emissions]))
    for got, want in zip(est.emissions, scenario.emissions):
        assert np.max(np.abs(got[:, perm] - want)) <= 1e-9
    assert np.max(np.abs(est.priors[perm] - scenario.priors)) <= 1e-9
    assert np.max(np.abs(gamma[perm] - scenario.gamma)) <= 1e-9


def _unique_rows_table(views, y, counts):
    """np.unique's grouping of the rows: the distinct triples of nonzero count,
    their counts and their sums of y."""
    rows, inverse = np.unique(np.column_stack(views), axis=0, return_inverse=True)
    inverse = inverse.ravel()
    totals = np.bincount(inverse, weights=counts)
    keep = totals > 0
    return rows[keep], totals[keep], np.bincount(inverse, weights=y)[keep]


def _assert_same_table(got, want):
    triples, counts, sums = got
    for a, b in zip((np.column_stack(triples), counts, sums), want):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("case, s, bound", [
    # S^3 = 125 cells against n = 5000: one bincount of the key, which with
    # the product a1 S + a2 measured 2.0 n floats
    pytest.param(lambda: _paper_72(5000, 7), 5, 3, id="dense"),
    # S^3 = 512,000 cells against n = 600: np.unique's sorted copy, its
    # permutation and the inverse measured 8.8 n floats
    pytest.param(lambda: _wide_case(600, 6), WIDE_LEVELS, 11, id="sorted"),
])
def test_triple_table_matches_unique_rows_within_its_memory_bound(case, s, bound):
    data = case()
    views = [data[f"a{v}"] for v in (1, 2, 3)]
    rows = np.column_stack(views)
    n = rows.shape[0]
    assert rows.max() + 1 == s
    counts = np.random.default_rng(2).integers(0, 4, size=n).astype(float)
    counts[np.all(rows == rows[0], axis=1)] = 0.0        # one triple drops out
    tracemalloc.start()
    try:
        got = _triple_table(views, s, data["y"], counts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    want = _unique_rows_table(views, data["y"], counts)
    assert not np.all(want[0] == rows[0], axis=1).any()
    _assert_same_table(got, want)
    # a few arrays of n entries, and no table of (distinct pairs) x S cells
    assert peak <= bound * n * 8


def test_drawn_triple_tables_match_unique_rows_and_fits_fail_typed():
    # S and n on both sides of S^3 = n, so both ways of counting are drawn:
    # the table is np.unique's grouping bit for bit, and a fit on the same
    # arrays either answers in finite numbers or fails with a LatentCauseError
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def cases(draw):
        s, n = draw(st.integers(1, 4)), draw(st.integers(1, 80))
        views = [np.array(draw(st.lists(st.integers(0, s - 1), min_size=n, max_size=n)))
                 for _ in range(3)]
        counts = draw(st.none() | st.lists(st.integers(0, 3), min_size=n, max_size=n))
        y = np.array(draw(st.lists(st.floats(-10, 10), min_size=n, max_size=n)))
        return s, views, None if counts is None else np.array(counts, float), y, \
            draw(st.integers(1, 3))

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(cases())
    def check(case):
        s, views, counts, y, k = case
        _assert_same_table(_triple_table(views, s, y, counts),
                           _unique_rows_table(views, y, counts))
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                est = fit_discrete_multiview(*views, k, seed=0, counts=counts)
        except LatentCauseError:
            return
        assert np.all(np.isfinite(est.lambdas))
        assert all(np.all(np.isfinite(e)) for e in est.emissions)

    check()


def _paper_72(n, seed):
    return simulate_multitreatment(two_state_discrete(), n, seed=seed)[0]


@pytest.mark.parametrize("case, k", [
    pytest.param(lambda: _paper_72(5000, 7), 1, id="paper-7.2-k1"),
    pytest.param(lambda: _paper_72(5000, 7), 2, id="paper-7.2-k2"),
    pytest.param(lambda: _wide_case(600, 5), 2, id="80-levels-k2"),   # the Lanczos SVD
])
def test_treatment_fit_mixture_is_the_discrete_fit(case, k):
    data = case()
    views = [data[f"a{v}"] for v in (1, 2, 3)]
    got = fit_multitreatment(*views, data["y"], k, seed=4).mixture
    want = fit_discrete_multiview(*views, k, seed=4)
    assert np.array_equal(got.lambdas, want.lambdas)
    for a, b in zip(got.emissions, want.emissions):
        assert np.array_equal(a, b)
    assert got.diagnostics.keys() == want.diagnostics.keys()
    for key, value in want.diagnostics.items():
        assert np.array_equal(got.diagnostics[key], value), key
    assert got.seed == want.seed == 4


def test_treatment_fit_checks_and_groups_the_rows_once(monkeypatch, discrete_case):
    _, data, _ = discrete_case
    n = data["y"].shape[0]
    calls = {"_as_levels": 0, "_triple_table": 0}

    def count(name, rows):
        original = getattr(mixture, name)

        def counted(*args, **kwargs):
            calls[name] += rows(args) == n
            return original(*args, **kwargs)
        for module in (mixture, multitreatment):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)

    count("_as_levels", lambda args: len(args[0]))
    count("_triple_table", lambda args: len(args[0][0]))
    fit_multitreatment(data["a1"], data["a2"], data["a3"], data["y"], 2, seed=0)
    assert calls == {"_as_levels": 1, "_triple_table": 1}


def test_fallbacks_are_counted_in_rows(monkeypatch):
    emission = np.array([[0.5, 0.4], [0.5, 0.6], [0.0, 0.0]])   # level 2 at the floor
    est = MixtureEstimate(backend="discrete", lambdas=np.array([2 ** 0.5, 2 ** 0.5]),
                          emissions=(emission,) * 3)
    monkeypatch.setattr(multitreatment, "fit_discrete_multiview", lambda *a, **kw: est)
    rng = np.random.default_rng(0)
    a = rng.integers(0, 2, size=(3, 20))
    a[:, :4] = 2                                     # one floored triple on four rows
    y = rng.standard_normal(20)
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        model = fit_multitreatment(a[0], a[1], a[2], y, 2)
    assert [str(r.message) for r in record] == [
        "4 of 20 rows had every likelihood at the floor; "
        "their posteriors fall back to the priors"]
    assert record[0].category is RuntimeWarning
    assert record[0].filename == __file__
    assert model.diagnostics["fallbacks"] == 4


def test_drawn_small_inputs_fit_finite_or_raise_typed():
    # on tiny, tied or badly scaled tables a fit either answers in finite
    # numbers or fails with a LatentCauseError
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def cases(draw):
        n, s = draw(st.integers(1, 12)), draw(st.integers(1, 4))
        views = [draw(st.lists(st.integers(0, s - 1), min_size=n, max_size=n))
                 for _ in range(3)]
        y = np.array(draw(st.lists(st.floats(-10, 10), min_size=n, max_size=n)))
        return views, y * draw(st.sampled_from([1.0, 1e-300, 1e300])), draw(st.integers(1, 3))

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(cases())
    def finite_or_typed(case):
        views, y, k = case
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                model = fit_multitreatment(*views, y, k, seed=0)
                ate = mt_ate(model, (1, 1, 1))
        except LatentCauseError:
            return
        assert np.all(np.isfinite(model.priors)) and np.all(np.isfinite(model.gamma))
        assert np.isfinite(ate)

    finite_or_typed()


@pytest.fixture(scope="module", params=[7, 1000, 1001])
def relabel_case(request):
    """paper-7.2 at n=20,000 by data seed, with the reference fits at fit seed 0."""
    data, _ = simulate_multitreatment(two_state_discrete(), 20_000, seed=request.param)
    a1, a2, a3, y = data["a1"], data["a2"], data["a3"], data["y"]
    return (data, fit_discrete_multiview(a1, a2, a3, 2, seed=0),
            fit_multitreatment(a1, a2, a3, y, 2, seed=0))


def _matched(est, reference):
    """Component order of ``est`` matched to ``reference`` by view-3 emissions."""
    return align_permutation(est.emissions[2].T, reference.emissions[2].T)


def _relative_gap(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


def test_swapping_two_views_swaps_their_emissions(relabel_case):
    data, ref, _ = relabel_case
    est = fit_discrete_multiview(data["a2"], data["a1"], data["a3"], 2, seed=0)
    perm = _matched(est, ref)
    assert _relative_gap(est.lambdas[perm], ref.lambdas) <= 1e-12
    for view, ref_view in ((0, 1), (1, 0), (2, 2)):
        assert _relative_gap(est.emissions[view][:, perm], ref.emissions[ref_view]) <= 1e-12


def test_relabelling_levels_permutes_emission_rows(relabel_case):
    data, ref, _ = relabel_case
    relabel = np.random.default_rng(5).permutation(ref.emissions[0].shape[0])
    est = fit_discrete_multiview(relabel[data["a1"]], data["a2"], data["a3"], 2, seed=0)
    perm = _matched(est, ref)
    assert _relative_gap(est.lambdas[perm], ref.lambdas) <= 1e-12
    # level s of view 1 is now called relabel[s], so its emission row moves there
    assert _relative_gap(est.emissions[0][relabel][:, perm], ref.emissions[0]) <= 1e-12
    for view in (1, 2):
        assert _relative_gap(est.emissions[view][:, perm], ref.emissions[view]) <= 1e-12


def test_swapping_two_treatments_swaps_their_coefficients_and_effects(relabel_case):
    data, _, ref = relabel_case
    model = fit_multitreatment(data["a2"], data["a1"], data["a3"], data["y"], 2, seed=0)
    perm = _matched(model.mixture, ref.mixture)
    assert np.max(np.abs(model.gamma[perm][:, [0, 2, 1, 3]] - ref.gamma)) <= 1e-10
    assert abs(mt_ate(model, (0, 1, 1)) - mt_ate(ref, (1, 0, 1))) <= 1e-10
