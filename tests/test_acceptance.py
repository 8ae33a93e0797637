"""End-to-end acceptance checks, one test per shipped guarantee.

Each test states its tolerance inline and fails with the measured value,
so the -v report reads as a pass/fail line per guarantee.
"""

import collections
import dataclasses

import numpy as np
import pytest

from latentcause import (
    KernelSpec,
    estimate_ate,
    fit_discrete_multiview,
    fit_effects,
    fit_multitreatment,
    fit_multiview,
    load_model,
    mt_ate,
    posteriors,
    read_dataset,
    run_benchmark,
    save_model,
    simulate_multiproxy,
    simulate_multitreatment,
    three_cluster_gaussian,
    two_state_discrete,
    write_dataset,
)
from latentcause.causal import fit_outcome, fit_treatment
from latentcause.cli import main
from latentcause.tensor_spectral import (
    build_whitener,
    robust_power_method,
    whitened_third_moment,
)

from oracles import (
    discrete_posteriors_loop,
    per_group_ols,
    planted_orthogonal_tensor,
    third_moment_loop,
)


@pytest.fixture(scope="module")
def slope_sweep():
    """20-trial recovery sweep of the three-cluster design over four sizes."""
    rows = run_benchmark("multiproxy", [500, 1000, 2000, 4000], trials=20,
                         seed=0)
    assert not any(r["error"] for r in rows)
    return rows


def beta_errors_by(rows, n):
    picked = [r for r in rows
              if r["n"] == n and r["parameter"] == "beta_a" and not r["error"]]
    return picked


def test_criterion_1_slope_recovery_at_n4000(slope_sweep):
    # 20 trials at n=4000: per-component median slope within +-0.35 of
    # (2.5, -1.0, 4.0); at least 90% of measurements within +-0.5
    rows = beta_errors_by(slope_sweep, 4000)
    assert len(rows) == 60
    worst_median_dev = 0.0
    for u, truth in enumerate((2.5, -1.0, 4.0)):
        ests = [r["estimate"] for r in rows if r["component"] == u]
        assert len(ests) == 20
        dev = abs(float(np.median(ests)) - truth)
        worst_median_dev = max(worst_median_dev, dev)
        assert dev <= 0.35, f"component {u}: median slope off by {dev:.3f}"
    within = np.mean([r["aligned_abs_error"] <= 0.5 for r in rows])
    assert within >= 0.9, f"only {within:.0%} of slope estimates within 0.5"
    print(f"slope recovery: worst median deviation {worst_median_dev:.3f} "
          f"(limit 0.35), {within:.0%} within 0.5 (limit 90%)")


def test_criterion_2_error_shrinks_with_sample_size(slope_sweep):
    # median aligned slope error non-increasing over n in {500..4000},
    # allowing 20% slack between consecutive sizes
    sizes = [500, 1000, 2000, 4000]
    medians = []
    for n in sizes:
        errs = [r["aligned_abs_error"] for r in beta_errors_by(slope_sweep, n)]
        medians.append(float(np.median(errs)))
    for a, b, na, nb in zip(medians, medians[1:], sizes, sizes[1:]):
        assert b <= 1.2 * a, (
            f"median error grew from {a:.4f} (n={na}) to {b:.4f} (n={nb})")
    print("convergence trend:",
          " -> ".join(f"{m:.4f}@n={n}" for m, n in zip(medians, sizes)))


def test_criterion_3_gamma_norm_recovery_at_n5000():
    # 20 trials at n=5000: aligned coefficient norms within +-0.25 of
    # (2.784, 2.211) in at least 90% of trials
    rows = run_benchmark("multitreatment", [5000], trials=20, seed=0)
    assert not any(r["error"] for r in rows)
    norms = [r for r in rows if r["parameter"] == "gamma_norm"]
    by_trial = collections.defaultdict(list)
    for r in norms:
        by_trial[r["trial"]].append(r["aligned_abs_error"])
    hits = np.mean([max(errs) <= 0.25 for errs in by_trial.values()])
    assert hits >= 0.9, f"only {hits:.0%} of trials recovered both norms"
    print(f"gamma norms: {hits:.0%} of 20 trials within 0.25 (limit 90%)")


def test_criterion_4_prior_recovery_symmetric_mixture():
    # planted symmetric 2-component mixture at n=10000: prior error
    # at most 0.05 in at least 95% of 20 trials
    priors = np.array([0.4, 0.6])
    hits = 0
    worst = 0.0
    for trial in range(20):
        rng = np.random.default_rng(1000 + trial)
        u = rng.choice(2, size=10000, p=priors)
        locs = np.array([-2.0, 2.0])[u]
        views = [locs + 0.6 * rng.standard_normal(10000) for _ in range(3)]
        est = fit_multiview(*views, 2, kernel=KernelSpec(bandwidth=0.6), seed=trial)
        err = float(np.max(np.abs(np.sort(est.priors) - priors)))
        worst = max(worst, err)
        hits += (err <= 0.05)
    assert hits >= 19, f"only {hits} of 20 trials within 0.05"
    print(f"prior recovery: {hits}/20 trials within 0.05, worst {worst:.4f}")


def test_criterion_5_priors_are_inverse_square_eigenvalues(proxy_case,
                                                           discrete_case):
    # every fit keeps its eigenvalue-to-weight contract:
    # stored raw priors equal lambda^-2 within 1e-12
    _, data, _ = proxy_case
    _, mt_data, _ = discrete_case
    fits = [
        fit_multiview(data["z1"], data["z2"], data["z3"], 3,
                      kernel=KernelSpec(bandwidth=1.0), seed=s)
        for s in range(3)
    ]
    fits.append(fit_discrete_multiview(mt_data["a1"], mt_data["a2"],
                                       mt_data["a3"], 2, seed=0))
    rng = np.random.default_rng(0)
    sym = [rng.standard_normal(3000) + 2.0 * rng.choice([-1, 1], size=3000)
           for _ in range(3)]
    fits.append(fit_multiview(*sym, 2, kernel=KernelSpec(bandwidth=1.0), seed=1))
    worst = 0.0
    for est in fits:
        dev = float(np.max(np.abs(est.priors_raw - est.lambdas ** -2.0)))
        worst = max(worst, dev)
        assert dev <= 1e-12
    print(f"eigenvalue contract: worst deviation {worst:.2e} over "
          f"{len(fits)} fits (limit 1e-12)")


def test_criterion_6_oracle_equivalence_suite(proxy_case, discrete_case,
                                              one_hot_weights):
    # posterior formula vs loop oracle <= 1e-12; one-hot weighted
    # regressions vs per-group OLS <= 1e-10; whitened third moment vs
    # loop oracle <= 1e-12 on 100 random instances
    _, mt_data, _ = discrete_case
    est = fit_discrete_multiview(mt_data["a1"], mt_data["a2"], mt_data["a3"],
                                 2, seed=0)
    w = posteriors(est, mt_data["a1"], mt_data["a2"], mt_data["a3"])
    want = discrete_posteriors_loop(est.priors, est.emissions,
                                    mt_data["a1"], mt_data["a2"], mt_data["a3"])
    posterior_dev = float(np.max(np.abs(w.weights - want)))
    assert posterior_dev <= 1e-12

    scenario, data, labels = proxy_case
    hot = one_hot_weights(labels, 3)
    alpha = fit_treatment(data["a"], data["z1"], hot).alpha
    ols_alpha = per_group_ols(data["z1"], data["a"], labels, 3)
    hot_out = one_hot_weights(labels, 3)
    om = fit_outcome(data["a"], data["z1"], data["y"], hot_out)
    feats = np.column_stack([np.ones(labels.shape[0]), data["a"], data["z1"]])
    ols_beta = per_group_ols(feats, data["y"], labels, 3)
    regression_dev = max(float(np.max(np.abs(alpha - ols_alpha))),
                         float(np.max(np.abs(om.beta - ols_beta))))
    assert regression_dev <= 1e-10

    rng = np.random.default_rng(99)
    moment_dev = 0.0
    for _ in range(100):
        n, k = int(rng.integers(1, 8)), int(rng.integers(2, 6))
        xi = [rng.standard_normal((n, k)) for _ in range(3)]
        moment_dev = max(moment_dev, float(np.max(np.abs(
            whitened_third_moment(*xi) - third_moment_loop(*xi)))))
    assert moment_dev <= 1e-12
    print(f"oracle equivalence: posteriors {posterior_dev:.2e} (1e-12), "
          f"regressions {regression_dev:.2e} (1e-10), "
          f"third moment {moment_dev:.2e} (1e-12)")


def test_criterion_7_invariant_suite(proxy_case):
    scenario, data, _ = proxy_case
    mixture = fit_multiview(data["z1"], data["z2"], data["z3"], 3,
                            kernel=KernelSpec(bandwidth=1.0), seed=0)

    # posterior rows are probability vectors
    w = posteriors(mixture, data["z1"], data["z2"], data["z3"])
    row_dev = float(np.max(np.abs(w.weights.sum(axis=1) - 1.0)))
    assert row_dev <= 1e-12 and np.all(w.weights >= 0.0)

    # whitener identity W' M W = I
    rng = np.random.default_rng(1)
    x = rng.standard_normal((400, 5))
    m = x.T @ x / 400
    w_map, _ = build_whitener(m, 3)
    white_dev = float(np.max(np.abs(w_map.T @ m @ w_map - np.eye(3))))
    assert white_dev <= 1e-8

    # rank-1 tensor recovery
    v = np.array([2.0, -1.0, 2.0]) / 3.0
    eig = robust_power_method(planted_orthogonal_tensor([1.7], [v]), 1, seed=0)
    vec = eig.vectors[0] if eig.vectors[0] @ v > 0 else -eig.vectors[0]
    rank1_dev = max(abs(float(eig.lambdas[0]) - 1.7),
                    float(np.max(np.abs(vec - v))))
    assert rank1_dev <= 1e-9

    # permutation equivariance of the full pipeline
    perm = np.array([1, 2, 0])
    shuffled = dataclasses.replace(
        mixture,
        lambdas=mixture.lambdas[perm],
        coefficients=tuple(c[perm] for c in mixture.coefficients),
    )
    ce = fit_effects(data, mixture)
    cs = fit_effects(data, shuffled)
    perm_dev = max(
        float(np.max(np.abs(cs.outcome.beta - ce.outcome.beta[perm]))),
        abs(estimate_ate(cs, 0.7) - estimate_ate(ce, 0.7)),
    )
    assert perm_dev <= 1e-10

    # the dose response is affine in the intervention for affine features
    lam = 0.35
    a1, a2 = -0.9, 1.7
    affine_dev = abs(
        estimate_ate(ce, lam * a1 + (1 - lam) * a2)
        - (lam * estimate_ate(ce, a1) + (1 - lam) * estimate_ate(ce, a2)))
    assert affine_dev <= 1e-10
    print(f"invariants: rows {row_dev:.2e}, whitener {white_dev:.2e}, "
          f"rank-1 {rank1_dev:.2e}, permutation {perm_dev:.2e}, "
          f"affine {affine_dev:.2e}")


def test_criterion_8_rank_selection_via_cli(tmp_path, capsys):
    # the rank command picks K=3 on three-cluster data (n=2000) in at
    # least 9 of 10 seeds, and K=2 on the discrete design
    hits = 0
    for seed in range(10):
        path = tmp_path / f"d{seed}.csv"
        data, _ = simulate_multiproxy(three_cluster_gaussian(), 2000,
                                      seed=200 + seed)
        write_dataset(path, data)
        capsys.readouterr()
        assert main(["rank", "--input", str(path), "--max-k", "8",
                     "--seed", str(seed)]) == 0
        out = capsys.readouterr().out
        selected = int(out.strip().splitlines()[-1].split()[-1])
        hits += (selected == 3)
    assert hits >= 9, f"K=3 selected in only {hits} of 10 seeds"

    mt_path = tmp_path / "mt.csv"
    mt_data, _ = simulate_multitreatment(two_state_discrete(), 2000, seed=0)
    write_dataset(mt_path, mt_data)
    capsys.readouterr()
    assert main(["rank", "--input", str(mt_path), "--max-k", "5"]) == 0
    out = capsys.readouterr().out
    assert out.strip().splitlines()[-1] == "selected rank: 2"
    print(f"rank selection: {hits}/10 seeds chose K=3; discrete chose K=2")


def test_criterion_9_round_trip_persistence(tmp_path, proxy_case,
                                            discrete_case):
    # dataset CSV round-trips exactly; saved models reproduce
    # predictions within 1e-12
    _, data, _ = proxy_case
    ds = tmp_path / "d.csv"
    write_dataset(ds, data)
    back, mode = read_dataset(ds)
    assert mode == "multiproxy"
    assert all(np.array_equal(back[k], data[k]) for k in data)

    _, mt_data, _ = discrete_case
    mt_ds = tmp_path / "mt.csv"
    write_dataset(mt_ds, mt_data)
    mt_back, _ = read_dataset(mt_ds)
    assert all(np.array_equal(mt_back[k], mt_data[k]) for k in mt_data)

    mixture = fit_multiview(data["z1"], data["z2"], data["z3"], 3,
                            kernel=KernelSpec(bandwidth=1.0), seed=0)
    ce = fit_effects(data, mixture)
    mp = tmp_path / "m.json"
    save_model(mp, ce)
    loaded = load_model(mp)
    ate_dev = max(abs(estimate_ate(loaded, a) - estimate_ate(ce, a))
                  for a in (-2.0, 0.0, 0.5, 3.0))
    assert ate_dev <= 1e-12

    mt_model = fit_multitreatment(mt_data["a1"], mt_data["a2"], mt_data["a3"],
                                  mt_data["y"], 2, seed=0)
    mtp = tmp_path / "mt.json"
    save_model(mtp, mt_model)
    mt_loaded = load_model(mtp)
    mt_dev = max(abs(mt_ate(mt_loaded, p) - mt_ate(mt_model, p))
                 for p in ((0, 0, 0), (1, 1, 1), (4, 2, 3)))
    assert mt_dev <= 1e-12
    print(f"persistence: dataset exact, model deviations {ate_dev:.2e} / "
          f"{mt_dev:.2e} (limit 1e-12)")
