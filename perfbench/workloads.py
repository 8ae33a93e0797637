"""The benchmark's workloads: inputs, front-door calls, output checks, accuracy.

Every workload generates its arrays with the package's ``simulate_*`` and
hands the program only those arrays. Fits use seed 0, the true K and
``bandwidth=1.0``, as the README and the CLI do.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import replace

import numpy as np

import latentcause as lc
from measures import align, aligned_max_error, mean_tv

# Stochastic rows and priors must sum to one within this.
SUM_TOL = 1e-9


class CheckFailed(Exception):
    """A front-door call returned, but its output broke a promised property."""


def _check_stochastic(vec, what):
    arr = np.asarray(vec, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise CheckFailed(f"{what} hold non-finite values")
    if np.any(arr < 0.0):
        raise CheckFailed(f"{what} hold negative values")
    worst = float(np.max(np.abs(arr.sum(axis=-1) - 1.0)))
    if worst > SUM_TOL:
        raise CheckFailed(f"{what} sum to one only within {worst:.3g}")


class ProxyWorkload:
    """``fit_multiview`` + ``fit_effects`` on the three-view Gaussian design."""

    kind = "fit"
    warmup = 1

    def __init__(self, n, proxy_sigma=None, landmarks=None):
        scenario = lc.three_cluster_gaussian()
        if proxy_sigma is not None:
            scenario = replace(scenario, proxy_sigma=proxy_sigma)
        self.scenario = scenario
        self.n = n
        self.kernel = (lc.KernelSpec(bandwidth=1.0) if landmarks is None
                       else lc.KernelSpec(bandwidth=1.0, landmark_count=landmarks))

    def data(self, seed):
        data, _ = lc.simulate_multiproxy(self.scenario, self.n, seed=seed)
        return data

    def call(self, data):
        mixture = lc.fit_multiview(data["z1"], data["z2"], data["z3"], k=3,
                                   kernel=self.kernel, seed=0)
        return lc.fit_effects(data, mixture)

    def outputs(self, model):
        return np.concatenate([model.priors, model.outcome.beta.ravel()])

    def weights(self, model, data):
        return lc.posteriors(model.mixture, data["z1"], data["z2"], data["z3"]).weights

    def ates(self, model):
        return (lc.estimate_ate(model, 1.0), lc.estimate_ate(model, 0.0))

    def accuracy(self, model, data, weights):
        s = self.scenario
        beta = model.outcome.beta
        perm = align(beta, s.beta)
        est_ate, est_base = self.ates(model)
        truth = lc.true_ate_multiproxy(s, 1.0) - lc.true_ate_multiproxy(s, 0.0)
        return {
            "slope_err": aligned_max_error(beta[:, 1], s.beta[:, 1], perm),
            "prior_err": aligned_max_error(model.priors, s.priors, perm),
            "posterior_tv": mean_tv(weights, lc.oracle_posteriors(s, data).weights, perm),
            "ate_err": abs((est_ate - est_base) - truth),
        }


class TreatWorkload:
    """``fit_multitreatment`` on the two-state discrete design."""

    kind = "fit"
    # The first few fits in a process run about three times slower.
    warmup = 5

    def __init__(self, n):
        self.scenario = lc.two_state_discrete()
        self.n = n

    def data(self, seed):
        data, _ = lc.simulate_multitreatment(self.scenario, self.n, seed=seed)
        return data

    def call(self, data):
        return lc.fit_multitreatment(data["a1"], data["a2"], data["a3"], data["y"],
                                     k=2, seed=0)

    def outputs(self, model):
        return np.concatenate([model.priors, model.gamma.ravel()])

    def weights(self, model, data):
        return lc.posteriors(model.mixture, data["a1"], data["a2"], data["a3"]).weights

    def ates(self, model):
        return (lc.mt_ate(model, (1, 1, 1)), lc.mt_ate(model, (0, 0, 0)))

    def accuracy(self, model, data, weights):
        s = self.scenario
        perm = align(model.gamma, s.gamma)
        est_ate, est_base = self.ates(model)
        truth = (lc.true_ate_multitreatment(s, (1, 1, 1))
                 - lc.true_ate_multitreatment(s, (0, 0, 0)))
        oracle = lc.oracle_discrete_posteriors(s, data).weights
        return {
            "slope_err": aligned_max_error(model.gamma[:, 1:], s.gamma[:, 1:], perm),
            "prior_err": aligned_max_error(model.priors, s.priors, perm),
            "posterior_tv": mean_tv(weights, oracle, perm),
            "ate_err": abs((est_ate - est_base) - truth),
        }


class SweepWorkload:
    """``run_benchmark`` over small multiproxy fits in the program's own pool.

    A sweep returns rows, not a model, so the model that is saved, reloaded
    and scored against the oracles comes from a front-door fit at the
    sweep's largest size with the same kernel settings; that fit is also
    the set-up's warm-up.
    """

    kind = "sweep"
    warmup = 1
    ns = (500, 1000, 2000)
    trials = 2

    def __init__(self):
        self.reference = ProxyWorkload(max(self.ns))

    def sweep(self, seed, workers=None):
        return lc.run_benchmark("multiproxy", list(self.ns), trials=self.trials,
                                seed=seed, workers=workers, bandwidth=1.0)

    def check_rows(self, rows):
        failed = [r["error"] for r in rows if r["error"]]
        if failed:
            raise CheckFailed(f"{len(failed)} trial(s) failed: {failed[0]}")
        expected = len(self.ns) * self.trials * 3 * 2
        if len(rows) != expected:
            raise CheckFailed(f"sweep returned {len(rows)} rows, expected {expected}")
        values = [float(r[key]) for r in rows
                  for key in ("estimate", "aligned_abs_error", "wall_ms")]
        if not all(math.isfinite(v) for v in values):
            raise CheckFailed("sweep rows hold non-finite values")

    @staticmethod
    def trial_ms(rows):
        """Median of the trials' own wall_ms."""
        per_trial = {(r["n"], r["trial"]): float(r["wall_ms"]) for r in rows}
        return statistics.median(per_trial.values())

    @staticmethod
    def row_accuracy(rows):
        """Median over trials of the largest aligned error per parameter."""
        out = {}
        for parameter, name in (("beta_a", "slope_err"), ("prior", "prior_err")):
            worst = {}
            for r in rows:
                if r["parameter"] == parameter:
                    key = (r["n"], r["trial"])
                    worst[key] = max(worst.get(key, 0.0), float(r["aligned_abs_error"]))
            out[name] = statistics.median(worst.values())
        return out


WORKLOADS = {
    "proxy-overlap-4k": lambda: ProxyWorkload(4000, proxy_sigma=2.4),
    "proxy-tall-64k": lambda: ProxyWorkload(64000, landmarks=250),
    "treat-100k": lambda: TreatWorkload(100_000),
    "sweep-small": SweepWorkload,
}


def check_fit(workload, model, data, first_outputs):
    """Output check of one fit; returns the posterior weights when it scored them.

    The first fit on a dataset has its posterior rows checked in full; later
    fits on the same data must reproduce its outputs bit for bit.
    """
    _check_stochastic(model.priors, "priors")
    outputs = workload.outputs(model)
    if first_outputs is not None:
        if not np.array_equal(outputs, first_outputs):
            raise CheckFailed("a repeated fit on the same data changed its output")
        return None
    weights = workload.weights(model, data)
    _check_stochastic(weights, "posterior rows")
    return weights


def check_reload(workload, model, loaded):
    """A reloaded model must reproduce the effect estimates bit for bit."""
    before, after = workload.ates(model), workload.ates(loaded)
    if before != after:
        raise CheckFailed(f"reloaded model gives {after}, fitted model {before}")
