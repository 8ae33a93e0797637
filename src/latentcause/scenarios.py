"""Seeded simulation designs with ground truth, and brute-force oracles.

Two reference designs are built in. The three-cluster Gaussian design draws
a hidden label from three nearly balanced states, three Gaussian proxy
views with state- and view-specific centers, a continuous treatment whose
mean is linear in the first view, and a continuous outcome linear in
(1, a, z1). The two-state discrete design draws three categorical
treatments from per-state emission columns and an outcome linear in
(1, a1, a2, a3).

The oracles here are deliberately naive (direct Gaussian Bayes arithmetic,
plain Monte Carlo) so tests can compare the estimation pipeline against an
independent code path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .causal import _columns, _regressors
from .errors import DimensionMismatch, InvalidConfig, _floats, _integer, _positive
from .mixture import PosteriorMatrix, _as_levels, _as_views, _items, _seed_sequence

_EMISSIONS_RESOURCE = "two_state_emissions.json"


# ---------------------------------------------------------------------------
# scenario descriptions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MultiProxyScenario:
    """Gaussian mixture design: three continuous proxy views, one treatment.

    ``means[v]`` is the K x d matrix of component centers for view v. The
    treatment is N(alpha_u . z1, treatment_var_u) and the outcome is
    N(beta_u . [1, a, z1], outcome_sigma^2), both conditioned on the hidden
    state u.
    """

    priors: np.ndarray
    means: tuple                    # three K x d arrays
    proxy_sigma: float
    alpha: np.ndarray               # K x d
    treatment_var: np.ndarray       # K
    beta: np.ndarray                # K x (2 + d)
    outcome_sigma: float = 1.0

    def __post_init__(self):
        p = _floats(self.priors, "priors")
        if p.ndim != 1 or abs(p.sum() - 1.0) > 1e-10 or np.any(p < 0):
            raise InvalidConfig("priors must be a probability vector")
        k = p.shape[0]
        means = tuple(_floats(m, "means") for m in _items(self.means, "means"))
        if len(means) != 3 or any(m.ndim != 2 or m.shape != means[0].shape for m in means):
            raise DimensionMismatch("need three equally shaped 2-d mean matrices")
        d = means[0].shape[1]
        if means[0].shape[0] != k:
            raise DimensionMismatch("means rows must match the number of states")
        alpha = _floats(self.alpha, "alpha")
        beta = _floats(self.beta, "beta")
        tvar = _floats(self.treatment_var, "treatment variances")
        if alpha.shape != (k, d):
            raise DimensionMismatch(f"alpha must be {k} x {d}, got {alpha.shape}")
        if beta.shape != (k, 2 + d):
            raise DimensionMismatch(f"beta must be {k} x {2 + d}, got {beta.shape}")
        if tvar.shape != (k,) or np.any(tvar <= 0):
            raise InvalidConfig("treatment variances must be positive, one per state")
        for name in ("proxy_sigma", "outcome_sigma"):
            object.__setattr__(self, name, _positive(getattr(self, name), name))
        object.__setattr__(self, "priors", p)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "treatment_var", tvar)

    @property
    def n_states(self) -> int:
        return self.priors.shape[0]

    @property
    def dim(self) -> int:
        return self.means[0].shape[1]


@dataclass(frozen=True)
class MultiTreatmentScenario:
    """Discrete design: three categorical treatments, linear outcome."""

    priors: np.ndarray
    emissions: tuple                # three S x K column-stochastic matrices
    gamma: np.ndarray               # K x 4 coefficients on (1, a1, a2, a3)
    noise_sigma: float = 1.0

    def __post_init__(self):
        p = _floats(self.priors, "priors")
        if p.ndim != 1 or abs(p.sum() - 1.0) > 1e-10 or np.any(p < 0):
            raise InvalidConfig("priors must be a probability vector")
        k = p.shape[0]
        ems = tuple(_floats(e, "emissions") for e in _items(self.emissions, "emissions"))
        if len(ems) != 3 or any(e.ndim != 2 or e.shape != ems[0].shape for e in ems):
            raise DimensionMismatch("need three equally shaped 2-d emission matrices")
        if ems[0].shape[1] != k:
            raise DimensionMismatch("emission columns must match the number of states")
        for e in ems:
            if np.any(e < 0) or np.max(np.abs(e.sum(axis=0) - 1.0)) > 1e-8:
                raise InvalidConfig("emission columns must be stochastic")
            if np.linalg.matrix_rank(e) < k:
                raise InvalidConfig("emission matrices must have full column rank")
        g = _floats(self.gamma, "gamma")
        if g.shape != (k, 4):
            raise DimensionMismatch(f"gamma must be {k} x 4, got {g.shape}")
        object.__setattr__(self, "noise_sigma", _positive(self.noise_sigma, "noise_sigma"))
        object.__setattr__(self, "priors", p)
        object.__setattr__(self, "emissions", ems)
        object.__setattr__(self, "gamma", g)

    @property
    def n_states(self) -> int:
        return self.priors.shape[0]

    @property
    def levels(self) -> int:
        return self.emissions[0].shape[0]


def three_cluster_gaussian() -> MultiProxyScenario:
    """The built-in three-state Gaussian proxy design."""
    means = (
        np.array([[-3.0, 0.0, 0.0], [0.0, 3.0, 0.0], [3.0, -1.0, 2.0]]),
        np.array([[0.0, -3.0, 1.0], [-2.0, 0.0, 3.0], [3.0, 0.0, 0.0]]),
        np.array([[3.0, 1.0, -1.0], [1.0, 0.0, 3.0], [0.0, -2.0, 0.0]]),
    )
    return MultiProxyScenario(
        priors=np.array([0.33, 0.33, 0.34]),
        means=means,
        proxy_sigma=0.8,
        alpha=np.array([[1.0, 0.5, -0.5], [-0.5, 1.0, 0.5], [0.5, -0.5, 1.0]]),
        treatment_var=np.array([0.6, 1.0, 0.8]),
        beta=np.array([
            [1.0, 2.5, 0.5, 0.5, 0.5],
            [5.0, -1.0, -0.5, 0.5, -0.5],
            [2.0, 4.0, 1.0, -1.0, 1.0],
        ]),
        outcome_sigma=1.0,
    )


def two_state_discrete() -> MultiTreatmentScenario:
    """The built-in two-state discrete treatment design.

    Emission matrices are fixed constants (seeded Dirichlet columns checked
    for a healthy second singular value) shipped with the package so results
    are reproducible.
    """
    ref = resources.files("latentcause.data").joinpath(_EMISSIONS_RESOURCE)
    payload = json.loads(ref.read_text())
    return MultiTreatmentScenario(
        priors=np.asarray(payload["priors"], dtype=float),
        emissions=tuple(np.asarray(e, dtype=float) for e in payload["emissions"]),
        gamma=np.array([[1.0, 0.5, 2.5, -0.5], [-1.0, 1.5, -1.0, 0.8]]),
        noise_sigma=1.0,
    )


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def simulate_multiproxy(s: MultiProxyScenario, n: int, seed=0):
    """Draw n samples; returns (data dict, hidden labels).

    The data dict has keys z1, z2, z3 (n x d), a, y (n,). Reproducible
    bit-exactly per seed; draws happen in a fixed order regardless of n.
    """
    n = _integer(n, "n must be a nonnegative integer", 0)
    rng = np.random.default_rng(_seed_sequence(seed))
    k, d = s.n_states, s.dim
    u = rng.choice(k, size=n, p=s.priors)
    views = [s.means[v][u] + s.proxy_sigma * rng.standard_normal((n, d))
             for v in range(3)]
    a_mean = np.einsum("nd,nd->n", s.alpha[u], views[0])
    a = a_mean + np.sqrt(s.treatment_var[u]) * rng.standard_normal(n)
    psi = _regressors(a, views[0])
    y = (np.einsum("nf,nf->n", s.beta[u], psi)
         + s.outcome_sigma * rng.standard_normal(n))
    data = {"z1": views[0], "z2": views[1], "z3": views[2], "a": a, "y": y}
    return data, u


def simulate_multitreatment(s: MultiTreatmentScenario, n: int, seed=0):
    """Draw n samples; returns (data dict, hidden labels).

    The data dict has keys a1, a2, a3 (integer levels) and y.
    """
    n = _integer(n, "n must be a nonnegative integer", 0)
    rng = np.random.default_rng(_seed_sequence(seed))
    k, levels = s.n_states, s.levels
    u = rng.choice(k, size=n, p=s.priors)
    treats = []
    for v in range(3):
        cdf = np.cumsum(s.emissions[v], axis=0)          # S x K
        draws = rng.random(n)
        treats.append((draws[:, None] > cdf.T[u]).sum(axis=1))
    xi = _regressors(np.column_stack(treats), None)
    y = (np.einsum("nf,nf->n", s.gamma[u], xi)
         + s.noise_sigma * rng.standard_normal(n))
    data = {"a1": treats[0], "a2": treats[1], "a3": treats[2], "y": y}
    return data, u


# The bundled designs of the paper's two simulation studies, by mode:
# (CLI scenario name, scenario factory, simulator, true K).
_DESIGNS = {
    "multiproxy": ("paper-7.1", three_cluster_gaussian, simulate_multiproxy, 3),
    "multitreatment": ("paper-7.2", two_state_discrete, simulate_multitreatment, 2),
}


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def _gaussian_view_loglik(s: MultiProxyScenario, view: int, z: np.ndarray):
    """n x K log density of one proxy view under each state."""
    diff = z[:, None, :] - s.means[view][None, :, :]      # n x K x d
    sq = np.sum(diff * diff, axis=2)
    d = s.dim
    return -0.5 * sq / s.proxy_sigma ** 2 - d * np.log(
        s.proxy_sigma * np.sqrt(2.0 * np.pi)
    )


def _normalised(log_w: np.ndarray) -> PosteriorMatrix:
    """Posteriors from n x K log weights: rows shifted by their max, exponentiated, scaled to 1."""
    log_w -= log_w.max(axis=1, keepdims=True)
    w = np.exp(log_w)
    w /= w.sum(axis=1, keepdims=True)
    return PosteriorMatrix(weights=w)


def oracle_posteriors(s: MultiProxyScenario, data: dict) -> PosteriorMatrix:
    """Exact Bayes posteriors over states given the three proxy views.

    The columns are read as ``fit_effects`` reads them: a 1-d view is one column.
    """
    zs = _as_views(*_columns(data, "z1", "z2", "z3"))
    if zs[0].shape[1] != s.dim:
        raise DimensionMismatch(f"views need the design's {s.dim} columns, got {zs[0].shape[1]}")
    return _normalised(np.log(s.priors)[None, :] + sum(
        _gaussian_view_loglik(s, v, zs[v]) for v in range(3)))


def oracle_discrete_posteriors(s: MultiTreatmentScenario, data: dict) -> PosteriorMatrix:
    """Exact Bayes posteriors over states given the three treatments."""
    treats, _ = _as_levels(*_columns(data, "a1", "a2", "a3"), levels=s.levels)
    return _normalised(np.log(s.priors)[None, :] + sum(
        np.log(s.emissions[v][treats[v], :]) for v in range(3)))


def true_ate_multiproxy(s: MultiProxyScenario, a: float) -> float:
    """Closed-form dose response for the Gaussian design at one treatment level."""
    a = _floats(a, "treatment level")
    if a.size != 1:
        raise DimensionMismatch(f"the dose response takes one treatment level, got {a.size}")
    psi_mean = np.column_stack([np.ones(s.n_states), np.full(s.n_states, a.item()), s.means[0]])
    return float(s.priors @ np.einsum("kf,kf->k", s.beta, psi_mean))


def true_ate_multitreatment(s: MultiTreatmentScenario, a) -> float:
    """Closed-form dose response for the discrete design at levels a."""
    xi = np.concatenate([[1.0], _floats(a, "treatment levels").ravel()])
    if xi.shape[0] != 4:
        raise DimensionMismatch("treatment vector must have three entries")
    return float(s.priors @ (s.gamma @ xi))
