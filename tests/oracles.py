"""Independent brute-force oracles used by the test suite.

Everything in this module is deliberately written as naive loops and direct
formula arithmetic, sharing no code with the package under test. When a test
compares a library result against one of these functions, agreement means two
independent code paths produced the same numbers.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


# ---------------------------------------------------------------------------
# tensor oracles
# ---------------------------------------------------------------------------

def third_moment_loop(xi1: np.ndarray, xi2: np.ndarray, xi3: np.ndarray) -> np.ndarray:
    """Fully symmetrized third moment: sum of all 6 orderings over samples / 6n."""
    n, k = xi1.shape
    out = np.zeros((k, k, k))
    for s in range(n):
        triples = itertools.permutations((xi1[s], xi2[s], xi3[s]))
        for a, b, c in triples:
            for i in range(k):
                for j in range(k):
                    for l in range(k):
                        out[i, j, l] += a[i] * b[j] * c[l]
    return out / (6.0 * n)


def planted_orthogonal_tensor(lambdas, vectors) -> np.ndarray:
    """Sum of lambda_j * v_j (x) v_j (x) v_j built entry by entry.

    ``vectors`` holds one unit vector per row.
    """
    vectors = np.asarray(vectors, dtype=float)
    k = vectors.shape[1]
    out = np.zeros((k, k, k))
    for lam, v in zip(lambdas, vectors):
        for i in range(k):
            for j in range(k):
                for l in range(k):
                    out[i, j, l] += lam * v[i] * v[j] * v[l]
    return out


# ---------------------------------------------------------------------------
# Bayes posterior oracles (direct density arithmetic, row by row)
# ---------------------------------------------------------------------------

def gaussian_logpdf(x, mean, var) -> float:
    """Log density of a (possibly multivariate, spherical) normal."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    d = x.size
    quad = float(np.sum((x - mean) ** 2)) / var
    return -0.5 * (d * math.log(2.0 * math.pi * var) + quad)


def bayes_posterior_row(priors, log_liks) -> np.ndarray:
    """Posterior over components from log likelihood contributions."""
    logs = [math.log(p) + ll for p, ll in zip(priors, log_liks)]
    top = max(logs)
    unnorm = [math.exp(v - top) for v in logs]
    total = sum(unnorm)
    return np.array([v / total for v in unnorm])


def proxy_posteriors_loop(priors, means, sigma, z1, z2, z3) -> np.ndarray:
    """Exact posteriors P(U=u | z1, z2, z3) for spherical Gaussian views.

    ``means[v][u]`` is the view-v mean of component u; ``sigma[u]`` the
    per-component standard deviation shared by all views.
    """
    n = z1.shape[0]
    k = len(priors)
    views = (z1, z2, z3)
    out = np.zeros((n, k))
    for i in range(n):
        logliks = []
        for u in range(k):
            ll = 0.0
            for v in range(3):
                ll += gaussian_logpdf(views[v][i], means[v][u], sigma[u] ** 2)
            logliks.append(ll)
        out[i] = bayes_posterior_row(priors, logliks)
    return out


def treatment_updated_row(w_row, a, means, variances) -> np.ndarray:
    """One row of the treatment-likelihood posterior update."""
    k = len(w_row)
    liks = [math.exp(gaussian_logpdf(a, means[u], variances[u])) for u in range(k)]
    unnorm = [w_row[u] * liks[u] for u in range(k)]
    total = sum(unnorm)
    return np.array([v / total for v in unnorm])


def discrete_posteriors_loop(priors, emissions, a1, a2, a3) -> np.ndarray:
    """Posteriors for three categorical views given emission tables."""
    n = len(a1)
    k = len(priors)
    views = (a1, a2, a3)
    out = np.zeros((n, k))
    for i in range(n):
        for u in range(k):
            p = priors[u]
            for v in range(3):
                p *= emissions[v][int(views[v][i]), u]
            out[i, u] = p
        out[i] /= out[i].sum()
    return out


# ---------------------------------------------------------------------------
# population tables for planted discrete mixtures
# ---------------------------------------------------------------------------

def population_triple_table(priors, emissions, gamma, scale):
    """Every level triple of a planted discrete design, at population size ``scale``.

    Returns (a1, a2, a3, counts, y_sums): the S^3 triples in lexicographic
    order, P(t) * scale rounded to whole counts, and each triple's sum of y
    without noise, its count times E[y | t] = sum_u P(u | t) gamma_u . (1, t).
    """
    s = len(emissions[0])
    triples, counts, y_sums = [], [], []
    for t in itertools.product(range(s), repeat=3):
        joint = [p * emissions[0][t[0]][u] * emissions[1][t[1]][u] * emissions[2][t[2]][u]
                 for u, p in enumerate(priors)]
        means = [g[0] + g[1] * t[0] + g[2] * t[1] + g[3] * t[2] for g in gamma]
        triples.append(t)
        count = round(sum(joint) * scale)
        counts.append(count)
        y_sums.append(count * sum(j * m for j, m in zip(joint, means)) / sum(joint))
    a1, a2, a3 = (np.array(col) for col in zip(*triples))
    return a1, a2, a3, np.array(counts, dtype=float), np.array(y_sums)


def population_support_table(priors, support, probs):
    """Every support triple of a planted design whose views take finitely many points.

    ``support[v]`` holds view v's points, one per row, and ``probs[v]`` their
    distributions under each component (points x K). Returns (z1, z2, z3,
    weights): one row per triple of point indices in lexicographic order,
    and each triple's mixture probability sum_u pi_u p1u(i) p2u(j) p3u(l).
    """
    rows, weights = [], []
    for t in itertools.product(*(range(len(p)) for p in probs)):
        weights.append(sum(pi * probs[0][t[0]][u] * probs[1][t[1]][u] * probs[2][t[2]][u]
                           for u, pi in enumerate(priors)))
        rows.append(t)
    index = np.array(rows)
    return (*(np.asarray(support[v])[index[:, v]] for v in range(3)), np.array(weights))


# ---------------------------------------------------------------------------
# dense features
# ---------------------------------------------------------------------------

class DenseRows:
    """Features held whole, with the spectral core's three products as plain matmuls."""

    def __init__(self, rows: np.ndarray):
        self.rows = rows
        self.shape = rows.shape

    def __matmul__(self, m: np.ndarray) -> np.ndarray:
        return self.rows @ m

    def tdot(self, w: np.ndarray) -> np.ndarray:
        return self.rows.T @ w

    def cross(self, other, weights=None) -> np.ndarray:
        w = np.ones(self.shape[0]) if weights is None else weights
        return self.rows.T @ (w[:, None] * other.rows) / self.shape[0]


def materialized(features) -> np.ndarray:
    """Every row of a row source or features object, in one array: features @ I."""
    return features @ np.eye(features.shape[1])


# ---------------------------------------------------------------------------
# regression oracles
# ---------------------------------------------------------------------------

def per_group_ols(features: np.ndarray, targets: np.ndarray, labels: np.ndarray,
                  k: int) -> np.ndarray:
    """Independent OLS fit within each labelled group; rows are group coefs."""
    p = features.shape[1]
    out = np.zeros((k, p))
    for u in range(k):
        mask = labels == u
        coef, *_ = np.linalg.lstsq(features[mask], targets[mask], rcond=None)
        out[u] = coef
    return out


def per_group_mean_sq_residual(features, targets, labels, coefs, k) -> np.ndarray:
    out = np.zeros(k)
    for u in range(k):
        mask = labels == u
        resid = targets[mask] - features[mask] @ coefs[u]
        out[u] = float(np.mean(resid ** 2))
    return out


def brute_force_alignment(estimated: np.ndarray, reference: np.ndarray):
    """Minimum total L2 cost assignment by exhausting every permutation.

    Returns (permutation, cost) such that estimated[perm[u]] matches
    reference[u].
    """
    k = estimated.shape[0]
    best_perm, best_cost = None, math.inf
    for perm in itertools.permutations(range(k)):
        cost = 0.0
        for u in range(k):
            cost += float(np.linalg.norm(estimated[perm[u]] - reference[u]))
        if cost < best_cost:
            best_perm, best_cost = perm, cost
    return np.array(best_perm), best_cost


# ---------------------------------------------------------------------------
# moment oracles for planted discrete mixtures
# ---------------------------------------------------------------------------

def discrete_cross_moment(priors, emissions_a, emissions_b) -> np.ndarray:
    """Exact E[onehot(A_a) (x) onehot(A_b)] for a latent-class pair of views."""
    s = emissions_a.shape[0]
    out = np.zeros((s, s))
    for u, p in enumerate(priors):
        for i in range(s):
            for j in range(s):
                out[i, j] += p * emissions_a[i, u] * emissions_b[j, u]
    return out


def monte_carlo_dose_response(scenario_draw, beta, psi, priors, a, draws, seed):
    """Monte-Carlo E_U E_Z[beta_U . psi(a, Z)] from fresh scenario draws.

    ``scenario_draw(rng, size)`` must return (labels, z_rows) from the true
    mixture; ``psi(a, z_rows)`` maps to outcome features.
    """
    rng = np.random.default_rng(seed)
    labels, z = scenario_draw(rng, draws)
    feats = psi(a, z)
    vals = np.einsum("ij,ij->i", feats, beta[labels])
    return float(np.mean(vals)), float(np.std(vals, ddof=1) / math.sqrt(draws))
