"""Treatment and outcome stages on top of a recovered mixture.

Stage one scores every sample with mixture posteriors. Stage two fits a
per-component Gaussian treatment model whose mean is linear in z with no
intercept: one stacked weighted least-squares solve for the mean
coefficients, then a residual decomposition for the per-component noise
variances. Stage three folds the treatment likelihood back into the weights
and fits outcome coefficients on the affine regressors [1, a, z] the same
stacked way. The stages take the columns ``fit_effects`` has checked, and
one private helper lays out [1, a, z] from checked arrays. The fit stores the
posterior-weighted per-component averages of z, and the dose response is
read from them alone, so no explicit integration over the proxy
distribution is needed and a saved model reproduces it without data.

All fits are pure functions of (data, weights) and are safe to run
concurrently on disjoint datasets.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateCluster,
    DimensionMismatch,
    EmptyInput,
    InvalidConfig,
    SingularSystem,
    _floats,
)
from .mixture import (
    MixtureEstimate,
    PosteriorMatrix,
    _as_views,
    _bayes_rows,
    _check_component,
    posteriors,
)

SIGMA_FLOOR = 1e-6
CLUSTER_FLOOR = 1e-8
RIDGE_LADDER = (1e-8, 1e-6)
_SQRT_2PI = np.sqrt(2 * np.pi)


# ---------------------------------------------------------------------------
# regressors
# ---------------------------------------------------------------------------

def _regressors(a, z, width: int | None = None) -> np.ndarray:
    """Stage regressors [1, a, z], one row per sample, from checked arrays.

    A 1-d ``a`` holds one scalar treatment per row and a 2-d ``a`` one column
    per treatment; z may be None after a treatment, which is how the basis
    [1, a1, a2, a3] arises. A single-row argument is repeated to the
    other's rows, which is how a fixed intervention level is paired with
    many samples. ``width`` is the column count fitted coefficients expect.
    """
    parts = [a.reshape(-1, 1) if a.ndim < 2 else a]
    if z is not None:
        parts.append(np.atleast_2d(z))
    if any(p.ndim != 2 for p in parts):
        raise DimensionMismatch("treatment and z inputs must be at most 2-d")
    n = max(p.shape[0] for p in parts)
    if any(p.shape[0] not in (1, n) for p in parts):
        raise DimensionMismatch("treatment and z inputs disagree on rows")
    feats = np.hstack([np.ones((n, 1))]
                      + [np.broadcast_to(p, (n, p.shape[1])) for p in parts])
    if width is not None and feats.shape[1] != width:
        raise DimensionMismatch(
            f"the inputs give {feats.shape[1]} regressor columns, the model "
            f"has {width}"
        )
    return feats


# ---------------------------------------------------------------------------
# model types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TreatmentModel:
    """Per-component Gaussian treatment model: mean coefficients and noise."""

    alpha: np.ndarray                        # K x d_z mean coefficients on z
    sigma2: np.ndarray                       # K noise variances, floored
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        alpha = _floats(self.alpha, "treatment parameters")
        sigma2 = _floats(self.sigma2, "treatment parameters")
        if alpha.ndim != 2:
            raise DimensionMismatch("alpha must be K x L")
        if sigma2.shape != (alpha.shape[0],):
            raise DimensionMismatch("need one variance per component")
        if np.any(sigma2 < SIGMA_FLOOR):
            raise InvalidConfig(f"variances must be at least {SIGMA_FLOOR:g}")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "sigma2", sigma2)

    @property
    def n_components(self) -> int:
        return self.alpha.shape[0]


@dataclass(frozen=True)
class OutcomeModel:
    """Per-component outcome coefficients over the regressors [1, a, z]."""

    beta: np.ndarray                         # K x (2 + d_z)
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        beta = _floats(self.beta, "outcome coefficients")
        if beta.ndim != 2:
            raise DimensionMismatch("beta must be K x M")
        object.__setattr__(self, "beta", beta)

    @property
    def n_components(self) -> int:
        return self.beta.shape[0]


@dataclass(frozen=True)
class CausalEstimate:
    """Complete fitted pipeline over one dataset.

    ``z_feature_means`` holds the posterior-weighted training averages of
    the regressor z, one row per component. Dose-response
    summaries evaluated from these stored rows are reproducible from the
    persisted artifact alone, with no training data at hand.
    """

    mixture: MixtureEstimate
    treatment: TreatmentModel
    outcome: OutcomeModel
    z_feature_means: np.ndarray              # K x d_z
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        zbar = _floats(self.z_feature_means, "stored feature averages")
        k = self.mixture.n_components
        if zbar.ndim != 2 or zbar.shape[0] != k:
            raise DimensionMismatch("need one stored feature row per component")
        if self.treatment.n_components != k or self.outcome.n_components != k:
            raise DimensionMismatch("stage models disagree on component count")
        d_z = zbar.shape[1]
        widths = (self.treatment.alpha.shape[1], self.outcome.beta.shape[1])
        if widths != (d_z, 2 + d_z):
            raise DimensionMismatch(
                f"with {d_z} z columns, alpha needs {d_z} columns and beta "
                f"{2 + d_z}, got {widths[0]} and {widths[1]}"
            )
        object.__setattr__(self, "z_feature_means", zbar)

    @property
    def priors(self) -> np.ndarray:
        return self.mixture.priors

    @property
    def n_components(self) -> int:
        return self.mixture.n_components


# ---------------------------------------------------------------------------
# stacked weighted least squares
# ---------------------------------------------------------------------------

def _solve_normal_equations(gram_m, rhs):
    """Positive-definite solve with an escalating ridge.

    Starts with no ridge and climbs the ladder whenever the Cholesky
    factorization refuses the matrix or the solve is not finite, warning on
    each escalation. The solution is two solves on the Cholesky factor.
    """
    ladder = (0.0,) + RIDGE_LADDER
    eye = np.eye(gram_m.shape[0])
    for step, r in enumerate(ladder):
        try:
            chol = np.linalg.cholesky(gram_m + r * eye)
            sol = np.linalg.solve(chol.T, np.linalg.solve(chol, rhs))
        except np.linalg.LinAlgError:
            continue
        if np.all(np.isfinite(sol)):
            if step:
                warnings.warn(
                    f"normal equations were singular; ridge escalated to {r:g}",
                    RuntimeWarning, stacklevel=3,
                )
            return sol, float(r)
    raise SingularSystem(
        f"normal equations stayed singular at the maximum ridge "
        f"{ladder[-1]:g}"
    )


def _stacked_regression(feats, weights, target):
    """Solve the component-stacked weighted normal equations.

    Every sample contributes the block vector (w_i1 phi_i, ..., w_iK phi_i);
    regressing the target on it recovers all K coefficient blocks in one
    KL-dimensional solve. Returns (K x L coefficients, ridge used).
    """
    n, l = feats.shape
    k = weights.shape[1]
    stacked = (weights[:, :, None] * feats[:, None, :]).reshape(n, k * l)
    sol, used = _solve_normal_equations(stacked.T @ stacked, stacked.T @ target)
    return sol.reshape(k, l), used


def _check_rows(n, *arrays):
    if any(x.shape[0] != n for x in arrays):
        raise DimensionMismatch("inputs disagree on the number of rows")


def _columns(data: dict, *keys) -> list:
    """The named columns of a dataset; a missing one raises InvalidConfig."""
    for key in keys:
        if key not in data:
            raise InvalidConfig(f"dataset is missing the {key!r} column")
    return [data[key] for key in keys]


def _scalar_target(x, name):
    vec = _floats(x, f"{name} values").ravel()
    if vec.shape[0] == 0:
        raise EmptyInput(f"no {name} values")
    return vec


def _component_means(weights, x):
    """Posterior-weighted per-component row averages of x, one row per component."""
    totals = weights.sum(axis=0)
    low = totals < CLUSTER_FLOOR
    if np.any(low):
        raise DegenerateCluster(
            f"component {int(np.argmax(low))} carries posterior mass "
            f"{totals.min():.3g}, below {CLUSTER_FLOOR:g}"
        )
    return (weights.T @ x) / totals[:, None]


# ---------------------------------------------------------------------------
# stage two: treatment model
# ---------------------------------------------------------------------------

def fit_treatment(a, z, w: PosteriorMatrix) -> TreatmentModel:
    """Per-component Gaussian treatment model: mean coefficients, then variances.

    The means are linear in z with no intercept and solve the stacked
    weighted normal equations for all components at once; with one-hot
    weights this is exactly independent per-component least squares. The
    variances come from the pooled squared residuals: the squared residual
    against the posterior-mixed mean overshoots the within-component noise
    by the spread of the component means, so that spread is subtracted from
    the target before the K x K solve. Variances below the floor are clamped
    to it.
    """
    alpha, used = _stacked_regression(z, w.weights, a)

    means = z @ alpha.T                                     # n x K
    mixed = np.einsum("nk,nk->n", w.weights, means)
    spread = np.einsum("nk,nk->n", w.weights, means ** 2) - mixed ** 2
    target = (a - mixed) ** 2 - spread
    sol, var_used = _solve_normal_equations(w.weights.T @ w.weights, w.weights.T @ target)
    clamped = int(np.sum(sol < SIGMA_FLOOR))
    if clamped:
        warnings.warn(
            f"{clamped} variance estimates fell below {SIGMA_FLOOR:g} "
            "and were clamped",
            RuntimeWarning, stacklevel=2,
        )
    return TreatmentModel(
        alpha=alpha,
        sigma2=np.maximum(sol, SIGMA_FLOOR),
        diagnostics={
            "ridge": used,
            "variance_ridge": var_used,
            "variance_clamped": clamped,
        },
    )


# ---------------------------------------------------------------------------
# stage three: updated weights and outcome model
# ---------------------------------------------------------------------------

def update_posteriors(w: PosteriorMatrix, tm: TreatmentModel, a, z) -> PosteriorMatrix:
    """Fold the treatment likelihood into proxy-only weights.

    The Bayes product is accumulated in log space. Rows whose products all
    collapse (a likelihood that underflows or overflows) fall back to the
    incoming weights and are counted, as in the proxy stage.
    """
    means = z @ tm.alpha.T                                   # n x K
    sd = np.sqrt(tm.sigma2)[None, :]
    z_score = (a[:, None] - means) / sd
    with np.errstate(divide="ignore", over="ignore"):     # such rows fall back below
        log_w = np.log(w.weights) + ((-z_score ** 2 / 2.0 - np.log(_SQRT_2PI)) - np.log(sd))
    return _bayes_rows(log_w, False, w.weights,
                       "had no usable treatment likelihood; "
                       "their weights were left as supplied")


def fit_outcome(a, z, y, w: PosteriorMatrix) -> OutcomeModel:
    """Per-component outcome coefficients on [1, a, z], from updated weights."""
    beta, used = _stacked_regression(_regressors(a, z), w.weights, y)
    return OutcomeModel(beta=beta, diagnostics={"ridge": used})


# ---------------------------------------------------------------------------
# effect summaries
# ---------------------------------------------------------------------------

def estimate_cate(om: OutcomeModel, u: int, a, z):
    """Conditional effect surface for one component at (a, z).

    Scalar inputs give a float; row inputs give one value per row.
    """
    u = _check_component(u, om.n_components)
    a, z = (_floats(x, "treatment and z values") for x in (a, z))
    vals = _regressors(a, z, om.beta.shape[1]) @ om.beta[u]
    if a.ndim == 0 and vals.shape[0] == 1:
        return float(vals[0])
    return vals


def estimate_ate(ce: CausalEstimate, a) -> float:
    """Dose response at intervention level a.

    The per-component feature expectations are the posterior-weighted
    training averages stored on the estimate, so a persisted artifact
    reproduces the value with no data at hand.
    """
    return float(ce.priors @ _ate_by_component(ce, a))


def _ate_by_component(ce: CausalEstimate, a) -> np.ndarray:
    """Each component's expected outcome at level a; ``estimate_ate`` mixes them."""
    level = _floats(a, "treatment and z values").ravel()
    if level.shape != (1,):
        raise DimensionMismatch(f"the dose response takes one treatment level, "
                                f"got {level.size}")
    feats = _regressors(level, ce.z_feature_means, ce.outcome.beta.shape[1])
    return np.einsum("km,km->k", ce.outcome.beta, feats)


def fit_effects(data: dict, mixture: MixtureEstimate) -> CausalEstimate:
    """Run the full pipeline on a dataset with a fitted mixture.

    ``data`` is a mapping with keys z1, z2, z3, a, y. Both regression
    stages consume the first view: the treatment mean is linear in z1 with
    no intercept and the outcome is affine in (a, z1), matching the
    built-in Gaussian design. The columns are checked here, once, the views
    by the reader ``posteriors`` uses; the stages take them as read.
    """
    cols = _columns(data, "z1", "z2", "z3", "a", "y")
    z1, z2, z3 = _as_views(*cols[:3])
    a_vec = _scalar_target(cols[3], "treatment")
    y_vec = _scalar_target(cols[4], "outcome")
    _check_rows(a_vec.shape[0], z1, y_vec)

    w = posteriors(mixture, z1, z2, z3)
    tm = fit_treatment(a_vec, z1, w)
    w_updated = update_posteriors(w, tm, a_vec, z1)
    om = fit_outcome(a_vec, z1, y_vec, w_updated)

    z_feature_means = _component_means(w.weights, z1)

    diagnostics = {
        "proxy_fallbacks": w.fallback_count,
        "treatment_fallbacks": w_updated.fallback_count,
        "treatment_ridge": tm.diagnostics.get("ridge", 0.0),
        "outcome_ridge": om.diagnostics.get("ridge", 0.0),
        "variance_clamped": tm.diagnostics.get("variance_clamped", 0),
    }
    return CausalEstimate(
        mixture=mixture,
        treatment=tm,
        outcome=om,
        z_feature_means=z_feature_means,
        diagnostics=diagnostics,
    )
