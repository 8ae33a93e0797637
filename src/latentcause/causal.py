"""Treatment and outcome stages on top of a recovered mixture.

Stage one scores every sample with mixture posteriors. Stage two fits a
per-component Gaussian treatment model: one stacked weighted least-squares
solve for the mean coefficients, then a residual decomposition for the
per-component noise variances. Stage three folds the treatment likelihood
back into the weights and fits the outcome coefficients the same stacked
way. Dose-response summaries average the outcome features with posterior
weights, so no explicit integration over the proxy distribution is needed.

All fits are pure functions of (data, weights, config) and are safe to run
concurrently on disjoint datasets.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import (
    DegenerateCluster,
    DimensionMismatch,
    EmptyInput,
    InvalidConfig,
    SingularSystem,
)
from .mixture import MixtureEstimate, PosteriorMatrix, _check_component, posteriors

SIGMA_FLOOR = 1e-6
CLUSTER_FLOOR = 1e-8
RIDGE_LADDER = (1e-8, 1e-6)
FEATURE_KINDS = ("linear_z", "constant_treat_linear", "custom")
_SQRT_2PI = np.sqrt(2 * np.pi)


# ---------------------------------------------------------------------------
# feature maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FeatureMap:
    """Deterministic regressor builder for the treatment and outcome stages.

    Three kinds are supported. "linear_z" maps z to itself, for treatment
    means with no intercept. "constant_treat_linear" maps (a, z)
    to [1, a, z]; the z block is simply absent when no z is supplied, which
    is how the basis [1, a1, a2, a3] over three treatments arises. "custom"
    evaluates a tuple of callables f(a, z) -> column, one output column
    each; they must be pure and deterministic.
    """

    kind: str
    output_dim: int
    basis: tuple | None = None

    def __post_init__(self):
        if self.kind not in FEATURE_KINDS:
            raise InvalidConfig(f"unknown feature map kind {self.kind!r}")
        if not isinstance(self.output_dim, (int, np.integer)) or self.output_dim < 1:
            raise InvalidConfig("output_dim must be a positive integer")
        if self.kind == "custom":
            if not self.basis or any(not callable(f) for f in self.basis):
                raise InvalidConfig("custom maps need a tuple of callables")
            if len(self.basis) != self.output_dim:
                raise DimensionMismatch(
                    f"{len(self.basis)} basis functions but output_dim "
                    f"{self.output_dim}"
                )
            object.__setattr__(self, "basis", tuple(self.basis))

    def evaluate(self, a=None, z=None) -> np.ndarray:
        """Feature matrix, one row per sample.

        1-d treatment input means one scalar treatment per row; pass a 2-d
        array for multi-column treatments. A single-row argument is repeated
        to match the other argument's rows, which is how a fixed
        intervention level is paired with many samples.
        """
        a_cols = None
        if a is not None:
            a_cols = np.asarray(a, dtype=float)
            if a_cols.ndim == 0:
                a_cols = a_cols.reshape(1, 1)
            elif a_cols.ndim == 1:
                a_cols = a_cols[:, None]
            elif a_cols.ndim != 2:
                raise DimensionMismatch("treatment input must be at most 2-d")
        z_rows = None
        if z is not None:
            z_rows = np.atleast_2d(np.asarray(z, dtype=float))
            if z_rows.ndim != 2:
                raise DimensionMismatch("z input must be at most 2-d")
        parts = [p for p in (a_cols, z_rows) if p is not None]
        if not parts:
            raise InvalidConfig("feature map evaluated with no inputs")
        n = max(p.shape[0] for p in parts)
        if any(p.shape[0] not in (1, n) for p in parts):
            raise DimensionMismatch("treatment and z inputs disagree on rows")
        if a_cols is not None and a_cols.shape[0] == 1 and n > 1:
            a_cols = np.repeat(a_cols, n, axis=0)
        if z_rows is not None and z_rows.shape[0] == 1 and n > 1:
            z_rows = np.repeat(z_rows, n, axis=0)

        if self.kind == "linear_z":
            if z_rows is None:
                raise InvalidConfig("this feature map needs a z input")
            blocks = [z_rows]
        elif self.kind == "constant_treat_linear":
            if a_cols is None:
                raise InvalidConfig("this feature map needs a treatment input")
            blocks = [np.ones((n, 1)), a_cols]
            if z_rows is not None:
                blocks.append(z_rows)
        else:
            a_arg = a_cols
            if a_cols is not None and a_cols.shape[1] == 1:
                a_arg = a_cols[:, 0]
            cols = []
            for fn in self.basis:
                col = np.asarray(fn(a_arg, z_rows), dtype=float).ravel()
                if col.shape[0] != n:
                    raise DimensionMismatch(
                        f"basis function returned {col.shape[0]} values for "
                        f"{n} rows"
                    )
                cols.append(col)
            blocks = [np.column_stack(cols)]
        out = np.hstack(blocks)
        if out.shape[1] != self.output_dim:
            raise DimensionMismatch(
                f"feature map built {out.shape[1]} columns, declared "
                f"{self.output_dim}"
            )
        return out


def treatment_feature_map(dim: int) -> FeatureMap:
    """Linear-in-z treatment regressors, with no intercept."""
    return FeatureMap(kind="linear_z", output_dim=int(dim))


def outcome_feature_map(z_dim: int, treat_dim: int = 1) -> FeatureMap:
    """Affine regressors [1, a, z] for the outcome stage."""
    return FeatureMap(
        kind="constant_treat_linear",
        output_dim=1 + int(treat_dim) + int(z_dim),
    )


def custom_feature_map(basis) -> FeatureMap:
    """Feature map from explicit basis callables f(a, z) -> column."""
    fns = tuple(basis)
    return FeatureMap(kind="custom", output_dim=len(fns), basis=fns)


# ---------------------------------------------------------------------------
# model types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TreatmentModel:
    """Per-component Gaussian treatment model: mean coefficients and noise."""

    alpha: np.ndarray                        # K x L mean coefficients
    sigma2: np.ndarray                       # K noise variances, floored
    feature_map: FeatureMap
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=float)
        sigma2 = np.asarray(self.sigma2, dtype=float)
        if alpha.ndim != 2:
            raise DimensionMismatch("alpha must be K x L")
        if sigma2.shape != (alpha.shape[0],):
            raise DimensionMismatch("need one variance per component")
        if not np.all(np.isfinite(alpha)) or not np.all(np.isfinite(sigma2)):
            raise InvalidConfig("treatment parameters must be finite")
        if np.any(sigma2 < SIGMA_FLOOR):
            raise InvalidConfig(f"variances must be at least {SIGMA_FLOOR:g}")
        if alpha.shape[1] != self.feature_map.output_dim:
            raise DimensionMismatch("alpha columns must match the feature map")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "sigma2", sigma2)

    @property
    def n_components(self) -> int:
        return self.alpha.shape[0]


@dataclass(frozen=True)
class OutcomeModel:
    """Per-component outcome coefficients over a shared feature map."""

    beta: np.ndarray                         # K x M
    feature_map: FeatureMap
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        beta = np.asarray(self.beta, dtype=float)
        if beta.ndim != 2:
            raise DimensionMismatch("beta must be K x M")
        if not np.all(np.isfinite(beta)):
            raise InvalidConfig("outcome coefficients must be finite")
        if beta.shape[1] != self.feature_map.output_dim:
            raise DimensionMismatch("beta columns must match the feature map")
        object.__setattr__(self, "beta", beta)

    @property
    def n_components(self) -> int:
        return self.beta.shape[0]


@dataclass(frozen=True)
class CausalEstimate:
    """Complete fitted pipeline over one dataset.

    ``z_feature_means`` holds the posterior-weighted training averages of
    the outcome map's z argument, one row per component. Dose-response
    summaries evaluated from these stored rows are reproducible from the
    persisted artifact alone, with no training data at hand.
    """

    mixture: MixtureEstimate
    treatment: TreatmentModel
    outcome: OutcomeModel
    z_feature_means: np.ndarray              # K x d_z
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        zbar = np.asarray(self.z_feature_means, dtype=float)
        k = self.mixture.n_components
        if zbar.ndim != 2 or zbar.shape[0] != k:
            raise DimensionMismatch("need one stored feature row per component")
        if not np.all(np.isfinite(zbar)):
            raise InvalidConfig("stored feature averages must be finite")
        if self.treatment.n_components != k or self.outcome.n_components != k:
            raise DimensionMismatch("stage models disagree on component count")
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
    factorization refuses the matrix, warning on each escalation.
    """
    ladder = (0.0,) + RIDGE_LADDER
    eye = np.eye(gram_m.shape[0])
    for step, r in enumerate(ladder):
        try:
            sol = scipy.linalg.solve(gram_m + r * eye, rhs, assume_a="pos")
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
    for arr in arrays:
        if arr is None:
            continue
        x = np.asarray(arr)
        if (x.shape[0] if x.ndim else 1) != n:
            raise DimensionMismatch("inputs disagree on the number of rows")


def _scalar_target(x, name):
    vec = np.asarray(x, dtype=float).ravel()
    if vec.shape[0] == 0:
        raise EmptyInput(f"no {name} values")
    if not np.all(np.isfinite(vec)):
        raise InvalidConfig(f"{name} values must be finite")
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


def _expect_flavor(w: PosteriorMatrix, flavor: str, stage: str):
    if not isinstance(w, PosteriorMatrix):
        raise InvalidConfig(f"{stage} needs a PosteriorMatrix")
    if w.flavor != flavor:
        raise InvalidConfig(f"{stage} expects {flavor} weights, got {w.flavor}")


# ---------------------------------------------------------------------------
# stage two: treatment model
# ---------------------------------------------------------------------------

def fit_treatment(a, z, w: PosteriorMatrix,
                  feature_map: FeatureMap | None = None) -> TreatmentModel:
    """Per-component Gaussian treatment model: mean coefficients, then variances.

    The means solve the stacked weighted normal equations for all components
    at once; with one-hot weights this is exactly independent per-component
    least squares. The variances come from the pooled squared residuals: the
    squared residual against the posterior-mixed mean overshoots the
    within-component noise by the spread of the component means, so that
    spread is subtracted from the target before the K x K solve. Variances
    below the floor are clamped to it.
    """
    _expect_flavor(w, "proxy_only", "the treatment fit")
    a_vec = _scalar_target(a, "treatment")
    _check_rows(a_vec.shape[0], z, w.weights)
    fm = feature_map
    if fm is None:
        fm = treatment_feature_map(np.atleast_2d(np.asarray(z)).shape[1])
    feats = fm.evaluate(z=z)
    alpha, used = _stacked_regression(feats, w.weights, a_vec)

    means = feats @ alpha.T                                 # n x K
    mixed = np.einsum("nk,nk->n", w.weights, means)
    spread = np.einsum("nk,nk->n", w.weights, means ** 2) - mixed ** 2
    target = (a_vec - mixed) ** 2 - spread
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
        feature_map=fm,
        diagnostics={
            "ridge": used,
            "variance_ridge": var_used,
            "variance_clamped": clamped,
        },
    )


def treatment_density(tm: TreatmentModel, u: int, a, z):
    """Gaussian treatment likelihood under component u.

    Scalar inputs give a float; row inputs give one density per row.
    """
    _check_component(u, tm.n_components)
    feats = tm.feature_map.evaluate(z=z)
    mean = feats @ tm.alpha[int(u)]
    a_arr = np.asarray(a, dtype=float)
    sd = np.sqrt(tm.sigma2[int(u)])
    z_score = ((a_arr.ravel() if a_arr.ndim else a_arr) - mean) / sd
    vals = np.ravel(np.exp(-z_score ** 2 / 2.0) / _SQRT_2PI / sd)
    if a_arr.ndim == 0 and vals.shape[0] == 1:
        return float(vals[0])
    return vals


# ---------------------------------------------------------------------------
# stage three: updated weights and outcome model
# ---------------------------------------------------------------------------

def update_posteriors(w: PosteriorMatrix, tm: TreatmentModel, a, z) -> PosteriorMatrix:
    """Fold the treatment likelihood into proxy-only weights.

    The Bayes product is accumulated in log space. Rows whose products all
    collapse (non-finite data, total underflow) fall back to the incoming
    weights and are counted, mirroring the proxy-stage behavior.
    """
    _expect_flavor(w, "proxy_only", "the posterior update")
    a_vec = _scalar_target(a, "treatment")
    _check_rows(a_vec.shape[0], z, w.weights)
    feats = tm.feature_map.evaluate(z=z)
    means = feats @ tm.alpha.T                              # n x K
    sd = np.sqrt(tm.sigma2)[None, :]
    z_score = (a_vec[:, None] - means) / sd
    with np.errstate(divide="ignore"):
        log_w = np.log(w.weights)
    log_w = log_w + ((-z_score ** 2 / 2.0 - np.log(_SQRT_2PI)) - np.log(sd))

    shift = log_w.max(axis=1, keepdims=True)
    bad = ~np.isfinite(shift.ravel())
    shift = np.where(np.isfinite(shift), shift, 0.0)
    out = np.exp(log_w - shift)
    totals = out.sum(axis=1)
    bad |= ~np.isfinite(totals) | (totals <= 0.0)
    totals = np.where(bad, 1.0, totals)
    out /= totals[:, None]
    count = int(bad.sum())
    if count:
        out[bad] = w.weights[bad]
        warnings.warn(
            f"{count} of {out.shape[0]} rows had no usable treatment "
            "likelihood; their weights were left as supplied",
            RuntimeWarning, stacklevel=2,
        )
    return PosteriorMatrix(weights=out, flavor="treatment_updated",
                           fallback_count=count)


def fit_outcome(a, z, y, w: PosteriorMatrix,
                feature_map: FeatureMap | None = None) -> OutcomeModel:
    """Per-component outcome coefficients from treatment-updated weights."""
    _expect_flavor(w, "treatment_updated", "the outcome fit")
    y_vec = _scalar_target(y, "outcome")
    _check_rows(y_vec.shape[0], a, z, w.weights)
    fm = feature_map
    if fm is None:
        if z is None:
            raise InvalidConfig("give a feature map or a z input")
        fm = outcome_feature_map(np.atleast_2d(np.asarray(z)).shape[1])
    feats = fm.evaluate(a=a, z=z)
    beta, used = _stacked_regression(feats, w.weights, y_vec)
    return OutcomeModel(beta=beta, feature_map=fm, diagnostics={"ridge": used})


# ---------------------------------------------------------------------------
# effect summaries
# ---------------------------------------------------------------------------

def estimate_cate(om: OutcomeModel, u: int, a, z=None):
    """Conditional effect surface for one component at (a, z).

    Scalar inputs give a float; row inputs give one value per row.
    """
    _check_component(u, om.n_components)
    feats = om.feature_map.evaluate(a=a, z=z)
    vals = feats @ om.beta[int(u)]
    if np.ndim(a) == 0 and vals.shape[0] == 1:
        return float(vals[0])
    return vals


def estimate_ate(ce: CausalEstimate, a, z=None, w: PosteriorMatrix | None = None) -> float:
    """Dose response at intervention level a.

    With (z, w) supplied, the per-component feature expectations are
    self-normalized posterior-weighted averages over those rows. Without
    them, the training averages stored on the estimate are used, which is
    what a persisted artifact reproduces.
    """
    return float(ce.priors @ _ate_by_component(ce, a, z, w))


def _ate_by_component(ce: CausalEstimate, a, z=None, w=None) -> np.ndarray:
    """Each component's expected outcome at level a; ``estimate_ate`` mixes them."""
    if (z is None) != (w is None):
        raise InvalidConfig("supply z and w together, or neither")
    if z is None:
        if ce.outcome.feature_map.kind == "custom":
            raise InvalidConfig(
                "custom outcome features need data rows to average over"
            )
        feats = ce.outcome.feature_map.evaluate(a=float(a), z=ce.z_feature_means)
    else:
        _check_rows(w.weights.shape[0], z)
        feats = _component_means(
            w.weights, ce.outcome.feature_map.evaluate(a=float(a), z=z))
    return np.einsum("km,km->k", ce.outcome.beta, feats)


def fit_effects(data: dict, mixture: MixtureEstimate,
                treatment_map: FeatureMap | None = None,
                outcome_map: FeatureMap | None = None) -> CausalEstimate:
    """Run the full pipeline on a dataset with a fitted mixture.

    ``data`` is a mapping with keys z1, z2, z3, a, y. Both regression
    stages consume the first view: the default treatment map is linear in
    z1 with no intercept and the default outcome map is affine in (a, z1),
    matching the built-in Gaussian design. Pass explicit maps to override.
    """
    for key in ("z1", "z2", "z3", "a", "y"):
        if key not in data:
            raise InvalidConfig(f"dataset is missing the {key!r} column")
    z1 = np.asarray(data["z1"], dtype=float)
    if z1.ndim == 1:
        z1 = z1[:, None]
    a_vec = _scalar_target(data["a"], "treatment")
    y_vec = _scalar_target(data["y"], "outcome")
    _check_rows(a_vec.shape[0], z1, y_vec[:, None])

    w = posteriors(mixture, data["z1"], data["z2"], data["z3"])
    tm = fit_treatment(a_vec, z1, w, treatment_map)
    w_updated = update_posteriors(w, tm, a_vec, z1)
    om = fit_outcome(
        a_vec, z1, y_vec, w_updated,
        outcome_map if outcome_map is not None else outcome_feature_map(z1.shape[1]),
    )

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
