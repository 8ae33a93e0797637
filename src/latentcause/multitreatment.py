"""Causal effects from three conditionally independent categorical treatments.

No proxies here: the treatments themselves are the three views. The hidden
state is recovered from them with the discrete mixture backend, every sample
is scored with its posterior weights, and the per-state outcome coefficients
come from the same stacked weighted regression the proxy pipeline uses, on
the fixed regressors [1, a1, a2, a3] of a linear structural model. Effect
summaries are then plain dot products, since the treatment levels are
set by intervention rather than averaged over.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .causal import _check_rows, _regressors, _scalar_target, _stacked_regression
from .errors import DimensionMismatch, InvalidConfig
from .mixture import (
    MixtureEstimate,
    _check_component,
    fit_discrete_multiview,
    posteriors,
)


@dataclass(frozen=True)
class MultiTreatmentModel:
    """Fitted treatment-only pipeline: mixture plus outcome coefficients."""

    mixture: MixtureEstimate
    gamma: np.ndarray                        # K x 4 coefficients on [1, a1, a2, a3]
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.mixture.backend != "discrete":
            raise InvalidConfig("the treatment-only pipeline is categorical")
        g = np.asarray(self.gamma, dtype=float)
        k = self.mixture.n_components
        if g.shape != (k, 4):
            raise DimensionMismatch(f"gamma must be {k} x 4, one row per component "
                                    f"over [1, a1, a2, a3], got {g.shape}")
        if not np.all(np.isfinite(g)):
            raise InvalidConfig("outcome coefficients must be finite")
        object.__setattr__(self, "gamma", g)

    @property
    def priors(self) -> np.ndarray:
        return self.mixture.priors

    @property
    def emissions(self) -> tuple:
        return self.mixture.emissions

    @property
    def n_components(self) -> int:
        return self.mixture.n_components


def fit_multitreatment(a1, a2, a3, y, k: int, seed=0,
                       levels: int | None = None) -> MultiTreatmentModel:
    """Recover the hidden state from the treatments and fit the outcome.

    Rank or alignment failures from the mixture stage propagate.
    """
    est = fit_discrete_multiview(a1, a2, a3, k, seed=seed, levels=levels)
    w = posteriors(est, a1, a2, a3)
    y_vec = _scalar_target(y, "outcome")
    _check_rows(y_vec.shape[0], w.weights)
    treats = np.column_stack([np.asarray(a, dtype=float).ravel()
                              for a in (a1, a2, a3)])
    gamma, used = _stacked_regression(_regressors(treats, None), w.weights, y_vec)
    return MultiTreatmentModel(
        mixture=est,
        gamma=gamma,
        diagnostics={"ridge": used, "fallbacks": w.fallback_count},
    )


def _point_features(a) -> np.ndarray:
    point = np.asarray(a, dtype=float).reshape(1, -1)
    if point.shape[1] != 3:
        raise DimensionMismatch("a multitreatment intervention takes exactly three "
                                f"treatment values, got {point.shape[1]}")
    return _regressors(point, None)[0]


def mt_cate(m: MultiTreatmentModel, u: int, a) -> float:
    """Effect under component u at treatment combination a."""
    _check_component(u, m.n_components)
    return float(m.gamma[int(u)] @ _point_features(a))


def mt_ate(m: MultiTreatmentModel, a) -> float:
    """Prior-weighted effect at treatment combination a."""
    return float(m.priors @ (m.gamma @ _point_features(a)))
