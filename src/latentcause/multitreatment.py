"""Causal effects from three conditionally independent categorical treatments.

No proxies here: the treatments themselves are the three views. The hidden
state is recovered from them with the discrete mixture backend (the level
count is one past the largest observed level), every distinct treatment
triple is scored with its posterior weights, and the per-state outcome
coefficients come from the same stacked weighted regression the proxy
pipeline uses, on the fixed regressors [1, a1, a2, a3] of a linear
structural model, with each triple weighted by its row count. Effect
summaries are then plain dot products, since the treatment levels are
set by intervention rather than averaged over.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .causal import _check_rows, _regressors, _scalar_target, _stacked_regression
from .errors import DimensionMismatch, InvalidConfig, _floats
from .mixture import (
    _FLOOR_FALLBACK,
    MixtureEstimate,
    _check_component,
    _checked_levels,
    _triple_table,
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
        g = _floats(self.gamma, "outcome coefficients")
        k = self.mixture.n_components
        if g.shape != (k, 4):
            raise DimensionMismatch(f"gamma must be {k} x 4, one row per component "
                                    f"over [1, a1, a2, a3], got {g.shape}")
        object.__setattr__(self, "gamma", g)

    @property
    def priors(self) -> np.ndarray:
        return self.mixture.priors

    @property
    def n_components(self) -> int:
        return self.mixture.n_components


def fit_multitreatment(a1, a2, a3, y, k: int, seed=0) -> MultiTreatmentModel:
    """Recover the hidden state from the treatments and fit the outcome.

    The rows are checked and grouped once, into the distinct triples with
    their row counts and sums of y; the mixture is fitted on that count table.
    Posteriors are scored once per distinct triple; scaling a triple's weights
    by the root of its row count, against its sum of y over that root, gives
    the stacked regression the row-level normal equations. Rank or alignment
    failures from the mixture stage propagate.
    """
    views, s, k = _checked_levels(a1, a2, a3, k, seed)
    y_vec = _scalar_target(y, "outcome")
    _check_rows(y_vec.shape[0], views[0])
    triples, counts, y_sums = _triple_table(views, s, y_vec)
    est = fit_discrete_multiview(*triples, k, seed=seed, counts=counts)
    with warnings.catch_warnings():     # its one warning counts triples; rows are counted below
        warnings.simplefilter("ignore", RuntimeWarning)
        w = posteriors(est, *triples)
    fallbacks = int(counts[w.fallback].sum())
    if fallbacks:
        warnings.warn(f"{fallbacks} of {y_vec.shape[0]} rows {_FLOOR_FALLBACK}",
                      RuntimeWarning, stacklevel=2)
    root = np.sqrt(counts)
    gamma, used = _stacked_regression(_regressors(np.column_stack(triples), None),
                                      w.weights * root[:, None], y_sums / root)
    return MultiTreatmentModel(
        mixture=est,
        gamma=gamma,
        diagnostics={"ridge": used, "fallbacks": fallbacks},
    )


def _point_features(a) -> np.ndarray:
    point = _floats(a, "treatment and z values").reshape(1, -1)
    if point.shape[1] != 3:
        raise DimensionMismatch("a multitreatment intervention takes exactly three "
                                f"treatment values, got {point.shape[1]}")
    return _regressors(point, None)[0]


def mt_cate(m: MultiTreatmentModel, u: int, a) -> float:
    """Effect under component u at treatment combination a."""
    return float(m.gamma[_check_component(u, m.n_components)] @ _point_features(a))


def mt_ate(m: MultiTreatmentModel, a) -> float:
    """Prior-weighted effect at treatment combination a."""
    return float(m.priors @ (m.gamma @ _point_features(a)))
