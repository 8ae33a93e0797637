"""Latent mixture recovery from three conditionally independent views.

A hidden categorical variable U with K states generates three views that are
independent given U. This module recovers the mixing weights and the
per-view, per-component densities from samples alone, using second- and
third-order moments: whiten the cross-view second moment, decompose the
whitened third moment orthogonally (one slice eigendecomposition polished by
deflated power steps), and read off weights and component embeddings from the
eigenpairs.

Continuous views are handled in a reproducing-kernel space (component
densities are represented by coefficient vectors over anchor points);
categorical views are handled with one-hot features (component densities are
emission matrices). Bayes posteriors over the hidden state, rank selection
from the moment spectrum, and permutation alignment of component labels
round out the toolkit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dpstrf, dtrtri
from scipy.optimize import linear_sum_assignment
from scipy.sparse.linalg import ArpackError, svds

from .errors import (
    DimensionMismatch,
    EmptyInput,
    InvalidConfig,
    NonConvergence,
    RankDeficiency,
    UnfittedModel,
)
from .kernels import (
    KernelRows,
    KernelSpec,
    _row_blocks,
    _row_product,
    gram,
)
from .tensor_spectral import build_whitener, robust_power_method, whitened_third_moment

DENSITY_FLOOR = 1e-12
PRIOR_MIN = 1e-6
PRIOR_MAX = 1.0
RANK_FLOOR_REL = 1e-10
DENSE_SVD_MAX = 64
_PANEL_CELLS = 1 << 19     # entries per view in one c12 row panel: short panels slow its r x r product


# ---------------------------------------------------------------------------
# result types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MixtureEstimate:
    """Fitted mixture: tensor eigenvalues plus per-view component representations.

    ``backend`` is "kernel" (densities are anchor-coefficient expansions) or
    "discrete" (densities are emission matrices). The mixing weights are
    derived from the eigenvalues: ``priors_raw`` gives their inverse squares
    and ``priors`` those clamped and renormalized, so the eigenvalue-to-weight
    map holds in every estimate, loaded ones included.
    """

    backend: str
    lambdas: np.ndarray                      # K positive tensor eigenvalues
    kernel: KernelSpec | None = None
    anchors: tuple | None = None             # per view: m_v x d anchor points
    coefficients: tuple | None = None        # per view: K x m_v rows
    emissions: tuple | None = None           # per view: S x K column-stochastic
    seed: int | None = None
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.backend not in ("kernel", "discrete"):
            raise InvalidConfig(f"unknown backend {self.backend!r}")
        object.__setattr__(self, "lambdas", np.asarray(self.lambdas, dtype=float))
        for name in ("anchors", "coefficients", "emissions"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, tuple(
                    np.asarray(a, dtype=float) for a in getattr(self, name)))
        lam = self.lambdas
        if lam.ndim != 1 or lam.size == 0:
            raise DimensionMismatch("lambdas must be a nonempty vector")
        if not np.all(np.isfinite(lam) & (lam > 0)):
            raise InvalidConfig("lambdas must be finite and positive")
        if self.seed is not None and not isinstance(self.seed, (int, np.integer)):
            raise InvalidConfig(f"seed must be an integer, got {self.seed!r}")
        k = lam.shape[0]
        if self.backend == "kernel":
            anchors, coefs = self.anchors, self.coefficients
            if self.kernel is None or anchors is None or coefs is None:
                raise UnfittedModel("kernel backend needs kernel, anchors, coefficients")
            if (len(anchors) != 3 or len(coefs) != 3
                    or any(a.ndim != 2 or a.shape[1:] != anchors[0].shape[1:]
                           for a in anchors)
                    or any(c.shape != (k,) + a.shape[:1] for c, a in zip(coefs, anchors))):
                raise DimensionMismatch("need three m_v x d anchor sets and three "
                                        f"{k} x m_v coefficient blocks")
            if not all(np.all(np.isfinite(a)) for a in anchors + coefs):
                raise InvalidConfig("anchors and coefficients must be finite")
        else:
            ems = self.emissions
            if ems is None:
                raise UnfittedModel("discrete backend needs emission matrices")
            if len(ems) != 3 or any(e.shape != ems[0].shape[:1] + (k,) for e in ems):
                raise DimensionMismatch(f"need three S x {k} emission matrices")
            if not all(np.all(np.isfinite(e) & (e >= 0)) for e in ems):
                raise InvalidConfig("emission entries must be finite and nonnegative")

    @property
    def n_components(self) -> int:
        return self.lambdas.shape[0]

    @property
    def priors(self) -> np.ndarray:
        """Mixing weights: ``priors_raw`` clamped to [1e-6, 1] and renormalized."""
        return priors_from_lambdas(self.lambdas)[1]

    @property
    def priors_raw(self) -> np.ndarray:
        """The raw weights lambdas ** -2, before clamping and renormalization."""
        return priors_from_lambdas(self.lambdas)[0]


@dataclass(frozen=True)
class PosteriorMatrix:
    """Per-sample component weights; rows are probability vectors."""

    weights: np.ndarray
    flavor: str                              # proxy_only | treatment_updated
    fallback_count: int = 0

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 2:
            raise DimensionMismatch(f"weights must be 2-d, got shape {w.shape}")
        if self.flavor not in ("proxy_only", "treatment_updated"):
            raise InvalidConfig(f"unknown flavor {self.flavor!r}")
        if not np.all(np.isfinite(w)):
            raise InvalidConfig("posterior entries must be finite")
        if np.any(w < -1e-12) or np.any(w > 1.0 + 1e-12):
            raise InvalidConfig("posterior entries must lie in [0, 1]")
        if w.size and np.max(np.abs(w.sum(axis=1) - 1.0)) > 1e-12:
            raise InvalidConfig("posterior rows must sum to 1")
        object.__setattr__(self, "weights", np.clip(w, 0.0, 1.0))

    @property
    def n_components(self) -> int:
        return self.weights.shape[1]


# ---------------------------------------------------------------------------
# shared validation and small utilities
# ---------------------------------------------------------------------------

def _root_seq(seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def _seed_value(seed) -> int | None:
    return seed if isinstance(seed, (int, np.integer)) else None


def _as_views(*views):
    """Continuous views as n x d float arrays of one shape, all finite."""
    out = []
    for z in views:
        a = np.asarray(z, dtype=float)
        if a.ndim == 1:
            a = a[:, None]
        if a.ndim != 2:
            raise DimensionMismatch(f"view must be 1-d or 2-d, got shape {a.shape}")
        out.append(a)
    if any(v.shape != out[0].shape for v in out):
        raise DimensionMismatch(
            f"views must share one shape, got {[v.shape for v in out]}"
        )
    if out[0].shape[0] == 0:
        raise EmptyInput("views contain no samples")
    if not all(np.all(np.isfinite(v)) for v in out):
        raise InvalidConfig("view values must be finite")
    return out


def _as_levels(*views, levels: int | None = None):
    """Categorical views as int arrays of one length, with their level count S.

    S is ``levels`` when given, else one past the largest observed level;
    every value must be an integer in 0..S-1.
    """
    out = []
    for a in views:
        arr = np.asarray(a)
        if arr.ndim != 1:
            raise DimensionMismatch(f"categorical views must be 1-d, got {arr.shape}")
        if arr.size == 0:
            raise EmptyInput("views contain no samples")
        whole = arr.dtype.kind in "biu" or arr.dtype.kind == "f" and np.all(
            np.isfinite(arr) & (np.floor(arr) == arr))
        if not whole or np.any(arr < 0):
            raise InvalidConfig("categorical views must hold nonnegative integers")
        out.append(arr.astype(int, copy=False))
    if any(v.shape != out[0].shape for v in out):
        raise DimensionMismatch("views must share one length")
    s = int(levels) if levels is not None else max(int(v.max()) for v in out) + 1
    if any(v.max() >= s for v in out):
        raise InvalidConfig(f"a view holds a level outside 0..{s - 1}")
    return out, s


def _check_k(k: int):
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise InvalidConfig(f"component count must be a positive integer, got {k!r}")


def _check_component(u, k, name="component"):
    if not isinstance(u, (int, np.integer)) or not 0 <= int(u) < k:
        raise InvalidConfig(f"{name} index must lie in 0..{k - 1}, got {u!r}")


def priors_from_lambdas(lambdas: np.ndarray):
    """Mixing weights from tensor eigenvalues.

    Returns the raw inverse squares and the usable weights: raw values are
    clamped to [1e-6, 1] (finite samples can push them outside the simplex)
    and renormalized to sum to 1.
    """
    lam = np.asarray(lambdas, dtype=float)
    with np.errstate(divide="ignore"):
        raw = lam ** -2.0
    clipped = np.clip(raw, PRIOR_MIN, PRIOR_MAX)
    return raw, clipped / clipped.sum()


# ---------------------------------------------------------------------------
# kernel fit
# ---------------------------------------------------------------------------

def fit_multiview(z1, z2, z3, k: int, kernel: KernelSpec | None = None,
                  seed=0) -> MixtureEstimate:
    """Mixture fit allowing each view its own component distributions.

    Maps views 1 and 2 into view 3's coordinate system through factored
    Nystroem features and the two-view cross-moment transformations, then
    runs one whitened decomposition; it handles arbitrarily view-specific components,
    and identically distributed views are the special case. It raises
    RankDeficiency when the views do not carry k components. Deterministic
    for a fixed seed.
    """
    views = _as_views(z1, z2, z3)
    _check_k(k)
    n = views[0].shape[0]
    kernel = kernel if kernel is not None else KernelSpec()
    band_ss, sub_ss, power_ss = _root_seq(seed).spawn(3)
    kernel = kernel.resolve(np.vstack(views), n, np.random.default_rng(band_ss))

    rng = np.random.default_rng(sub_ss)
    sources, factors, anchor_sets = zip(*(_nystrom_features(v, kernel, rng) for v in views))
    lam, means, info = _cross_moment_core(list(zip(sources, factors)), k, power_ss)
    info.update(method="crossmoment", anchor_count=min(n, kernel.landmark_count),
                landmark_rank=[a.shape[0] for a in anchor_sets])
    return MixtureEstimate(
        backend="kernel",
        lambdas=lam,
        kernel=kernel,
        anchors=anchor_sets,
        coefficients=tuple((a @ m).T for a, m in zip(factors, means)),
        seed=_seed_value(seed),
        diagnostics=info,
    )


def _nystrom_features(view, kernel, rng):
    """Whitened landmark features of one view, factored: (rows, factor, anchors).

    The features are ``rows @ factor`` and are never multiplied out. A pivoted
    Cholesky of the landmark gram stops at the first pivot at or below
    RANK_FLOOR_REL (the kernel diagonal is 1); its r pivot landmarks are the
    anchors, ``rows`` is a ``KernelRows`` source of the n x r kernel against
    them and ``factor`` the inverse transpose of the r x r triangle. The
    features then have identity second moment over the anchors, and the
    view's density coefficients are ``factor @ feature_means``.
    """
    n = view.shape[0]
    n_a = min(n, kernel.landmark_count)
    idx = np.sort(rng.choice(n, size=n_a, replace=False)) if n_a < n else np.arange(n)
    landmarks = view[idx]
    kmm = gram(kernel, landmarks, landmarks)
    chol, piv, r, _ = dpstrf(kmm, lower=1, tol=RANK_FLOOR_REL)
    keep = piv[:r] - 1
    inv_l = dtrtri(np.tril(chol[:r, :r]), lower=1)[0]    # dpstrf keeps kmm's upper part
    return KernelRows(kernel, view, landmarks[keep]), inv_l.T, landmarks[keep]


def _top_singular(c: np.ndarray, k: int):
    """Top k singular triplets (u, s, v) of c, fails loudly when s_k dies.

    ARPACK finds k + 1 triplets where c allows and is wider than DENSE_SVD_MAX
    on its smaller side (few one-hot levels take a dense SVD, which is faster
    there); the margin s_k / s_(k+1) is None without a nonzero (k+1)-th value.
    """
    if min(c.shape) > max(k + 1, DENSE_SVD_MAX):
        v0 = np.random.default_rng(0).standard_normal(min(c.shape))
        try:
            u, s, vt = svds(c, k=k + 1, v0=v0, tol=0)
        except ArpackError as exc:
            raise NonConvergence(f"truncated SVD of a cross moment failed: {exc}") from exc
        order = np.argsort(s)[::-1]
        u, s, vt = u[:, order], s[order], vt[order]
    else:
        u, s, vt = np.linalg.svd(c, full_matrices=False)
    tail = s[k - 1] if s.shape[0] >= k else 0.0
    if tail < RANK_FLOOR_REL * max(s[0], 1e-300):
        raise RankDeficiency(f"cross-moment singular value {k} is {tail:.3e}; "
                             "views carry fewer than K components")
    margin = float(s[k - 1] / s[k]) if s.shape[0] > k and s[k] > 0 else None
    return u[:, :k], s[:k], vt[:k].T, margin


def _cross_moment(view1, view2):
    """(k1 a1)'(k2 a2) / n for two factored views, summed over row panels."""
    (k1, a1), (k2, a2) = view1, view2
    c = np.zeros((k1.shape[1], k2.shape[1]))
    part = np.empty_like(c)
    for _, _, (b1, b2) in _row_blocks((k1, k2), _PANEL_CELLS):
        c += np.matmul(b1.T, b2, out=part)
    return a1.T @ (c / k1.shape[0]) @ a2


def _cross_moment_core(views, k, power_ss):
    """Shared third-order decomposition over arbitrary per-view features.

    Each view is a pair (k_v, a_v) of a row source and a factor; the features
    f_v = k_v a_v are never formed, and no source is held whole. Views 1 and 2
    are mapped into view 3's coordinates with the two-view cross-moment
    transformations, after which the problem is symmetric and one whitened
    decomposition recovers the eigenvalues and all three conditional feature
    means. Four passes over the rows, each needing the one before:

    1. c12 = a1'(k1'k2/n)a2 = U S V', the only moment formed at feature size;
    2. g1 = k1 a1 U and g2 = k2 a2 V (n x k), with g1'k3 and g2'k3, which give
       V' c23 and U' c13: the maps are x1 = (f1 U S^-1)(V' c23) and
       x2 = (f2 V S^-1)(U' c13), whose cross moment lies in the 2k-dim row
       span q of [V' c23; U' c13], where it is whitened;
    3. g3 = k3 a3 q (n x 2k), view 3's whitened factor and, as the columns of
       the view-3 means m3 lie in span(q), the weights h = f3 pinv(m3)'/prior;
    4. k1'h and k2'h, the view-1 and view-2 means.

    Memory is O(block r + n k).
    """
    (k1, a1), (k2, a2), (k3, a3) = views
    n = k1.shape[0]
    u, s, v, margin = _top_singular(_cross_moment(*views[:2]), k)
    p1, p2 = a1 @ u, a2 @ v
    g1, g2 = np.empty((n, k)), np.empty((n, k))
    c13, c23 = np.zeros((k, k3.shape[1])), np.zeros((k, k3.shape[1]))  # g1'k3, g2'k3
    for lo, hi, (k1b, k2b, k3b) in _row_blocks((k1, k2, k3)):
        np.matmul(k1b, p1, out=g1[lo:hi])
        np.matmul(k2b, p2, out=g2[lo:hi])
        c13 += g1[lo:hi].T @ k3b
        c23 += g2[lo:hi].T @ k3b
    b1, b2 = c23 @ a3 / n, c13 @ a3 / n              # V' c23, U' c13
    q = np.linalg.qr(np.vstack((b1, b2)).T)[0]       # r3 x 2k orthonormal
    e1, e2 = b1 @ q / s[:, None], b2 @ q / s[:, None]   # x1 q = g1 e1, x2 q = g2 e2
    cross = e1.T @ (g1.T @ g2 / n) @ e2
    whitener = build_whitener((cross + cross.T) / 2.0, k)

    g3 = _row_product(k3, a3 @ q)                    # f3 q
    t_hat = whitened_third_moment(g1 @ (e1 @ whitener.map), g2 @ (e2 @ whitener.map),
                                  g3 @ whitener.map)
    eig = robust_power_method(t_hat, k, seed=power_ss)
    priors = priors_from_lambdas(eig.lambdas)[1]

    m3 = ((q @ whitener.map) * whitener.spectrum[None, :]) @ (
        eig.vectors.T * eig.lambdas[None, :])
    h = g3 @ (q.T @ np.linalg.pinv(m3).T / (n * priors[None, :]))
    t1, t2 = np.zeros((k1.shape[1], k)), np.zeros((k2.shape[1], k))
    for lo, hi, (k1b, k2b) in _row_blocks((k1, k2)):
        t1 += k1b.T @ h[lo:hi]
        t2 += k2b.T @ h[lo:hi]
    info = {"power_residual": eig.residual,
            "moment_spectrum": np.sqrt(whitener.spectrum),
            "rank_margin": margin}
    return eig.lambdas, [a1.T @ t1, a2.T @ t2, m3], info


def fit_discrete_multiview(a1, a2, a3, k: int, seed=0) -> MixtureEstimate:
    """Mixture fit for three categorical views coded 0..S-1.

    One-hot features, paired with an identity factor, feed the shared
    cross-moment decomposition; recovered conditional means are clamped at the
    density floor and renormalized into column-stochastic emission matrices.
    k = 1 short-circuits to empirical marginals.
    """
    _check_k(k)
    views, s = _as_levels(a1, a2, a3)
    n = views[0].shape[0]
    if s < k:
        raise InvalidConfig(f"need at least k={k} levels, views have {s}")

    if k == 1:
        emissions = tuple(
            _stochastic_columns(np.bincount(v, minlength=s)[:, None] / n)
            for v in views
        )
        return MixtureEstimate(
            backend="discrete", lambdas=np.ones(1), emissions=emissions,
            seed=_seed_value(seed),
            diagnostics={"method": "discrete_marginal", "levels": s},
        )

    eye = np.eye(s)
    power_ss = _root_seq(seed).spawn(1)[0]
    lam, means, info = _cross_moment_core([(eye[v], eye) for v in views], k, power_ss)
    emissions = tuple(_stochastic_columns(m) for m in means)
    info.update(method="discrete_cross_moment", levels=s)
    return MixtureEstimate(
        backend="discrete", lambdas=lam, emissions=emissions,
        seed=_seed_value(seed), diagnostics=info,
    )


def _stochastic_columns(m: np.ndarray) -> np.ndarray:
    clamped = np.maximum(np.asarray(m, dtype=float), DENSITY_FLOOR)
    return clamped / clamped.sum(axis=0, keepdims=True)


# ---------------------------------------------------------------------------
# densities and posteriors
# ---------------------------------------------------------------------------

def _check_fitted(est):
    if not isinstance(est, MixtureEstimate):
        raise UnfittedModel("expected a fitted MixtureEstimate")


def _checked_views(est: MixtureEstimate, *views):
    """Views checked for the estimate's backend: level arrays or n x d points."""
    if est.backend == "discrete":
        return _as_levels(*views, levels=est.emissions[0].shape[0])[0]
    zs = _as_views(*views)
    if zs[0].shape[1] != est.anchors[0].shape[1]:
        raise DimensionMismatch("views do not match the fitted proxy dimension")
    return zs


def density(est: MixtureEstimate, view: int, component: int, z) -> float:
    """Recovered density of one view under one component, floor-clamped."""
    _check_fitted(est)
    _check_component(view, 3, "view")
    _check_component(component, est.n_components)
    point = np.atleast_1d(z) if est.backend == "discrete" else np.atleast_2d(z)
    (point,) = _checked_views(est, point)
    return float(_density_matrix(est, view, point)[0, component])


def _density_matrix(est: MixtureEstimate, view: int, z) -> np.ndarray:
    """n x K matrix of clamped per-component densities for one checked view.

    Kernel densities are reduced one row block of the gram at a time, so no
    n x m array is formed.
    """
    if est.backend == "discrete":
        dm = est.emissions[view][z, :]
    else:
        rows = KernelRows(est.kernel, z, est.anchors[view])
        dm = _row_product(rows, est.coefficients[view].T)
    return np.maximum(dm, DENSITY_FLOOR, out=dm)


def posteriors(est: MixtureEstimate, z1, z2, z3) -> PosteriorMatrix:
    """Bayes weights over components given all three views of each sample.

    Likelihood products are accumulated in log space. Rows where every
    component's product collapses to the cube of the density floor carry no
    information; they fall back to the prior vector and are counted.
    """
    _check_fitted(est)
    zs = _checked_views(est, z1, z2, z3)
    n = zs[0].shape[0]
    k = est.n_components

    log_w = np.tile(np.log(est.priors), (n, 1))
    at_floor = np.ones((n, k), dtype=bool)
    for v in range(3):
        dm = _density_matrix(est, v, zs[v])
        at_floor &= dm <= DENSITY_FLOOR
        log_w += np.log(dm)

    return _bayes_rows(log_w, at_floor.all(axis=1), np.broadcast_to(est.priors, (n, k)),
                       "proxy_only", "had every likelihood at the floor; "
                       "their posteriors fall back to the priors")


def _bayes_rows(log_w, fallback, replacement, flavor: str, reason: str) -> PosteriorMatrix:
    """Posterior rows from n x K log weights, normalised after a row-max shift.

    A row falls back to its row of ``replacement`` when ``fallback`` flags
    it or its normaliser is not finite and positive; fallbacks are counted
    and reported in one warning that ``reason`` completes.
    """
    shift = log_w.max(axis=1, keepdims=True)
    w = np.exp(log_w - np.where(np.isfinite(shift), shift, 0.0))
    totals = w.sum(axis=1, keepdims=True)
    fallback = fallback | ~(np.isfinite(totals[:, 0]) & (totals[:, 0] > 0.0))
    w /= np.where(fallback[:, None], 1.0, totals)
    count = int(fallback.sum())
    if count:
        w[fallback] = replacement[fallback]
        warnings.warn(f"{count} of {w.shape[0]} rows {reason}", RuntimeWarning,
                      stacklevel=3)
    return PosteriorMatrix(weights=w, flavor=flavor, fallback_count=count)


# ---------------------------------------------------------------------------
# rank selection
# ---------------------------------------------------------------------------

def scree(z1, z2, kernel: KernelSpec | None = None, max_k: int = 10,
          seed=0) -> np.ndarray:
    """Leading cross-view correlation spectrum, for picking the rank.

    Both views are mapped to whitened landmark features and the singular
    values of their cross moment are returned. Conditional independence
    makes the population version of that operator rank K exactly (the
    constant direction plus K - 1 mixture directions), so the spectrum
    drops off right after the true component count.
    """
    z1, z2 = _as_views(z1, z2)
    n = z1.shape[0]
    if max_k < 1 or max_k > n:
        raise InvalidConfig(f"max_k must lie in 1..n, got {max_k}")

    kernel = kernel if kernel is not None else KernelSpec()
    band_ss, sub_ss = _root_seq(seed).spawn(2)
    kernel = kernel.resolve(np.vstack((z1, z2)), n, np.random.default_rng(band_ss))
    rng = np.random.default_rng(sub_ss)
    f1, f2 = (_nystrom_features(z, kernel, rng)[:2] for z in (z1, z2))
    sv = np.linalg.svd(_cross_moment(f1, f2), compute_uv=False)
    return sv[: min(max_k, sv.shape[0])]


def scree_discrete(a1, a2, max_k: int = 10) -> np.ndarray:
    """Cross-view correlation spectrum for two categorical views."""
    (v1, v2), s = _as_levels(a1, a2)
    n = v1.shape[0]
    if max_k < 1 or max_k > n:
        raise InvalidConfig(f"max_k must lie in 1..n, got {max_k}")

    counts = np.zeros((s, s))
    np.add.at(counts, (v1, v2), 1.0)
    c12 = counts / n
    p1, p2 = c12.sum(axis=1), c12.sum(axis=0)
    keep1, keep2 = p1 > 0, p2 > 0
    core = (c12[keep1][:, keep2]
            / np.sqrt(p1[keep1])[:, None] / np.sqrt(p2[keep2])[None, :])
    sv = np.linalg.svd(core, compute_uv=False)
    return sv[: min(max_k, sv.shape[0])]


def select_rank(singular_values: np.ndarray) -> int:
    """Component count from the largest successive spectral-gap ratio."""
    sv = np.asarray(singular_values, dtype=float)
    if sv.ndim != 1 or sv.shape[0] < 2:
        raise InvalidConfig("need at least two singular values to pick a rank")
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(sv[1:] > 0.0, sv[:-1] / sv[1:], np.inf)
    return int(np.argmax(ratios)) + 1


# ---------------------------------------------------------------------------
# label alignment
# ---------------------------------------------------------------------------

def align_permutation(estimated, reference) -> np.ndarray:
    """Component permutation matching an estimate to a reference.

    Inputs are K x p summary blocks, one row per component; a 1-d input is
    read as K x 1. Returns perm with estimated[perm[j]] matched to
    reference[j]; applying it minimizes the total per-pair Euclidean
    distance, exactly for any K.
    """
    a, b = (np.asarray(x, dtype=float) for x in (estimated, reference))
    a, b = (x[:, None] if x.ndim == 1 else x for x in (a, b))
    if a.ndim != 2 or a.shape != b.shape:
        raise DimensionMismatch(f"need two K x p summary blocks of one shape, "
                                f"got {a.shape} and {b.shape}")
    cost = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    rows, cols = linear_sum_assignment(cost)
    return rows[np.argsort(cols)]
