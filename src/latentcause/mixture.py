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

from .errors import (
    DimensionMismatch,
    EmptyInput,
    InvalidConfig,
    RankDeficiency,
    UnfittedModel,
    _floats,
    _integer,
)
from .kernels import KernelRows, KernelSpec, _row_blocks, gram
from .linalg import _KRYLOV_STEPS, _lanczos_svd, _pivoted_cholesky, _triangular_inverse
from .tensor_spectral import build_whitener, robust_power_method, whitened_third_moment

DENSITY_FLOOR = 1e-12
PRIOR_MIN = 1e-6
PRIOR_MAX = 1.0
RANK_FLOOR_REL = 1e-10
PIVOT_FLOOR = 1e-6         # landmark factor's last pivot, relative to the kernel diagonal of 1
DENSE_SVD_MAX = 64
_FLOOR_FALLBACK = ("had every likelihood at the floor; "
                   "their posteriors fall back to the priors")
_PANEL_CELLS = 1 << 18     # entries per view in one c12 row panel: at r = 1000 (2 vCPU) its sums
                           # ran at about 50 GMAC/s in 262-row panels and 60 in 524-row ones
_TABLE_CELLS = 1 << 22     # S x S cells of a discrete fit's pair tables, its largest arrays
                           # (32 MiB of float64 each): S <= 2048


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
        object.__setattr__(self, "lambdas", _floats(self.lambdas, "lambdas"))
        for name in ("anchors", "coefficients", "emissions"):
            if (items := getattr(self, name)) is not None:
                what = "emission entries" if name == "emissions" else "anchors and coefficients"
                object.__setattr__(self, name, tuple(_floats(a, what) for a in _items(items, name)))
        lam = self.lambdas
        if lam.ndim != 1 or lam.size == 0:
            raise DimensionMismatch("lambdas must be a nonempty vector")
        if not np.all(lam > 0):
            raise InvalidConfig("lambdas must be finite and positive")
        if self.seed is not None:
            _seed_sequence(self.seed)
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
        else:
            ems = self.emissions
            if ems is None:
                raise UnfittedModel("discrete backend needs emission matrices")
            if len(ems) != 3 or any(e.shape != ems[0].shape[:1] + (k,) for e in ems):
                raise DimensionMismatch(f"need three S x {k} emission matrices")
            if not all(np.all(e >= 0) for e in ems):
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
    fallback: np.ndarray | None = None       # per row: fell back to its replacement row

    def __post_init__(self):
        w = _floats(self.weights, "posterior entries")
        if w.ndim != 2:
            raise DimensionMismatch(f"weights must be 2-d, got shape {w.shape}")
        if np.any(w < -1e-12) or np.any(w > 1.0 + 1e-12):
            raise InvalidConfig("posterior entries must lie in [0, 1]")
        if w.size and np.max(np.abs(w.sum(axis=1) - 1.0)) > 1e-12:
            raise InvalidConfig("posterior rows must sum to 1")
        if self.fallback is not None and np.shape(self.fallback) != w.shape[:1]:
            raise DimensionMismatch(f"need a fallback flag per row, got {np.shape(self.fallback)}")
        object.__setattr__(self, "weights", np.clip(w, 0.0, 1.0))

    @property
    def n_components(self) -> int:
        return self.weights.shape[1]

    @property
    def fallback_count(self) -> int:
        return 0 if self.fallback is None else int(np.count_nonzero(self.fallback))


# ---------------------------------------------------------------------------
# shared validation and small utilities
# ---------------------------------------------------------------------------

def _seed_sequence(seed) -> np.random.SeedSequence:
    """The root stream of a seeded fit, draw or sweep; seeds are nonnegative integers."""
    return np.random.SeedSequence(_integer(seed, "seed must be a nonnegative integer", 0))


def _as_views(*views):
    """Continuous views as n x d float arrays of one shape, all finite."""
    out = []
    for z in views:
        a = _floats(z, "view values")
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
    return out


def _as_levels(*views, levels: int | None = None):
    """Categorical views as int arrays of one length, with their level count S.

    S is ``levels`` when given, else one past the largest observed level;
    every value must be an integer in 0..S-1. An S read from the data must
    have S^2 within _TABLE_CELLS, the budget of the S x S arrays a discrete
    fit or ``scree_discrete`` forms, the largest either allocates, so one
    stray level code cannot size them.
    """
    out, tops = [], []
    for a in views:
        arr = np.asarray(a)
        if arr.ndim != 1:
            raise DimensionMismatch(f"categorical views must be 1-d, got {arr.shape}")
        if arr.size == 0:
            raise EmptyInput("views contain no samples")
        whole = arr.dtype.kind in "biu" or arr.dtype.kind == "f" and np.all(
            np.isfinite(arr) & (np.floor(arr) == arr))
        if whole:
            with np.errstate(invalid="ignore"):
                arr = arr.astype(int, copy=False)
        # the sign is read after the cast: levels of 2**63 or more wrap negative
        if not whole or arr.min() < 0:
            raise InvalidConfig("categorical views must hold nonnegative integers "
                                "below 2**63")
        out.append(arr)
        tops.append(int(arr.max()))
    if any(v.shape != out[0].shape for v in out):
        raise DimensionMismatch("views must share one length")
    s = int(levels) if levels is not None else max(tops) + 1
    if max(tops) >= s:
        raise InvalidConfig(f"a view holds a level outside 0..{s - 1}")
    if levels is None and s * s > _TABLE_CELLS:
        raise InvalidConfig(f"S = {s} levels need S x S tables of {s * s} cells, "
                            f"above the budget of {_TABLE_CELLS}")
    return out, s


def _check_k(k) -> int:
    return _integer(k, "component count must be a positive integer", 1)


def _check_component(u, k, name="component") -> int:
    return _integer(u, f"{name} index must lie in 0..{k - 1}", 0, k - 1)


def _items(value, what: str):
    if not np.iterable(value):
        raise InvalidConfig(f"{what} must be a sequence, got {value!r}")
    return value


def priors_from_lambdas(lambdas: np.ndarray):
    """Mixing weights from tensor eigenvalues.

    Returns the raw inverse squares and the usable weights: raw values are
    clamped to [1e-6, 1] (finite samples can push them outside the simplex)
    and renormalized to sum to 1.
    """
    with np.errstate(divide="ignore"):
        raw = lambdas ** -2.0
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
    and identically distributed views are the special case. ``kernel=None``
    is ``KernelSpec()``: a Gaussian RBF of fixed bandwidth 1.0 in the data's
    units. It raises RankDeficiency when the views do not carry k components.
    Deterministic for a fixed seed: the views draw their landmarks in order
    from one stream, and view 3 draws and factors its own only after c12's
    SVD, so three factors are never held beside c12.
    """
    views = _as_views(z1, z2, z3)
    k = _check_k(k)
    n = views[0].shape[0]
    kernel = kernel if kernel is not None else KernelSpec()
    # child 0 drew the bandwidth once; skipping it keeps every seed's landmarks
    _, sub_ss, power_ss = _seed_sequence(seed).spawn(3)
    rng = np.random.default_rng(sub_ss)
    lam, feats, means, info = _cross_moment_core(
        (_nystrom_features(v, kernel, rng) for v in views), k, power_ss)
    info.update(method="crossmoment", anchor_count=min(n, kernel.landmark_count),
                landmark_rank=[f.anchors.shape[0] for f in feats])
    return MixtureEstimate(
        backend="kernel",
        lambdas=lam,
        kernel=kernel,
        anchors=tuple(f.anchors for f in feats),
        coefficients=tuple((f.factor @ m).T for f, m in zip(feats, means)),
        seed=int(seed),
        diagnostics=info,
    )


def _nystrom_features(view, kernel, rng):
    """Whitened landmark features of one view, factored, carrying their anchors.

    The features are ``rows @ factor`` and are never multiplied out. A pivoted
    Cholesky of the landmark gram stops at the first pivot at or below
    PIVOT_FLOOR (the kernel diagonal is 1): a landmark whose residual variance
    is that small adds nothing measurable, and the floor keeps the triangle's
    diagonal above sqrt(PIVOT_FLOOR), which bounds the inverse factor and so
    the rounding it amplifies. Its r pivot landmarks are ``anchors``, ``rows``
    is the ``KernelRows`` source of the n x r kernel against them and ``factor``
    the inverse transpose of the r x r triangle. The features then have
    identity second moment over the anchors, and the view's density
    coefficients are ``factor @ feature_means``. The factor and its inverse
    run in numpy, in place in the gram, so the fit's BLAS calls share one pool.
    """
    n = view.shape[0]
    n_a = min(n, kernel.landmark_count)
    idx = np.sort(rng.choice(n, size=n_a, replace=False)) if n_a < n else np.arange(n)
    landmarks = view[idx]
    kmm = gram(kernel, landmarks, landmarks)
    piv, r = _pivoted_cholesky(kmm, PIVOT_FLOOR)
    anchors = landmarks[piv[:r]]
    inv_l = kmm if r == n_a else kmm[:r, :r].copy()
    del kmm
    np.copyto(inv_l, 0.0, where=np.tri(r, k=-1, dtype=bool).T)  # scratch above the diagonal
    _triangular_inverse(inv_l)
    return _LandmarkFeatures(KernelRows(kernel, view, anchors), inv_l.T, anchors)


def _leading_svd(c: np.ndarray, count: int):
    """Top ``count`` singular triplets (u, s, v) of c, or all of them when c has fewer.

    Golub-Kahan-Lanczos where c is wider than DENSE_SVD_MAX and than count on
    its smaller side, and count is at most a quarter of _KRYLOV_STEPS: the
    basis needs room beyond the wanted triplets (on the overlap design at
    r = 600, 50 converged in 200 steps and 100 did not). A dense SVD
    otherwise, which is also the faster for few one-hot levels.
    """
    if min(c.shape) > max(count, DENSE_SVD_MAX) and 4 * count <= _KRYLOV_STEPS:
        v0 = np.random.default_rng(0).standard_normal(min(c.shape))
        return _lanczos_svd(c, count, v0)
    u, s, vt = np.linalg.svd(c, full_matrices=False)
    return u[:, :count], s[:count], vt[:count].T


def _top_singular(c: np.ndarray, k: int):
    """Top k singular triplets (u, s, v) of c, fails loudly when s_k dies.

    ``_leading_svd`` finds k + 1 triplets where c allows; the margin
    s_k / s_(k+1) is None without a nonzero (k+1)-th value.
    """
    u, s, v = _leading_svd(c, k + 1)
    tail = s[k - 1] if s.shape[0] >= k else 0.0
    if tail < RANK_FLOOR_REL * max(s[0], 1e-300):
        raise RankDeficiency(f"cross-moment singular value {k} is {tail:.3e}; "
                             "views carry fewer than K components")
    margin = float(s[k - 1] / s[k]) if s.shape[0] > k and s[k] > 0 else None
    return u[:, :k], s[:k], v[:, :k], margin


def _weighted(rows, weights, lo=0):
    """Rows lo, lo + 1, ... scaled by their weights; unweighted fits pass None."""
    return rows if weights is None else rows * weights[lo:lo + rows.shape[0], None]


class _LandmarkFeatures:
    """A view's whitened landmark features ``rows @ factor``, never multiplied out.

    ``rows`` is the view's ``KernelRows`` source against ``anchors`` and
    ``factor`` the landmark triangle's inverse transpose, which is upper
    triangular. ``f @ m`` and ``f.tdot(w)`` (f'w) take one pass over the rows each.
    """

    def __init__(self, rows: KernelRows, factor: np.ndarray, anchors: np.ndarray):
        self.rows, self.factor, self.anchors = rows, factor, anchors
        self.shape = (rows.shape[0], factor.shape[1])

    def __matmul__(self, m: np.ndarray) -> np.ndarray:
        return self.rows @ (self.factor @ m)

    def tdot(self, w: np.ndarray) -> np.ndarray:
        return self.factor.T @ self.rows.tdot(w)

    def cross(self, other, weights=None) -> np.ndarray:
        """f1' diag(weights) f2 / n for features f_v = k_v a_v, in one r1 x r2 array.

        Row panels of k1 and k2 add k1'k2 into c a block of c's rows at a
        time; then c becomes a1'c and (a1'c)a2 in place, all through one
        buffer of half a panel. Both factors are upper triangular: rows I of
        a1'c then read only rows of c at or above I, so a1'c can overwrite c
        from the bottom row block up, and (a1'c)a2 from the right column
        block leftwards.
        """
        c = np.zeros((self.shape[1], other.shape[1]))
        buf = np.empty(min(_PANEL_CELLS // 2, c.size))
        step = buf.size // c.shape[1]
        for lo, _, (b1, b2) in _row_blocks((self.rows, other.rows), _PANEL_CELLS):
            b2 = _weighted(b2, weights, lo)
            for i in range(0, c.shape[0], step):
                part = c[i:i + step]
                part += np.matmul(b1[:, i:i + step].T, b2,
                                  out=buf[:part.size].reshape(part.shape))
        c /= self.shape[0]
        _upper_left_product(self.factor, c, buf)
        _upper_left_product(other.factor, c.T, buf)      # (c a2)' = a2'c'
        return c


def _upper_left_product(a: np.ndarray, c: np.ndarray, buf: np.ndarray) -> None:
    """c <- a'c in place for an upper-triangular a, by row blocks from the bottom up.

    Rows I of a'c are a[:stop, I]'c[:stop] (stop = I's end) since a is zero
    below its diagonal, so each block reads rows of c at or above its own,
    none yet overwritten; buf holds one block. About r^3 / 2 multiply-adds.
    """
    width = c.shape[1]
    step = buf.size // width
    for stop in range(c.shape[0], 0, -step):
        lo = max(0, stop - step)
        c[lo:stop] = np.matmul(a[:stop, lo:stop].T, c[:stop],
                               out=buf[:(stop - lo) * width].reshape(stop - lo, width))


class _OneHotFeatures:
    """One-hot features of ``levels`` over s levels, with no n x s array.

    ``f @ m`` gathers rows of m, ``f.tdot(w)`` is one bincount per column of
    w, and ``f.cross(g, weights)`` one bincount of the pair key.
    """

    def __init__(self, levels: np.ndarray, s: int):
        self.levels = levels
        self.shape = (levels.shape[0], s)

    def __matmul__(self, m: np.ndarray) -> np.ndarray:
        return m[self.levels]

    def tdot(self, w: np.ndarray) -> np.ndarray:
        return np.column_stack([np.bincount(self.levels, weights=col, minlength=self.shape[1])
                                for col in w.T])

    def cross(self, other, weights=None) -> np.ndarray:
        s1, s2 = self.shape[1], other.shape[1]
        pairs = np.bincount(self.levels * s2 + other.levels, weights=weights, minlength=s1 * s2)
        return pairs.reshape(s1, s2) / self.shape[0]


def _cross_moment_core(views, k, power_ss, weights=None):
    """Shared third-order decomposition over arbitrary per-view features.

    Each view is a features object f_v (``_LandmarkFeatures`` or
    ``_OneHotFeatures``) answering ``f @ m``, ``f.tdot(w)`` (f'w) and
    ``f.cross(g, weights)`` (f' diag(weights) g / n); no f_v is formed here.
    ``views`` is read in order and view 3 only after c12's SVD, so a lazy
    iterable builds view 3 once c12 is gone. Views 1 and 2 are mapped into
    view 3's coordinates with the two-view cross-moment transformations,
    after which the problem is symmetric and one whitened decomposition
    recovers the eigenvalues and all three conditional feature means. Four
    passes over the rows, each needing the one before:

    1. c12 = f1'f2/n = U S V', the only moment formed at feature size;
    2. g1 = f1 U and g2 = f2 V (n x k), then f3'[g2, g1], giving V' c23 and
       U' c13 in one pass over view 3: the maps are x1 = (f1 U S^-1)(V' c23)
       and x2 = (f2 V S^-1)(U' c13), whose cross moment lies in the 2k-dim
       row span q of [V' c23; U' c13], where it is whitened;
    3. g3 = f3 q (n x 2k), view 3's whitened factor and, as the columns of
       the view-3 means m3 lie in span(q), the weights h = f3 pinv(m3)'/prior;
    4. f1'h and f2'h, the view-1 and view-2 means.

    Beyond c12 and what views 1 and 2 hold, memory is O(n k). Count-table
    rows carry their counts as ``weights``, which scale one factor of every
    sum over rows once normalised to mean one; kernel fits pass none.
    Returns (lambdas, the three features read, their means, info).
    """
    views = iter(views)
    f1, f2 = next(views), next(views)
    n = f1.shape[0]
    r = None if weights is None else weights * (n / weights.sum())
    u, s, v, margin = _top_singular(f1.cross(f2, r), k)
    f3, = views                                      # drawn once c12 is gone
    g1, g2 = f1 @ u, f2 @ v
    b = f3.tdot(_weighted(np.hstack((g2, g1)), r)) / n   # [V' c23; U' c13]'
    q = np.linalg.qr(b)[0]                           # r3 x 2k orthonormal
    if q.shape[1] < k:                               # q has min(r3, 2k) columns
        raise RankDeficiency(f"view 3's features have rank {q.shape[1]}, below k={k}")
    e1, e2 = b[:, :k].T @ q / s[:, None], b[:, k:].T @ q / s[:, None]  # x1 q = g1 e1
    cross = e1.T @ (g1.T @ _weighted(g2, r) / n) @ e2
    w_map, spectrum = build_whitener((cross + cross.T) / 2.0, k)

    g3 = f3 @ q
    t_hat = whitened_third_moment(_weighted(g1 @ (e1 @ w_map), r),
                                  g2 @ (e2 @ w_map), g3 @ w_map)
    eig = robust_power_method(t_hat, k, seed=power_ss)
    priors = priors_from_lambdas(eig.lambdas)[1]

    m3 = ((q @ w_map) * spectrum[None, :]) @ (eig.vectors.T * eig.lambdas[None, :])
    h = _weighted(g3 @ (q.T @ np.linalg.pinv(m3).T / (n * priors[None, :])), r)
    info = {"power_residual": eig.residual,
            "moment_spectrum": np.sqrt(spectrum),
            "rank_margin": margin}
    return eig.lambdas, (f1, f2, f3), [f1.tdot(h), f2.tdot(h), m3], info


def fit_discrete_multiview(a1, a2, a3, k: int, seed=0, counts=None) -> MixtureEstimate:
    """Mixture fit for three categorical views coded 0..S-1.

    The one-hot features of the distinct observed triples, weighted by their
    row counts, feed the shared cross-moment decomposition; recovered
    conditional means are clamped at the density floor and renormalized into
    column-stochastic emission matrices.
    k = 1 takes the count-weighted marginals. ``counts``, one nonnegative
    integer per row, makes each row stand for that many: a count table fits as
    its rows repeated would, bit for bit.
    """
    views, s, k = _checked_levels(a1, a2, a3, k, seed)
    if counts is not None:
        counts = _row_counts(counts, views[0].shape[0])
    triples, counts, _ = _triple_table(views, s, counts=counts)
    if k == 1:
        lam, info = np.ones(1), {"method": "discrete_marginal"}
        means = [np.bincount(t, weights=counts, minlength=s)[:, None] / counts.sum()
                 for t in triples]
    else:
        lam, _, means, info = _cross_moment_core([_OneHotFeatures(t, s) for t in triples],
                                                 k, _seed_sequence(seed).spawn(1)[0], counts)
        info["method"] = "discrete_cross_moment"
    return MixtureEstimate(
        backend="discrete", lambdas=lam, emissions=tuple(map(_stochastic_columns, means)),
        seed=int(seed), diagnostics=info | {"levels": s},
    )


def _checked_levels(a1, a2, a3, k, seed):
    """The discrete fits' checks in their order: k, the seed, the levels, S >= k."""
    k = _check_k(k)
    _seed_sequence(seed)
    views, s = _as_levels(a1, a2, a3)
    if s < k:
        raise InvalidConfig(f"need at least k={k} levels, views have {s}")
    return views, s, k


def _row_counts(counts, n: int) -> np.ndarray:
    """Row counts as floats: n nonnegative whole numbers, not all zero."""
    c = _floats(counts, "row counts")
    if c.shape != (n,):
        raise DimensionMismatch(f"need one row count per row ({n}), got shape {c.shape}")
    if np.any((c < 0) | (np.floor(c) != c)):
        raise InvalidConfig("row counts must be nonnegative integers")
    if not c.any():
        raise EmptyInput("row counts are all zero")
    return c


def _triple_table(views, s, y=None, counts=None):
    """Distinct observed level triples, their row counts and, given y, their sums of y.

    Each row gets one key, (a1 S + a2) S + a3. Where the S^3 cells are no more
    than the n rows, one bincount of the key counts them; beyond, the sorted
    distinct keys number the cells, so no table outgrows the rows. The
    triples come out in lexicographic order. Given ``counts``, a row counts
    that many times and a triple of count 0 drops out.
    """
    a1, a2, a3 = views
    key = (a1 * s + a2) * s + a3
    if s ** 3 <= key.shape[0]:
        values, index = np.arange(s ** 3), key
    else:
        values, index = np.unique(key, return_inverse=True)
    counts = np.bincount(index, weights=counts)
    cells = np.flatnonzero(counts)
    sums = None if y is None else np.bincount(index, weights=y)[cells]
    key = values[cells]
    return (key // (s * s), key // s % s, key % s), counts[cells], sums


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
    view = _check_component(view, 3, "view")
    component = _check_component(component, est.n_components)
    point = np.atleast_1d(z) if est.backend == "discrete" else np.atleast_2d(z)
    (point,) = _checked_views(est, point)
    if point.shape[0] != 1:
        raise DimensionMismatch(f"density takes one point, got {point.shape[0]}")
    return float(_density_matrix(est, view, point)[0, component])


def _density_matrix(est: MixtureEstimate, view: int, z) -> np.ndarray:
    """n x K matrix of clamped per-component densities for one checked view.

    Kernel densities are reduced one row block of the gram at a time, so no
    n x m array is formed.
    """
    if est.backend == "discrete":
        dm = est.emissions[view][z, :]
    else:
        dm = KernelRows(est.kernel, z, est.anchors[view]) @ est.coefficients[view].T
    return np.maximum(dm, DENSITY_FLOOR, out=dm)


def posteriors(est: MixtureEstimate, z1, z2, z3) -> PosteriorMatrix:
    """Bayes weights over components given all three views of each sample.

    Likelihood products are accumulated in log space. Rows where every
    component's product collapses to the cube of the density floor carry no
    information; they fall back to the prior vector and ``fallback`` flags them.
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
                       _FLOOR_FALLBACK)


def _bayes_rows(log_w, fallback, replacement, reason: str) -> PosteriorMatrix:
    """Posterior rows from n x K log weights, normalised after a row-max shift.

    A row falls back to its row of ``replacement`` when ``fallback`` flags
    it or its normaliser is not finite and positive; such rows are flagged in
    ``fallback`` and counted in one warning that ``reason`` completes.
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
    return PosteriorMatrix(weights=w, fallback=fallback)


# ---------------------------------------------------------------------------
# rank selection
# ---------------------------------------------------------------------------

def scree(z1, z2, kernel: KernelSpec | None = None, max_k: int = 10,
          seed=0) -> np.ndarray:
    """Leading cross-view correlation spectrum, for picking the rank.

    Both views are mapped to whitened landmark features and the top max_k
    singular values of their cross moment are returned, by ``_leading_svd``
    as in a fit. Conditional independence
    makes the population version of that operator rank K exactly (the
    constant direction plus K - 1 mixture directions), so the spectrum
    drops off right after the true component count. ``kernel=None`` is
    ``KernelSpec()``, the fixed bandwidth 1.0 in the data's units.
    """
    z1, z2 = _as_views(z1, z2)
    max_k = _integer(max_k, "max_k must lie in 1..n", 1, z1.shape[0])
    kernel = kernel if kernel is not None else KernelSpec()
    # child 0 drew the bandwidth once; skipping it keeps every seed's landmarks
    rng = np.random.default_rng(_seed_sequence(seed).spawn(2)[1])
    f1, f2 = (_nystrom_features(z, kernel, rng) for z in (z1, z2))
    return _leading_svd(f1.cross(f2), max_k)[1]


def scree_discrete(a1, a2, max_k: int = 10) -> np.ndarray:
    """Cross-view correlation spectrum for two categorical views."""
    (v1, v2), s = _as_levels(a1, a2)
    max_k = _integer(max_k, "max_k must lie in 1..n", 1, v1.shape[0])
    c12 = _OneHotFeatures(v1, s).cross(_OneHotFeatures(v2, s))
    p1, p2 = c12.sum(axis=1), c12.sum(axis=0)
    keep1, keep2 = p1 > 0, p2 > 0
    core = (c12[keep1][:, keep2]
            / np.sqrt(p1[keep1])[:, None] / np.sqrt(p2[keep2])[None, :])
    sv = np.linalg.svd(core, compute_uv=False)
    return sv[: min(max_k, sv.shape[0])]


def select_rank(singular_values: np.ndarray) -> int:
    """Component count from the largest successive spectral-gap ratio."""
    sv = _floats(singular_values, "singular values")
    if sv.ndim != 1 or sv.shape[0] < 2:
        raise InvalidConfig("need at least two singular values to pick a rank")
    if np.any(sv < 0):
        raise InvalidConfig("singular values must be nonnegative")
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
    a, b = (_floats(x, "summary blocks") for x in (estimated, reference))
    a, b = (x[:, None] if x.ndim == 1 else x for x in (a, b))
    if a.ndim != 2 or a.shape != b.shape:
        raise DimensionMismatch(f"need two K x p summary blocks of one shape, "
                                f"got {a.shape} and {b.shape}")
    return _assignment(np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2))


def _assignment(cost: np.ndarray) -> np.ndarray:
    """Row matched to each column by the least-cost assignment of a square matrix.

    The Hungarian method (Kuhn 1955) in its O(K^3) shortest-augmenting-path
    form: rows join one at a time, each along the cheapest path in costs
    reduced by row and column potentials, so the total is exactly minimal.
    Index 0 is a virtual column where each new row's path starts.
    """
    k = cost.shape[0]
    u, v = np.zeros(k + 1), np.zeros(k + 1)
    row_of = np.zeros(k + 1, dtype=int)           # 1-based row on each column, 0 when free
    way = np.zeros(k + 1, dtype=int)              # previous column on the path
    for i in range(1, k + 1):
        row_of[0], j = i, 0
        dist = np.full(k + 1, np.inf)
        used = np.zeros(k + 1, dtype=bool)
        while row_of[j]:
            used[j] = True
            row = row_of[j]
            reduced = cost[row - 1] - u[row] - v[1:]
            closer = ~used[1:] & (reduced < dist[1:])
            dist[1:][closer] = reduced[closer]
            way[1:][closer] = j
            j_next = int(np.argmin(np.where(used, np.inf, dist)))
            delta = dist[j_next]
            u[row_of[used]] += delta
            v[used] -= delta
            dist[~used] -= delta
            j = j_next
        while j:
            row_of[j] = row_of[way[j]]
            j = way[j]
    return row_of[1:] - 1
