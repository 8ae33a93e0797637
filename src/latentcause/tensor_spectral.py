"""Symmetric-tensor and moment linear algebra.

Covers the whitened third-moment construction and the robust tensor power
method with deflation, plus the second-moment eigendecomposition and
whitening steps they depend on. Tensors are stored dense (K x K x K); K is
the number of latent components and stays small.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSpectrum,
    DimensionMismatch,
    EmptyInput,
    NonConvergence,
)

EIG_FLOOR_REL = 1e-10
POWER_RESTARTS = 50
POWER_ITERS = 200
POWER_TOL = 1e-10

_PERMS3 = ((0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2))


@dataclass(frozen=True)
class Moment2:
    """Empirical second-moment matrix with the sample count that produced it."""

    matrix: np.ndarray
    n_samples: int

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"second moment must be square, got {m.shape}")
        scale = max(float(np.max(np.abs(m))), 1e-300)
        if np.max(np.abs(m - m.T)) > 1e-12 * scale:
            raise DimensionMismatch("second moment is not symmetric within 1e-12 relative")
        object.__setattr__(self, "matrix", (m + m.T) / 2.0)


@dataclass(frozen=True)
class Whitener:
    """Linear map W with W' M W = I_K for the moment matrix M it came from."""

    map: np.ndarray          # m x K
    spectrum: np.ndarray     # K positive values, descending


@dataclass(frozen=True)
class SymTensor3:
    """Dense symmetric third-order tensor."""

    entries: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.entries, dtype=float)
        if t.ndim != 3 or len(set(t.shape)) != 1:
            raise DimensionMismatch(f"tensor must be cubic, got {t.shape}")
        scale = max(float(np.max(np.abs(t))), 1e-300)
        for perm in _PERMS3[1:]:
            if np.max(np.abs(t - np.transpose(t, perm))) > 1e-10 * scale:
                raise DimensionMismatch("tensor is not symmetric within 1e-10 relative")
        object.__setattr__(self, "entries", t)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class TensorEigenSet:
    """Eigenpairs extracted by the power method, with the deflation residual."""

    lambdas: np.ndarray      # K positive values
    vectors: np.ndarray      # K x K, one unit vector per row
    residual: float


def symmetrize3(raw: np.ndarray) -> np.ndarray:
    """Average a cubic array over all six axis orderings."""
    return sum(np.transpose(raw, p) for p in _PERMS3) / 6.0


def top_k_eigh(m2: Moment2, k: int):
    """Leading k eigenvalues (descending) and eigenvectors of a second moment.

    The k-th eigenvalue must reach 1e-10 times the largest. Falling below
    that floor means the requested K exceeds what the data supports, and we
    fail loudly rather than regularize.
    """
    m = m2.matrix
    if k > m.shape[0]:
        raise DimensionMismatch(f"k={k} exceeds moment dimension {m.shape[0]}")
    vals, vecs = np.linalg.eigh(m)
    order = np.argsort(vals)[::-1]
    vals, vecs = vals[order], vecs[:, order]
    floor = EIG_FLOOR_REL * max(float(vals[0]), 0.0)
    if vals[k - 1] < floor:
        raise DegenerateSpectrum(
            f"eigenvalue {k} is {vals[k - 1]:.3e}, below floor {floor:.3e}; "
            "k too large or data insufficient"
        )
    return vals[:k].copy(), vecs[:, :k].copy()


def build_whitener(m2: Moment2, k: int) -> Whitener:
    """Whitening map from the top-k eigenpairs: W = U_k diag(s_k^(-1/2))."""
    vals, vecs = top_k_eigh(m2, k)
    return Whitener(map=vecs / np.sqrt(vals)[None, :], spectrum=vals)


def whitened_third_moment(xi1: np.ndarray, xi2: np.ndarray,
                          xi3: np.ndarray) -> SymTensor3:
    """Symmetrized empirical third moment of whitened view coordinates.

    Each argument is an n x K array of per-sample whitened features, one per
    view. The estimate averages the rank-1 tensor of every sample over all
    orderings of the three views, which makes the result exactly symmetric.
    """
    xi1, xi2, xi3 = (np.atleast_2d(np.asarray(x, dtype=float)) for x in (xi1, xi2, xi3))
    if xi1.shape[0] == 0:
        raise EmptyInput("no whitened triples supplied")
    if not (xi1.shape == xi2.shape == xi3.shape):
        raise DimensionMismatch("whitened views must share one shape")
    raw = np.einsum("ni,nj,nk->ijk", xi1, xi2, xi3) / xi1.shape[0]
    return SymTensor3(symmetrize3(raw))


def tensor_contract(t: SymTensor3, v: np.ndarray) -> np.ndarray:
    """The power-iteration map T(I, v, v)."""
    v = np.asarray(v, dtype=float)
    if v.shape != (t.dim,):
        raise DimensionMismatch(f"vector length {v.shape} does not match tensor dim {t.dim}")
    return np.einsum("ijk,j,k->i", t.entries, v, v)


def robust_power_method(t: SymTensor3, k: int,
                        seed: int | np.random.SeedSequence = 0) -> TensorEigenSet:
    """Extract k eigenpairs by restarted power iteration with deflation.

    For each component, the iteration v <- T(I, v, v) / ||.|| runs from
    POWER_RESTARTS random unit starts for at most POWER_ITERS steps; the
    converged start with the largest eigenvalue T(v, v, v) wins (first found
    on ties) and its rank-1 term is deflated before the next component. Each
    restart draws its start vector from its own derived seed, so results do
    not depend on execution order. Eigenvalues are normalized positive by
    flipping v.
    """
    dim = t.dim
    if k > dim:
        raise DimensionMismatch(f"cannot extract {k} components from a dim-{dim} tensor")
    work = t.entries.copy()
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    starts = root.spawn(k * POWER_RESTARTS)

    lambdas = np.zeros(k)
    vectors = np.zeros((k, dim))
    for j in range(k):
        best_lam, best_vec = None, None
        for r in range(POWER_RESTARTS):
            rng = np.random.default_rng(starts[j * POWER_RESTARTS + r])
            v = rng.standard_normal(dim)
            v /= np.linalg.norm(v)
            converged = False
            for _ in range(POWER_ITERS):
                step = np.einsum("ijk,j,k->i", work, v, v)
                norm = np.linalg.norm(step)
                if norm == 0.0:
                    # stationary at a null direction; keep v as is
                    converged = True
                    break
                step /= norm
                if np.linalg.norm(step - v) < POWER_TOL:
                    v = step
                    converged = True
                    break
                v = step
            if not converged:
                continue
            lam = float(np.einsum("ijk,i,j,k->", work, v, v, v))
            if lam < 0.0:
                lam, v = -lam, -v
            if best_lam is None or lam > best_lam:
                best_lam, best_vec = lam, v
        if best_lam is None:
            raise NonConvergence(
                f"no restart converged within {POWER_ITERS} iterations at component {j + 1}; "
                "noise level too high or wrong K"
            )
        lambdas[j] = best_lam
        vectors[j] = best_vec
        work -= best_lam * np.einsum("i,j,k->ijk", best_vec, best_vec, best_vec)

    return TensorEigenSet(lambdas=lambdas, vectors=vectors,
                          residual=float(np.linalg.norm(work)))
