"""Symmetric-tensor and moment linear algebra.

Covers the whitening of a second moment, the whitened third moment, and its
orthogonal decomposition: the eigenvectors of one random slice T(I, I, theta)
(simultaneous diagonalization), each polished by power steps on the tensor
with the earlier rank-1 terms deflated. Tensors are plain dense symmetric
K x K x K arrays; K is the number of latent components and stays small.
The fits in ``mixture`` build every input, so nothing here re-checks them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrum, NonConvergence

EIG_FLOOR_REL = 1e-10
SLICE_DRAWS = 3
POWER_ITERS = 200
POWER_TOL = 1e-10


@dataclass(frozen=True)
class TensorEigenSet:
    """Eigenpairs of a whitened third moment, with the deflation residual."""

    lambdas: np.ndarray      # K positive values
    vectors: np.ndarray      # K x K, one unit vector per row
    residual: float


def build_whitener(m: np.ndarray, k: int):
    """Whitening map W = U_k diag(s_k^(-1/2)) and spectrum s_k from m's top k eigenpairs.

    W' m W = I_k, and s_k descends. ``m`` is a symmetric second moment. Its
    k-th eigenvalue must lie strictly above 1e-10 times the largest (and so
    above 0). Failing that means the requested K exceeds what the data
    supports, and we fail loudly rather than regularize.
    """
    vals, vecs = np.linalg.eigh(m)
    vals, vecs = vals[::-1][:k], vecs[:, ::-1][:, :k]
    floor = EIG_FLOOR_REL * max(float(vals[0]), 0.0)
    if not vals[k - 1] > floor:
        raise DegenerateSpectrum(
            f"eigenvalue {k} is {vals[k - 1]:.3e}, not above floor {floor:.3e}; "
            "k too large or data insufficient"
        )
    return vecs / np.sqrt(vals)[None, :], vals


def whitened_third_moment(xi1: np.ndarray, xi2: np.ndarray,
                          xi3: np.ndarray) -> np.ndarray:
    """Symmetrized empirical third moment of whitened view coordinates.

    Each argument is an n x K array of per-sample whitened features, one per
    view. The estimate averages the rank-1 tensor of every sample over all
    orderings of the three views, which makes the result exactly symmetric.
    """
    raw = np.einsum("ni,nj,nk->ijk", xi1, xi2, xi3) / xi1.shape[0]
    return sum(raw.transpose(p) for p in itertools.permutations(range(3))) / 6.0


def robust_power_method(t: np.ndarray, k: int,
                        seed: int | np.random.SeedSequence = 0) -> TensorEigenSet:
    """Extract k eigenpairs of a symmetric tensor from one slice eigh.

    Of SLICE_DRAWS seeded unit theta, the slice T(I, I, theta) whose smallest
    eigengap is widest is diagonalized; its eigenvectors, largest |T(v, v, v)|
    first, start the components. Each is flipped so T(v, v, v) > 0, polished
    by at most POWER_ITERS steps v <- T(I, v, v) / ||.|| on the tensor with
    the earlier components deflated, and deflated in turn. A step whose norm
    (the eigenvalue at a fixed point) is at or below EIG_FLOOR_REL times the
    largest eigenvalue found means the tensor carries fewer than k components.
    ``seed`` is a nonnegative integer or the SeedSequence a fit hands down.
    """
    thetas = np.random.default_rng(seed).standard_normal((SLICE_DRAWS, t.shape[0]))
    thetas /= np.linalg.norm(thetas, axis=1, keepdims=True)
    vals, vecs = np.linalg.eigh(np.moveaxis(t @ thetas.T, -1, 0))
    vecs = vecs[np.argmax(np.min(np.diff(vals, axis=1), axis=1, initial=np.inf))]
    cubes = np.einsum("ijk,ia,ja,ka->a", t, vecs, vecs, vecs)
    order = np.argsort(-np.abs(cubes), kind="stable")[:k]
    starts = (vecs[:, order] * np.where(cubes[order] < 0.0, -1.0, 1.0)).T

    work = t.copy()
    lambdas = np.zeros(k)
    vectors = np.zeros((k, t.shape[0]))
    for j, v in enumerate(starts):
        floor = EIG_FLOOR_REL * lambdas.max()
        for _ in range(POWER_ITERS):
            step = np.einsum("ijk,j,k->i", work, v, v)
            norm = np.linalg.norm(step)
            if norm <= floor:
                raise DegenerateSpectrum(
                    f"component {j + 1} has eigenvalue {norm:.3e}, not above floor "
                    f"{floor:.3e}; the tensor carries fewer than k={k} components"
                )
            step /= norm
            done = np.linalg.norm(step - v) < POWER_TOL
            v = step
            if done:
                break
        else:
            raise NonConvergence(
                f"power polish of component {j + 1} did not settle within {POWER_ITERS} "
                "steps; noise level too high or wrong K"
            )
        lambdas[j] = np.einsum("ijk,i,j,k->", work, v, v, v)
        vectors[j] = v
        work -= lambdas[j] * np.einsum("i,j,k->ijk", v, v, v)

    return TensorEigenSet(lambdas=lambdas, vectors=vectors,
                          residual=float(np.linalg.norm(work)))
