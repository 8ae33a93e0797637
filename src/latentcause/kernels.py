"""Gaussian RBF kernel configuration and Gram matrix evaluation.

The kernel convention is k(x, y) = exp(-||x - y||^2 / (2 s^2)) with
bandwidth s, so two points at distance sqrt(2)*s have kernel value e^{-1}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import _integer, _positive

_BLOCK_CELLS = 1 << 16      # kernel entries per row block: 512 KiB of float64


@dataclass(frozen=True)
class KernelSpec:
    """Gaussian RBF kernel configuration.

    ``bandwidth`` is the fixed kernel width s, in the data's units (default
    1.0); nothing resolves it from the data. ``landmark_count`` caps the
    anchor set used by the spectral fits.
    """

    bandwidth: float = 1.0
    landmark_count: int = 1000

    def __post_init__(self):
        object.__setattr__(self, "bandwidth", _positive(self.bandwidth, "bandwidth"))
        object.__setattr__(self, "landmark_count", _integer(
            self.landmark_count, "landmark_count must be an integer of at least 1", 1))


def gram(kernel: KernelSpec, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Kernel matrix with entry (i, j) = k(x_i, y_j), for checked float points."""
    return KernelRows(kernel, x, y).fill(0, np.empty((x.shape[0], y.shape[0])))


class KernelRows:
    """Row source of ``gram(kernel, x, y)`` for ``_row_blocks``, with its products.

    Nothing n x m is stored, nor any copy of the n x d points: ``fill``
    rebuilds any run of rows from the points and their squared norms, and
    ``rows @ m`` and ``rows.tdot(w)`` (rows' w) take them a block at a time.
    Each row block of about _BLOCK_CELLS entries pads its points to
    ``[x, ||x||^2, 1]`` in one reused buffer, and one product of that with
    c*y padded to ``[-c/2, -c ||y||^2 / 2]`` (c = s^-2) gives
    -||x - y||^2 / (2 s^2); it is then clamped at 0 (rounding can leave a tiny
    positive value where x = y) and exponentiated in cache.
    """

    def __init__(self, kernel: KernelSpec, x: np.ndarray, y: np.ndarray):
        c = kernel.bandwidth ** -2
        half = -0.5 * c
        self._x, self._sq = x, np.sum(x * x, axis=1)
        self._ya = np.vstack([c * y.T, np.full(y.shape[0], half), half * np.sum(y * y, axis=1)])
        self.shape = (x.shape[0], y.shape[0])
        step = max(1, _BLOCK_CELLS // max(self.shape[1], 1))
        self._pad = np.ones((max(1, min(step, self.shape[0])), x.shape[1] + 2))

    def fill(self, lo: int, out: np.ndarray) -> np.ndarray:
        """Write rows lo .. lo + len(out) into ``out``, one row block at a time."""
        d = self._x.shape[1]
        step = self._pad.shape[0]
        for a in range(0, out.shape[0], step):
            block = out[a:a + step]
            rows = slice(lo + a, lo + a + block.shape[0])
            xa = self._pad[:block.shape[0]]
            xa[:, :d], xa[:, d] = self._x[rows], self._sq[rows]
            np.matmul(xa, self._ya, out=block)
            np.minimum(block, 0.0, out=block)
            np.exp(block, out=block)
        return out

    def __matmul__(self, m: np.ndarray) -> np.ndarray:
        out = np.empty((self.shape[0], m.shape[1]))
        for lo, hi, (block,) in _row_blocks((self,)):
            np.matmul(block, m, out=out[lo:hi])
        return out

    def tdot(self, w: np.ndarray) -> np.ndarray:
        return sum(block.T @ w[lo:hi] for lo, hi, (block,) in _row_blocks((self,)))


def _row_blocks(sources, cells: int = _BLOCK_CELLS):
    """(lo, hi, blocks): rows lo:hi of each source, about ``cells`` entries apiece.

    A row source has ``shape`` and ``fill(lo, out)``, which writes rows
    lo .. lo + len(out) into ``out``, as ``KernelRows`` does. Each source is
    evaluated into one buffer that every block reuses (fresh pages cost as
    much as the kernel arithmetic), so a block is valid only until the next
    is drawn.
    """
    n = sources[0].shape[0]
    step = max(1, cells // max(max(src.shape[1] for src in sources), 1))
    bufs = [np.empty((min(step, n), src.shape[1])) for src in sources]
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        yield lo, hi, [src.fill(lo, buf[:hi - lo]) for src, buf in zip(sources, bufs)]
