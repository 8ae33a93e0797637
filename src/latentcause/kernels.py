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
    rows = KernelRows(kernel, x, y)
    for _, _, block in rows.blocks(max(1, x.shape[0])):     # one run: one n x m array
        return block
    return np.empty(rows.shape)


class KernelRows:
    """Rows of ``gram(kernel, x, y)``, streamed by ``blocks``, with their products.

    Nothing n x m is stored, nor any copy of the n x d points: ``blocks``
    rebuilds any run of rows from the points and their squared norms, and
    ``rows @ m`` and ``rows.tdot(w)`` (rows' w) take them a run at a time.
    Each piece of about _BLOCK_CELLS entries pads its points to
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

    def blocks(self, rows: int):
        """(lo, hi, block): rows lo:hi, ``rows`` a run, each run in one reused buffer.

        A block is valid only until the next is drawn (fresh pages cost as much
        as the kernel arithmetic). Each run is filled in pieces as tall as the
        padded buffer from its first row, as BLAS rounds by the row count.
        """
        (n, m), d, step = self.shape, self._x.shape[1], self._pad.shape[0]
        buf = np.empty((min(rows, n), m))
        for lo in range(0, n, rows):
            hi = min(lo + rows, n)
            for a in range(lo, hi, step):
                b = min(a + step, hi)
                piece, xa = buf[a - lo:b - lo], self._pad[:b - a]
                xa[:, :d], xa[:, d] = self._x[a:b], self._sq[a:b]
                np.matmul(xa, self._ya, out=piece)
                np.minimum(piece, 0.0, out=piece)
                np.exp(piece, out=piece)
            yield lo, hi, buf[:hi - lo]

    def __matmul__(self, m: np.ndarray) -> np.ndarray:
        out = np.empty((self.shape[0], m.shape[1]))
        for lo, hi, block in self.blocks(self._pad.shape[0]):
            np.matmul(block, m, out=out[lo:hi])
        return out

    def tdot(self, w: np.ndarray) -> np.ndarray:
        return sum(block.T @ w[lo:hi] for lo, hi, block in self.blocks(self._pad.shape[0]))
