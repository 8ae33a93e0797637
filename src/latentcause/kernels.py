"""Gaussian RBF kernel, bandwidth rules, and Gram matrix evaluation.

The kernel convention is k(x, y) = exp(-||x - y||^2 / (2 s^2)) with
bandwidth s, so two points at distance sqrt(2)*s have kernel value e^{-1}.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidConfig

MEDIAN_SUBSAMPLE = 1000
_BLOCK_CELLS = 1 << 16      # kernel entries per row block: 512 KiB of float64


@dataclass(frozen=True)
class KernelSpec:
    """Gaussian RBF kernel configuration.

    ``bandwidth`` may be given directly; otherwise it is resolved from the
    data by ``rule``: the median pairwise distance over a subsample
    ("median_heuristic", the default) or the shrinking power rule
    s = c * n^(-1 / (2b + 7d)) ("power_rule") with user-supplied constants.
    ``landmark_count`` caps the anchor set used by the spectral fits.
    """

    bandwidth: float | None = None
    rule: str = "median_heuristic"
    power_c: float = 1.0
    power_b: float = 2.0
    landmark_count: int = 1000

    def __post_init__(self):
        if self.rule not in ("median_heuristic", "power_rule"):
            raise InvalidConfig(f"unknown bandwidth rule: {self.rule!r}")
        given = ("power_c", "power_b") + (("bandwidth",) if self.is_resolved else ())
        for name in given:
            try:
                value = float(getattr(self, name))
            except (TypeError, ValueError):
                raise InvalidConfig(f"{name} must be a number, got "
                                    f"{getattr(self, name)!r}") from None
            if not (np.isfinite(value) and value > 0):
                raise InvalidConfig(f"{name} must be finite and positive, got {value}")
            object.__setattr__(self, name, value)
        count = self.landmark_count
        if not isinstance(count, (int, np.integer)) or count < 1:
            raise InvalidConfig(f"landmark_count must be an integer of at least 1, "
                                f"got {count!r}")
        object.__setattr__(self, "landmark_count", int(count))

    @property
    def is_resolved(self) -> bool:
        return self.bandwidth is not None

    def resolve(self, points: np.ndarray, n: int, rng: np.random.Generator) -> "KernelSpec":
        """Return a copy with a concrete bandwidth chosen from the data."""
        if self.bandwidth is not None:
            return self
        if self.rule == "median_heuristic":
            s = median_heuristic(points, rng)
        else:
            d = points.shape[1] if points.ndim > 1 else 1
            s = power_rule_bandwidth(self.power_c, self.power_b, n, d)
        return replace(self, bandwidth=float(s))


def median_heuristic(points: np.ndarray, rng: np.random.Generator) -> float:
    """Median pairwise Euclidean distance over at most MEDIAN_SUBSAMPLE points."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[0] == 0:
        raise InvalidConfig("cannot resolve a bandwidth from zero points")
    if pts.shape[0] > MEDIAN_SUBSAMPLE:
        idx = rng.choice(pts.shape[0], size=MEDIAN_SUBSAMPLE, replace=False)
        pts = pts[idx]
    iu = np.triu_indices(pts.shape[0], k=1)
    if iu[0].size == 0:
        return 1.0
    xa, ya = _augmented(pts, pts, -2.0)
    med = float(np.median(np.sqrt(np.maximum((xa @ ya)[iu], 0.0))))
    if med <= 0.0:
        raise InvalidConfig("median pairwise distance is zero; supply a bandwidth")
    return med


def power_rule_bandwidth(c: float, b: float, n: int, d: int) -> float:
    """Shrinking bandwidth s = c * n^(-1 / (2b + 7d))."""
    if n < 1:
        raise InvalidConfig("power rule needs at least one sample")
    return float(c) * float(n) ** (-1.0 / (2.0 * b + 7.0 * d))


def _augmented(x: np.ndarray, y: np.ndarray, c: float) -> tuple[np.ndarray, np.ndarray]:
    """Factors with ``xa @ ya = -c ||x_i - y_j||^2 / 2``; c = -2 gives squared distances.

    x is padded with ``[||x||^2, 1]``, and c*y with ``[-c/2, -c ||y||^2 / 2]``.
    """
    x, y = (np.atleast_2d(np.asarray(a, dtype=float)) for a in (x, y))
    xa = np.column_stack([x, np.sum(x * x, axis=1), np.ones(x.shape[0])])
    half = -0.5 * c
    ya = np.vstack([c * y.T, np.full(y.shape[0], half), half * np.sum(y * y, axis=1)])
    return xa, ya


def gram(kernel: KernelSpec, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Kernel matrix with entry (i, j) = k(x_i, y_j)."""
    return KernelRows(kernel, x, y)[:]


class KernelRows:
    """Row source of ``gram(kernel, x, y)``: ``rows[lo:hi]`` evaluates those rows.

    Nothing n x m is stored; each slice is rebuilt from the augmented factors.
    Each row block of about _BLOCK_CELLS entries is one product of them,
    -||x - y||^2 / (2 s^2), then clamped at 0 (rounding can leave a tiny
    positive value where x = y) and exponentiated in cache.
    """

    def __init__(self, kernel: KernelSpec, x: np.ndarray, y: np.ndarray):
        if not kernel.is_resolved:
            raise InvalidConfig("bandwidth not resolved; call KernelSpec.resolve first")
        self._xa, self._ya = _augmented(x, y, kernel.bandwidth ** -2)
        self.shape = (self._xa.shape[0], self._ya.shape[1])

    def fill(self, lo: int, out: np.ndarray) -> np.ndarray:
        """Write rows lo .. lo + len(out) into ``out``, one row block at a time."""
        step = max(1, _BLOCK_CELLS // max(self.shape[1], 1))
        for a in range(0, out.shape[0], step):
            block = out[a:a + step]
            np.matmul(self._xa[lo + a:lo + a + block.shape[0]], self._ya, out=block)
            np.minimum(block, 0.0, out=block)
            np.exp(block, out=block)
        return out

    def __getitem__(self, rows: slice) -> np.ndarray:
        lo, hi, _ = rows.indices(self.shape[0])
        return self.fill(lo, np.empty((max(hi - lo, 0), self.shape[1])))


def _row_blocks(sources, cells: int = _BLOCK_CELLS):
    """(lo, hi, blocks): rows lo:hi of each source, about ``cells`` entries apiece.

    A source is a ``KernelRows``, evaluated into one buffer that every block
    reuses (fresh pages cost as much as the kernel arithmetic), so a block is
    valid only until the next is drawn; or an n x r ndarray, sliced, which
    serves one-hot views and test fixtures.
    """
    n = sources[0].shape[0]
    step = max(1, cells // max(max(src.shape[1] for src in sources), 1))
    bufs = [np.empty((min(step, n), src.shape[1])) if isinstance(src, KernelRows) else None
            for src in sources]
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        yield lo, hi, [src[lo:hi] if buf is None else src.fill(lo, buf[:hi - lo])
                       for src, buf in zip(sources, bufs)]


def _row_product(rows, coefficients: np.ndarray) -> np.ndarray:
    """``rows @ coefficients`` for a row source, one row block at a time.

    With a ``KernelRows`` source this is a kernel matrix times coefficients
    without an n x m array.
    """
    out = np.empty((rows.shape[0], coefficients.shape[1]))
    for lo, hi, (block,) in _row_blocks((rows,)):
        np.matmul(block, coefficients, out=out[lo:hi])
    return out
