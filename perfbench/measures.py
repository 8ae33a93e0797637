"""Summary arithmetic for the benchmark: alignment, errors, span self times, tails.

Nothing here imports latentcause, so the functions can be tested on
hand-built inputs and judge the program without trusting its own alignment
code.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def align(estimated, reference):
    """Permutation p minimising sum_u ||estimated[p[u]] - reference[u]||^2.

    Rows are components. The search is exhaustive, which is exact and cheap
    for the two or three components the benchmark designs have.
    """
    k = len(reference)
    if len(estimated) != k:
        raise ValueError("estimated and reference need the same number of rows")
    best, best_cost = None, math.inf
    for perm in itertools.permutations(range(k)):
        cost = sum(
            (float(e) - float(r)) ** 2
            for u in range(k)
            for e, r in zip(estimated[perm[u]], reference[u], strict=True)
        )
        if cost < best_cost:
            best, best_cost = perm, cost
    return list(best)


def aligned_max_error(estimated, truth, perm):
    """max over components u and entries j of |estimated[perm[u]][j] - truth[u][j]|.

    Scalars per component are accepted as one-entry rows.
    """
    worst = 0.0
    for u, ref in enumerate(truth):
        est = estimated[perm[u]]
        est_row = est if hasattr(est, "__len__") else [est]
        ref_row = ref if hasattr(ref, "__len__") else [ref]
        for e, r in zip(est_row, ref_row, strict=True):
            worst = max(worst, abs(float(e) - float(r)))
    return worst


def mean_tv(estimated, oracle, perm):
    """Mean over rows of the total-variation distance between aligned weights.

    Column perm[u] of ``estimated`` is compared with column u of ``oracle``.
    """
    est = np.asarray(estimated, dtype=float)
    ora = np.asarray(oracle, dtype=float)
    if est.shape != ora.shape or ora.shape[0] == 0:
        raise ValueError("weight matrices need one nonzero shape")
    return float(0.5 * np.abs(est[:, list(perm)] - ora).sum(axis=1).mean())


def self_times(spans):
    """Self time of each span: its duration minus the union its children cover.

    ``spans`` holds dicts with ``id``, ``parent``, ``start`` and ``end``.
    Children may overlap one another (trials in parallel workers), so their
    intervals are merged before being subtracted, and each is clipped to
    the parent's interval. Returns {span id: self seconds}.
    """
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        pieces = sorted(
            (max(c["start"], s["start"]), min(c["end"], s["end"]))
            for c in children.get(s["id"], ())
        )
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in pieces:
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def tail_percentile(samples, beyond=10):
    """(p, value): the highest whole percentile with at least ``beyond`` samples above it.

    Returns (None, None) when there are too few samples for any percentile.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= beyond:
        return None, None
    p = math.floor(100.0 * (n - beyond) / n)
    while p > 0 and n - math.ceil(p / 100.0 * n) < beyond:
        p -= 1
    rank = max(math.ceil(p / 100.0 * n) - 1, 0)
    return p, ordered[rank]

