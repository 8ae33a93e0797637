"""Dense linear algebra for the fits, in numpy: one BLAS pool per process.

The landmark factor needs a diagonally pivoted Cholesky and the inverse of
its triangle, and the cross moment's rank-K maps need its top singular
triplets. LAPACK's ``dpstrf`` and ``dtrtri`` and ARPACK are reachable from
numpy only through another library with its own OpenBLAS, whose calls
would wait on numpy's spinning threads, so these are written here on
numpy's BLAS products.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NonConvergence

_FACTOR_PANEL = 64         # pivots per panel of the landmark factor: dpstrf's block size
_UPDATE_CELLS = 1 << 17    # entries of one trailing-update product: 1 MiB, reused across panels
_INVERSE_BASE = 64         # triangle size that the recursive inverse hands to np.linalg.inv
_KRYLOV_STEPS = 200        # Lanczos steps, so basis vectors, a truncated SVD may take per side


def _pivoted_cholesky(a: np.ndarray, tol: float):
    """Greedy diagonally pivoted Cholesky of a symmetric PSD ``a``, in place: (piv, r).

    Each step takes the largest residual diagonal entry as the pivot (the
    first on ties) and stops at the first at or below ``tol``, as LAPACK's
    ``dpstrf`` does. Then ``a[piv][:, piv] = L L'`` up to the residual, with
    the r x r lower triangle L left in ``a[:r, :r]``. Like ``dpstrf`` it
    reads and updates the lower triangle only and keeps its block size;
    the rest of ``a`` is scratch. Blocked and right-looking: within a panel
    of _FACTOR_PANEL pivots each column costs one matrix-vector product
    against the panel's earlier columns; then the panel's pivots swap to the
    front, each with the row and column it displaces, and the trailing
    Schur complement is updated in products of at most _UPDATE_CELLS entries.
    """
    m = a.shape[0]
    piv, j0 = np.arange(m), 0
    buf = np.empty(min(_UPDATE_CELLS, m * m))
    while j0 < m:
        s = a[j0:, j0:]                        # Schur complement of the first j0 pivots
        n, b = m - j0, min(_FACTOR_PANEL, m - j0)
        diag, work, sq, col = s.diagonal().copy(), np.zeros(n), np.empty(n), np.empty(n)
        res = diag.copy()                      # residual diagonal: diag - work
        lt = np.empty((b, n))                  # the panel's columns of L, as rows
        chosen = []
        for j in range(b):
            p = int(np.argmax(res))
            if not res[p] > tol:
                break
            ajj = math.sqrt(res[p])
            col[:p], col[p:] = s[p, :p], s[p:, p]
            row = np.matmul(lt[:j, p], lt[:j], out=lt[j])
            np.subtract(col, row, out=row)
            row *= 1.0 / ajj
            row[p] = ajj
            work += np.multiply(row, row, out=sq)
            diag[p] = -np.inf
            np.subtract(diag, work, out=res)
            chosen.append(p)
        bb = len(chosen)
        ch = np.array(chosen, dtype=int)
        order = np.arange(n)                   # position t then holds what stood at order[t]
        holes = ch[ch >= bb]
        order[holes] = shut = np.setdiff1d(order[:bb], ch, assume_unique=True)
        order[:bb] = ch
        rows = a[j0 + ch, :j0]                 # the pivots' rows of L
        a[j0 + holes, :j0] = a[j0 + shut, :j0]
        a[j0:j0 + bb, :j0] = rows
        # each displaced entry's column at its new rows, read from the lower triangle
        moved, front = s[bb:, shut], np.tril(s[np.ix_(shut, shut)])
        moved[holes - bb] = front + np.tril(front, -1).T
        piv[j0:] = piv[j0:][order]
        x = lt[:bb]
        x[:, :bb], x[:, holes] = x[:, ch], x[:, shut]
        s[:, :bb] = x.T
        s[bb:, holes] = moved
        s[holes, bb:] = moved.T
        j0 += bb
        if bb < b or j0 == m:
            break
        x, t = x[:, bb:], s[bb:, bb:]
        step = max(1, buf.shape[0] // (n - bb))
        for lo in range(0, n - bb, step):
            hi = min(lo + step, n - bb)
            prod = np.matmul(x[:, lo:hi].T, x[:, :hi], out=buf[:(hi - lo) * hi].reshape(hi - lo, hi))
            np.subtract(t[lo:hi, :hi], prod, out=t[lo:hi, :hi])
    return piv, j0


def _triangular_inverse(t: np.ndarray) -> np.ndarray:
    """Inverse of a lower triangle with a zero upper part, in place, by halves.

    inv([[A, 0], [B, C]]) = [[inv(A), 0], [-inv(C) B inv(A), inv(C)]]: two
    half-size inverses and two products, down to _INVERSE_BASE.
    """
    n = t.shape[0]
    if n <= _INVERSE_BASE:
        t[...] = np.linalg.inv(t)
        return t
    h = n // 2
    a, b, c = t[:h, :h], t[h:, :h], t[h:, h:]
    _triangular_inverse(a)
    _triangular_inverse(c)
    np.negative(np.matmul(c, b @ a, out=b), out=b)
    return t


def _lanczos_svd(c: np.ndarray, k: int, v0: np.ndarray):
    """Top k singular triplets (u, s, v) of c by Golub-Kahan-Lanczos bidiagonalization.

    From v0 on c's smaller side (Golub & Kahan 1965), step j adds u_j and
    v_(j+1), each reorthogonalised against every earlier one, so that
    c V = U B with B upper bidiagonal (alpha_j on the diagonal, beta_j above
    it). With B = P S Q', the Ritz triplets (U p_i, s_i, V q_i) have
    residuals beta_j |P[j, i]|; they are returned once the top k are at most
    machine precision times s_1, or once V spans c's smaller side. The basis
    holds at most _KRYLOV_STEPS vectors a side: NonConvergence past that.
    """
    a = c.T if c.shape[0] < c.shape[1] else c
    n = a.shape[1]
    steps = min(n, _KRYLOV_STEPS)
    us, vs = np.empty((steps, a.shape[0])), np.empty((steps + 1, n))
    bidiag = np.zeros((steps, steps + 1))
    vs[0] = v0 / np.linalg.norm(v0)
    eps, scale = np.finfo(float).eps, 0.0
    for j in range(steps):
        u = a @ vs[j]
        if j:
            u -= bidiag[j - 1, j] * us[j - 1]
        bidiag[j, j], us[j] = _lanczos_vector(u, us[:j], eps * np.sqrt(n) * scale, j)
        scale = max(scale, bidiag[j, j])
        if j + 1 < n:
            bidiag[j, j + 1], vs[j + 1] = _lanczos_vector(
                us[j] @ a - bidiag[j, j] * vs[j], vs[:j + 1], eps * np.sqrt(n) * scale, j)
            scale = max(scale, bidiag[j, j + 1])
        if j + 1 < k:
            continue
        p, s, qt = np.linalg.svd(bidiag[:j + 1, :j + 1])
        if j + 1 == n or np.all(bidiag[j, j + 1] * np.abs(p[-1, :k]) <= eps * s[0]):
            left, right = p[:, :k].T @ us[:j + 1], qt[:k] @ vs[:j + 1]
            return (right.T, s[:k], left.T) if a is not c else (left.T, s[:k], right.T)
    raise NonConvergence(f"truncated SVD of a cross moment did not converge in "
                         f"{steps} Lanczos steps")


def _lanczos_vector(w: np.ndarray, basis: np.ndarray, floor: float, seed: int):
    """(norm, unit vector) of w orthogonalised twice against the basis rows.

    At or below ``floor`` the basis holds w's whole direction: the norm is
    then 0 and a seeded random direction, orthogonalised the same way, goes
    on, which lets the bidiagonalization pass rank deficiency and repeats.
    """
    for _ in range(2):
        w -= (basis @ w) @ basis
    norm = np.linalg.norm(w)
    if norm > floor:
        return norm, w / norm
    w = np.random.default_rng(seed).standard_normal(w.shape[0])
    for _ in range(2):
        w -= (basis @ w) @ basis
    return 0.0, w / np.linalg.norm(w)
