"""Small dense linear-algebra kernels (n <= 8).

The symmetric eigensolver is LAPACK's `eigh` (through numpy) with one sign
convention fixed on top: every eigenvector's largest-magnitude entry is
positive, the first such entry on a tie.  Bifurcation kernels are exported
and orient the switched branches' seeds, so they must not depend on the
sign LAPACK happens to choose.

The pivoted LU stays in the package because its pivots define what
"singular" means here: a pivot below 1e-14 * max|A| raises
`SingularSystemError` in `solve` and makes `det_sign` 0.  Neither
`numpy.linalg.solve` nor `slogdet` exposes its pivots.  At these sizes
the elimination runs fastest on Python floats, one scalar at a time; it
performs the same operations in the same order as the row-at-a-time numpy
elimination kept as a reference in the tests, so the factors are
bit-identical.  numpy remains the only runtime dependency.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "SingularSystemError",
    "sym_eigen",
    "lu_factor",
    "lu_solve",
    "solve",
    "det_sign",
    "householder_complement",
    "orthonormal_columns",
]


class SingularSystemError(ValueError):
    """Raised when a pivot collapses during factorization."""

    def __init__(self, pivot_index: int, pivot: float):
        super().__init__(f"singular system: pivot {pivot_index} has magnitude {pivot:.3e}")
        self.pivot_index = pivot_index
        self.pivot = pivot


def _as_square(M) -> np.ndarray:
    A = np.array(M, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("expected a square matrix")
    return A


def sym_eigen(M) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-decomposition of a symmetric matrix (LAPACK `eigh`).

    Returns (w, V) with eigenvalues ascending and orthonormal eigenvectors in
    the columns of V, so that V @ diag(w) @ V.T reconstructs M.  Each column
    of V has its largest-magnitude entry positive (the first one on a tie).
    """
    A = _as_square(M)
    scale = np.abs(A).max()
    if scale > 0 and np.abs(A - A.T).max() > 1e-10 * scale:
        raise ValueError("sym_eigen requires a symmetric matrix")
    w, V = np.linalg.eigh(0.5 * (A + A.T))
    V *= np.sign(V[np.abs(V).argmax(axis=0), np.arange(V.shape[1])])
    return w, V


def _factor(M) -> tuple[list[list[float]], list[int], int]:
    """Partial-pivot elimination on Python floats: (LU rows, permutation, parity).

    The pivot of column k is the first row with the largest |a_ik|; one below
    1e-14 * max(max|A|, 1e-300) raises SingularSystemError(k, |pivot|).
    """
    A = _as_square(M)
    n = A.shape[0]
    tol = 1e-14 * max(float(np.abs(A).max()), 1e-300)
    rows = A.tolist()
    piv = list(range(n))
    parity = 1
    for k in range(n):
        r, best = k, abs(rows[k][k])
        for i in range(k + 1, n):
            a = abs(rows[i][k])
            if a > best:
                r, best = i, a
        if best < tol:
            raise SingularSystemError(k, best)
        if r != k:
            rows[k], rows[r] = rows[r], rows[k]
            piv[k], piv[r] = piv[r], piv[k]
            parity = -parity
        top = rows[k]
        d = top[k]
        for i in range(k + 1, n):
            row = rows[i]
            m = row[k] / d
            row[k] = m
            for j in range(k + 1, n):
                row[j] -= m * top[j]
    return rows, piv, parity


def _substitute(rows: list[list[float]], piv: list[int], b) -> np.ndarray:
    bl = np.asarray(b, dtype=float).tolist()
    x = [bl[p] for p in piv]
    n = len(x)
    for k in range(1, n):
        row = rows[k]
        s = x[k]
        for j in range(k):
            s -= row[j] * x[j]
        x[k] = s
    for k in range(n - 1, -1, -1):
        row = rows[k]
        s = x[k]
        for j in range(k + 1, n):
            s -= row[j] * x[j]
        x[k] = s / row[k]
    return np.array(x)


def _sign(rows: list[list[float]], parity: int) -> int:
    sign = parity
    for k, row in enumerate(rows):
        if row[k] < 0:
            sign = -sign
    return sign


def lu_factor(M) -> tuple[np.ndarray, np.ndarray, int]:
    """Partial-pivot LU. Returns (LU, row permutation, parity of the permutation)."""
    rows, piv, parity = _factor(M)
    return np.array(rows), np.array(piv), parity


def lu_solve(LU: np.ndarray, piv: np.ndarray, b) -> np.ndarray:
    """Solve with the factors from `lu_factor`."""
    return _substitute(np.asarray(LU, dtype=float).tolist(), [int(p) for p in piv], b)


def solve(M, b) -> tuple[np.ndarray, int]:
    """Solve M x = b; returns (x, sign of det M).  A singular M raises SingularSystemError."""
    rows, piv, parity = _factor(M)
    return _substitute(rows, piv, b), _sign(rows, parity)


def det_sign(M) -> int:
    """Sign of det(M) from the pivoted factorization: +1, -1, or 0 for a singular M."""
    try:
        rows, _, parity = _factor(M)
    except SingularSystemError:
        return 0
    return _sign(rows, parity)


def householder_complement(g) -> np.ndarray:
    """Orthonormal basis (columns) of the complement of a nonzero vector g.

    Taken as the trailing n-1 columns of the Householder reflector sending g
    to a multiple of e1; deterministic, no randomized null spaces.
    """
    g = np.asarray(g, dtype=float)
    nrm = np.sqrt(g @ g)
    if nrm == 0.0:
        raise ValueError("cannot build a complement basis for the zero vector")
    v = g.copy()
    v[0] += nrm if g[0] >= 0 else -nrm
    H = np.eye(g.size) - 2.0 * np.outer(v, v) / (v @ v)
    return H[:, 1:]


def orthonormal_columns(P, tol: float = 1e-10) -> np.ndarray:
    """Orthonormal basis of the column space of P via ordered Gram-Schmidt."""
    P = np.asarray(P, dtype=float)
    basis: list[np.ndarray] = []
    for j in range(P.shape[1]):
        w = P[:, j].copy()
        for q in basis:
            w -= (q @ w) * q
        for q in basis:  # second pass for orthogonality at round-off level
            w -= (q @ w) * q
        nw = np.sqrt(w @ w)
        if nw > tol:
            basis.append(w / nw)
    return np.column_stack(basis) if basis else np.zeros((P.shape[0], 0))
