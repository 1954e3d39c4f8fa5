"""Small dense linear-algebra kernels (n <= 8).

Linear systems are solved by `numpy.linalg.solve`, re-exported here as
`solve`; an exactly singular matrix raises `numpy.linalg.LinAlgError`.  No
decision of the package reads a pivot: whether a point is singular is
judged from eigenvalues, relative to a scale, and each traced branch
stays in its fixed-point space because the corrector projects onto it,
not because the elimination happens to round symmetrically.
The constrained Hessian's tangent-space basis is a Householder complement
(`householder_complement`), computed for one vector or a stack at once.

The symmetric eigensolver is LAPACK's `eigh` (through numpy) with one sign
convention fixed on top: every eigenvector's largest-magnitude entry is
positive, the first such entry on a tie, where entries within a relative
1e-12 of the largest magnitude tie.  Bifurcation kernels are exported and
give the switched branches' tangents, so they must depend neither on the
sign LAPACK happens to choose nor on the last bit of a kernel such as
(0, 0, -1, 1)/sqrt(2).  numpy remains the only runtime dependency.
"""

from __future__ import annotations

import numpy as np
from numpy.linalg import solve

__all__ = [
    "sym_eigen",
    "solve",
    "det_sign",
    "householder_complement",
    "squared_norms",
]


def _as_square(M) -> np.ndarray:
    A = np.array(M, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("expected a square matrix")
    return A


def sym_eigen(M) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-decomposition of a symmetric matrix (LAPACK `eigh`).

    Returns (w, V) with eigenvalues ascending and orthonormal eigenvectors in
    the columns of V, so that V @ diag(w) @ V.T reconstructs M.  Each column
    of V has its largest-magnitude entry positive (the first one on a tie,
    entries within a relative 1e-12 of the largest tying).
    """
    A = _as_square(M)
    scale = np.abs(A).max()
    if scale > 0 and np.abs(A - A.T).max() > 1e-10 * scale:
        raise ValueError("sym_eigen requires a symmetric matrix")
    w, V = np.linalg.eigh(0.5 * (A + A.T))
    mag = np.abs(V)
    lead = (mag >= (1.0 - 1e-12) * mag.max(axis=0)).argmax(axis=0)
    V *= np.sign(V[lead, np.arange(V.shape[1])])
    return w, V


def det_sign(M) -> int:
    """Sign of det(M) from `slogdet`: +1, -1, or 0 when its LU meets an exact zero pivot."""
    return int(np.linalg.slogdet(M)[0])


def squared_norms(v) -> np.ndarray:
    """v @ v of a vector, or of each vector in a stack (..., n), shape (...).

    Summed through matmul, which sums each row as the 1-d product `v @ v`
    does, so every entry is bit for bit that vector's own `v @ v`.
    """
    v = np.asarray(v, dtype=float)
    return (v[..., None, :] @ v[..., :, None])[..., 0, 0]


def householder_complement(g) -> np.ndarray:
    """Orthonormal basis (columns) of the complement of a nonzero vector g.

    Taken as the trailing n-1 columns of the Householder reflector sending g
    to a multiple of e1; deterministic, no randomized null spaces.  A stack
    of vectors, shape (..., n), gives the stack of bases, shape
    (..., n, n-1), each bit for bit the basis of its own vector.
    """
    g = np.asarray(g, dtype=float)
    nrm = np.sqrt(squared_norms(g))[..., None]
    if not nrm.all():
        raise ValueError("cannot build a complement basis for the zero vector")
    v = g.copy()
    v[..., :1] += np.where(g[..., :1] >= 0, nrm, -nrm)
    H = np.eye(g.shape[-1]) - 2.0 * (v[..., :, None] * v[..., None, :]) / squared_norms(v)[..., None, None]
    return H[..., 1:]
