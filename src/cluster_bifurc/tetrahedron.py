"""The four-particle problem: energy minimization at fixed tetrahedron volume.

Edges are ordered (a, b, c, A, B, C) with A opposite a, B opposite b and C
opposite c: the first three meet at a vertex, the last three bound the
opposite face.  A positive edge tuple realizes a tetrahedron exactly when
the Cayley-Menger determinant

            | 0    a^2  b^2  c^2  1 |
            | a^2  0    C^2  B^2  1 |
    g(e) =  | b^2  C^2  0    A^2  1 |  > 0
            | c^2  B^2  A^2  0    1 |
            | 1    1    1    1    0 |

and the face inequalities A < B + C, B < A + C, C < A + B hold; g equals
288 V^2 at volume V.  Expanded, the determinant is a cubic in the squared
edges u = e^2,

    g = 2 [ sum over opposite pairs (i, I) of u_i u_I (S - 2 u_i - 2 u_I)
            - sum over faces of u u u ],

with S the sum of all six u; it is 4 at unit edges.  The constraint
kernel `cayley_menger_terms` gives this polynomial, its gradient and its
Hessian (hand derivatives) in one pass on Python floats.  The tests check
the cubic against the determinant and the derivatives against finite
differences.

The regular tetrahedron a_V^3 = 6 sqrt(2) V with multiplier
lambda_V = -phi'(a_V) / (4 a_V^5) solves the KKT system for every V, and the
linearization there carries two families of critical eigenvalues
(`cluster.margin` at k = 3 and 7),

    sigma_3(a_V) = phi'' + 3 phi'/a_V   (multiplicity three)
    sigma_7(a_V) = phi'' + 7 phi'/a_V   (multiplicity two),

whose zeros are the candidate bifurcation volumes.

This module supplies the tetrahedron's `Geometry`, `TETRAHEDRON`; the KKT
residual, Jacobian, classification and margin scan are the shared ones in
`cluster`, bound to `TETRAHEDRON` under their tetrahedron names.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import permutations

import numpy as np

from .cluster import Geometry, Margin, classify_point, jacobian, residual, stability_boundaries, trivial_point
from .potentials import PotentialSpec, derivatives
from .symmetry import FamilyTable, tetra_group

__all__ = [
    "TrivialSpectrum4",
    "TETRAHEDRON",
    "cayley_menger",
    "cayley_menger_terms",
    "is_tetrahedron",
    "residual4",
    "jacobian4",
    "trivial_spectrum4",
    "stability_boundaries4",
    "classify_point4",
    "RESTRICTION_COLUMNS",
]


# Edge i is opposite edge _OPPOSITE[i]; each face is a triple of edges.
_OPPOSITE = (3, 4, 5, 0, 1, 2)
_FACES = ((0, 1, 5), (0, 2, 4), (1, 2, 3), (3, 4, 5))
# (i, j, the edges opposite them, the third edge k of their face) for each pair i < j on a face
_FACE_PAIRS = tuple((i, j, _OPPOSITE[i], _OPPOSITE[j], k)
                    for face in _FACES for i, j, k in permutations(face) if i < j)


def _edges(edges) -> list[float]:
    e = np.asarray(edges, dtype=float)
    if e.shape != (6,):
        raise ValueError("expected 6 edge lengths")
    return e.tolist()


def _cubic(u: list[float], s: float) -> float:
    """The Cayley-Menger cubic above at squared edges u, with s = sum(u)."""
    pairs = sum(u[i] * u[i + 3] * (s - 2.0 * u[i] - 2.0 * u[i + 3]) for i in range(3))
    return 2.0 * (pairs - sum(u[i] * u[j] * u[k] for i, j, k in _FACES))


def cayley_menger(edges) -> float:
    """The 5x5 determinant above as the cubic in squared edges; 288 V^2 for a realizable tetrahedron."""
    u = [v * v for v in _edges(edges)]
    return _cubic(u, sum(u))


def is_tetrahedron(edges) -> bool:
    """True iff the edges realize a nondegenerate tetrahedron."""
    e = _edges(edges)
    if min(e) <= 0:
        raise ValueError("edge lengths must be positive")
    A, B, C = e[3], e[4], e[5]
    if not (A < B + C and B < A + C and C < A + B):
        return False
    return cayley_menger(e) > 0.0


def _half_grad_u(u: list[float]) -> list[float]:
    """Half the gradient of the cubic in the squared edges u."""
    a2, b2, c2, A2, B2, C2 = u
    return [
        A2 * (b2 + c2 + B2 + C2 - 2 * a2 - A2) + (b2 - c2) * (B2 - C2),
        B2 * (a2 + c2 + A2 + C2 - 2 * b2 - B2) + (a2 - c2) * (A2 - C2),
        C2 * (a2 + b2 + A2 + B2 - 2 * c2 - C2) + (a2 - b2) * (A2 - B2),
        a2 * (b2 + c2 + B2 + C2 - 2 * A2 - a2) - (b2 - C2) * (c2 - B2),
        b2 * (a2 + c2 + A2 + C2 - 2 * B2 - b2) - (a2 - C2) * (c2 - A2),
        c2 * (a2 + b2 + A2 + B2 - 2 * C2 - c2) - (a2 - B2) * (b2 - A2),
    ]


def cayley_menger_terms(e) -> tuple[float, list[float], list[list[float]]]:
    """(g, grad g, hess g) of the Cayley-Menger cubic at six edges e, in one pass.

    The tetrahedron's constraint kernel, on the floats of e with no
    validation (`cluster.evaluate` checks the edges first).  With g = G(u)
    and u = e^2, grad g = 4 e_i G_i / 2 and, hand-differentiated,
    H_ij = 4 e_i e_j G_ij + 2 delta_ij G_i, where G_ii = -4 u_I, G_iI = 2 (S -
    3 u_i - 3 u_I) for the edge I opposite i, and G_ij = 2 (u_I + u_J - u_k)
    for two edges of a face with third edge k; exactly symmetric.
    """
    u = [v * v for v in e]
    s = sum(u)
    half = _half_grad_u(u)
    H = [[0.0] * 6 for _ in range(6)]
    for i, gi in enumerate(half):
        H[i][i] = -16.0 * u[i] * u[_OPPOSITE[i]] + 4.0 * gi
    for i in range(3):
        H[i][i + 3] = H[i + 3][i] = 4.0 * e[i] * e[i + 3] * (2.0 * (s - 3.0 * (u[i] + u[i + 3])))
    for i, j, I, J, k in _FACE_PAIRS:
        H[i][j] = H[j][i] = 4.0 * e[i] * e[j] * (2.0 * (u[I] + u[J] - u[k]))
    return _cubic(u, s), [4.0 * (v * q) for v, q in zip(e, half)], H


# Restriction onto the constraint tangent space {sum(y) = 0} used by the
# closed-form spectrum: columns span the complement of (1,...,1).
RESTRICTION_COLUMNS = np.array([
    [1, 0, 0, 0, 0],
    [0, 1, 0, 0, 0],
    [0, 0, 1, 0, 0],
    [-1, -1, -1, -1, -1],
    [0, 0, 0, 1, 0],
    [0, 0, 0, 0, 1],
], dtype=float)


@dataclass(frozen=True)
class TrivialSpectrum4:
    """Closed-form spectrum data of the constrained Hessian at the regular state.

    `alpha` and `beta` are the diagonal and off-diagonal entries of the
    Hessian block; mu1 = alpha and mu2 = alpha - 2 beta are the critical
    eigenvalues; `u_eigs` are the five eigenvalues of the Hessian restricted
    to the constraint tangent space through RESTRICTION_COLUMNS, ascending.
    """

    alpha: float
    beta: float
    mu1: float
    mu2: float
    u_eigs: tuple[float, float, float, float, float]


def trivial_spectrum4(spec: PotentialSpec, volume: float) -> TrivialSpectrum4:
    a = trivial_point(TETRAHEDRON, spec, volume)[1]
    _, d1, d2 = derivatives(spec, a)
    alpha = d2 + 3.0 * d1 / a
    beta = -2.0 * d1 / a
    disc = math.sqrt(16.0 * alpha ** 2 + 9.0 * (alpha - 2.0 * beta) ** 2)
    pair = (0.5 * (7.0 * alpha - 6.0 * beta - disc), 0.5 * (7.0 * alpha - 6.0 * beta + disc))
    eigs = tuple(sorted((alpha, alpha, alpha - 2.0 * beta) + pair))
    return TrivialSpectrum4(alpha, beta, alpha, alpha - 2.0 * beta, eigs)


TETRAHEDRON = Geometry(
    name="tetrahedron",
    param_name="volume",
    n_edges=6,
    terms=cayley_menger_terms,
    target_scale=288.0,
    trivial_edge=lambda volume: (6.0 * math.sqrt(2.0) * volume) ** (1.0 / 3.0),
    trivial_multiplier=lambda a, d1: -d1 / (4.0 * a ** 5),
    realizable=is_tetrahedron,
    families=FamilyTable(group=tetra_group, whole="regular", other="other", families={
        "equal-pair": (0.0, -2.0, 1.0, 1.0, -2.0, 1.0, 1.0),  # fixed space (a, b, b, a, b, b)
        "apex-base": (0.0, -1.0, -1.0, -1.0, 1.0, 1.0, 1.0),  # (a, a, a, A, A, A)
        "opposite-pair": (0.0, 0.0, 0.0, -1.0, 0.0, 0.0, 1.0),  # (a, a, c, a, a, C)
    }),
    margins={
        3: Margin(kernel=((0.0, -1.0, 0.0, 0.0, 1.0, 0.0, 0.0),
                          (0.0, 0.0, -1.0, 0.0, 0.0, 1.0, 0.0),
                          (0.0, 0.0, 0.0, -1.0, 0.0, 0.0, 1.0)),
                  reductions=("opposite-pair", "apex-base")),
        7: Margin(kernel=((0.0, -1.0, 1.0, 0.0, -1.0, 1.0, 0.0),
                          (0.0, -1.0, 0.0, 1.0, -1.0, 0.0, 1.0)),
                  reductions=("equal-pair",)),
    },
)

residual4 = partial(residual, TETRAHEDRON)
jacobian4 = partial(jacobian, TETRAHEDRON)
classify_point4 = partial(classify_point, TETRAHEDRON)
stability_boundaries4 = partial(stability_boundaries, TETRAHEDRON)
