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
288 V^2 at volume V.  The determinant itself is evaluated by direct pivoted
elimination, while the constraint gradient is the expanded degree-5
polynomial whose six components are written out in `grad_g4` (the Hessian is
its hand differential); the two evaluation routes cross-check each other in
the finite-difference tests.

The regular tetrahedron a_V^3 = 6 sqrt(2) V with multiplier
lambda_V = -phi'(a_V) / (4 a_V^5) solves the KKT system for every V, and the
linearization there carries two families of critical eigenvalues,

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

import numpy as np

from .cluster import (
    ClusterProblem,
    Geometry,
    Margin,
    classify_point,
    energy,
    jacobian,
    margin,
    residual,
    stability_boundaries,
    trivial_point,
)
from .linalg import det
from .potentials import PotentialSpec, derivatives
from .symmetry import (
    tetra_apex_reduction,
    tetra_equal_pair_reduction,
    tetra_group,
    tetra_opposite_pair_reduction,
)

__all__ = [
    "TetState",
    "TrivialSpectrum4",
    "TETRAHEDRON",
    "cayley_menger",
    "is_tetrahedron",
    "grad_g4",
    "hess_g4",
    "residual4",
    "jacobian4",
    "trivial4",
    "trivial_spectrum4",
    "mu_tetra",
    "stability_boundaries4",
    "classify_point4",
    "tetra_energy",
    "TetraProblem",
    "RESTRICTION_COLUMNS",
]


@dataclass(frozen=True)
class TetState:
    lam: float
    edges: tuple[float, float, float, float, float, float]

    def __post_init__(self):
        if len(self.edges) != 6:
            raise ValueError("a tetrahedron state carries 6 edges")
        if min(self.edges) <= 0:
            raise ValueError("edge lengths must be positive")

    def as_array(self) -> np.ndarray:
        return np.array((self.lam,) + tuple(self.edges))

    @staticmethod
    def from_array(x) -> "TetState":
        x = np.asarray(x, dtype=float)
        return TetState(float(x[0]), tuple(float(v) for v in x[1:7]))


def _edges(edges) -> np.ndarray:
    e = np.asarray(edges, dtype=float)
    if e.shape != (6,):
        raise ValueError("expected 6 edge lengths")
    return e


def cayley_menger(edges) -> float:
    """The 5x5 determinant above; 288 V^2 for a realizable tetrahedron."""
    a, b, c, A, B, C = _edges(edges)
    M = np.array([
        [0.0, a * a, b * b, c * c, 1.0],
        [a * a, 0.0, C * C, B * B, 1.0],
        [b * b, C * C, 0.0, A * A, 1.0],
        [c * c, B * B, A * A, 0.0, 1.0],
        [1.0, 1.0, 1.0, 1.0, 0.0],
    ])
    return det(M)


def is_tetrahedron(edges) -> bool:
    """True iff the edges realize a nondegenerate tetrahedron."""
    e = _edges(edges)
    if min(e) <= 0:
        raise ValueError("edge lengths must be positive")
    A, B, C = e[3], e[4], e[5]
    if not (A < B + C and B < A + C and C < A + B):
        return False
    return cayley_menger(e) > 0.0


def grad_g4(edges) -> np.ndarray:
    """Gradient of the Cayley-Menger polynomial, all six components expanded."""
    a, b, c, A, B, C = _edges(edges)
    a2, b2, c2 = a * a, b * b, c * c
    A2, B2, C2 = A * A, B * B, C * C
    return 4.0 * np.array([
        a * (A2 * (b2 + c2 + B2 + C2 - 2 * a2 - A2) + (b2 - c2) * (B2 - C2)),
        b * (B2 * (a2 + c2 + A2 + C2 - 2 * b2 - B2) + (a2 - c2) * (A2 - C2)),
        c * (C2 * (a2 + b2 + A2 + B2 - 2 * c2 - C2) + (a2 - b2) * (A2 - B2)),
        A * (a2 * (b2 + c2 + B2 + C2 - 2 * A2 - a2) - (b2 - C2) * (c2 - B2)),
        B * (b2 * (a2 + c2 + A2 + C2 - 2 * B2 - b2) - (a2 - C2) * (c2 - A2)),
        C * (c2 * (a2 + b2 + A2 + B2 - 2 * C2 - c2) - (a2 - B2) * (b2 - A2)),
    ])


def hess_g4(edges) -> np.ndarray:
    """Hessian of the Cayley-Menger polynomial, hand-differentiated.

    Writing g as a cubic G(u) in the squared edges u_i = e_i^2, the chain
    rule gives H_ij = 4 e_i e_j G_ij + 2 delta_ij G_i, with the G derivatives
    read off the gradient components; symmetric by construction.
    """
    e = _edges(edges)
    u = e * e
    Gu = np.empty(6)
    Guu = np.zeros((6, 6))
    for i in range(3):
        j, k = [t for t in range(3) if t != i]
        J, K, O = j + 3, k + 3, i + 3
        s = u[j] + u[k] + u[J] + u[K] - 2 * u[i] - u[O]
        Gu[i] = 2.0 * (u[O] * s + (u[j] - u[k]) * (u[J] - u[K]))
        Guu[i, i] = -4.0 * u[O]
        Guu[i, j] = 2.0 * (u[O] + (u[J] - u[K]))
        Guu[i, k] = 2.0 * (u[O] - (u[J] - u[K]))
        Guu[i, O] = 2.0 * (u[j] + u[k] + u[J] + u[K] - 2 * u[i] - 2 * u[O])
        Guu[i, J] = 2.0 * (u[O] + (u[j] - u[k]))
        Guu[i, K] = 2.0 * (u[O] - (u[j] - u[k]))
        s_opp = u[j] + u[k] + u[J] + u[K] - 2 * u[O] - u[i]
        Gu[O] = 2.0 * (u[i] * s_opp - (u[j] - u[K]) * (u[k] - u[J]))
        Guu[O, O] = -4.0 * u[i]
        Guu[O, i] = Guu[i, O]
        Guu[O, j] = 2.0 * (u[i] - (u[k] - u[J]))
        Guu[O, k] = 2.0 * (u[i] - (u[j] - u[K]))
        Guu[O, J] = 2.0 * (u[i] + (u[j] - u[K]))
        Guu[O, K] = 2.0 * (u[i] + (u[k] - u[J]))
    H = 4.0 * np.outer(e, e) * Guu + 2.0 * np.diag(Gu)
    # mirror the upper triangle: entries are algebraically symmetric but the
    # two evaluation orders can differ in the last bit
    return np.triu(H) + np.triu(H, 1).T


def trivial4(spec: PotentialSpec, volume: float) -> TetState:
    """The regular-tetrahedron critical point at the given volume."""
    lam, a = trivial_point(TETRAHEDRON, spec, volume)
    return TetState(lam, (a,) * 6)


def mu_tetra(spec: PotentialSpec, volume: float) -> tuple[float, float]:
    """The two critical eigenvalues (sigma_3, sigma_7) on the trivial branch."""
    return margin(TETRAHEDRON, spec, volume, 3), margin(TETRAHEDRON, spec, volume, 7)


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
    st = trivial4(spec, volume)
    a = st.edges[0]
    _, d1, d2 = derivatives(spec, a)
    alpha = d2 + 3.0 * d1 / a
    beta = -2.0 * d1 / a
    disc = math.sqrt(16.0 * alpha ** 2 + 9.0 * (alpha - 2.0 * beta) ** 2)
    pair = (0.5 * (7.0 * alpha - 6.0 * beta - disc), 0.5 * (7.0 * alpha - 6.0 * beta + disc))
    eigs = tuple(sorted((alpha, alpha, alpha - 2.0 * beta) + pair))
    return TrivialSpectrum4(alpha, beta, alpha, alpha - 2.0 * beta, eigs)


# Edge-index patterns of the named shape families, one entry per group image.
# Each pattern is a tuple of index blocks that must be internally equal.
_REGULAR = (frozenset(range(6)),)
_EQUAL_PAIR_PATTERNS = [
    (frozenset({0, 3}), frozenset({1, 2, 4, 5})),
    (frozenset({1, 4}), frozenset({0, 2, 3, 5})),
    (frozenset({2, 5}), frozenset({0, 1, 3, 4})),
]
_APEX_PATTERNS = [
    (frozenset({0, 1, 2}), frozenset({3, 4, 5})),
    (frozenset({0, 4, 5}), frozenset({1, 2, 3})),
    (frozenset({1, 3, 5}), frozenset({0, 2, 4})),
    (frozenset({2, 3, 4}), frozenset({0, 1, 5})),
]
_OPPOSITE_PAIR_PATTERNS = [
    (frozenset({0, 1, 3, 4}),),
    (frozenset({0, 2, 3, 5}),),
    (frozenset({1, 2, 4, 5}),),
]


def _blocks_equal(e: np.ndarray, pattern, tol: float) -> bool:
    for block in pattern:
        vals = [e[i] for i in block]
        hi, lo = max(vals), min(vals)
        if hi - lo > tol * hi:
            return False
    return True


def shape_of_edges(edges, tol: float = 1e-6) -> str:
    """Named shape family of an edge tuple, most symmetric family first."""
    e = _edges(edges)
    if _blocks_equal(e, _REGULAR, tol):
        return "regular"
    for pattern in _EQUAL_PAIR_PATTERNS:
        if _blocks_equal(e, pattern, tol):
            return "equal-pair"
    for pattern in _APEX_PATTERNS:
        if _blocks_equal(e, pattern, tol):
            return "apex-base"
    for pattern in _OPPOSITE_PAIR_PATTERNS:
        if _blocks_equal(e, pattern, tol):
            return "opposite-pair"
    return "other"



TETRAHEDRON = Geometry(
    name="tetrahedron",
    param_name="volume",
    n_edges=6,
    constraint=cayley_menger,
    grad=grad_g4,
    hess=hess_g4,
    target_scale=288.0,
    trivial_edge=lambda volume: (6.0 * math.sqrt(2.0) * volume) ** (1.0 / 3.0),
    trivial_multiplier=lambda a, d1: -d1 / (4.0 * a ** 5),
    realizable=is_tetrahedron,
    shape=shape_of_edges,
    group=tetra_group,
    margins={
        3: Margin(kernel=((0.0, -1.0, 0.0, 0.0, 1.0, 0.0, 0.0),
                          (0.0, 0.0, -1.0, 0.0, 0.0, 1.0, 0.0),
                          (0.0, 0.0, 0.0, -1.0, 0.0, 0.0, 1.0)),
                  reductions=(tetra_opposite_pair_reduction, tetra_apex_reduction)),
        7: Margin(kernel=((0.0, -1.0, 1.0, 0.0, -1.0, 1.0, 0.0),
                          (0.0, -1.0, 0.0, 1.0, -1.0, 0.0, 1.0)),
                  reductions=(tetra_equal_pair_reduction,)),
    },
)

residual4 = partial(residual, TETRAHEDRON)
jacobian4 = partial(jacobian, TETRAHEDRON)
classify_point4 = partial(classify_point, TETRAHEDRON)
stability_boundaries4 = partial(stability_boundaries, TETRAHEDRON)
tetra_energy = partial(energy, TETRAHEDRON)


class TetraProblem(ClusterProblem):
    """Continuation-facing wrapper of the tetrahedron KKT system for one potential."""

    def __init__(self, spec: PotentialSpec):
        super().__init__(TETRAHEDRON, spec)
