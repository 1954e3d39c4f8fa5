"""The three-particle problem: energy minimization at fixed triangle area.

Unknowns are x = (lambda, a, b, c): a Lagrange multiplier and the three
inter-particle distances.  The constraint is g(a, b, c) = A^2, the squared
area in Kahan's form of Heron's formula: with the edges sorted x >= y >= z,

    g = (x + (y + z)) (z - (x - y)) (z + (x - y)) (x + (y - z)) / 16,

which is accurate to a few ulps of g even for needle-like and nearly flat
triangles (W. Kahan, "Miscalculating Area and Angles of a Needle-like
Triangle", 2014; N. J. Higham, "Accuracy and Stability of Numerical
Algorithms", 2nd ed., 2002, sec. 1.7).  The expanded quartic

    g = (a^2 b^2 + a^2 c^2 + b^2 c^2)/8 - (a^4 + b^4 + c^4)/16

loses all but a few digits there: on a needle with b = c ~ 100 its terms
near b^4/16 have an ulp of 1e-9, more than the corrector's tolerance on
|g - A^2|.  The gradient and Hessian are still the quartic's, hand
differentiated; the constraint kernel `heron_terms` gives the value,
gradient and Hessian in one pass.  For any
area the system has the equilateral solution

    a_A = 2 sqrt(A) / 3^(1/4),   lambda_A = -4 phi'(a_A) / a_A^3,

and the linearization there has the double eigenvalue (`cluster.margin`, k = 3)

    mu(A) = phi''(a_A) + (3/a_A) phi'(a_A)

whose zeros are the only candidate bifurcation points off that branch.

This module supplies the triangle's `Geometry`, `TRIANGLE`; the KKT
residual, Jacobian, classification and margin scan are the shared ones in
`cluster`, bound to `TRIANGLE` under their triangle names.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

from .cluster import Geometry, Margin, classify_point, jacobian, residual, stability_boundaries, trivial_point
from .potentials import PotentialSpec, derivatives
from .symmetry import FamilyTable, triangle_group

__all__ = [
    "TrivialSpectrum3",
    "TRIANGLE",
    "heron",
    "heron_terms",
    "residual3",
    "jacobian3",
    "trivial_spectrum3",
    "stability_boundaries3",
    "classify_point3",
]


def _kahan_area2(a: float, b: float, c: float) -> float:
    """The squared area by Kahan's sorted product form, on unchecked edges."""
    if a < b:
        a, b = b, a
    if b < c:
        b, c = c, b
        if a < b:
            a, b = b, a
    return (a + (b + c)) * (c - (a - b)) * (c + (a - b)) * (a + (b - c)) / 16.0


def heron(a: float, b: float, c: float) -> float:
    """Squared triangle area in Kahan's form; positive exactly for nondegenerate triangles.

    With the edges sorted x >= y >= z this is
    (x + (y + z)) (z - (x - y)) (z + (x - y)) (x + (y - z)) / 16, within a
    few ulps of the exact value for any shape (Kahan 2014); only the second
    factor can be negative, exactly when x > y + z.
    """
    if min(a, b, c) <= 0:
        raise ValueError("edge lengths must be positive")
    return _kahan_area2(a, b, c)


def heron_terms(e) -> tuple[float, list[float], list[list[float]]]:
    """(g, grad g, hess g) of the squared area at edges e = (a, b, c), in one pass.

    The triangle's constraint kernel: the value is `heron`'s, Kahan's
    cancellation-free product form (Kahan 2014), and the derivatives are the
    hand-differentiated expanded quartic, on the floats of e, with no
    validation (`cluster.evaluate` checks the edges first).
    """
    a, b, c = e
    a2, b2, c2 = a * a, b * b, c * c
    g = _kahan_area2(a, b, c)
    grad = [a * (b2 + c2 - a2) / 4.0, b * (a2 + c2 - b2) / 4.0, c * (a2 + b2 - c2) / 4.0]
    ab, ac, bc = 2 * a * b / 4.0, 2 * a * c / 4.0, 2 * b * c / 4.0
    hess = [[(b2 + c2 - 3 * a * a) / 4.0, ab, ac],
            [ab, (a2 + c2 - 3 * b * b) / 4.0, bc],
            [ac, bc, (a2 + b2 - 3 * c * c) / 4.0]]
    return g, grad, hess


TRIANGLE = Geometry(
    name="triangle",
    param_name="area",
    n_edges=3,
    terms=heron_terms,
    target_scale=1.0,
    trivial_edge=lambda area: 2.0 * math.sqrt(area) / 3.0 ** 0.25,
    trivial_multiplier=lambda a, d1: -4.0 * d1 / a ** 3,
    realizable=lambda e: heron(*e) > 0.0,
    families=FamilyTable(group=triangle_group, whole="equilateral", other="scalene", edge_names="abc",
                         families={"isosceles": (0.0, -2.0, 1.0, 1.0)}),
    margins={3: Margin(kernel=((0.0, -1.0, 1.0, 0.0), (0.0, -1.0, 0.0, 1.0)),
                       reductions=("isosceles",))},
)

residual3 = partial(residual, TRIANGLE)
jacobian3 = partial(jacobian, TRIANGLE)
classify_point3 = partial(classify_point, TRIANGLE)
stability_boundaries3 = partial(stability_boundaries, TRIANGLE)


@dataclass(frozen=True)
class TrivialSpectrum3:
    """Entries and eigenvalues of the bordered Jacobian on the equilateral branch."""

    alpha: float
    beta: float
    gamma: float
    mu: float
    simple_pair: tuple[float, float]


def trivial_spectrum3(spec: PotentialSpec, area: float) -> TrivialSpectrum3:
    lam, a = trivial_point(TRIANGLE, spec, area)
    dd = derivatives(spec, a)[2]
    alpha = dd - lam * a * a / 4.0
    beta = lam * a * a / 2.0
    gamma = a ** 3 / 4.0
    disc = math.sqrt((alpha + 2.0 * beta) ** 2 + 12.0 * gamma * gamma)
    pair = (0.5 * (alpha + 2.0 * beta - disc), 0.5 * (alpha + 2.0 * beta + disc))
    return TrivialSpectrum3(alpha, beta, gamma, alpha - beta, pair)
