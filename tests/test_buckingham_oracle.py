"""An oracle for the isosceles states of the Buckingham triangle.

The potential is Buckingham(1, 1, 1, 4), phi(r) = exp(-r) - 1/r^4, written
out here with numpy alone: nothing in the oracle comes from `cluster_bifurc`,
which only builds the diagram under test.  An isosceles triangle (a, b, b)
of area A has b^2 = a^2/4 + 4 A^2/a^2, so its critical points at A are the
roots in a of

    G(a, A) = dE/da = phi'(a) + 2 phi'(b) b'(a),   E(a) = phi(a) + 2 phi(b(a)).

Derivatives in a and A are complex steps of G, exact to rounding.  A state
is stable when the Hessian of the Lagrangian phi(e_1) + phi(e_2) + phi(e_3)
+ lambda g(e), with g = 16 A^2 by Heron's formula, is positive definite on
the tangent space of the constraint.

Checked against the diagram of the golden fixture (h_max = 0.2):
- the fold where the two non-equilateral states between the needle and the
  equilateral state appear, G = G_a = 0 at A = 74.0005119, is the exported
  turning event to 1e-6;
- every non-equilateral critical point at A = 80 and A = 95 lies on an
  exported branch, linearly interpolated at A, up to a permutation of the
  edges, and has the exported stability: the leg (11.198, 15.346, 15.346)
  at A = 80 is stable.
"""

import numpy as np
import pytest

from cluster_bifurc.cli import build_diagram
from cluster_bifurc.continuation import ContinuationSettings
from cluster_bifurc.potentials import Buckingham

STEP = 1e-30  # the complex step


def dphi(r):
    return -np.exp(-r) + 4.0 * r ** -5


def d2phi(r):
    return np.exp(-r) - 20.0 * r ** -6


def G(a, A):
    b = np.sqrt(a * a / 4.0 + 4.0 * A * A / (a * a))
    return dphi(a) + 2.0 * dphi(b) * (a / 4.0 - 4.0 * A * A / a ** 3) / b


def G_a(a, A):
    return G(a + 1j * STEP, A).imag / STEP


def G_A(a, A):
    return G(a, A + 1j * STEP).imag / STEP


def equilateral_edge(A):
    return (16.0 * A * A / 3.0) ** 0.25


def fold(a, A):
    """(a, A) with G = G_a = 0, by Newton from (a, A); G_a's own derivatives are central differences."""
    z = np.array([a, A])
    for _ in range(50):
        a, A = z
        da, dA = 1e-6 * a, 1e-6 * A
        J = [[G_a(a, A), G_A(a, A)],
             [(G_a(a + da, A) - G_a(a - da, A)) / (2 * da), (G_a(a, A + dA) - G_a(a, A - dA)) / (2 * dA)]]
        step = np.linalg.solve(J, [-G(a, A), -G_a(a, A)])
        z = z + step
        if np.max(np.abs(step / z)) < 1e-14:
            return z
    raise AssertionError("the fold Newton did not converge")


def isosceles_states(A):
    """The edges (a, b, b) of every non-equilateral critical point with 0.5 < a < 60 at area A."""
    grid = np.geomspace(0.5, 60.0, 20001)
    values = G(grid, A)
    out = []
    for i in np.flatnonzero(values[:-1] * values[1:] < 0.0):
        a = grid[i]
        for _ in range(50):  # Newton from the bracket's left end
            a -= G(a, A) / G_a(a, A)
        assert grid[i] <= a <= grid[i + 1]
        if abs(a - equilateral_edge(A)) > 1e-6 * a:
            b = np.sqrt(a * a / 4.0 + 4.0 * A * A / (a * a))
            out.append(np.array([a, b, b]))
    return out


def stable(e):
    """Whether the critical point with edges e is a strict constrained minimum."""
    grad_g = np.array([4.0 * ei * (e @ e - ei * ei) - 4.0 * ei ** 3 for ei in e])
    hess_g = 8.0 * np.outer(e, e)
    np.fill_diagonal(hess_g, [4.0 * (e @ e - ei * ei) - 12.0 * ei * ei for ei in e])
    lam = -(dphi(e) @ grad_g) / (grad_g @ grad_g)  # grad E + lambda grad g = 0
    Z = np.linalg.svd(grad_g[None, :])[2][1:].T  # the tangent space of the constraint
    return bool(np.all(np.linalg.eigvalsh(Z.T @ (np.diag(d2phi(e)) + lam * hess_g) @ Z) > 0.0))


@pytest.fixture(scope="module")
def diagram():
    return build_diagram("triangle", Buckingham(1, 1, 1, 4), (1.0, 100.0), ContinuationSettings(h_max=0.2))


def test_the_fold_of_the_isosceles_legs_is_the_exported_turning(diagram):
    a, A = fold(12.69, 74.0)
    assert A == pytest.approx(74.0005119, abs=1e-7) and a < equilateral_edge(A)
    turning = [ev.parameter for ev in diagram.events if ev.kind == "turning" and 70.0 < ev.parameter < 80.0]
    assert len(turning) == 1 and abs(turning[0] - A) < 1e-6


def _on_branches(diagram, A, edges):
    """(relative distance, stabilities of the segment's ends) of the exported segment nearest `edges` at A."""
    best = (np.inf, ())
    for branch in diagram.branches:
        for p, q in zip(branch.points, branch.points[1:]):
            if p.parameter != q.parameter and min(p.parameter, q.parameter) <= A <= max(p.parameter, q.parameter):
                t = (A - p.parameter) / (q.parameter - p.parameter)
                got = np.sort((1.0 - t) * np.array(p.state[1:]) + t * np.array(q.state[1:]))
                dist = float(np.max(np.abs(got - np.sort(edges)) / np.sort(edges)))
                best = min(best, (dist, (p.stability, q.stability)))
    return best


@pytest.mark.parametrize("A", [80.0, 95.0])
def test_every_isosceles_state_lies_on_an_exported_branch_with_its_stability(diagram, A):
    states = isosceles_states(A)
    # the needle, and the legs below and above the equilateral edge
    assert len(states) == 3
    for edges in states:
        dist, ends = _on_branches(diagram, A, edges)
        want = "stable" if stable(edges) else "unstable"
        assert dist < 5e-3 and ends == (want, want), (edges, dist, ends)
    leg = min((e for e in states if e[0] > 5.0), key=lambda e: e[0])
    assert stable(leg) and leg[0] < equilateral_edge(A)
    if A == 80.0:
        assert np.allclose(leg, [11.198, 15.346, 15.346], atol=1e-3)
