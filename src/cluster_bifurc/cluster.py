"""One constrained-cluster core for both particle arrays.

Both problems minimize the pair energy E(e) = sum phi(e_i) over the edge
lengths e under one scalar constraint g(e) = s p^2: the squared triangle
area (s = 1, p = A) or the Cayley-Menger determinant 288 V^2 (s = 288,
p = V).  The unknowns are x = (lambda, e_1..e_n), the first-order conditions
form the KKT residual (g - s p^2, grad E + lambda grad g), and the Jacobian
is the bordered symmetric matrix [[0, grad g^t], [grad g, hess E + lambda
hess g]].  On the fully symmetric branch every edge equals the trivial edge
a(p), and the critical eigenvalues there are the margins

    sigma_k(p) = phi''(a) + k phi'(a) / a,

one per coefficient k of the geometry's margins table; their zeros are the
candidate primary bifurcations.

A `Geometry` carries only what differs between the problems; everything
else here is written once, the constraint too: one kernel per geometry,
`terms(e) -> (g, grad g, hess g)` in one pass on Python floats, from which
`evaluate` assembles F and J as lists with one `numpy.array` call each.
The symmetric branch needs neither: `classify_trivial` labels its states
from the margins, and `stability_boundaries` brackets their zeros from one
array pass over its grid.
`triangle.TRIANGLE` and `tetrahedron.TETRAHEDRON` are the two instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import householder_complement
from .potentials import PotentialSpec, derivatives, stability_margin
from .symmetry import FamilyTable, fixed_space, stabilizer

__all__ = [
    "Margin",
    "Geometry",
    "BoundaryRoot",
    "StabilityInterval",
    "Classification",
    "DegenerateConstraintError",
    "scan_boundary_roots",
    "evaluate",
    "residual",
    "jacobian",
    "energy",
    "trivial_point",
    "margin",
    "stability_boundaries",
    "stable_intervals",
    "classify_point",
    "classify_stack",
    "classify_trivial",
    "ClusterProblem",
]


SCAN_POINTS = 2000  # the log grid on which `stability_boundaries` brackets margin zeros


class DegenerateConstraintError(RuntimeError):
    """The constraint gradient vanished; no tangent space to classify in."""


@dataclass(frozen=True)
class Margin:
    """One row of a margins table.

    `kernel` spans the critical eigenspace of the Jacobian on the symmetric
    branch (multiplier slot first); `reductions` name the families of the
    geometry's `FamilyTable` whose representative vectors are the directions
    branch switching leaves the symmetric branch in at a zero of the margin.
    """

    kernel: tuple[tuple[float, ...], ...]
    reductions: tuple[str, ...]


@dataclass(frozen=True)
class Geometry:
    """What one cluster problem adds to the common KKT formulation.

    Edge arguments are sequences of `n_edges` floats.  `terms`, the
    constraint kernel, maps unvalidated edges to (g, grad g, hess g) as a
    float, a list and a list of rows.  `trivial_multiplier`
    maps (a, phi'(a)) to the multiplier of the symmetric state;
    `realizable` decides whether positive edges bound a nondegenerate
    simplex; `families` holds the edge permutation group, lifted to fix the
    multiplier, and the named shape families, one representative vector
    each; `margins` maps each coefficient k to its table row.
    """

    name: str
    param_name: str
    n_edges: int
    terms: Callable
    target_scale: float
    trivial_edge: Callable
    trivial_multiplier: Callable
    realizable: Callable
    families: FamilyTable
    margins: dict[int, Margin]


@dataclass(frozen=True)
class BoundaryRoot:
    """A zero of a stability margin along the trivial branch."""

    parameter: float
    slope: float
    transversal: bool
    margin_coefficient: int
    kernel_dim: int


@dataclass(frozen=True)
class StabilityInterval:
    """A maximal parameter interval where the symmetric state is a minimizer.

    Endpoints may be the scan window's edges when the stable set extends
    beyond it; `lo_is_boundary` / `hi_is_boundary` record whether the
    endpoint is an actual margin zero rather than a window cut.
    """

    lo: float
    hi: float
    lo_is_boundary: bool
    hi_is_boundary: bool

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("stability interval requires lo < hi")


@dataclass(frozen=True)
class Classification:
    stability: str  # "stable" | "unstable" | "marginal"
    shape: str
    tangent_eigenvalues: tuple[float, ...]

    @property
    def index(self) -> int:
        """Tangent-space (Morse) index: the number of negative tangent eigenvalues."""
        return sum(1 for v in self.tangent_eigenvalues if v < 0.0)


def _unpack(geometry: Geometry, state, positive: bool = False) -> tuple[float, list[float]]:
    """(lambda, [e_1, ..., e_n]) as Python floats from a state vector."""
    x = np.asarray(state, dtype=float)
    n = geometry.n_edges
    if x.shape != (n + 1,):
        raise ValueError(f"{geometry.name} state must have {n + 1} components (lambda, {n} edges)")
    lam, *e = x.tolist()
    if positive and min(e) <= 0:
        raise ValueError("edge lengths must be positive")
    return lam, e


def evaluate(geometry: Geometry, spec: PotentialSpec, state, param: float
             ) -> tuple[np.ndarray, np.ndarray]:
    """KKT residual (g - s p^2, grad E + lambda grad g), zero exactly at critical
    points, and Jacobian [[0, grad g^t], [grad g, hess E + lambda hess g]], in one pass."""
    lam, e = _unpack(geometry, state, positive=True)
    d = [derivatives(spec, v) for v in e]
    g, grad, hess = geometry.terms(e)
    F = [g - geometry.target_scale * param * param] + [di[1] + lam * gi for di, gi in zip(d, grad)]
    J = [0.0, *grad]  # row by row, flat
    for i, (di, gi, row) in enumerate(zip(d, grad, hess)):
        # off the diagonal 0.0 + lam * h, as diag + lam * H gives, signed zeros included
        block = [0.0 + lam * h for h in row]
        block[i] = di[2] + lam * row[i]
        J += [gi, *block]
    return np.array(F), np.array(J).reshape(len(F), len(F))


def residual(geometry: Geometry, spec: PotentialSpec, state, param: float) -> np.ndarray:
    """The residual of `evaluate`."""
    return evaluate(geometry, spec, state, param)[0]


def jacobian(geometry: Geometry, spec: PotentialSpec, state) -> np.ndarray:
    """The Jacobian of `evaluate`, which does not depend on the parameter."""
    return evaluate(geometry, spec, state, 0.0)[1]


def energy(geometry: Geometry, spec: PotentialSpec, state) -> float:
    _, e = _unpack(geometry, state)
    return sum(derivatives(spec, v)[0] for v in e)


def _trivial_edge(geometry: Geometry, param: float) -> float:
    if not param > 0:
        raise ValueError(f"{geometry.param_name} must be positive, got {param}")
    return geometry.trivial_edge(param)


def trivial_point(geometry: Geometry, spec: PotentialSpec, param: float) -> tuple[float, float]:
    """(lambda, a) of the fully symmetric critical point at the given parameter."""
    a = _trivial_edge(geometry, param)
    return geometry.trivial_multiplier(a, derivatives(spec, a)[1]), a


def margin(geometry: Geometry, spec: PotentialSpec, param: float, k: int) -> float:
    """sigma_k = phi''(a) + k phi'(a)/a at the trivial edge a of the given parameter."""
    return stability_margin(spec, _trivial_edge(geometry, param), k)


def _log_grid(lo: float, hi: float, grid_n: int) -> np.ndarray:
    if not (0 < lo < hi):
        raise ValueError("scan interval must satisfy 0 < lo < hi")
    if grid_n < 2:
        raise ValueError("grid must have at least 2 points")
    return np.geomspace(lo, hi, grid_n)


def _refine_roots(fn, grid: np.ndarray, values: np.ndarray,
                  margin_coefficient: int, kernel_dim: int) -> list[BoundaryRoot]:
    """The roots of fn bracketed by its `values` on the grid, refined by
    bisection on fn (see `scan_boundary_roots`)."""
    with np.errstate(over="ignore"):  # an overflowing product keeps its sign, as a Python float's does
        crossing = np.append(values[:-1] * values[1:] < 0.0, False)
    zero = values == 0.0
    roots: list[BoundaryRoot] = []
    for i in np.flatnonzero(zero | crossing).tolist():
        if zero[i]:
            root = float(grid[i])
        else:
            a, b = float(grid[i]), float(grid[i + 1])
            fa = float(values[i])
            while (b - a) > 1e-12 * a:
                m = 0.5 * (a + b)
                fm = fn(m)
                if fa * fm <= 0.0:
                    b = m
                else:
                    a, fa = m, fm
            root = 0.5 * (a + b)
        step = 1e-6 * root
        slope = (fn(root + step) - fn(root - step)) / (2.0 * step)
        roots.append(BoundaryRoot(root, float(slope), abs(slope) >= 1e-8,
                                  margin_coefficient, kernel_dim))
    return roots


def scan_boundary_roots(fn, lo: float, hi: float, grid_n: int,
                        margin_coefficient: int, kernel_dim: int) -> list[BoundaryRoot]:
    """Bracket sign changes of fn on a log grid and refine them by bisection.

    Roots are refined to relative parameter accuracy 1e-12; the crossing
    slope is estimated by a central difference of relative step 1e-6, so fn
    is never called at a parameter of the other sign, and roots with |slope|
    below 1e-8 are flagged non-transversal.  A value exactly zero at a grid
    point, either end included, is a root as it stands and is counted once.
    """
    grid = _log_grid(lo, hi, grid_n)
    return _refine_roots(fn, grid, np.array([fn(p) for p in grid.tolist()]), margin_coefficient, kernel_dim)


def _homogeneity(geometry: Geometry) -> tuple[int, np.ndarray]:
    """(d, hess g at unit edges): the constraint g is homogeneous of degree d
    in the edges, d = 1.grad g(1) / g(1) by Euler's identity, so on the
    symmetric branch hess g(a 1) = a^(d-2) hess g(1) and, from g(a 1) =
    s p^2, the trivial edge grows as p^(2/d)."""
    g, grad, hess = geometry.terms([1.0] * geometry.n_edges)
    return round(sum(grad) / g), np.array(hess)


def stability_boundaries(geometry: Geometry, spec: PotentialSpec,
                         interval: tuple[float, float]) -> list[BoundaryRoot]:
    """Zeros of every margin on the interval, bracketed on a log grid of
    SCAN_POINTS points, labeled by coefficient and sorted by parameter.

    The trivial edges, phi', phi'' and every margin of the table are
    evaluated over the grid in one array pass, which only brackets the sign
    changes; each bracket is refined by bisection and its slope taken on
    `margin` at Python floats, as `scan_boundary_roots` does.  Each root's
    kernel dimension is the number of kernel vectors in its margins-table
    row.
    """
    lo, hi = interval
    grid = _log_grid(lo, hi, SCAN_POINTS)
    degree, _ = _homogeneity(geometry)
    a = geometry.trivial_edge(1.0) * grid ** (2.0 / degree)
    sigma = _margin_table(geometry, a, *derivatives(spec, a)[1:])
    roots: list[BoundaryRoot] = []
    for (k, row), values in zip(geometry.margins.items(), sigma.T):
        roots += _refine_roots(lambda p, k=k: margin(geometry, spec, p, k), grid, values,
                               margin_coefficient=k, kernel_dim=len(row.kernel))
    return sorted(roots, key=lambda r: r.parameter)


def stable_intervals(geometry: Geometry, spec: PotentialSpec,
                     interval: tuple[float, float]) -> list[StabilityInterval]:
    """Maximal sub-intervals of the window where the symmetric state is stable.

    Cut the window at the margin zeros and keep the pieces on which every
    margin is positive (sampled at the midpoint).
    """
    lo, hi = interval
    cuts = [lo] + [r.parameter for r in stability_boundaries(geometry, spec, interval)] + [hi]
    out: list[StabilityInterval] = []
    for a, b in zip(cuts, cuts[1:]):
        if b - a > 1e-14 * max(1.0, abs(b)) and all(
                margin(geometry, spec, 0.5 * (a + b), k) > 0.0 for k in geometry.margins):
            out.append(StabilityInterval(a, b, lo_is_boundary=a != lo, hi_is_boundary=b != hi))
    return out


def _tangent_matrix(J: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Z^t H Z, zero band) of a Jacobian J, or of each one in a stack.

    H = J[1:, 1:] is the constrained Hessian and Z the orthonormal basis of
    the constraint tangent space: the trailing columns of the Householder
    factorization of grad g = J[0, 1:].  The band is 1e-8 times the larger
    scale of Z^t H Z and H; at a bifurcation point the projected matrix
    itself is ~0 and cannot calibrate its own zero band.
    """
    g, H = J[..., 0, 1:], J[..., 1:, 1:]
    if not np.abs(g).max(axis=-1).all():
        raise DegenerateConstraintError("constraint gradient vanished at this state")
    basis = householder_complement(g)
    M = basis.swapaxes(-1, -2) @ H @ basis
    M = 0.5 * (M + M.swapaxes(-1, -2))  # exact congruence symmetry, lost only to round-off
    tol = 1e-8 * np.maximum(np.abs(M).max(axis=(-2, -1)), np.abs(H).max(axis=(-2, -1)))
    return M, tol


def classify_point(geometry: Geometry, spec: PotentialSpec, state, param: float,
                   J: np.ndarray | None = None) -> Classification:
    """Stability and shape of a computed solution: `classify_stack` of the one
    state, with `J` its Jacobian, built here if not given."""
    if J is None:
        J = jacobian(geometry, spec, state)
    return classify_stack(geometry, [state], [J])[0]


def classify_stack(geometry: Geometry, states, jacobians) -> list[Classification]:
    """Stability and shape of many solutions in one pass: states (N, n+1) with
    their Jacobians (N, n+1, n+1).

    Inspects the eigenvalues of each constrained Hessian projected onto the
    constraint tangent space, Z^t H Z, against a zero band of 1e-8 times the
    Hessian scale (see `_tangent_matrix`): a solution is stable when all
    exceed the band, marginal when any lies within it, unstable otherwise.
    Builds every Z^t H Z at once and takes their eigenvalues in one stacked
    `numpy.linalg.eigh` and every shape in one `FamilyTable.shapes` call.
    """
    dim = geometry.n_edges + 1
    states = np.asarray(states, dtype=float).reshape(-1, dim)
    M, tol = _tangent_matrix(np.asarray(jacobians, dtype=float).reshape(len(states), dim, dim))
    w = np.linalg.eigh(M)[0]
    return [Classification(stability, shape, tuple(row)) for stability, shape, row in
            zip(_stability(w, tol), geometry.families.shapes(states), w.tolist())]


def _stability(w: np.ndarray, band: np.ndarray) -> list[str]:
    """Each row of tangent eigenvalues w against its zero band: stable when
    all exceed it, marginal when any lies within it, unstable otherwise."""
    band = band[:, None]
    return ["stable" if stable else "marginal" if marginal else "unstable" for stable, marginal in
            zip((w > band).all(axis=1).tolist(), (np.abs(w) <= band).any(axis=1).tolist())]


def _margin_table(geometry: Geometry, a: np.ndarray, d1: np.ndarray, d2: np.ndarray) -> np.ndarray:
    """sigma_k at trivial edges a, one column per margin of the table, by
    `stability_margin`'s arithmetic: bit-identical to `margin` where a, phi'
    and phi'' are."""
    return d2[:, None] + np.array(list(geometry.margins), dtype=float) * d1[:, None] / a[:, None]


def classify_trivial(geometry: Geometry, spec: PotentialSpec, params
                     ) -> tuple[np.ndarray, list[str], list[int]]:
    """(states, stabilities, indices) of the symmetric branch at each parameter,
    from the closed-form margins, with no Jacobian and no eigensolve.

    There the tangent eigenvalues of Z^t H Z are exactly the margins sigma_k,
    each repeated len(margins[k].kernel) times, so the index is the sum of
    those multiplicities over the negative margins, and the zero band is
    `classify_stack`'s, 1e-8 times the larger of max |sigma_k| and max |H|,
    with H = diag(phi'') + lambda hess g(a 1) scaled from unit edges
    (`_homogeneity`).  One scalar `derivatives` call per parameter gives the
    state, bit-identical to `trivial_point`, and every sigma_k, bit-identical
    to `margin`; the labels follow from arrays.  Every state's shape is the
    whole group's, `geometry.families.whole`.
    """
    rows = []
    for p in params:
        a = _trivial_edge(geometry, p)
        _, d1, d2 = derivatives(spec, a)
        rows.append((geometry.trivial_multiplier(a, d1), a, d1, d2))
    lam, a, d1, d2 = np.array(rows, dtype=float).reshape(-1, 4).T
    states = np.column_stack([lam] + [a] * geometry.n_edges)
    sigma = _margin_table(geometry, a, d1, d2)
    degree, hess = _homogeneity(geometry)
    H = d2[:, None, None] * np.eye(geometry.n_edges) + (lam * a ** (degree - 2))[:, None, None] * hess
    band = 1e-8 * np.maximum(np.abs(sigma).max(axis=1, initial=0.0), np.abs(H).max(axis=(1, 2), initial=0.0))
    multiplicity = np.array([len(row.kernel) for row in geometry.margins.values()])
    return states, _stability(sigma, band), ((sigma < 0.0) @ multiplicity).tolist()


class ClusterProblem:
    """Continuation-facing wrapper of one geometry's KKT system for one potential."""

    def __init__(self, geometry: Geometry, spec: PotentialSpec):
        self.geometry = geometry
        self.spec = spec
        self.dim = geometry.n_edges + 1
        self.param_name = geometry.param_name

    def evaluate(self, x, p: float) -> tuple[np.ndarray, np.ndarray]:
        return evaluate(self.geometry, self.spec, x, p)

    def parameter_derivative(self, x, p: float) -> np.ndarray:
        out = np.zeros(self.dim)
        out[0] = -2.0 * self.geometry.target_scale * p
        return out

    def in_domain(self, x) -> bool:
        return bool((np.asarray(x)[1:] > 0.0).all())

    def feasible(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        return self.in_domain(x) and self.geometry.realizable(x[1:].tolist())

    def classify_stack(self, states, jacobians) -> list[Classification]:
        return classify_stack(self.geometry, states, jacobians)

    def trivial_state(self, p: float) -> np.ndarray:
        lam, a = trivial_point(self.geometry, self.spec, p)
        return np.array([lam] + [a] * self.geometry.n_edges)

    def group(self):
        return self.geometry.families.group()

    def fixed_space(self, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """`symmetry.fixed_space` of the isotropy subgroup of x."""
        group = self.group()
        return fixed_space(group, group.members(int(stabilizer(group, x)[0])))
