"""Permutation symmetries of the cluster problems and their reductions.

The triangle system is equivariant under the six permutations of the edges
(a, b, c); the tetrahedron system under the 24 edge permutations generated by

  * relabelings of the base vertices, which permute (a, b, c) and (A, B, C)
    with the same three-element permutation, and
  * base changes that reorient the tetrahedron onto another face, such as
    (a, b, c, A, B, C) -> (c, A, B, C, a, b).

All group elements act on the KKT unknowns (lambda, edges...) with the
multiplier coordinate held fixed.  Given a kernel vector of the linearized
system, `isotropy` extracts the subgroup fixing it and `fixed_projection`
builds the projector onto the corresponding fixed-point subspace (exactly,
in rational arithmetic), where the critical eigenvalue is simple and branch
switching is well posed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .continuation import Branch, BranchPoint
from .linalg import orthonormal_columns

__all__ = [
    "Perm",
    "PermGroup",
    "Reduction",
    "triangle_group",
    "tetra_group",
    "isotropy",
    "fixed_projection",
    "fixed_projection_exact",
    "orbit",
    "triangle_isosceles_reduction",
    "tetra_opposite_pair_reduction",
    "tetra_apex_reduction",
    "tetra_equal_pair_reduction",
    "PAIR_KERNEL_VECTOR",
    "APEX_KERNEL_VECTOR",
    "EQUAL_PAIR_KERNEL_VECTOR",
    "ISOSCELES_KERNEL_VECTOR",
]


@dataclass(frozen=True)
class Perm:
    """A coordinate permutation: (P x)[i] = x[sources[i]]; sources[0] == 0 always."""

    sources: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.sources) != list(range(len(self.sources))):
            raise ValueError("not a permutation")
        if self.sources[0] != 0:
            raise ValueError("permutations must fix the multiplier coordinate")

    @property
    def n(self) -> int:
        return len(self.sources)

    def apply(self, v) -> np.ndarray:
        return np.asarray(v, dtype=float)[list(self.sources)]

    def matrix(self) -> np.ndarray:
        M = np.zeros((self.n, self.n))
        for i, j in enumerate(self.sources):
            M[i, j] = 1.0
        return M

    def __matmul__(self, other: "Perm") -> "Perm":
        # (P @ Q) x = P(Q x)
        return Perm(tuple(other.sources[s] for s in self.sources))

    def inverse(self) -> "Perm":
        inv = [0] * self.n
        for i, j in enumerate(self.sources):
            inv[j] = i
        return Perm(tuple(inv))

    @staticmethod
    def identity(n: int) -> "Perm":
        return Perm(tuple(range(n)))

    @staticmethod
    def from_edge_sources(edge_sources: tuple[int, ...]) -> "Perm":
        """Lift a permutation of the edge coordinates to fix the multiplier slot."""
        return Perm((0,) + tuple(1 + s for s in edge_sources))


@dataclass(frozen=True)
class PermGroup:
    """A finite permutation group, closure-checked at construction."""

    elements: tuple[Perm, ...]

    def __post_init__(self):
        elems = set(self.elements)
        if Perm.identity(self.elements[0].n) not in elems:
            raise ValueError("group must contain the identity")
        for p in self.elements:
            if p.inverse() not in elems:
                raise ValueError("group not closed under inverses")
            for q in self.elements:
                if p @ q not in elems:
                    raise ValueError("group not closed under products")

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    @property
    def n(self) -> int:
        return self.elements[0].n


def _closure(generators: set[Perm]) -> tuple[Perm, ...]:
    group = set(generators)
    frontier = set(generators)
    while frontier:
        new = {p @ q for p in frontier for q in group} | {p @ q for p in group for q in frontier}
        frontier = new - group
        group |= frontier
    return tuple(sorted(group, key=lambda p: p.sources))


@lru_cache(maxsize=None)
def triangle_group() -> PermGroup:
    """The six permutations of (a, b, c), lifted to fix lambda."""
    perms = []
    for p in _permutations3():
        perms.append(Perm.from_edge_sources(p))
    return PermGroup(tuple(sorted(perms, key=lambda q: q.sources)))


def _permutations3():
    return [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]


@lru_cache(maxsize=None)
def tetra_group() -> PermGroup:
    """The 24 edge permutations of the tetrahedron, lifted to fix lambda.

    Generated by the six same-permutation relabelings of (a, b, c)/(A, B, C)
    and the example base change (a, b, c, A, B, C) -> (c, A, B, C, a, b); the
    closure is required to have exactly 24 elements, otherwise the generator
    conventions are inconsistent and we refuse to continue.
    """
    gens = set()
    for p in _permutations3():
        gens.add(Perm.from_edge_sources((p[0], p[1], p[2], 3 + p[0], 3 + p[1], 3 + p[2])))
    gens.add(Perm.from_edge_sources((2, 3, 4, 5, 0, 1)))
    elements = _closure(gens)
    if len(elements) != 24:
        raise RuntimeError(f"tetrahedron group closure produced {len(elements)} elements, expected 24")
    return PermGroup(elements)


def isotropy(group: PermGroup, v) -> PermGroup:
    """Subgroup of elements fixing v (componentwise, tolerance 1e-12)."""
    v = np.asarray(v, dtype=float)
    if not np.any(v):
        raise ValueError("isotropy of the zero vector is the whole group; pass a nonzero v")
    fixed = tuple(p for p in group if np.max(np.abs(p.apply(v) - v)) < 1e-12)
    return PermGroup(fixed)


def fixed_projection_exact(subgroup: PermGroup) -> tuple[tuple[Fraction, ...], ...]:
    """Group average (1/|H|) sum(P) with exact rational entries."""
    if len(subgroup) == 0:
        raise ValueError("cannot average an empty subgroup")
    n = subgroup.n
    counts = [[0] * n for _ in range(n)]
    for p in subgroup:
        for i, j in enumerate(p.sources):
            counts[i][j] += 1
    h = len(subgroup)
    return tuple(tuple(Fraction(c, h) for c in row) for row in counts)


def fixed_projection(subgroup: PermGroup) -> np.ndarray:
    """Group-average projector onto the fixed-point subspace, as floats."""
    exact = fixed_projection_exact(subgroup)
    return np.array([[float(x) for x in row] for row in exact])


@dataclass(frozen=True)
class Reduction:
    """An isotropy subgroup with its fixed-space projector and kernel vector."""

    subgroup: PermGroup
    kernel_vector: tuple[float, ...]

    @property
    def projection(self) -> np.ndarray:
        return fixed_projection(self.subgroup)

    @property
    def projection_exact(self):
        return fixed_projection_exact(self.subgroup)

    @property
    def basis(self) -> np.ndarray:
        """Orthonormal columns spanning the fixed-point subspace."""
        return orthonormal_columns(self.projection)

    @property
    def dimension(self) -> int:
        return self.basis.shape[1]

    def kernel_unit(self) -> np.ndarray:
        v = np.asarray(self.kernel_vector, dtype=float)
        return v / np.sqrt(v @ v)


ISOSCELES_KERNEL_VECTOR = (0.0, -2.0, 1.0, 1.0)
PAIR_KERNEL_VECTOR = (0.0, 0.0, 0.0, -1.0, 0.0, 0.0, 1.0)
APEX_KERNEL_VECTOR = (0.0, -1.0, -1.0, -1.0, 1.0, 1.0, 1.0)
EQUAL_PAIR_KERNEL_VECTOR = (0.0, -2.0, 1.0, 1.0, -2.0, 1.0, 1.0)


def triangle_isosceles_reduction() -> Reduction:
    """Fixed space (lambda, a, b, b): the isosceles triangles."""
    return Reduction(isotropy(triangle_group(), ISOSCELES_KERNEL_VECTOR), ISOSCELES_KERNEL_VECTOR)


def tetra_opposite_pair_reduction() -> Reduction:
    """Fixed space (lambda, a, a, c, a, a, C): one opposite edge pair free."""
    return Reduction(isotropy(tetra_group(), PAIR_KERNEL_VECTOR), PAIR_KERNEL_VECTOR)


def tetra_apex_reduction() -> Reduction:
    """Fixed space (lambda, a, a, a, A, A, A): apex edges versus base edges."""
    return Reduction(isotropy(tetra_group(), APEX_KERNEL_VECTOR), APEX_KERNEL_VECTOR)


def tetra_equal_pair_reduction() -> Reduction:
    """Fixed space (lambda, a, b, b, a, b, b): one opposite pair moving together."""
    return Reduction(isotropy(tetra_group(), EQUAL_PAIR_KERNEL_VECTOR), EQUAL_PAIR_KERNEL_VECTOR)


def orbit(group: PermGroup, branch: Branch, tol: float = 1e-9) -> list[Branch]:
    """All distinct images of a branch under the group.

    Two images are considered equal when their point states agree within
    `tol` componentwise, in either traversal order (a symmetry may reverse
    the parametrization of a branch that passes through a symmetric point).
    Stability flags are copied unchanged since conjugate states share
    spectra; shape labels are recomputed by the caller's classifier when the
    branch carries one.
    """
    base_states = [np.asarray(pt.state, dtype=float) for pt in branch.points]
    images: list[Branch] = []
    image_states: list[list[np.ndarray]] = []

    def seen(states: list[np.ndarray]) -> bool:
        for other in image_states:
            if len(other) != len(states):
                continue
            if all(np.max(np.abs(a - b)) < tol for a, b in zip(states, other)):
                return True
            if all(np.max(np.abs(a - b)) < tol for a, b in zip(states, reversed(other))):
                return True
        return False

    for p in group:
        mapped = [p.apply(s) for s in base_states]
        if seen(mapped):
            continue
        pts = [
            BranchPoint(
                state=tuple(float(x) for x in s),
                parameter=pt.parameter,
                arclength=pt.arclength,
                stability=pt.stability,
                shape=pt.shape,
                det_sign=pt.det_sign,
            )
            for s, pt in zip(mapped, branch.points)
        ]
        images.append(Branch(points=pts))
        image_states.append(mapped)
    return images
