"""Permutation symmetries of the cluster problems and their fixed-point spaces.

The triangle system is equivariant under the six permutations of the edges
(a, b, c); the tetrahedron system under the 24 edge permutations generated by

  * relabelings of the base vertices, which permute (a, b, c) and (A, B, C)
    with the same three-element permutation, and
  * base changes that reorient the tetrahedron onto another face, such as
    (a, b, c, A, B, C) -> (c, A, B, C, a, b).

All group elements act on the KKT unknowns (lambda, edges...) with the
multiplier coordinate held fixed.  `isotropy` extracts the subgroup fixing
a vector, and `fixed_projection` builds the projector onto the fixed-point
subspace of a subgroup (exactly, in rational arithmetic).

Each geometry names its shapes in one `FamilyTable`: the whole group, then
the isotropy subgroups of a few representative vectors, most symmetric
first.  `stabilizer` gives a stack of states their sets of fixing group
elements as bitmasks, in one array comparison, and a state's shape is the
first family one of whose conjugates that set contains.  The representative
vectors are also the directions in which branch switching leaves the
symmetric branch.

A branch of isotropy S lies in Fix(S) and can meet a more symmetric branch
only inside a Fix(S') of a larger S'; `fixed_space` gives the projector
onto Fix(S) and the signed distances from the Fix(S') of codimension 1,
once per isotropy type.  It is the one source of fixed-point spaces: a
trace takes S from its start state, a switch from its direction, in whose
Fix(S) the critical eigenvalue is simple and switching is well posed.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import permutations
from typing import Callable

import numpy as np

from .continuation import Branch

__all__ = [
    "Perm",
    "PermGroup",
    "FamilyTable",
    "triangle_group",
    "tetra_group",
    "isotropy",
    "stabilizer",
    "fixed_space",
    "fixed_projection",
    "fixed_projection_exact",
    "orbit",
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

    @cached_property
    def sources(self) -> np.ndarray:
        """The elements' `Perm.sources` as the rows of one read-only array."""
        out = np.array([p.sources for p in self.elements])
        out.flags.writeable = False
        return out

    def members(self, mask: int) -> tuple[Perm, ...]:
        """The elements whose bits are set in `mask`, in group order."""
        return tuple(p for i, p in enumerate(self.elements) if mask >> i & 1)


def _closure(generators) -> tuple[Perm, ...]:
    """The group the permutations generate, sorted by sources."""
    gens = list(generators)
    group = {Perm.identity(gens[0].n)}
    frontier = group
    while frontier:
        frontier = {p @ g for p in frontier for g in gens} - group
        group |= frontier
    return tuple(sorted(group, key=lambda p: p.sources))


@lru_cache(maxsize=None)
def triangle_group() -> PermGroup:
    """The six permutations of (a, b, c), lifted to fix lambda."""
    return PermGroup(_closure(Perm.from_edge_sources(p) for p in permutations(range(3))))


@lru_cache(maxsize=None)
def tetra_group() -> PermGroup:
    """The 24 edge permutations of the tetrahedron, lifted to fix lambda.

    Generated by the six same-permutation relabelings of (a, b, c)/(A, B, C)
    and the example base change (a, b, c, A, B, C) -> (c, A, B, C, a, b); the
    closure is required to have exactly 24 elements, otherwise the generator
    conventions are inconsistent and we refuse to continue.
    """
    gens = [Perm.from_edge_sources(p + tuple(3 + i for i in p)) for p in permutations(range(3))]
    elements = _closure(gens + [Perm.from_edge_sources((2, 3, 4, 5, 0, 1))])
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


def stabilizer(group: PermGroup, states) -> np.ndarray:
    """One bitmask per state of a stack (N, n): bit i is set where element i
    fixes the state componentwise to 1e-6 relative, |Px - x| <= 1e-6 max(|Px|, |x|).

    The set need not be a subgroup: the tolerance is not transitive.
    """
    x = np.asarray(states, dtype=float).reshape(-1, group.n)
    y = x.take(group.sources, axis=1)
    x = x[:, None, :]
    return (abs(y - x) <= 1e-6 * np.maximum(abs(y), abs(x))).all(axis=2) @ (1 << np.arange(len(group)))


def fixed_projection_exact(subgroup) -> tuple[tuple[Fraction, ...], ...]:
    """Group average (1/|H|) sum(P) with exact rational entries (of a group or its elements)."""
    if len(subgroup) == 0:
        raise ValueError("cannot average an empty subgroup")
    n = next(iter(subgroup)).n
    counts = [[0] * n for _ in range(n)]
    for p in subgroup:
        for i, j in enumerate(p.sources):
            counts[i][j] += 1
    h = len(subgroup)
    return tuple(tuple(Fraction(c, h) for c in row) for row in counts)


def fixed_projection(subgroup) -> np.ndarray:
    """Group-average projector onto the fixed-point subspace, as floats (of a group or its elements)."""
    exact = fixed_projection_exact(subgroup)
    return np.array([[float(x) for x in row] for row in exact])


_crossings_lock = threading.Lock()


def fixed_space(group: PermGroup, subgroup: tuple[Perm, ...]
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(P, normals, projections) of S = `subgroup`: the group-average projector
    onto Fix(S) and the Fix(S'_k) of codimension 1 in Fix(S).

    P has the exact block averages as entries (1/|B| over each block B of
    coordinates that S permutes), so P @ x has bitwise equal entries within
    each block.  Row k of the normals is the unit vector u_k spanning Fix(S)
    minus Fix(S'_k), the signed distance from it; `projections[k]` projects
    onto Fix(S'_k).  Built once per pair and process (threads wait for the
    first), the arrays are shared and read-only.
    """
    with _crossings_lock:
        return _build_crossings(group, tuple(subgroup))


@lru_cache(maxsize=None)
def _build_crossings(group: PermGroup, subgroup: tuple[Perm, ...]
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # every S' > S contains some g outside S, so the largest fixed spaces
    # inside Fix(S) are the Fix(<S, g>), one per coset gS; keep those of
    # codimension 1, once each
    n = group.n
    P = fixed_projection_exact(subgroup)
    seen = set(subgroup)
    fixed, normals, projections = [], [], []
    for g in group:
        if g in seen:
            continue
        seen.update(g @ s for s in subgroup)
        Q = fixed_projection_exact(_closure(subgroup + (g,)))
        # P - Q projects onto Fix(S) minus Fix(S'); its trace is the codimension
        D = [[p - q for p, q in zip(row_p, row_q)] for row_p, row_q in zip(P, Q)]
        if Q in fixed or sum(D[i][i] for i in range(n)) != 1:
            continue
        fixed.append(Q)
        j = max(range(n), key=lambda i: D[i][i])  # rank 1: D = u u^t, so u = D e_j / sqrt(D_jj)
        normals.append([float(D[i][j]) / math.sqrt(D[j][j]) for i in range(n)])
        projections.append([[float(v) for v in row] for row in Q])
    out = (fixed_projection(subgroup), np.array(normals).reshape(-1, n),
           np.array(projections).reshape(-1, n, n))
    for a in out:
        a.flags.writeable = False
    return out


@dataclass(frozen=True)
class FamilyTable:
    """A geometry's named shapes: `whole` for the states the whole group
    fixes, then `families`, most symmetric first, and `other` for the rest.

    Each family is a name and one representative vector (multiplier slot
    first); its states are those fixed by the vector's isotropy subgroup or
    by one of its conjugates.  A state's shape is the first of these with a
    subgroup inside the state's `stabilizer`.  With `edge_names`, a family's
    label names the edges its conjugate equates, as in 'isosceles(a=b)', and
    the conjugates are tried in the order of their labels.  The subgroups
    are built on first use; the shape of a stabilizer mask is memoized
    (threads that meet a new mask together store the same label).
    """

    group: Callable[[], PermGroup]
    whole: str
    families: dict[str, tuple[float, ...]]
    other: str
    edge_names: str = ""
    _memo: dict[int, str] = field(default_factory=dict, init=False, repr=False, compare=False)

    def shapes(self, states) -> list[str]:
        """The shape of each state of a stack (N, n), or of one state."""
        masks, memo = stabilizer(self.group(), states).tolist(), self._memo
        for mask in set(masks) - memo.keys():
            memo[mask] = next((label for sub, label in self._classes if sub & mask == sub), self.other)
        return [memo[mask] for mask in masks]

    @cached_property
    def _classes(self) -> list[tuple[int, str]]:
        """(subgroup mask, label) of the whole group and of each family's conjugates, in trial order."""
        group = self.group()
        bit = {p: 1 << i for i, p in enumerate(group)}
        classes = [(sum(bit.values()), self.whole)]
        for name, vector in self.families.items():
            H = isotropy(group, vector).elements
            conjugates = {frozenset(g @ h @ g.inverse() for h in H) for g in group}
            classes += [(mask, label) for label, mask in
                        sorted((self._label(name, C), sum(bit[p] for p in C)) for C in conjugates)]
        return classes

    def _label(self, name: str, subgroup) -> str:
        if not self.edge_names:
            return name
        # the orbits of the subgroup on the edges, each a run of equal edges
        orbits = {tuple(sorted({p.sources[i + 1] - 1 for p in subgroup})) for i in range(len(self.edge_names))}
        equal = ",".join("=".join(self.edge_names[i] for i in orbit) for orbit in sorted(orbits) if len(orbit) > 1)
        return f"{name}({equal})"


def orbit(families: FamilyTable, branch: Branch) -> list[Branch]:
    """All distinct images of a branch under the group of `families`.

    Each group element's image is one column permutation of the branch's
    states.  Two images are considered equal when their point states agree
    within 1e-9 componentwise, in either traversal order (a symmetry may
    reverse the parametrization of a branch that passes through a
    symmetric point).  Every image shares the branch's parameter, arclength,
    index and stability columns, since conjugate states share spectra: the
    images alias one read-only view of each (the stability as one tuple), so
    no image can be edited apart from the others.  The shapes of all kept
    images' points come from one `FamilyTable.shapes` call: labels name
    particular edges (e.g. 'isosceles(b=c)'), so the source branch's own
    cannot be copied.
    """
    group = families.group()
    n_points = len(branch.parameters)
    mapped = branch.states.reshape(n_points, group.n)[:, group.sources].swapaxes(0, 1)
    kept: list[int] = []
    for i, image in enumerate(mapped):
        others = mapped[kept]
        if not (np.any(np.all(np.abs(image - others) < 1e-9, axis=(1, 2)))
                or np.any(np.all(np.abs(image[::-1] - others) < 1e-9, axis=(1, 2)))):
            kept.append(i)
    images = mapped[kept]  # a copy, so the discarded images are freed
    shapes = families.shapes(images)
    shared = [column.view() for column in (branch.parameters, branch.arclengths, branch.index)]
    for column in shared:
        column.flags.writeable = False
    stability = tuple(branch.stability)
    return [Branch(image, *shared, stability, shapes[j * n_points:(j + 1) * n_points])
            for j, image in enumerate(images)]
