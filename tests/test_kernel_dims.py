"""Kernel dimensions read from the tangent-space index jump.

A localized event's kernel dimension is the number of tangent eigenvalues
that cross zero over its final bracket, not a count of eigenvalues below a
threshold.  A simple fold moves one, on the Buckingham scale too, where
the Jacobian's spectrum spans many orders of magnitude; a primary keeps
the block its margins-table row names, 2 on the triangle and 3 or 2 on
the tetrahedron.  The builds are those of the golden fixtures and of the
step-size corpus, at both of its steps.
"""

import pytest

from cluster_bifurc.cli import build_diagram
from test_golden_events import GOLDEN
from test_step_size_corpus import CASES, _builds

# fixture -> kernel dimensions of its primaries, by parameter
PRIMARY_DIMS = {
    "buckingham-triangle": [2, 2],
    "soft-spring-tetrahedron": [3, 2],
    "lennard-jones-triangle-fine": [2],
    "lennard-jones-tetrahedron": [3],
}


def _dims(diagram, kind: str) -> list[int]:
    return [ev.kernel_dim for ev in sorted(diagram.events, key=lambda ev: ev.parameter) if ev.kind == kind]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_folds_have_one_kernel_vector(name):
    args, _ = GOLDEN[name]
    diagram = build_diagram(*args)
    folds = [ev for ev in diagram.events if ev.kind == "turning"]
    assert folds and all(ev.kernel_dim == 1 == len(ev.kernel) for ev in folds)
    assert _dims(diagram, "primary") == PRIMARY_DIMS[name]
    if name == "buckingham-triangle":
        assert [ev.kernel_dim for ev in folds if abs(ev.parameter - 46.04417) < 1e-5] == [1]


@pytest.mark.parametrize("name", sorted(CASES))
def test_corpus_folds_have_one_kernel_vector(name):
    problem = CASES[name][0]
    for diagram in _builds(name):
        assert set(_dims(diagram, "turning")) <= {1}
        assert set(_dims(diagram, "primary")) == ({2} if problem == "triangle" else {2, 3})
