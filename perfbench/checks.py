"""Output checks of the benchmark workloads.

The checks encode the paper's facts as the acceptance suite asserts them,
not the branch and event counts of one commit: those are recorded per seed
and never gated.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from cluster_bifurc import LennardJones, closed_form_thresholds
from cluster_bifurc.symmetry import tetra_group, triangle_group


def _near(values, target: float, tol: float) -> bool:
    return any(abs(v - target) <= tol for v in values)


def _branch_ids(diagram, event) -> set[int]:
    return {br.id for br in diagram.branches if br.parent_event == event.id}


def missing_orbit_images(diagram) -> int:
    """Count (branch, group element) pairs whose image is not a diagram branch.

    The diagram of an equivariant problem is closed under the symmetry
    group: the image of every branch is again a branch, traversed in the
    same or the opposite direction.
    """
    group = triangle_group() if diagram.problem == "triangle" else tetra_group()
    arrays = [np.array([pt.state for pt in br.points]) for br in diagram.branches]
    by_len: dict[int, list[np.ndarray]] = {}
    for a in arrays:
        by_len.setdefault(len(a), []).append(a)
    missing = 0
    for a in arrays:
        peers = by_len[len(a)]
        tol = 1e-9 * max(1.0, float(np.max(np.abs(a))))
        for perm in group:
            image = a[:, list(perm.sources)]
            if not any(np.max(np.abs(image - b)) <= tol or np.max(np.abs(image - b[::-1])) <= tol
                       for b in peers):
                missing += 1
    return missing


def _check_lj(diagram) -> list[str]:
    errors = []
    primary = [ev for ev in diagram.events if ev.kind == "primary"]
    if len(primary) != 1:
        return [f"expected exactly one primary event, found {len(primary)}"]
    (closed,) = closed_form_thresholds(LennardJones(1, 2, 12, 6), "triangle")
    if abs(primary[0].parameter - closed.value) > 1e-6:
        errors.append(f"primary event at {primary[0].parameter:.8f}, closed form {closed.value:.8f}")
    iso = _branch_ids(diagram, primary[0])
    if len(iso) != 3:
        errors.append(f"primary event has {len(iso)} branches, expected 3")
    secondary = [ev.parameter for ev in diagram.events
                 if ev.kind == "secondary" and ev.source_branch in iso]
    if len(secondary) != 2 or not (_near(secondary, 0.6251, 5e-3) and _near(secondary, 0.6670, 5e-3)):
        errors.append(f"secondary events on the isosceles branches at {sorted(secondary)}, "
                      "expected 0.6251 and 0.6670")
    turning = [ev.parameter for ev in diagram.events
               if ev.kind == "turning" and ev.source_branch in iso]
    if not _near(turning, 0.5855, 1e-3):
        errors.append(f"no turning event at 0.5855 on the isosceles branches (found {sorted(turning)})")
    secondary_ids = {ev.id for ev in diagram.events if ev.kind == "secondary"}
    if not any(pt.stability == "stable" and pt.shape == "scalene"
               for br in diagram.branches if br.parent_event in secondary_ids for pt in br.points):
        errors.append("no stable scalene point on a secondary-switched branch")
    return errors


def _check_spring(diagram) -> list[str]:
    errors = []
    primaries = {}
    for name, value in (("V1", math.sqrt(1.0 / (243 * 0.1 ** 3))), ("V2", 8.0 / 3.0)):
        hits = [ev for ev in diagram.events
                if ev.kind == "primary" and abs(ev.parameter - value) <= 1e-6]
        if len(hits) != 1:
            errors.append(f"expected one primary event at {name} = {value:.8f}, found {len(hits)}")
        else:
            primaries[name] = hits[0]
    if "V1" in primaries:
        labels = Counter(br.label for br in diagram.branches if br.parent_event == primaries["V1"].id)
        if labels != {"opposite-pair": 3, "apex-base": 4}:
            errors.append(f"first primary's branch labels {dict(labels)}, "
                          "expected opposite-pair: 3, apex-base: 4")
    if "V2" in primaries:
        count = len(_branch_ids(diagram, primaries["V2"]))
        if count != 3:
            errors.append(f"second primary has {count} branches, expected 3")
    return errors


def _check_buck(diagram) -> list[str]:
    errors = []
    primary = sorted((ev for ev in diagram.events if ev.kind == "primary"), key=lambda ev: ev.parameter)
    params = [ev.parameter for ev in primary]
    if len(primary) != 2 or not (_near(params, 5.3154, 1e-2) and _near(params, 74.2253, 1e-2)):
        return [f"primary events at {params}, expected 5.3154 and 74.2253"]
    if len(diagram.branches) < 7:
        errors.append(f"{len(diagram.branches)} branches, expected at least 7")
    first = _branch_ids(diagram, primary[0])
    turning = [ev.parameter for ev in diagram.events
               if ev.kind == "turning" and ev.source_branch in first]
    if not _near(turning, 46.0, 1.0):
        errors.append(f"no turning event at 46 +- 1 on the first primary's branches (found {sorted(turning)})")
    return errors


CHECKS = {"lj-tri-fine": _check_lj, "spring-tet": _check_spring, "buck-tri-coarse": _check_buck}


def check_diagram(workload: str, diagram) -> list[str]:
    """Every failed check of a loaded diagram, as messages; empty when it passes."""
    errors = CHECKS[workload](diagram)
    missing = missing_orbit_images(diagram)
    if missing:
        errors.append(f"{missing} branch images under the symmetry group are not in the diagram")
    return errors


def diagram_counts(diagram) -> dict[str, int]:
    return {
        "diagram.branches": len(diagram.branches),
        "diagram.events": len(diagram.events),
        "diagram.points": sum(len(br.points) for br in diagram.branches),
    }
