"""Constrained energy minimizers of small particle clusters.

Computes, continues, and classifies the critical points of the pair-potential
energy of three particles at fixed triangle area and four particles at fixed
tetrahedron volume, producing bifurcation diagrams with stability annotation.
"""

__version__ = "0.4.0"

from .potentials import (  # noqa: E402
    Buckingham,
    ConfigError,
    LennardJones,
    NormalizedBuckingham,
    PolynomialSpring,
    PotentialSpec,
    Threshold,
    buckingham_interval_certificate,
    closed_form_thresholds,
    eval_potential,
    normalized_buckingham_convert,
    potential_from_json,
    potential_to_json,
    stability_margin,
)
from .continuation import (  # noqa: E402
    BifurcationEvent,
    Branch,
    BranchPoint,
    ContinuationSettings,
    CorrectorFailure,
    DomainExit,
    PseudoArclength,
    branch_switch,
    detect_and_localize,
    newton_correct,
    trace_branch,
)
from .cluster import (  # noqa: E402
    BoundaryRoot,
    ClusterProblem,
    Geometry,
    StabilityInterval,
)
from .triangle import (  # noqa: E402
    TRIANGLE,
    classify_point3,
    heron,
    jacobian3,
    residual3,
    stability_boundaries3,
    trivial_spectrum3,
)
from .tetrahedron import (  # noqa: E402
    TETRAHEDRON,
    cayley_menger,
    classify_point4,
    is_tetrahedron,
    jacobian4,
    residual4,
    stability_boundaries4,
    trivial_spectrum4,
)
from .symmetry import (  # noqa: E402
    FamilyTable,
    Perm,
    PermGroup,
    fixed_projection,
    isotropy,
    orbit,
    stabilizer,
    tetra_group,
    triangle_group,
)
from .diagram import Abc3d, Diagram, ParamVsComponent, export, load_diagram, render_svg  # noqa: E402

__all__ = [name for name in dir() if not name.startswith("_")]
