"""Hermite bicubic patches whose diagonal parameter lines stay cubic.

The package builds patches from 12 controls per coordinate (corners and
boundary tangents), derives the twist entries from a rank-5 linear condition
system, converts between Hermite/Bezier/B-spline forms, tessellates to
triangle meshes, and audits polynomial degree and inter-patch continuity.
"""

from types import ModuleType as _ModuleType

from .algebra import rank_exact
from .analysis import ContinuityReport, Side, continuity_check, degree_audit
from .convert import conversion_matrix, convert_patch
from .errors import (
    BasisMismatchError,
    DocumentError,
    GeometryError,
    InfeasiblePatchError,
    SingularMatrixError,
)
from .hs import (
    DEFAULT_TOL,
    ConstraintReport,
    HsControls,
    HsPatch,
    HsPatchInput,
    Policy,
    build_hs_patch,
    build_lambda,
    complete_twists,
    constraint_report,
    control_matrix,
    control_vector,
    monomial_condition_forms,
    project_tangents,
)
from .mesh import TessPattern, TriangleMesh, export_obj, tessellate
from .patch import (
    Basis,
    DiagonalPoly,
    GeometricPatch,
    PatchJet,
    effective_degree,
    eval_patch_jet,
    fit_line_oracle,
    line_restriction_coeffs,
    monomial_matrix,
)

__version__ = "0.1.0"

# The public names are exactly the ones imported above, so the two cannot drift apart
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
