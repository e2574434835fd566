"""Construction of Hermite patches whose slope +-1 parameter lines are cubic.

A generic bicubic restricts to a degree-6 curve on the diagonal v = u and the
anti-diagonal v = 1 - u.  Killing the degree 6, 5 and 4 terms of both
restrictions yields six homogeneous linear conditions on the 16 Hermite
controls of each coordinate; the condition matrix has rank 5.  Consequences,
with phi = x11 - x12 - x21 + x22:

  * the four twists are determined by the 12 corner/tangent controls:
        x43 = -(b + phi)      x44 = -(a + phi)
        x33 = 2*phi - x44     x34 = 2*phi - x43
    where a = x14 - x24 + x41 - x42, b = x13 - x23 + x41 - x42,
          c = x31 - x32 - x41 + x42;
  * the tangents themselves must satisfy one residual condition
        a + b + c + 4*phi = 0.

All arithmetic in this module is plain Python, so integer and Fraction inputs
flow through exactly; floats behave as usual.  The equivalent power-basis
characterization (coefficients of u^3v^3, u^3v^2, u^2v^3, u^2v^2 vanish and
the u^3v / uv^3 pair cancels) is monomial_condition_forms; the test suite
cross-checks it against the condition matrix in exact arithmetic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import algebra
from .errors import InfeasiblePatchError
from .patch import Basis, GeometricPatch, monomial_matrix_exact, slope_lines

DEFAULT_TOL = 1e-9

# Gradient of the residual a + b + c + 4*phi over the eight tangents
# (x13, x14, x23, x24, x31, x32, x41, x42); squared norm 8.
_RESIDUAL_SIGNS = (1, 1, -1, -1, 1, -1, 1, -1)


class Policy(enum.Enum):
    """What to do with inputs that violate the tangent constraint."""

    STRICT = "strict"
    PROJECT = "project"


@dataclass(frozen=True)
class HsControls:
    """The 12 user-facing controls of one patch coordinate.

    corners  = (x11, x12, x21, x22)
    tangents = (x13, x14, x23, x24, x31, x32, x41, x42)

    Twists are never part of the input; they are derived.  Values keep
    whatever numeric type they came in with (int, Fraction, float).
    """

    corners: tuple
    tangents: tuple

    def __post_init__(self):
        object.__setattr__(self, "corners", tuple(self.corners))
        object.__setattr__(self, "tangents", tuple(self.tangents))
        if len(self.corners) != 4:
            raise ValueError("expected 4 corner values")
        if len(self.tangents) != 8:
            raise ValueError("expected 8 tangent values")

    @classmethod
    def from_flat(cls, values) -> "HsControls":
        values = tuple(values)
        if len(values) != 12:
            raise ValueError("expected 12 values: 4 corners then 8 tangents")
        return cls(values[:4], values[4:])

    def flat(self) -> tuple:
        return self.corners + self.tangents

    @classmethod
    def from_matrix(cls, matrix) -> "HsControls":
        """Extract corners and tangents from a full Hermite control matrix.

        Any twist entries present are ignored (they are derived quantities).
        """
        m = [list(row) for row in matrix]
        return cls(
            corners=(m[0][0], m[0][1], m[1][0], m[1][1]),
            tangents=(m[0][2], m[0][3], m[1][2], m[1][3],
                      m[2][0], m[2][1], m[3][0], m[3][1]),
        )

    def scale(self) -> float:
        return max(1.0, max(abs(float(v)) for v in self.flat()))


@dataclass(frozen=True)
class HsPatchInput:
    """Controls for all three coordinates of a patch."""

    x: HsControls
    y: HsControls
    z: HsControls

    def coords(self) -> dict[str, HsControls]:
        return {"x": self.x, "y": self.y, "z": self.z}


@dataclass(frozen=True)
class ConstraintReport:
    """Feasibility diagnostics of one coordinate's 12 controls.

    residual = a + b + c + 4*phi; zero iff the coordinate admits a completion.
    alpha and beta locate the twists between their corner-determined bounds
    and are undefined (None) when phi = 0.
    """

    phi: object
    a: object
    b: object
    c: object
    residual: object
    alpha: object
    beta: object
    feasible: bool
    scale: float


def _raw_quantities(controls: HsControls):
    x11, x12, x21, x22 = controls.corners
    x13, x14, x23, x24, x31, x32, x41, x42 = controls.tangents
    phi = x11 - x12 - x21 + x22
    a = x14 - x24 + x41 - x42
    b = x13 - x23 + x41 - x42
    c = x31 - x32 - x41 + x42
    return phi, a, b, c


def constraint_report(controls: HsControls, tol: float = DEFAULT_TOL) -> ConstraintReport:
    """Evaluate the tangent constraint for one coordinate.

    Feasibility is scale-relative: |residual| <= tol * max(1, max |control|),
    so the verdict does not depend on the choice of length unit.
    """
    phi, a, b, c = _raw_quantities(controls)
    residual = a + b + c + 4 * phi
    scale = controls.scale()
    feasible = abs(float(residual)) <= tol * scale
    if phi != 0:
        alpha = -(a + phi) / (2 * phi)
        beta = -(b + phi) / (2 * phi)
    else:
        alpha = beta = None
    return ConstraintReport(
        phi=phi, a=a, b=b, c=c, residual=residual,
        alpha=alpha, beta=beta, feasible=feasible, scale=scale,
    )


def complete_twists(controls: HsControls) -> tuple:
    """Derive (x33, x34, x43, x44) from the 12 controls.

    Uses the direct formulas, never the alpha/beta parametrization, so phi = 0
    needs no special case and exact input types are preserved.
    """
    phi, a, b, _ = _raw_quantities(controls)
    x43 = -(b + phi)
    x44 = -(a + phi)
    x33 = 2 * phi - x44
    x34 = 2 * phi - x43
    return (x33, x34, x43, x44)


def project_tangents(controls: HsControls) -> HsControls:
    """Minimal Euclidean correction of the tangents onto residual = 0.

    Corners are untouched.  The residual gradient over the tangents is the
    fixed sign vector s with |s|^2 = 8, so the closest feasible point is
    t - (residual/8) * s.  Inputs with residual exactly 0 are returned as-is.
    Exact input types stay exact (the step becomes a Fraction).
    """
    phi, a, b, c = _raw_quantities(controls)
    residual = a + b + c + 4 * phi
    if residual == 0:
        return controls
    if isinstance(residual, (int, Fraction)):
        step = Fraction(residual, 8)
    else:
        step = residual / 8.0
    fixed = tuple(t - s * step for t, s in zip(controls.tangents, _RESIDUAL_SIGNS))
    return HsControls(controls.corners, fixed)


def control_matrix(controls: HsControls) -> list[list]:
    """Assemble the full 4x4 Hermite control matrix, twists filled in.

    Entries keep the input numeric types; wrap in numpy only for evaluation.
    """
    x11, x12, x21, x22 = controls.corners
    x13, x14, x23, x24, x31, x32, x41, x42 = controls.tangents
    x33, x34, x43, x44 = complete_twists(controls)
    return [
        [x11, x12, x13, x14],
        [x21, x22, x23, x24],
        [x31, x32, x33, x34],
        [x41, x42, x43, x44],
    ]


def control_vector(matrix) -> tuple:
    """Row-major 16-vector [x11, x12, ..., x44] of a control matrix."""
    return tuple(v for row in matrix for v in row)


@dataclass(frozen=True)
class HsPatch:
    """A constructed patch plus the diagnostics of its construction.

    `reports` describe the controls the twists were completed from (after
    projection when the PROJECT policy repaired anything); `repaired` is True
    when projection actually changed an infeasible coordinate.
    """

    patch: GeometricPatch
    reports: dict[str, ConstraintReport]
    repaired: bool


def build_hs_patch(inputs: HsPatchInput, policy: Policy = Policy.STRICT,
                   tol: float = DEFAULT_TOL) -> HsPatch:
    """Complete twists for all three coordinates and assemble the patch.

    STRICT raises InfeasiblePatchError (with per-coordinate reports) if any
    coordinate violates the tangent constraint beyond tol.  PROJECT first
    applies the minimal tangent correction wherever needed.
    """
    coords = inputs.coords()
    pre_reports = {name: constraint_report(c, tol) for name, c in coords.items()}

    if policy is Policy.STRICT:
        bad = {n: r for n, r in pre_reports.items() if not r.feasible}
        if bad:
            detail = ", ".join(f"{n}: residual={float(r.residual):.3g}" for n, r in bad.items())
            raise InfeasiblePatchError(
                f"tangent constraint violated ({detail}); "
                f"use the project policy to repair", reports=pre_reports,
            )
        used = coords
        reports = pre_reports
        repaired = False
    elif policy is Policy.PROJECT:
        used = {n: project_tangents(c) for n, c in coords.items()}
        repaired = any(not r.feasible for r in pre_reports.values())
        reports = {n: constraint_report(c, tol) for n, c in used.items()}
    else:
        raise ValueError(f"unknown policy {policy!r}")

    matrices = {n: np.array(control_matrix(c), dtype=float) for n, c in used.items()}
    patch = GeometricPatch(matrices["x"], matrices["y"], matrices["z"], Basis.HERMITE)
    return HsPatch(patch=patch, reports=reports, repaired=repaired)


def _control_forms(linear_map) -> tuple[tuple[Fraction, ...], ...]:
    """Exact forms over the row-major control vector of a linear control map.

    `linear_map` takes a 4x4 control matrix to a sequence of scalars and must be
    linear in its entries.  Column k of the result is the map's value on the
    k-th unit control matrix, so exact Fraction arithmetic gives exact forms.
    """
    units = algebra.mat_identity(16)
    columns = [linear_map([unit[i:i + 4] for i in range(0, 16, 4)]) for unit in units]
    return tuple(zip(*columns))


@lru_cache(maxsize=1)
def build_lambda() -> tuple[tuple[Fraction, ...], ...]:
    """The 6x16 exact condition matrix over the row-major control vector.

    Rows 1-3 kill the u^6, u^5, u^4 coefficients of the diagonal restriction,
    rows 4-6 the same for the anti-diagonal.  Derived from the basis matrix
    and the line restriction in exact arithmetic, so every entry is computed.
    """
    def conditions(control):
        monos = np.array(monomial_matrix_exact(control), dtype=object)
        return [coeff for slope, offset in ((1, 0), (-1, 1))
                for coeff in slope_lines(monos, slope, np.array([offset]))[0, 6:3:-1]]

    return _control_forms(conditions)


@lru_cache(maxsize=1)
def monomial_condition_forms() -> tuple[tuple[Fraction, ...], ...]:
    """The 5 power-basis conditions as exact forms over the control vector.

    Order: u^3v^3, u^3v^2, u^2v^3, u^2v^2, then u^3v + uv^3.  Spans the same
    row space as build_lambda() (asserted exactly in the tests).
    """
    def conditions(control):
        mono = monomial_matrix_exact(control)
        return (mono[3][3], mono[3][2], mono[2][3], mono[2][2], mono[3][1] + mono[1][3])

    return _control_forms(conditions)

