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

Per-patch arithmetic is plain Python, and the condition forms use numpy object
arrays, so integer and Fraction inputs flow through exactly.  The power-basis
characterization (coefficients of u^3v^3, u^3v^2, u^2v^3, u^2v^2 vanish and
the u^3v / uv^3 pair cancels) is monomial_condition_forms; the test suite
cross-checks it against the condition matrix in exact arithmetic.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import InfeasiblePatchError
from .patch import Basis, GeometricPatch, monomial_matrix, slope_lines

DEFAULT_TOL = 1e-9
SUM_OVERFLOW = "controls whose sums leave the double range"

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
        if (len(self.corners), len(self.tangents)) != (4, 8):
            raise ValueError("expected 4 corner values then 8 tangent values")

    @classmethod
    def from_flat(cls, values) -> "HsControls":
        values = tuple(values)
        return cls(values[:4], values[4:])

    def flat(self) -> tuple:
        return self.corners + self.tangents

    @classmethod
    def from_matrix(cls, matrix) -> "HsControls":
        """Extract corners and tangents from a full Hermite control matrix.

        Any twist entries (derived quantities) are ignored; an ndarray's entries
        enter as Python numbers, and a nested list's keep their types.
        """
        return cls.from_flat(np.asarray(matrix, dtype=object).reshape(16)[_HS_POSITIONS].tolist())

    def scale(self) -> float:
        """max(1, max |control|); ValueError for a control that is not a finite double."""
        try:
            values = [abs(float(v)) for v in self.flat()]
        except OverflowError:  # float() of an int or Fraction
            raise ValueError("a control lies beyond the double range") from None
        if not all(map(math.isfinite, values)):  # max() would keep 1.0 over a nan
            raise ValueError("a control is not finite")
        return max(1.0, *values)


@dataclass(frozen=True)
class HsPatchInput:
    """Controls for all three coordinates of a patch."""

    x: HsControls
    y: HsControls
    z: HsControls

    def coords(self) -> dict[str, HsControls]:
        return {"x": self.x, "y": self.y, "z": self.z}


_HS_POSITIONS = [0, 1, 4, 5, 2, 3, 6, 7, 8, 9, 12, 13]  # of HsControls.flat() in a matrix


def patch_inputs(stack: np.ndarray) -> list[HsPatchInput]:
    """One HsPatchInput per patch of a (P, 3, 12) or Hermite (P, 3, 4, 4) stack, by tolist()."""
    rows = stack.reshape(-1, 3, 16)[:, :, _HS_POSITIONS] if stack.ndim == 4 else stack
    v = tuple(rows.ravel().tolist())  # its slices are tuples, which HsControls keeps as they are
    c = iter([HsControls(v[k:k + 4], v[k + 4:k + 12]) for k in range(0, len(v), 12)])
    return [HsPatchInput(*xyz) for xyz in zip(c, c, c)]


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


def _quantities(corners, tangents) -> tuple:
    """(phi, a, b, c, residual) of one coordinate's corners and tangents."""
    x11, x12, x21, x22 = corners
    x13, x14, x23, x24, x31, x32, x41, x42 = tangents
    phi = x11 - x12 - x21 + x22
    a = x14 - x24 + x41 - x42
    b = x13 - x23 + x41 - x42
    c = x31 - x32 - x41 + x42
    return phi, a, b, c, a + b + c + 4 * phi


def _feasible(residual, scale: float, tol: float) -> bool:
    """The feasibility rule: |residual| <= tol * scale, scale = HsControls.scale()."""
    return abs(float(residual)) <= tol * scale


def _projected(tangents: tuple, residual) -> tuple:
    """tangents - (residual/8) * s; the step is a Fraction for exact input."""
    step = Fraction(residual, 8) if isinstance(residual, (int, Fraction)) else residual / 8.0
    return tuple(t - s * step for t, s in zip(tangents, _RESIDUAL_SIGNS))


def _matrix(corners, tangents, phi, a, b) -> list[list]:
    """The 4x4 control matrix, its twists completed from phi, a and b."""
    (x11, x12, x21, x22), t = corners, tangents
    x43, x44 = -(b + phi), -(a + phi)
    return [[x11, x12, t[0], t[1]], [x21, x22, t[2], t[3]],
            [t[4], t[5], 2 * phi - x44, 2 * phi - x43], [t[6], t[7], x43, x44]]


def constraint_report(controls: HsControls, tol: float = DEFAULT_TOL) -> ConstraintReport:
    """Evaluate the tangent constraint for one coordinate.

    Feasibility is scale-relative: |residual| <= tol * max(1, max |control|),
    so the verdict does not depend on the choice of length unit.
    """
    phi, a, b, c, residual = _quantities(controls.corners, controls.tangents)
    scale = controls.scale()
    alpha, beta = (-(a + phi) / (2 * phi), -(b + phi) / (2 * phi)) if phi != 0 else (None, None)
    return ConstraintReport(
        phi=phi, a=a, b=b, c=c, residual=residual, alpha=alpha, beta=beta,
        feasible=_feasible(residual, scale, tol), scale=scale,
    )


def complete_twists(controls: HsControls) -> tuple:
    """Derive (x33, x34, x43, x44) from the 12 controls.

    Uses the direct formulas, never the alpha/beta parametrization, so phi = 0
    needs no special case and exact input types are preserved.
    """
    m = control_matrix(controls)
    return (m[2][2], m[2][3], m[3][2], m[3][3])


def project_tangents(controls: HsControls) -> HsControls:
    """Minimal Euclidean correction of the tangents onto residual = 0.

    Corners are untouched.  The residual gradient over the tangents is the
    fixed sign vector s with |s|^2 = 8, so the closest feasible point is
    t - (residual/8) * s.  Inputs with residual exactly 0 are returned as-is.
    Exact input types stay exact (the step becomes a Fraction).
    """
    residual = _quantities(controls.corners, controls.tangents)[4]
    if residual == 0:
        return controls
    return HsControls(controls.corners, _projected(controls.tangents, residual))


def control_matrix(controls: HsControls) -> list[list]:
    """Assemble the full 4x4 Hermite control matrix, twists filled in.

    Entries keep the input numeric types; wrap in numpy only for evaluation.
    """
    phi, a, b, _, _ = _quantities(controls.corners, controls.tangents)
    return _matrix(controls.corners, controls.tangents, phi, a, b)


def control_vector(matrix) -> tuple:
    """Row-major 16-vector [x11, x12, ..., x44] of a control matrix."""
    return tuple(v for row in matrix for v in row)


@dataclass(frozen=True)
class HsPatch:
    """A constructed patch; `repaired`: PROJECT moved an infeasible coordinate."""

    patch: GeometricPatch
    repaired: bool


def build_hs_patch(inputs: HsPatchInput, policy: Policy = Policy.STRICT,
                   tol: float = DEFAULT_TOL) -> HsPatch:
    """Complete twists for all three coordinates and assemble the patch.

    STRICT raises InfeasiblePatchError (with per-coordinate reports) if any
    coordinate violates the tangent constraint beyond tol.  PROJECT first
    applies the minimal tangent correction wherever needed.  Each coordinate
    is control_matrix(project_tangents(c)) (PROJECT) or control_matrix(c).
    Exact controls beyond the double range raise ValueError, their sums OverflowError.
    """
    if not isinstance(policy, Policy):
        raise ValueError(f"unknown policy {policy!r}")
    rows, bad = [], []
    for name, controls in zip("xyz", (inputs.x, inputs.y, inputs.z)):
        corners, tangents = controls.corners, controls.tangents
        phi, a, b, _, residual = _quantities(corners, tangents)
        try:
            if not _feasible(residual, controls.scale(), tol):
                bad.append(name)
            if policy is Policy.PROJECT and residual != 0:
                tangents = _projected(tangents, residual)
                phi, a, b, _, _ = _quantities(corners, tangents)
            rows.append(np.array(_matrix(corners, tangents, phi, a, b), dtype=float))
        except OverflowError:  # float() of an exact value; named here for the caller
            raise OverflowError(f"{name}: {SUM_OVERFLOW}") from None
        except ValueError as exc:  # from scale()
            raise ValueError(f"{name}: {exc}") from None
    if bad and policy is Policy.STRICT:
        reports = {name: constraint_report(c, tol) for name, c in inputs.coords().items()}
        detail = ", ".join(f"{n}: residual={float(reports[n].residual):.3g}" for n in bad)
        raise InfeasiblePatchError(f"tangent constraint violated ({detail}); use the project"
                                   " policy to repair", reports=reports)
    patch = GeometricPatch(*rows, Basis.HERMITE)
    return HsPatch(patch=patch, repaired=bool(bad))


# The 16 exact unit controls: [k] holds a single 1 at row-major position k.
_UNIT_CONTROLS = np.eye(16, dtype=int).astype(object).reshape(16, 4, 4)


@lru_cache(maxsize=1)
def build_lambda() -> tuple[tuple[Fraction, ...], ...]:
    """The 6x16 exact condition matrix over the row-major control vector.

    Rows 1-3 kill the u^6, u^5, u^4 coefficients of the diagonal restriction,
    rows 4-6 the same for the anti-diagonal.  Derived from the basis matrix
    and the line restriction in exact arithmetic, so every entry is computed.
    """
    monos = monomial_matrix(_UNIT_CONTROLS)  # column k of the forms comes from unit k
    rows = np.concatenate([slope_lines(monos, slope, np.array([offset]))[:, 0, 6:3:-1].T
                           for slope, offset in ((1, 0), (-1, 1))])
    return tuple(map(tuple, rows))


@lru_cache(maxsize=1)
def monomial_condition_forms() -> tuple[tuple[Fraction, ...], ...]:
    """The 5 power-basis conditions as exact forms over the control vector.

    Order: u^3v^3, u^3v^2, u^2v^3, u^2v^2, then u^3v + uv^3.  Spans the same
    row space as build_lambda() (asserted exactly in the tests).
    """
    m = monomial_matrix(_UNIT_CONTROLS)
    rows = (m[:, 3, 3], m[:, 3, 2], m[:, 2, 3], m[:, 2, 2], m[:, 3, 1] + m[:, 1, 3])
    return tuple(map(tuple, rows))
