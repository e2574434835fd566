"""Bicubic patches, their jets on parameter grids, and parameter-line restrictions.

Control matrix convention (Hermite basis).  A patch coordinate is
x(u, v) = h(u)^T X h(v) with h the Hermite basis 4-vector, and X laid out in
2x2 blocks:

    X = [ corner values        | d/dv at corners   ]
        [ d/du at corners      | d2/dudv (twists)  ]

so x11 = P(0,0), x12 = P(0,1), x21 = P(1,0), x22 = P(1,1), x13 = P_v(0,0),
x14 = P_v(0,1), x23 = P_v(1,0), x24 = P_v(1,1), x31 = P_u(0,0),
x32 = P_u(0,1), x41 = P_u(1,0), x42 = P_u(1,1), x33..x44 the mixed partials
at (0,0), (0,1), (1,0), (1,1).

A "line restriction" is the exact univariate polynomial obtained by fixing
v = slope*u + offset with slope +-1; generic bicubics restrict to degree 6 on
such lines while their boundary curves stay cubic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import comb, isfinite

import numpy as np

from . import algebra
from .errors import BasisMismatchError


class Basis(enum.Enum):
    HERMITE = "hermite"
    BEZIER = "bezier"
    BSPLINE = "bspline"


_BASIS_EXACT = {
    Basis.HERMITE: algebra.HERMITE_BASIS,
    Basis.BEZIER: algebra.BEZIER_BASIS,
    Basis.BSPLINE: algebra.BSPLINE_BASIS,
}
_BASIS_FLOAT = {b: algebra.to_float(m) for b, m in _BASIS_EXACT.items()}


@dataclass(frozen=True)
class GeometricPatch:
    """One bicubic patch: a 4x4 control matrix per spatial coordinate."""

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    basis: Basis = Basis.HERMITE

    def __post_init__(self):
        for name in ("x", "y", "z"):
            m = np.array(getattr(self, name), dtype=float)
            if m.shape != (4, 4):
                raise ValueError(f"control matrix {name} must be 4x4, got {m.shape}")
            if not np.all(np.isfinite(m)):
                raise ValueError(f"control matrix {name} contains non-finite entries")
            m.setflags(write=False)
            object.__setattr__(self, name, m)

    def coords(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.x, self.y, self.z

    def translated(self, delta) -> "GeometricPatch":
        """Shift the patch by a 3-vector (adds to corner-value block only).

        Only valid in the Hermite basis, where derivatives are unaffected by
        translation.  In Bezier/BSpline all controls are points, so the whole
        matrices shift.
        """
        dx, dy, dz = (float(d) for d in delta)
        if self.basis is Basis.HERMITE:
            mask = np.zeros((4, 4))
            mask[:2, :2] = 1.0
        else:
            mask = np.ones((4, 4))
        return GeometricPatch(
            self.x + dx * mask, self.y + dy * mask, self.z + dz * mask, self.basis
        )


@dataclass(frozen=True)
class PatchJet:
    """Point and first partials of a patch; xyz on the last axis of each field."""

    point: np.ndarray
    du: np.ndarray
    dv: np.ndarray


def unit_normals(du, dv) -> tuple[np.ndarray, np.ndarray]:
    """Normalized du x dv along the last axis, and the mask where it degenerates.

    A normal is degenerate when |du x dv| < 1e-12 * max(1, |du| |dv|); it is
    returned as the zero vector there.
    """
    raw = np.cross(du, dv)
    lengths = np.linalg.norm(raw, axis=-1)
    # fmax ignores a NaN product (an overflowed tangent), so the floor of 1 stands
    scales = np.fmax(1.0, np.linalg.norm(du, axis=-1) * np.linalg.norm(dv, axis=-1))
    degenerate = lengths < 1e-12 * scales
    normals = raw / np.where(degenerate, 1.0, lengths)[..., None]
    normals[degenerate] = 0.0
    return normals, degenerate


def eval_patch_jet(patch: GeometricPatch, u, v) -> PatchJet:
    """Position and first partials of a Hermite-basis patch on the grid u x v.

    Each of u and v is a scalar or a 1-D array.  The fields have shape
    (len(u), len(v), 3), with the axis of a scalar parameter dropped.
    """
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    if u.ndim > 1 or v.ndim > 1:
        raise ValueError("u and v must be scalars or 1-D arrays")
    index = tuple(0 if t.ndim == 0 else slice(None) for t in (u, v))
    return PatchJet(*(f[index] for f in eval_patch_grid(patch, u.reshape(-1), v.reshape(-1))))


def eval_patch_grid(patch: GeometricPatch, us, vs):
    """Vectorized jet evaluation on a parameter grid.

    Returns (P, Pu, Pv) arrays of shape (len(us), len(vs), 3).
    """
    if patch.basis is not Basis.HERMITE:
        raise BasisMismatchError(
            f"jet evaluation expects a Hermite-basis patch, got {patch.basis.value!r}"
        )
    us, vs = np.asarray(us, dtype=float), np.asarray(vs, dtype=float)
    # written so that a NaN parameter fails the check too
    if not (np.all((us >= 0.0) & (us <= 1.0)) and np.all((vs >= 0.0) & (vs <= 1.0))):
        raise ValueError("patch parameter outside [0, 1]")
    m = _BASIS_FLOAT[Basis.HERMITE]
    pow_u = np.stack([us ** 3, us ** 2, us, np.ones_like(us)], axis=1)
    dpow_u = np.stack([3 * us ** 2, 2 * us, np.ones_like(us), np.zeros_like(us)], axis=1)
    pow_v = np.stack([vs ** 3, vs ** 2, vs, np.ones_like(vs)], axis=1)
    dpow_v = np.stack([3 * vs ** 2, 2 * vs, np.ones_like(vs), np.zeros_like(vs)], axis=1)
    hu, dhu = pow_u @ m.T, dpow_u @ m.T
    hv, dhv = pow_v @ m.T, dpow_v @ m.T
    p = np.stack([hu @ c @ hv.T for c in patch.coords()], axis=-1)
    pu = np.stack([dhu @ c @ hv.T for c in patch.coords()], axis=-1)
    pv = np.stack([hu @ c @ dhv.T for c in patch.coords()], axis=-1)
    return p, pu, pv


def monomial_matrix(control) -> np.ndarray:
    """Power-basis coefficients of one Hermite patch coordinate.

    Entry [p, q] multiplies u^p v^q (ascending exponents).  This is the single
    internal representation used for every line restriction.
    """
    x = np.asarray(control, dtype=float)
    m = _BASIS_FLOAT[Basis.HERMITE]
    descending = m.T @ x @ m  # entry (i, j) multiplies u^(3-i) v^(3-j)
    return descending[::-1, ::-1].copy()


def monomial_matrix_exact(control):
    """Exact-rational version of monomial_matrix for int/Fraction controls."""
    m = _BASIS_EXACT[Basis.HERMITE]
    descending = algebra.mat_mul(algebra.mat_mul(algebra.mat_transpose(m), control), m)
    return tuple(tuple(descending[3 - p][3 - q] for q in range(4)) for p in range(4))


@dataclass(frozen=True)
class DiagonalPoly:
    """Restriction of a patch coordinate to a slope +-1 parameter line.

    `coeffs` holds a6..a0, descending powers of u, for x(u, slope*u + offset).
    """

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.shape != (7,):
            raise ValueError("diagonal polynomial has exactly 7 coefficients")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    def __call__(self, t):
        return np.polyval(self.coeffs, t)


def effective_degree(coeffs, tol: float = 1e-9):
    """Highest power whose coefficient exceeds tol * max(1, max |coeff|).

    Coefficients are descending along the last axis; an array of
    polynomials gives an array of degrees.  Scale-relative so unit choices do
    not change verdicts; an all-zero polynomial reports degree 0.
    """
    c = np.abs(np.asarray(coeffs, dtype=float))
    # fmax ignores a NaN maximum, so the floor of 1 stands
    scale = np.fmax(1.0, c.max(axis=-1, initial=0.0))
    above = c > tol * scale[..., None]
    degree = np.where(above.any(axis=-1), c.shape[-1] - 1 - above.argmax(axis=-1), 0)
    return int(degree) if degree.ndim == 0 else degree


def _line_interval(slope: int, offset: float) -> tuple[float, float]:
    """u-interval on which (u, slope*u + offset) stays inside the unit square."""
    if slope not in (1, -1):
        raise ValueError("only slopes +1 and -1 are supported")
    if not isfinite(offset):  # max() and min() below would pass a NaN through
        raise ValueError(f"line offset must be finite, got {offset!r}")
    if slope == 1:
        lo, hi = max(0.0, -offset), min(1.0, 1.0 - offset)
    else:
        lo, hi = max(0.0, offset - 1.0), min(1.0, offset)
    return lo, hi


def _slope_weights(slope: int) -> np.ndarray:
    # (slope*u + c)^q holds C(q, m) slope^m c^(q-m) u^m: [p, q] -> [p + m, q - m]
    w = np.zeros((4, 4, 7, 4), dtype=np.int64)
    for p, q in np.ndindex(4, 4):
        for m in range(q + 1):
            w[p, q, p + m, q - m] = comb(q, m) * slope ** m
    return w.reshape(16, 28)


_SLOPE_WEIGHTS = {1: _slope_weights(1), -1: _slope_weights(-1)}


def slope_lines(monos, slope: int, offsets) -> np.ndarray:
    """Restrictions of monomial matrices to the lines v = slope*u + c, c in offsets.

    monos has shape (..., 4, 4) and offsets is 1-D; the result has shape
    (..., line, 7), ascending powers of u.  The weights are integers, so
    object arrays of Fraction entries and offsets give exact coefficients.
    """
    batch = monos.shape[:-2]
    per_offset_power = (monos.reshape(*batch, 16) @ _SLOPE_WEIGHTS[slope]).reshape(*batch, 7, 4)
    return (per_offset_power @ (offsets[:, None] ** np.arange(4)).T).swapaxes(-1, -2)


def line_restriction_coeffs(control, slope: int, offset: float = 0.0) -> DiagonalPoly:
    """Exact polynomial of one coordinate along the line v = slope*u + offset.

    The monomial matrix is expanded with binomial weights (slope_lines); no
    sampling is involved.  slope=+1/offset=0 is the main diagonal,
    slope=-1/offset=1 the anti-diagonal, other offsets cover tessellation
    edge lines.
    """
    lo, hi = _line_interval(slope, offset)
    if hi < lo:
        raise ValueError(f"line v = {int(slope):+d}*u + {offset} misses the unit square")
    return DiagonalPoly(slope_lines(monomial_matrix(control), slope, np.array([offset]))[0, ::-1])


def fit_line_oracle(control, slope: int, offset: float = 0.0) -> DiagonalPoly:
    """Independent check of line_restriction_coeffs by sampling.

    Evaluates the coordinate at 7 distinct parameters on the line and solves
    the 7x7 Vandermonde system, touching none of the symbolic-substitution
    code path.
    """
    lo, hi = _line_interval(slope, offset)
    if hi - lo <= 1e-9:
        raise ValueError("line segment inside the unit square is too short for 7 samples")
    x = np.asarray(control, dtype=float)
    m = _BASIS_FLOAT[Basis.HERMITE]
    ts = np.linspace(lo, hi, 7)
    vs = slope * ts + offset
    hu = np.stack([ts ** 3, ts ** 2, ts, np.ones_like(ts)], axis=1) @ m.T
    hv = np.stack([vs ** 3, vs ** 2, vs, np.ones_like(vs)], axis=1) @ m.T
    samples = np.einsum("ki,ij,kj->k", hu, x, hv)
    vander = np.vander(ts, 7)  # descending powers
    coeffs = np.linalg.solve(vander, samples)
    return DiagonalPoly(coeffs)
