"""Degree audits over tessellation edge directions and patch joint checks."""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import patch as _patch
from .errors import BasisMismatchError
from .patch import (Basis, GeometricPatch, effective_degree, eval_patch_jet, monomial_matrix,
                    slope_lines, unit_normals)

# Not called here: perfbench/trace_cli.py wraps this name, so it must resolve.
line_restriction_coeffs = _patch.line_restriction_coeffs

DIRECTIONS = ("horizontal", "vertical", "slope_pos", "slope_neg")


@dataclass(frozen=True)
class Side:
    """One boundary curve of a patch.

    axis/value name the fixed parameter ("u", 0 means the u = 0 curve);
    `reversed` flips the along-edge parameter when matching samples against
    the other patch.
    """

    axis: str
    value: int
    reversed: bool = False

    def __post_init__(self):
        if self.axis not in ("u", "v") or self.value not in (0, 1):
            raise ValueError(f"invalid side {self.axis}{self.value}")

    @classmethod
    def parse(cls, name: str) -> "Side":
        """Parse "u0", "u1", "v0", "v1", optionally suffixed with "r"."""
        s = name.strip().lower()
        rev = s.endswith("r")
        if rev:
            s = s[:-1]
        if len(s) != 2 or s[0] not in "uv" or s[1] not in "01":
            raise ValueError(f"invalid side name {name!r}")
        return cls(s[0], int(s[1]), rev)

    def __str__(self):
        return f"{self.axis}{self.value}" + ("r" if self.reversed else "")


@dataclass(frozen=True)
class ContinuityReport:
    """Worst-case gaps between two patch sides over the sampled parameters.

    max_normal_angle measures tangent-plane deviation in radians (angle
    between the normal lines, insensitive to normal orientation), so a
    parametric C1 match always implies a G1 pass.
    """

    max_position_gap: float
    max_cross_gap: float
    max_normal_angle: float
    samples: int
    degenerate_normals: int
    position_ok: bool
    cross_ok: bool
    normal_ok: bool


def degree_audit(patch: GeometricPatch, grid_n: int, tol: float = 1e-9) -> dict[str, int]:
    """Max effective degree of every tessellation edge direction.

    For an n x n grid the edge lines are the n+1 horizontals, n+1 verticals,
    and the slope +-1 lines through the grid cells.  Each is restricted in
    closed form: monomial matrices times powers of the line parameters, or,
    for slope lines, binomial weights times powers of the offsets.
    """
    if patch.basis is not Basis.HERMITE:
        raise BasisMismatchError("degree audit expects a Hermite-basis patch")
    if grid_n < 1:
        raise ValueError("grid_n must be >= 1")
    n = int(grid_n)
    powers = (np.arange(n + 1) / n)[:, None] ** np.arange(4)  # [line, power]
    # an overflow would make the degree threshold infinite, so it is an error
    with np.errstate(over="ignore", invalid="ignore"):
        monos = np.stack([monomial_matrix(c) for c in patch.coords()])  # [coord, p, q]
        lines = {  # [coord, line, ascending coefficient]
            "horizontal": (monos @ powers.T).swapaxes(1, 2),
            "vertical": powers @ monos,
            "slope_pos": slope_lines(monos, 1, np.arange(-(n - 1), n) / n),
            "slope_neg": slope_lines(monos, -1, np.arange(1, 2 * n) / n),
        }
    if not all(np.all(np.isfinite(c)) for c in (monos, *lines.values())):
        raise ValueError("degree audit: polynomial coefficients overflow the float range")
    return {d: int(np.max(effective_degree(c[..., ::-1], tol))) for d, c in lines.items()}


def continuity_check(a: GeometricPatch, side_a: Side, b: GeometricPatch, side_b: Side,
                     samples: int = 33, tol_position: float = 1e-9,
                     tol_cross: float = 1e-9, tol_normal: float = 1e-6) -> ContinuityReport:
    """Compare two patch sides at equally spaced boundary parameters.

    Position gap is the Euclidean distance between corresponding boundary
    points.  The cross-derivative comparison is orientation-corrected: when
    the sides sit at opposite parameter values (one at 0, one at 1) the cross
    derivatives point the same way across the seam and are differenced;
    when they sit at equal values they oppose and are summed.  Normal-line
    angles are skipped (and counted) at samples where a surface normal
    degenerates.
    """
    if samples < 2:
        raise ValueError("need at least 2 boundary samples")
    cross_sign = 1.0 if side_a.value != side_b.value else -1.0
    t = np.arange(samples) / (samples - 1)

    def side_jet(patch, side):  # the jet and the cross-boundary derivative
        s, fixed = (1.0 - t if side.reversed else t), float(side.value)
        if side.axis == "u":
            return (jet := eval_patch_jet(patch, fixed, s)), jet.du
        return (jet := eval_patch_jet(patch, s, fixed)), jet.dv

    (jet_a, ca), (jet_b, cb) = side_jet(a, side_a), side_jet(b, side_b)
    norm = partial(np.linalg.norm, axis=1)
    (na, dega), (nb, degb) = unit_normals(jet_a.du, jet_a.dv), unit_normals(jet_b.du, jet_b.dv)
    degenerate = dega | degb
    ua, ub = na[~degenerate], nb[~degenerate]
    # angle between normal LINES: fold vector angle into [0, pi/2]
    angles = np.arctan2(norm(np.cross(ua, ub)), np.abs(np.sum(ua * ub, axis=1)))
    # fmax skips a NaN gap (an overflowed sample) rather than reporting it
    max_c0, max_c1, max_g1 = (
        float(np.fmax.reduce(x, initial=0.0))
        for x in (norm(jet_a.point - jet_b.point), norm(ca - cross_sign * cb), angles)
    )
    return ContinuityReport(
        max_position_gap=max_c0, max_cross_gap=max_c1, max_normal_angle=max_g1,
        samples=samples, degenerate_normals=int(np.count_nonzero(degenerate)),
        position_ok=max_c0 <= tol_position, cross_ok=max_c1 <= tol_cross,
        normal_ok=max_g1 <= tol_normal,
    )
