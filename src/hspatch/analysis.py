"""Degree audits over tessellation edge directions and patch joint checks."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BasisMismatchError
from .patch import (
    Basis,
    GeometricPatch,
    effective_degree,
    eval_patch_jet,
    line_restriction_coeffs,
    monomial_matrix,
)

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
    and the slope +-1 lines through the grid cells.  Horizontal/vertical
    restrictions come straight from the rows/columns of the monomial matrix;
    slope lines go through the exact line restriction.
    """
    if patch.basis is not Basis.HERMITE:
        raise BasisMismatchError("degree audit expects a Hermite-basis patch")
    if grid_n < 1:
        raise ValueError("grid_n must be >= 1")
    n = int(grid_n)
    result = {d: 0 for d in DIRECTIONS}
    monos = [monomial_matrix(c) for c in patch.coords()]

    powers = np.arange(4)
    for k in range(n + 1):
        t = k / n
        tp = t ** powers
        for mono in monos:
            # coefficient vectors (ascending) of u -> x(u, t) and v -> x(t, v)
            horiz = mono @ tp
            vert = tp @ mono
            result["horizontal"] = max(result["horizontal"], effective_degree(horiz[::-1], tol))
            result["vertical"] = max(result["vertical"], effective_degree(vert[::-1], tol))

    for coord in patch.coords():
        for k in range(-(n - 1), n):
            poly = line_restriction_coeffs(coord, 1, k / n)
            result["slope_pos"] = max(result["slope_pos"], poly.effective_degree(tol))
        for k in range(1, 2 * n):
            poly = line_restriction_coeffs(coord, -1, k / n)
            result["slope_neg"] = max(result["slope_neg"], poly.effective_degree(tol))
    return result


def boundary_jet(patch: GeometricPatch, side: Side, t: float):
    """Jet and cross-boundary derivative at edge parameter t of a side."""
    s = 1.0 - t if side.reversed else t
    if side.axis == "u":
        jet = eval_patch_jet(patch, float(side.value), s)
        return jet, jet.du
    jet = eval_patch_jet(patch, s, float(side.value))
    return jet, jet.dv


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

    max_c0 = 0.0
    max_c1 = 0.0
    max_g1 = 0.0
    degenerate = 0
    for k in range(samples):
        t = k / (samples - 1)
        jet_a, ca = boundary_jet(a, side_a, t)
        jet_b, cb = boundary_jet(b, side_b, t)
        max_c0 = max(max_c0, float(np.linalg.norm(jet_a.point - jet_b.point)))
        max_c1 = max(max_c1, float(np.linalg.norm(ca - cross_sign * cb)))

        na, nb = jet_a.normal(), jet_b.normal()
        scale_a = max(1.0, float(np.linalg.norm(jet_a.du) * np.linalg.norm(jet_a.dv)))
        scale_b = max(1.0, float(np.linalg.norm(jet_b.du) * np.linalg.norm(jet_b.dv)))
        la, lb = float(np.linalg.norm(na)), float(np.linalg.norm(nb))
        if la < 1e-12 * scale_a or lb < 1e-12 * scale_b:
            degenerate += 1
            continue
        ua, ub = na / la, nb / lb
        # angle between normal LINES: fold vector angle into [0, pi/2]
        dot = float(np.dot(ua, ub))
        cross = float(np.linalg.norm(np.cross(ua, ub)))
        angle = math.atan2(cross, abs(dot))
        max_g1 = max(max_g1, angle)

    return ContinuityReport(
        max_position_gap=max_c0,
        max_cross_gap=max_c1,
        max_normal_angle=max_g1,
        samples=samples,
        degenerate_normals=degenerate,
        position_ok=max_c0 <= tol_position,
        cross_ok=max_c1 <= tol_cross,
        normal_ok=max_g1 <= tol_normal,
    )
