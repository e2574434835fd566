"""Exact small-matrix arithmetic underpinning the patch kernel.

Cubic curves are written as x(t) = c^T B t_pow with t_pow = [t^3, t^2, t, 1]^T,
so row i of a basis matrix B holds the power coefficients (descending) of the
i-th basis polynomial.  The three constant matrices below are read-only numpy
object arrays of exact rationals; `@` multiplies them exactly and
`.astype(float)` gives float copies.

Inverses and ranks are exact (arbitrary-precision rationals), because the
constraint-system claims they support must not depend on rounding.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

import numpy as np

from .errors import SingularMatrixError


def fraction_matrix(rows, den=1) -> np.ndarray:
    """Read-only object array of the exact values rows[i][j] / den, as Fractions."""
    m = np.frompyfunc(Fraction, 1, 1)(np.array(rows, dtype=object)) / den
    m.setflags(write=False)
    return m


# Hermite: controls are [P(0), P(1), P'(0), P'(1)].
HERMITE_BASIS = fraction_matrix([
    [2, -3, 0, 1],
    [-2, 3, 0, 0],
    [1, -2, 1, 0],
    [1, -1, 0, 0],
])

# Bernstein/Bezier cubic basis.
BEZIER_BASIS = fraction_matrix([
    [-1, 3, -3, 1],
    [3, -6, 3, 0],
    [-3, 3, 0, 0],
    [1, 0, 0, 0],
])

# Uniform cubic B-spline segment basis (one span, knots 0..1).
BSPLINE_BASIS = fraction_matrix([
    [-1, 3, -3, 1],
    [3, -6, 0, 4],
    [-3, 3, 3, 1],
    [1, 0, 0, 0],
], den=6)


def mat_inverse_exact(m) -> np.ndarray:
    """Exact inverse of a square rational matrix (Gauss-Jordan), read-only."""
    n = len(m)
    work = np.concatenate([fraction_matrix(m), fraction_matrix(np.eye(n, dtype=int))], axis=1)
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if work[r, col] != 0), None)
        if pivot_row is None:
            raise SingularMatrixError("matrix has no exact inverse")
        work[[col, pivot_row]] = work[[pivot_row, col]]
        work[col] /= work[col, col]
        others = np.arange(n) != col
        work[others] -= np.outer(work[others, col], work[col])
    return fraction_matrix(work[:, n:])


def rank_exact(matrix) -> int:
    """Exact rank of a rational matrix via fraction-free elimination.

    Rows are first scaled to integers (rank-preserving), then reduced with
    Bareiss-style pivoting.  Pivot selection is deterministic: columns are
    scanned left to right and the first row with a nonzero entry wins.
    """
    rows = [[Fraction(v) for v in row] for row in matrix]
    if not rows:
        return 0
    ncols = len(rows[0])
    work = []
    for row in rows:
        den = lcm(*(v.denominator for v in row)) if row else 1
        work.append([v.numerator * (den // v.denominator) for v in row])

    nrows = len(work)
    rank = 0
    prev_pivot = 1
    for col in range(ncols):
        pivot_row = next((r for r in range(rank, nrows) if work[r][col] != 0), None)
        if pivot_row is None:
            continue
        work[rank], work[pivot_row] = work[pivot_row], work[rank]
        pivot = work[rank][col]
        for r in range(rank + 1, nrows):
            factor = work[r][col]
            for c in range(col + 1, ncols):
                work[r][c] = (pivot * work[r][c] - factor * work[rank][c]) // prev_pivot
            work[r][col] = 0
        prev_pivot = pivot
        rank += 1
        if rank == nrows:
            break
    return rank
