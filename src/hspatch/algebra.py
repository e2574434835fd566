"""Exact small-matrix arithmetic underpinning the patch kernel.

Cubic curves are written as x(t) = c^T B t_pow with t_pow = [t^3, t^2, t, 1]^T,
so row i of a basis matrix B holds the power coefficients (descending) of the
i-th basis polynomial.  The four constant matrices below are stored as exact
rationals; float copies are derived on demand.

Products, inverses and ranks are exact (arbitrary-precision rationals),
because the constraint-system claims they support must not depend on rounding.
Everything here is immutable and side-effect free.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

import numpy as np

from .errors import SingularMatrixError

FracMatrix = tuple[tuple[Fraction, ...], ...]


def fraction_matrix(rows) -> FracMatrix:
    """Deep-copy `rows` into an immutable matrix of Fractions."""
    return tuple(tuple(Fraction(v) for v in row) for row in rows)


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
BSPLINE_BASIS = tuple(
    tuple(Fraction(v, 6) for v in row)
    for row in [
        [-1, 3, -3, 1],
        [3, -6, 0, 4],
        [-3, 3, 3, 1],
        [1, 0, 0, 0],
    ]
)

def mat_transpose(m: FracMatrix) -> FracMatrix:
    return tuple(zip(*m))


def mat_mul(a, b) -> FracMatrix:
    """Exact product of two rational matrices."""
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def mat_identity(n: int) -> FracMatrix:
    return tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(n))
        for i in range(n)
    )


def mat_inverse_exact(m) -> FracMatrix:
    """Exact inverse of a square rational matrix (Gauss-Jordan)."""
    n = len(m)
    work = [list(row) + list(ident) for row, ident in zip(fraction_matrix(m), mat_identity(n))]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot_row is None:
            raise SingularMatrixError("matrix has no exact inverse")
        work[col], work[pivot_row] = work[pivot_row], work[col]
        pivot = work[col][col]
        work[col] = [v / pivot for v in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [v - factor * p for v, p in zip(work[r], work[col])]
    return tuple(tuple(row[n:]) for row in work)


def to_float(m) -> np.ndarray:
    """Float copy of a rational (or any numeric) matrix."""
    return np.array([[float(v) for v in row] for row in m], dtype=float)


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
        work.append([int(v * den) for v in row])

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
