from fractions import Fraction

import numpy as np

from hspatch import rank_exact
from hspatch.algebra import (
    BEZIER_BASIS,
    BSPLINE_BASIS,
    HERMITE_BASIS,
    PARAM_REVERSAL,
    mat_identity,
    mat_inverse_exact,
    mat_mul,
    to_float,
)
from hspatch.patch import monomial_matrix_exact


def _exact(rows, den=1):
    return tuple(tuple(Fraction(v, den) for v in row) for row in rows)


def test_basis_constants_exact():
    assert HERMITE_BASIS == _exact([[2, -3, 0, 1], [-2, 3, 0, 0], [1, -2, 1, 0], [1, -1, 0, 0]])
    assert BEZIER_BASIS == _exact([[-1, 3, -3, 1], [3, -6, 3, 0], [-3, 3, 0, 0], [1, 0, 0, 0]])
    assert BSPLINE_BASIS == _exact(
        [[-1, 3, -3, 1], [3, -6, 0, 4], [-3, 3, 3, 1], [1, 0, 0, 0]], den=6
    )
    assert PARAM_REVERSAL == _exact([[-1, 3, -3, 1], [0, 1, -2, 1], [0, 0, -1, 1], [0, 0, 0, 1]])
    assert sum(BSPLINE_BASIS[i][3] for i in range(4)) == 1  # partition of unity at t=0


def test_param_reversal_is_involution():
    assert mat_mul(PARAM_REVERSAL, PARAM_REVERSAL) == mat_identity(4)


def test_hermite_value_basis_partition_of_unity():
    mh = to_float(HERMITE_BASIS)
    for t in np.linspace(0.0, 1.0, 101):
        h1 = np.polyval(mh[0], t)
        h2 = np.polyval(mh[1], t)
        assert abs(h1 + h2 - 1.0) <= 1e-14


def test_mat_inverse_exact_matches_float():
    inv = mat_inverse_exact(HERMITE_BASIS)
    assert mat_mul(HERMITE_BASIS, inv) == mat_identity(4)
    assert np.allclose(to_float(inv), np.linalg.inv(to_float(HERMITE_BASIS)))


class TestRankExact:
    def test_zero_matrix(self):
        assert rank_exact([[0] * 16 for _ in range(6)]) == 0

    def test_identity(self):
        assert rank_exact(mat_identity(4)) == 4

    def test_empty(self):
        assert rank_exact([]) == 0

    def test_fraction_entries(self):
        m = [[Fraction(1, 3), Fraction(2, 3)], [Fraction(2, 3), Fraction(4, 3)]]
        assert rank_exact(m) == 1

    def test_random_low_rank_products(self):
        # construct m x n integer matrices of known rank k as A @ B
        rng = np.random.default_rng(7)
        for _ in range(100):
            k = int(rng.integers(0, 7))
            m, n = int(rng.integers(max(k, 1), 9)), int(rng.integers(max(k, 1), 9))
            if k == 0:
                mat = np.zeros((m, n), dtype=int)
            else:
                a = rng.integers(-4, 5, size=(m, k))
                b = rng.integers(-4, 5, size=(k, n))
                mat = a @ b
            expected = np.linalg.matrix_rank(mat.astype(float)) if mat.size else 0
            assert rank_exact(mat.tolist()) == expected


def _unit_control(index):
    """Exact 4x4 control matrix with a single 1 at row-major position `index`."""
    return tuple(
        tuple(Fraction(int(4 * i + j == index)) for j in range(4)) for i in range(4)
    )


class TestExactMatMul:
    def test_identity_times_unit_controls(self):
        for k in range(16):
            assert mat_mul(mat_identity(4), _unit_control(k)) == _unit_control(k)

    def test_quadratic_form_entry(self):
        # entry (0,0) of B^T X B picks up (first column of B) twice: on the
        # x11 unit matrix the u^3v^3 coefficient is 2 * 2 = 4
        assert monomial_matrix_exact(_unit_control(0))[3][3] == 4

    def test_zero_matrix(self):
        zeros = tuple(tuple(Fraction(0) for _ in range(4)) for _ in range(4))
        for k in range(16):
            assert mat_mul(_unit_control(k), zeros) == zeros

    def test_numeric_times_numeric(self):
        out = mat_mul(HERMITE_BASIS, mat_inverse_exact(HERMITE_BASIS))
        assert out == mat_identity(4)
