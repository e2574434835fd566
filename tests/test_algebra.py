from fractions import Fraction

import numpy as np
import pytest

from hspatch import Basis, SingularMatrixError, build_lambda, monomial_matrix, rank_exact
from hspatch.algebra import (
    BEZIER_BASIS,
    BSPLINE_BASIS,
    HERMITE_BASIS,
    fraction_matrix,
    mat_inverse_exact,
)
from hspatch.convert import conversion_matrix_exact
from hspatch.hs import monomial_condition_forms

BASES = [HERMITE_BASIS, BEZIER_BASIS, BSPLINE_BASIS]


def _exact(rows, den=1):
    return [[Fraction(v, den) for v in row] for row in rows]


def _all_fractions(rows) -> bool:
    return all(type(v) is Fraction for row in rows for v in row)


def test_basis_constants_exact():
    assert HERMITE_BASIS.tolist() == _exact([[2, -3, 0, 1], [-2, 3, 0, 0], [1, -2, 1, 0], [1, -1, 0, 0]])
    assert BEZIER_BASIS.tolist() == _exact([[-1, 3, -3, 1], [3, -6, 3, 0], [-3, 3, 0, 0], [1, 0, 0, 0]])
    assert BSPLINE_BASIS.tolist() == _exact(
        [[-1, 3, -3, 1], [3, -6, 0, 4], [-3, 3, 3, 1], [1, 0, 0, 0]], den=6
    )
    assert sum(BSPLINE_BASIS[:, 3]) == 1  # partition of unity at t=0


def test_hermite_value_basis_partition_of_unity():
    mh = HERMITE_BASIS.astype(float)
    for t in np.linspace(0.0, 1.0, 101):
        h1 = np.polyval(mh[0], t)
        h2 = np.polyval(mh[1], t)
        assert abs(h1 + h2 - 1.0) <= 1e-14


def test_fraction_matrix_keeps_floats_exact():
    m = fraction_matrix([[0.1, 3], [Fraction(1, 3), -2]], den=3)
    assert m.tolist() == [[Fraction(0.1) / 3, Fraction(1)], [Fraction(1, 9), Fraction(-2, 3)]]
    assert _all_fractions(m)


def test_mat_inverse_exact_matches_float():
    inv = mat_inverse_exact(HERMITE_BASIS)
    assert np.array_equal(HERMITE_BASIS @ inv, np.eye(4))
    assert _all_fractions(inv)
    assert np.allclose(inv.astype(float), np.linalg.inv(HERMITE_BASIS.astype(float)))


def test_mat_inverse_exact_swaps_rows_for_a_zero_pivot():
    inv = mat_inverse_exact([[0, 2, 0], [1, 0, 0], [0, 0, Fraction(1, 3)]])
    assert inv.tolist() == _exact([[0, 2, 0], [1, 0, 0], [0, 0, 6]], den=2)


def test_mat_inverse_exact_singular():
    with pytest.raises(SingularMatrixError, match="no exact inverse"):
        mat_inverse_exact([[1, 2], [2, 4]])


class TestRankExact:
    def test_zero_matrix(self):
        assert rank_exact([[0] * 16 for _ in range(6)]) == 0

    def test_identity(self):
        assert rank_exact(fraction_matrix(np.eye(4, dtype=int))) == 4

    def test_empty(self):
        assert rank_exact([]) == 0

    def test_fraction_entries(self):
        m = [[Fraction(1, 3), Fraction(2, 3)], [Fraction(2, 3), Fraction(4, 3)]]
        assert rank_exact(m) == 1

    def test_float_entries_stay_exact(self):
        # 0.1 doubles exactly to 0.2, but 3 * 0.1 is not the double 0.3
        assert rank_exact([[0.1, 0.2], [1, 2]]) == 1
        assert rank_exact([[0.1, 0.3], [1, 3]]) == 2

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

    def test_rational_rows_scale_to_integers(self):
        # rows with unlike denominators, of rank 2 exactly
        rows = [[Fraction(1, 6), Fraction(1, 4), Fraction(5, 12)],
                [Fraction(2, 3), 1, Fraction(5, 3)],
                [Fraction(1, 7), 0, Fraction(-3, 14)]]
        assert rank_exact(rows) == 2


def _unit_control(index):
    """Exact 4x4 control matrix with a single 1 at row-major position `index`."""
    return fraction_matrix(np.eye(16, dtype=int)[index].reshape(4, 4))


class TestExactMatMul:
    def test_identity_times_unit_controls(self):
        for k in range(16):
            out = fraction_matrix(np.eye(4, dtype=int)) @ _unit_control(k)
            assert np.array_equal(out, _unit_control(k)) and _all_fractions(out)

    def test_quadratic_form_entry(self):
        # entry (0,0) of B^T X B picks up (first column of B) twice: on the
        # x11 unit matrix the u^3v^3 coefficient is 2 * 2 = 4
        assert monomial_matrix(_unit_control(0))[3, 3] == 4

    def test_zero_matrix(self):
        zeros = fraction_matrix(np.zeros((4, 4), dtype=int))
        for k in range(16):
            assert np.array_equal(_unit_control(k) @ zeros, zeros)

    def test_numeric_times_numeric(self):
        out = HERMITE_BASIS @ mat_inverse_exact(HERMITE_BASIS)
        assert np.array_equal(out, np.eye(4))


# The Hermite basis written out, independent of hspatch.algebra.
HERMITE_FLOAT = np.array([[2.0, -3, 0, 1], [-2, 3, 0, 0], [1, -2, 1, 0], [1, -1, 0, 0]])


class TestExactResultsStayExact:
    def test_condition_forms_are_fractions(self):
        assert _all_fractions(build_lambda())
        assert _all_fractions(monomial_condition_forms())

    @pytest.mark.parametrize("src", list(Basis))
    @pytest.mark.parametrize("dst", list(Basis))
    def test_conversion_matrices_are_fractions(self, src, dst):
        assert _all_fractions(conversion_matrix_exact(src, dst))

    @pytest.mark.parametrize("index", range(len(BASES)))
    def test_basis_constants_are_read_only(self, index):
        with pytest.raises(ValueError, match="read-only"):
            BASES[index][0, 0] = 0
        assert _all_fractions(BASES[index])

    def test_cached_conversion_matrix_is_read_only(self):
        m = conversion_matrix_exact(Basis.BEZIER, Basis.HERMITE)
        with pytest.raises(ValueError, match="read-only"):
            m[0, 0] = 0
        assert conversion_matrix_exact(Basis.BEZIER, Basis.HERMITE)[0, 0] == 1

    def test_inverse_is_read_only(self):
        with pytest.raises(ValueError, match="read-only"):
            mat_inverse_exact(HERMITE_BASIS)[0, 0] = 0

    def test_monomial_matrix_of_an_object_stack(self):
        rng = np.random.default_rng(15)
        stack = fraction_matrix(rng.integers(-20, 21, (16, 4, 4)), den=7)
        got = monomial_matrix(stack)
        assert got.shape == (16, 4, 4) and _all_fractions(got.reshape(-1, 4))
        assert np.array_equal(got, np.stack([monomial_matrix(x) for x in stack]))

    def test_monomial_matrix_of_floats_matches_written_out_basis(self):
        rng = np.random.default_rng(16)
        xs = rng.normal(size=(50, 4, 4)) * 10.0 ** rng.integers(-8, 9, (50, 1, 1))
        want = np.stack([(HERMITE_FLOAT.T @ x @ HERMITE_FLOAT)[::-1, ::-1] for x in xs])
        assert monomial_matrix(xs).dtype == float
        assert monomial_matrix(xs).tobytes() == want.tobytes()
        assert all(monomial_matrix(x).tobytes() == w.tobytes() for x, w in zip(xs, want))
        assert monomial_matrix(xs[0].tolist()).tobytes() == want[0].tobytes()
