from fractions import Fraction

import numpy as np
import pytest

from hspatch import (
    Basis,
    GeometricPatch,
    conversion_matrix,
    convert_patch,
    degree_audit,
)
from hspatch.convert import conversion_matrix_exact, convert_controls

from conftest import UV_X, UV_Y, UV_Z, e11_matrix, random_feasible_controls
from hspatch.hs import control_matrix

ALL_BASES = [Basis.HERMITE, Basis.BEZIER, Basis.BSPLINE]

# The documented cubic bases, written out so that evaluation here shares no
# code with the package: row i holds the descending power coefficients of the
# i-th basis polynomial, and a curve is c @ B @ [t^3, t^2, t, 1].
DOCUMENTED_BASES = {
    Basis.HERMITE: np.array([[2, -3, 0, 1], [-2, 3, 0, 0], [1, -2, 1, 0], [1, -1, 0, 0]]),
    Basis.BEZIER: np.array([[-1, 3, -3, 1], [3, -6, 3, 0], [-3, 3, 0, 0], [1, 0, 0, 0]]),
    Basis.BSPLINE: np.array([[-1, 3, -3, 1], [3, -6, 0, 4], [-3, 3, 3, 1], [1, 0, 0, 0]]) / 6,
}
# Controls of the constant function 1 in each basis; the first entry is 1 in all
ONE = {Basis.HERMITE: [1, 1, 0, 0], Basis.BEZIER: [1, 1, 1, 1], Basis.BSPLINE: [1, 1, 1, 1]}


def weights(basis, ts):
    ts = np.asarray(ts, dtype=float)
    return np.stack([ts ** 3, ts ** 2, ts, np.ones_like(ts)], axis=-1) @ DOCUMENTED_BASES[basis].T


def evaluate(patch, us, vs):
    """x, y, z of a patch on the grid us x vs, in the patch's own basis."""
    hu, hv = weights(patch.basis, us), weights(patch.basis, vs)
    return np.stack([hu @ c @ hv.T for c in patch.coords()], axis=-1)


def converted_curve(control, src, dst):
    """Convert a cubic curve as the patch x(u, v) = c(u), which is constant in v.

    Its control matrix is outer(c, ONE[src]); after conversion the first
    column holds the curve's controls in dst.
    """
    m = np.outer(control, ONE[src]).astype(float)
    return convert_patch(GeometricPatch(m, m, m, src), dst).x[:, 0]


class TestConversionMatrix:
    def test_identity_conversion(self):
        assert np.array_equal(conversion_matrix(Basis.HERMITE, Basis.HERMITE), np.eye(4))

    def test_bezier_to_hermite_derived_entries(self):
        # controls map as [b0, b1, b2, b3] -> [b0, b3, 3(b1-b0), 3(b3-b2)]
        expected = np.array([
            [1, 0, -3, 0],
            [0, 0, 3, 0],
            [0, 0, 0, -3],
            [0, 1, 0, 3],
        ], dtype=float)
        assert np.array_equal(conversion_matrix(Basis.BEZIER, Basis.HERMITE), expected)

    def test_bspline_to_hermite_derived_entries(self):
        expected = np.array([
            [1, 0, -3, 0],
            [4, 1, 0, -3],
            [1, 4, 3, 0],
            [0, 1, 0, 3],
        ], dtype=float) / 6.0
        assert np.allclose(conversion_matrix(Basis.BSPLINE, Basis.HERMITE), expected,
                           rtol=0, atol=1e-16)

    @pytest.mark.parametrize("a", ALL_BASES)
    @pytest.mark.parametrize("b", ALL_BASES)
    def test_round_trips_are_exact_inverses(self, a, b):
        fwd = conversion_matrix_exact(a, b)
        back = conversion_matrix_exact(b, a)
        prod = [[sum(x * y for x, y in zip(row, col)) for col in zip(*back)] for row in fwd]
        assert prod == [[Fraction(int(i == j)) for j in range(4)] for i in range(4)]
        float_prod = conversion_matrix(a, b) @ conversion_matrix(b, a)
        assert np.max(np.abs(float_prod - np.eye(4))) <= 1e-12

    def test_endpoint_identities_symbolic(self):
        # P(0)=b0, P(1)=b3, P'(0)=3(b1-b0), P'(1)=3(b3-b2) as exact columns
        m = conversion_matrix_exact(Basis.BEZIER, Basis.HERMITE)
        cols = list(zip(*m))
        assert cols[0] == (1, 0, 0, 0)
        assert cols[1] == (0, 0, 0, 1)
        assert cols[2] == (-3, 3, 0, 0)
        assert cols[3] == (0, 0, -3, 3)


class TestConvertCurve:
    def test_bezier_ramp(self):
        out = converted_curve([0, 1, 2, 3], Basis.BEZIER, Basis.HERMITE)
        assert np.array_equal(out, [0.0, 3.0, 3.0, 3.0])

    def test_bspline_partition_of_unity(self):
        out = converted_curve([1, 1, 1, 1], Basis.BSPLINE, Basis.HERMITE)
        assert out == pytest.approx([1.0, 1.0, 0.0, 0.0], abs=1e-15)

    def test_identity(self):
        c = np.array([0.5, -1.5, 2.0, 7.0])
        assert np.array_equal(converted_curve(c, Basis.BSPLINE, Basis.BSPLINE), c)

    def test_evaluation_invariance(self):
        rng = np.random.default_rng(21)
        ts = np.linspace(0, 1, 33)
        for _ in range(50):
            c = rng.uniform(-3, 3, size=4)
            for src in ALL_BASES:
                for dst in ALL_BASES:
                    out = converted_curve(c, src, dst)
                    before = weights(src, ts) @ c
                    after = weights(dst, ts) @ out
                    scale = max(1.0, np.max(np.abs(before)))
                    assert np.max(np.abs(before - after)) <= 1e-12 * scale


class TestConvertPatch:
    def test_uv_patch_bezier_net(self, uv_patch):
        bez = convert_patch(uv_patch, Basis.BEZIER)
        grid = np.arange(4) / 3.0
        assert bez.z == pytest.approx(np.outer(grid, grid), abs=1e-15)
        assert bez.basis is Basis.BEZIER

    def test_round_trip_random_patches(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            m = rng.uniform(-2, 2, size=(4, 4))
            p = GeometricPatch(m, m, m, Basis.HERMITE)
            rt = convert_patch(convert_patch(p, Basis.BEZIER), Basis.HERMITE)
            assert np.max(np.abs(rt.x - p.x)) <= 1e-12
            rt2 = convert_patch(convert_patch(p, Basis.BSPLINE), Basis.HERMITE)
            assert np.max(np.abs(rt2.x - p.x)) <= 1e-12

    def test_constant_patch_evaluates_constant_in_any_basis(self):
        k = -3.25
        m = np.zeros((4, 4))
        m[:2, :2] = k
        p = GeometricPatch(m, m, m, Basis.HERMITE)
        for dst in ALL_BASES:
            q = convert_patch(p, dst)
            assert evaluate(q, [0, 0.25, 1], [0, 0.75, 1]) == pytest.approx(
                np.full((3, 3, 3), k), abs=1e-13)

    def test_evaluation_invariance_on_grid(self, uv_patch):
        rng = np.random.default_rng(23)
        samples = np.linspace(0, 1, 9)
        for _ in range(20):
            mats = [rng.uniform(-2, 2, size=(4, 4)) for _ in range(3)]
            p = GeometricPatch(*mats, Basis.HERMITE)
            before = evaluate(p, samples, samples)
            for dst in ALL_BASES:
                after = evaluate(convert_patch(p, dst), samples, samples)
                scale = np.fmax(1.0, np.max(np.abs(before), axis=-1, keepdims=True))
                assert np.all(np.abs(before - after) <= 1e-12 * scale)

    def test_round_trip_preserves_cubic_diagonal_property(self):
        rng = np.random.default_rng(24)
        hs = np.array(control_matrix(random_feasible_controls(rng)), dtype=float)
        for case, degree in ((hs, 3), (e11_matrix(), 6)):
            p = GeometricPatch(case, case, case, Basis.HERMITE)
            rt = convert_patch(convert_patch(p, Basis.BSPLINE), Basis.HERMITE)
            assert max(degree_audit(p, 4).values()) == degree
            assert max(degree_audit(rt, 4).values()) == degree


class TestConvertControls:
    @pytest.mark.parametrize("dst", ALL_BASES, ids=[b.value for b in ALL_BASES])
    @pytest.mark.parametrize("src", ALL_BASES, ids=[b.value for b in ALL_BASES])
    def test_stack_matches_per_matrix_product_bitwise(self, src, dst):
        rng = np.random.default_rng(31)
        # mixed magnitudes, signed zeros and extremes, so that rounding shows
        stack = rng.uniform(-2, 2, size=(40, 3, 4, 4)) * 10.0 ** rng.integers(
            -12, 12, size=(40, 3, 1, 1))
        stack[0, 0] = -0.0
        stack[1, 1, 0, 0], stack[1, 1, 3, 3] = 5e-324, -1.7976931348623157e308
        c = conversion_matrix(src, dst)
        with np.errstate(over="ignore", invalid="ignore"):  # the extremes may overflow
            got = convert_controls(stack, src, dst)
            want = (np.array(stack) if src is dst else
                    np.array([[c.T @ m @ c for m in patch] for patch in stack]))
        assert got.shape == stack.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        for k in (0, 2, 39):
            patch = convert_patch(GeometricPatch(*stack[k], src), dst)
            assert patch.basis is dst
            assert np.array_equal(np.stack(patch.coords()).view(np.uint64),
                                  want[k].view(np.uint64))

    def test_same_basis_keeps_signed_zero_and_copies(self):
        stack = np.full((2, 3, 4, 4), -0.0)
        got = convert_controls(stack, Basis.BEZIER, Basis.BEZIER)
        assert np.all(np.signbit(got))
        got[0, 0, 0, 0] = 1.0
        assert stack[0, 0, 0, 0] == 0.0
        # the identity product would lose the sign
        eye = conversion_matrix(Basis.BEZIER, Basis.BEZIER)
        assert not np.any(np.signbit(eye.T @ stack[0, 0] @ eye))

    def test_empty_stack(self):
        empty = np.zeros((0, 3, 4, 4))
        assert convert_controls(empty, Basis.HERMITE, Basis.BSPLINE).shape == (0, 3, 4, 4)
