import numpy as np
import pytest

from hspatch import (
    Basis,
    BasisMismatchError,
    DiagonalPoly,
    GeometricPatch,
    Side,
    continuity_check,
    effective_degree,
    convert_patch,
    eval_patch_jet,
    fit_line_oracle,
    line_restriction_coeffs,
    monomial_matrix,
    tessellate,
)
from hspatch.algebra import HERMITE_BASIS
from hspatch.patch import eval_patch_grid, unit_normals

from conftest import UV_X, UV_Y, UV_Z, e11_matrix, eval_monomials, hermite_from_monomials


def border_curve(control, t):
    """A cubic Hermite curve as the v = 0 border of a patch.

    The border is x(t, 0) = h(t) . X[:, 0], so the curve controls
    [P(0), P(1), P'(0), P'(1)] go in the first column of the control matrix.
    """
    m = np.zeros((4, 4))
    m[:, 0] = control
    return eval_patch_jet(GeometricPatch(m, m, m), t, 0.0).point[..., 0]


class TestEvalCurve:
    def test_second_value_basis_at_half(self):
        assert border_curve([0, 1, 0, 0], 0.5) == pytest.approx(0.5, abs=1e-15)

    def test_partition_of_unity_constant(self):
        for t in np.linspace(0, 1, 17):
            assert border_curve([3.7, 3.7, 0, 0], t) == pytest.approx(3.7, abs=1e-14)

    def test_linear_reproduction(self):
        # Hermite data of f(t) = 3t: exact at dyadic t, within an ulp at 1/3
        control = [0, 3, 3, 3]
        assert border_curve(control, 1 / 3) == pytest.approx(1.0, rel=0, abs=1.2e-16)
        for t in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert border_curve(control, t) == 3 * t

    def test_domain_strict(self, uv_patch):
        for u, v in [(1.5, 0.5), (-0.5, 0.5), (0.5, 1.5), (0.5, -1e-300),
                     (float('nan'), 0.5), (0.5, [0.0, float('nan')])]:
            with pytest.raises(ValueError):
                eval_patch_jet(uv_patch, u, v)

    def test_array_parameter(self):
        out = border_curve([0, 1, 0, 0], np.array([0.0, 0.5, 1.0]))
        assert out == pytest.approx([0.0, 0.5, 1.0])


class TestEvalPatch:
    def test_parameters_are_scalars_or_1d(self, uv_patch):
        with pytest.raises(ValueError, match=r"^u and v must be scalars or 1-D arrays$"):
            eval_patch_jet(uv_patch, [[0.5]], 0.5)

    def test_uv_jet_at_center(self, uv_patch):
        jet = eval_patch_jet(uv_patch, 0.5, 0.5)
        assert jet.point == pytest.approx([0.5, 0.5, 0.25], abs=1e-15)
        assert jet.du == pytest.approx([1.0, 0.0, 0.5], abs=1e-15)
        assert jet.dv == pytest.approx([0.0, 1.0, 0.5], abs=1e-15)

    def test_constant_patch(self):
        k = 2.5
        m = np.zeros((4, 4))
        m[:2, :2] = k
        p = GeometricPatch(m, m, m)
        for u, v in [(0, 0), (0.3, 0.7), (1, 1)]:
            assert eval_patch_jet(p, u, v).point == pytest.approx([k, k, k], abs=1e-14)

    def test_origin_interpolates_exactly(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m = rng.uniform(-2, 2, size=(4, 4))
            p = GeometricPatch(m, m, m)
            jet = eval_patch_jet(p, 0.0, 0.0)
            assert jet.point[0] == m[0, 0]
            assert jet.du[0] == m[2, 0]
            assert jet.dv[0] == m[0, 2]

    def test_corner_values(self):
        rng = np.random.default_rng(4)
        m = rng.uniform(-2, 2, size=(4, 4))
        p = GeometricPatch(m, m, m)
        corners = {(0, 0): m[0, 0], (0, 1): m[0, 1], (1, 0): m[1, 0], (1, 1): m[1, 1]}
        for (u, v), want in corners.items():
            assert abs(eval_patch_jet(p, u, v).point[0] - want) <= 1e-14

    def test_bicubic_reproduction(self):
        rng = np.random.default_rng(5)
        mono = rng.uniform(-1, 1, size=(4, 4))
        control = hermite_from_monomials(mono)
        p = GeometricPatch(control, control, control)
        for _ in range(100):
            u, v = rng.uniform(0, 1, size=2)
            want = eval_monomials(mono, u, v)
            assert eval_patch_jet(p, u, v).point[0] == pytest.approx(want, abs=1e-12)

    def test_basis_mismatch(self, uv_patch):
        bez = GeometricPatch(uv_patch.x, uv_patch.y, uv_patch.z, Basis.BEZIER)
        with pytest.raises(BasisMismatchError):
            eval_patch_jet(bez, 0.5, 0.5)

    def test_point_eval_uses_own_basis(self, uv_patch):
        # the same numeric matrices mean different surfaces in other bases
        bez = GeometricPatch(np.eye(4), np.eye(4), np.eye(4), Basis.BEZIER)
        herm = convert_patch(bez, Basis.HERMITE)
        corner = eval_patch_jet(herm, 0.0, 0.0).point
        assert corner == pytest.approx([1.0, 1.0, 1.0])  # corner = first control point
        # at the centre: sum of squared Bernstein weights 20/64, Hermite weights 34/64
        assert eval_patch_jet(herm, 0.5, 0.5).point == pytest.approx([20 / 64] * 3, abs=1e-15)
        as_hermite = GeometricPatch(bez.x, bez.y, bez.z)
        assert eval_patch_jet(as_hermite, 0.5, 0.5).point == pytest.approx([34 / 64] * 3,
                                                                          abs=1e-15)

    def test_grid_matches_pointwise(self, uv_patch):
        us = np.linspace(0, 1, 5)
        p, pu, pv = eval_patch_grid(uv_patch, us, us)
        for i, u in enumerate(us):
            for j, v in enumerate(us):
                jet = eval_patch_jet(uv_patch, u, v)
                assert p[i, j] == pytest.approx(jet.point, abs=1e-15)
                assert pu[i, j] == pytest.approx(jet.du, abs=1e-15)
                assert pv[i, j] == pytest.approx(jet.dv, abs=1e-15)


class TestUnitNormals:
    @staticmethod
    def pole_patch() -> GeometricPatch:
        # (u*v, v, 0): the v = 0 edge collapses to the origin, where du = 0
        return GeometricPatch(UV_Z, UV_Y, np.zeros((4, 4)))

    def test_collapsed_edge_gives_zero_normal_and_mask(self):
        jet = eval_patch_jet(self.pole_patch(), np.linspace(0, 1, 5), np.array([0.0, 0.5]))
        normals, degenerate = unit_normals(jet.du, jet.dv)
        assert normals.shape == (5, 2, 3) and degenerate.shape == (5, 2)
        assert degenerate[:, 0].all() and not degenerate[:, 1].any()
        assert np.all(normals[:, 0] == 0.0)
        assert np.all(normals[:, 1] == [0.0, 0.0, 1.0])

    def test_threshold_floors_at_one_and_scales_above(self):
        # |du x dv| = 1e-14: degenerate only because of the floor of 1
        _, small = unit_normals([1e-7, 0.0, 0.0], [0.0, 1e-7, 0.0])
        # |du x dv| = 1e3 against |du| |dv| = 1e16
        _, large = unit_normals([1e8, 0.0, 0.0], [1e8, 1e-5, 0.0])
        _, plain = unit_normals([1e-5, 0.0, 0.0], [0.0, 1e-5, 0.0])
        # |du| overflows to inf and |du| |dv| = inf * 0 is NaN: the floor of 1 still holds
        with np.errstate(over="ignore", invalid="ignore"):
            overflow_normal, overflow = unit_normals([1e200] * 3, [0.0] * 3)
        assert small and large and overflow and not plain
        assert np.all(overflow_normal == 0.0)

    def test_tessellate_and_continuity_flag_the_same_samples(self):
        p, n = self.pole_patch(), 4
        mesh = tessellate(p, n)
        assert mesh.degenerate_normals == list(range(n + 1))  # the row j = 0, v = 0
        for side, count in (("v0", n + 1), ("v1", 0)):
            rep = continuity_check(p, Side.parse(side), p, Side.parse(side), samples=n + 1)
            assert rep.degenerate_normals == count


class TestGeometricPatch:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            GeometricPatch(np.zeros((3, 4)), np.zeros((4, 4)), np.zeros((4, 4)))

    def test_finite_validation(self):
        bad = np.zeros((4, 4))
        bad[1, 1] = np.nan
        with pytest.raises(ValueError):
            GeometricPatch(bad, np.zeros((4, 4)), np.zeros((4, 4)))

    def test_matrices_read_only(self, uv_patch):
        with pytest.raises(ValueError):
            uv_patch.x[0, 0] = 9.0

    def test_translated_bezier_shifts_every_control(self):
        bezier = GeometricPatch(UV_X, UV_Y, UV_Z, Basis.BEZIER)
        moved = bezier.translated((1, -2, 0.5))
        for got, was, d in zip(moved.coords(), bezier.coords(), (1, -2, 0.5)):
            assert np.array_equal(got, was + d)
        assert moved.basis is Basis.BEZIER


def test_diagonal_poly_has_7_coefficients():
    with pytest.raises(ValueError, match=r"^diagonal polynomial has exactly 7 coefficients$"):
        DiagonalPoly(np.zeros(6))


class TestLineRestriction:
    def test_corner_basis_square_on_diagonal(self):
        # x11=1 only: the diagonal curve is the squared first value basis fn
        poly = line_restriction_coeffs(e11_matrix(), 1, 0.0)
        assert poly.coeffs == pytest.approx([4, -12, 9, 4, -6, 0, 1], abs=1e-13)

    def test_corner_basis_antidiagonal(self):
        poly = line_restriction_coeffs(e11_matrix(), -1, 1.0)
        assert poly.coeffs == pytest.approx([-4, 12, -9, -2, 3, 0, 0], abs=1e-13)

    def test_zero_matrix(self):
        poly = line_restriction_coeffs(np.zeros((4, 4)), 1, 0.0)
        assert np.array_equal(poly.coeffs, np.zeros(7))

    def test_uv_diagonal_is_u_squared(self):
        poly = line_restriction_coeffs(UV_Z, 1, 0.0)
        assert poly.coeffs == pytest.approx([0, 0, 0, 0, 1, 0, 0], abs=1e-14)

    def test_invalid_slope(self):
        for restrict in (line_restriction_coeffs, fit_line_oracle):
            with pytest.raises(ValueError, match=r"^only slopes \+1 and -1 are supported$"):
                restrict(UV_Z, 2, 0.0)
            with pytest.raises(ValueError, match="only slopes"):  # checked before the offset
                restrict(UV_Z, 0, float("nan"))

    def test_line_outside_square(self):
        with pytest.raises(ValueError, match=r"^line v = \+1\*u \+ 2\.0 misses the unit square$"):
            line_restriction_coeffs(UV_Z, 1, 2.0)
        with pytest.raises(ValueError, match=r"^line v = -1\*u \+ -0\.5 misses the unit square$"):
            line_restriction_coeffs(UV_Z, -1, -0.5)

    @pytest.mark.parametrize("offset", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("slope", [1, -1])
    def test_non_finite_offset(self, slope, offset):
        # max(0.0, nan) is 0.0 and min(1.0, nan) is 1.0, so a NaN once passed
        # the range check and came back as NaN coefficients
        for restrict in (line_restriction_coeffs, fit_line_oracle):
            with pytest.raises(ValueError, match="offset must be finite"):
                restrict(np.eye(4), slope, offset)

    def test_leading_coefficient_is_quadratic_form_entry(self):
        rng = np.random.default_rng(6)
        mh = HERMITE_BASIS.astype(float)
        for _ in range(25):
            x = rng.uniform(-2, 2, size=(4, 4))
            poly = line_restriction_coeffs(x, 1, 0.0)
            assert poly.coeffs[0] == pytest.approx((mh.T @ x @ mh)[0, 0], rel=1e-12, abs=1e-13)

    def test_restriction_evaluates_like_patch(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(-2, 2, size=(4, 4))
        for slope, offset in [(1, 0.0), (1, -0.5), (-1, 1.0), (-1, 0.5)]:
            poly = line_restriction_coeffs(x, slope, offset)
            lo = max(0.0, -offset) if slope == 1 else max(0.0, offset - 1.0)
            hi = min(1.0, 1.0 - offset) if slope == 1 else min(1.0, offset)
            for t in np.linspace(lo, hi, 9):
                mono = monomial_matrix(x)
                want = eval_monomials(mono, t, slope * t + offset)
                assert poly(t) == pytest.approx(want, abs=1e-12)


class TestFitLineOracle:
    def test_constant_patch(self):
        m = np.zeros((4, 4))
        m[:2, :2] = 4.25
        poly = fit_line_oracle(m, 1, 0.0)
        assert poly.coeffs == pytest.approx([0, 0, 0, 0, 0, 0, 4.25], abs=1e-10)

    def test_uv_diagonal(self):
        poly = fit_line_oracle(UV_Z, 1, 0.0)
        assert poly.coeffs == pytest.approx([0, 0, 0, 0, 1, 0, 0], abs=1e-10)

    def test_too_short_segment(self):
        with pytest.raises(ValueError):
            fit_line_oracle(UV_Z, 1, 1.0)

    def test_agreement_with_algebraic_restriction(self):
        # the two code paths share nothing past the basis constants
        rng = np.random.default_rng(9)
        for _ in range(1000):
            x = rng.uniform(-3, 3, size=(4, 4))
            for slope in (1, -1):
                for offset in (-0.5, 0.0, 0.5):
                    off = offset if slope == 1 else offset + 1.0
                    algebraic = line_restriction_coeffs(x, slope, off).coeffs
                    sampled = fit_line_oracle(x, slope, off).coeffs
                    scale = max(1e-30, np.max(np.abs(algebraic)))
                    assert np.max(np.abs(algebraic - sampled)) <= 1e-8 * scale


class TestEffectiveDegree:
    def test_zero_poly(self):
        assert effective_degree(np.zeros(7)) == 0

    def test_plain_cubic(self):
        assert effective_degree([0, 0, 0, 1.0, 0, 0, 2.0]) == 3

    def test_scale_relative(self):
        # junk at degree 6 far below the dominant coefficient is ignored
        assert effective_degree([1e-12, 0, 0, 0, 0, 0, 1e6]) == 0
        assert effective_degree([1e-2, 0, 0, 0, 0, 0, 1e6]) == 6
