from fractions import Fraction
from math import sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hspatch import (
    GeometricPatch,
    HsControls,
    HsPatchInput,
    InfeasiblePatchError,
    Policy,
    build_hs_patch,
    build_lambda,
    complete_twists,
    constraint_report,
    control_matrix,
    control_vector,
    effective_degree,
    eval_patch_jet,
    line_restriction_coeffs,
    monomial_matrix,
    project_tangents,
    rank_exact,
)
from hspatch.algebra import HERMITE_BASIS, fraction_matrix
from hspatch.hs import _RESIDUAL_SIGNS, monomial_condition_forms

from conftest import (
    LIFTED_CORNER,
    UV_X,
    UV_Y,
    UV_Z,
    UV_Z_CONTROLS,
    e11_matrix,
    random_controls,
    random_feasible_controls,
    random_feasible_input,
)

# Frozen expected condition matrix over [x11, x12, x13, x14, x21, ..., x44],
# independently derived from the basis-column outer products by hand.
EXPECTED_LAMBDA = [
    [4, -4, 2, 2, -4, 4, -2, -2, 2, -2, 1, 1, 2, -2, 1, 1],
    [-12, 12, -7, -5, 12, -12, 7, 5, -7, 7, -4, -3, -5, 5, -3, -2],
    [9, -9, 8, 3, -9, 9, -8, -3, 8, -8, 6, 3, 3, -3, 3, 1],
    [-4, 4, -2, -2, 4, -4, 2, 2, -2, 2, -1, -1, -2, 2, -1, -1],
    [12, -12, 5, 7, -12, 12, -5, -7, 7, -7, 3, 4, 5, -5, 2, 3],
    [-9, 9, -3, -8, 9, -9, 3, 8, -8, 8, -3, -6, -3, 3, -1, -3],
]


# Substitution t -> 1 - t on the cubic power basis:
# [(1-t)^3, (1-t)^2, 1-t, 1]^T = PARAM_REVERSAL @ [t^3, t^2, t, 1]^T.
PARAM_REVERSAL = fraction_matrix([
    [-1, 3, -3, 1],
    [0, 1, -2, 1],
    [0, 0, -1, 1],
    [0, 0, 0, 1],
])


def param_reversal_lambda():
    """Oracle: the condition matrix from descending M^T X M and PARAM_REVERSAL.

    Row k of the descending quadratic form multiplies u^(3-k); the anti-diagonal
    v = 1 - u reverses the v powers.  The u^6, u^5, u^4 coefficients are sums
    along the first three anti-diagonals of each matrix.
    """
    columns = []
    for k in range(16):
        control = fraction_matrix(np.eye(16, dtype=int)[k].reshape(4, 4))
        r1 = HERMITE_BASIS.T @ control @ HERMITE_BASIS
        r2 = r1 @ PARAM_REVERSAL
        columns.append([entry for r in (r1, r2)
                        for entry in (r[0, 0], r[0, 1] + r[1, 0], r[0, 2] + r[1, 1] + r[2, 0])])
    return tuple(zip(*columns))


class TestConditionMatrix:
    def test_param_reversal_oracle_is_involution(self):
        assert np.array_equal(PARAM_REVERSAL @ PARAM_REVERSAL, np.eye(4))
        for t in (Fraction(0), Fraction(1, 3), Fraction(-5, 2), Fraction(7)):
            reversed_powers = PARAM_REVERSAL @ np.array([t ** 3, t ** 2, t, 1], dtype=object)
            assert reversed_powers.tolist() == [(1 - t) ** 3, (1 - t) ** 2, 1 - t, 1]

    def test_equals_param_reversal_oracle_exactly(self):
        lam = build_lambda()
        assert lam == param_reversal_lambda()
        assert all(type(v) is Fraction for row in lam for v in row)

    def test_entries_match_hand_derivation(self):
        lam = build_lambda()
        assert [[int(v) for v in row] for row in lam] == EXPECTED_LAMBDA

    def test_rank_is_five(self):
        assert rank_exact(build_lambda()) == 5

    def test_entries_are_integers(self):
        assert all(v.denominator == 1 for row in build_lambda() for v in row)

    def test_annihilates_uv_patch(self):
        xi = control_vector(UV_Z)
        for row in build_lambda():
            assert sum(c * v for c, v in zip(row, xi)) == 0

    def test_row_space_matches_power_basis_conditions(self):
        stacked = list(build_lambda()) + list(monomial_condition_forms())
        assert rank_exact(stacked) == 5
        assert rank_exact(list(monomial_condition_forms())) == 5

    def test_power_basis_forms_match_float_monomials(self):
        # Small integer controls keep every float product exact, so the float
        # power-basis path and the exact forms must agree to the last bit.
        rng = np.random.default_rng(2212)
        for _ in range(20):
            x = rng.integers(-9, 10, size=(4, 4))
            xi = control_vector(x.tolist())
            mono = monomial_matrix(x)
            expected = [mono[3, 3], mono[3, 2], mono[2, 3], mono[2, 2], mono[3, 1] + mono[1, 3]]
            values = [sum(c * v for c, v in zip(form, xi)) for form in monomial_condition_forms()]
            assert values == expected


class TestConstraintReport:
    def test_uv_coordinate(self):
        r = constraint_report(UV_Z_CONTROLS)
        assert (r.phi, r.a, r.b, r.c) == (1, -2, -2, 0)
        assert r.residual == 0 and r.feasible
        assert r.alpha == 0.5 and r.beta == 0.5

    def test_lifted_corner_is_infeasible(self):
        r = constraint_report(LIFTED_CORNER)
        assert r.phi == 1 and r.a == 0 and r.b == 0 and r.c == 0
        assert r.residual == 4 and not r.feasible

    def test_all_zero_input(self):
        r = constraint_report(HsControls((0,) * 4, (0,) * 8))
        assert r.residual == 0 and r.feasible
        assert r.alpha is None and r.beta is None  # phi = 0

    def test_tolerance_is_scale_relative(self):
        # same shape at 1e6 scale: residual scales too, verdict unchanged
        base = random_feasible_controls(np.random.default_rng(2))
        scaled = HsControls(
            tuple(v * 1e6 for v in base.corners), tuple(v * 1e6 for v in base.tangents)
        )
        assert constraint_report(scaled).feasible


class TestCompleteTwists:
    def test_uv(self):
        assert complete_twists(UV_Z_CONTROLS) == (1, 1, 1, 1)

    def test_zero(self):
        assert complete_twists(HsControls((0,) * 4, (0,) * 8)) == (0, 0, 0, 0)

    def test_bilinear_v_with_zero_phi(self):
        c = HsControls(corners=(0, 1, 0, 1), tangents=(1, 1, 1, 1, 0, 0, 0, 0))
        assert complete_twists(c) == (0, 0, 0, 0)

    def test_twin_identities_exact_on_integers(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            c = HsControls(
                tuple(int(v) for v in rng.integers(-9, 10, size=4)),
                tuple(int(v) for v in rng.integers(-9, 10, size=8)),
            )
            x33, x34, x43, x44 = complete_twists(c)
            phi = c.corners[0] - c.corners[1] - c.corners[2] + c.corners[3]
            assert x33 + x44 == 2 * phi
            assert x34 + x43 == 2 * phi

    def test_alpha_beta_consistency(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            c = random_feasible_controls(rng)
            r = constraint_report(c)
            if r.alpha is None:
                continue
            x33, x34, x43, x44 = complete_twists(c)
            assert 2 * r.phi * r.alpha == pytest.approx(x44, rel=1e-12, abs=1e-12)
            assert 2 * r.phi * r.beta == pytest.approx(x43, rel=1e-12, abs=1e-12)


class TestProjectTangents:
    def test_feasible_input_unchanged_bitwise(self):
        out = project_tangents(UV_Z_CONTROLS)
        assert out is UV_Z_CONTROLS

    def test_lifted_corner_projection(self):
        out = project_tangents(LIFTED_CORNER)
        assert out.corners == LIFTED_CORNER.corners
        expected = tuple(Fraction(-s, 2) for s in _RESIDUAL_SIGNS)
        assert out.tangents == expected
        assert constraint_report(out).residual == 0

    def test_correction_norm_is_residual_over_sqrt8(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            c = random_controls(rng)
            r = constraint_report(c).residual
            out = project_tangents(c)
            delta = np.array(out.tangents) - np.array(c.tangents)
            assert np.linalg.norm(delta) == pytest.approx(abs(r) / sqrt(8.0), rel=1e-12)

    def test_correction_parallel_to_sign_vector(self):
        # KKT condition of the minimal-norm projection onto one hyperplane
        rng = np.random.default_rng(15)
        for _ in range(50):
            c = random_controls(rng)
            out = project_tangents(c)
            delta = np.array(out.tangents) - np.array(c.tangents)
            signs = np.array(_RESIDUAL_SIGNS, dtype=float)
            cross = delta - (delta @ signs / 8.0) * signs
            assert np.max(np.abs(cross)) <= 1e-12 * max(1.0, np.max(np.abs(delta)))

    def test_exact_arithmetic_preserved(self):
        out = project_tangents(HsControls((1, 0, 0, 0), (0,) * 8))
        assert all(isinstance(t, Fraction) for t in out.tangents)
        assert constraint_report(out).residual == 0


class TestBuildHsPatch:
    def _uv_input(self):
        return HsPatchInput(
            x=HsControls.from_matrix(UV_X),
            y=HsControls.from_matrix(UV_Y),
            z=UV_Z_CONTROLS,
        )

    def test_uv_strict_reproduces_exact_data(self):
        built = build_hs_patch(self._uv_input(), Policy.STRICT)
        assert not built.repaired
        assert np.array_equal(built.patch.x, np.array(UV_X, dtype=float))
        assert np.array_equal(built.patch.y, np.array(UV_Y, dtype=float))
        assert np.array_equal(built.patch.z, np.array(UV_Z, dtype=float))
        assert eval_patch_jet(built.patch, 0.5, 0.5).point[2] == pytest.approx(0.25, abs=1e-15)

    def test_lifted_corner_strict_rejects(self):
        inp = HsPatchInput(
            x=HsControls.from_matrix(UV_X), y=HsControls.from_matrix(UV_Y), z=LIFTED_CORNER
        )
        with pytest.raises(InfeasiblePatchError) as err:
            build_hs_patch(inp, Policy.STRICT)
        assert err.value.reports["z"].residual == 4

    def test_lifted_corner_project_builds_cubic_diagonals(self):
        inp = HsPatchInput(
            x=HsControls.from_matrix(UV_X), y=HsControls.from_matrix(UV_Y), z=LIFTED_CORNER
        )
        built = build_hs_patch(inp, Policy.PROJECT)
        assert built.repaired
        for coord in built.patch.coords():
            for slope, offset in [(1, 0.0), (-1, 1.0)]:
                poly = line_restriction_coeffs(coord, slope, offset)
                assert effective_degree(poly.coeffs) <= 3

    def test_project_on_feasible_input_reports_unrepaired(self):
        built = build_hs_patch(self._uv_input(), Policy.PROJECT)
        assert not built.repaired
        assert np.array_equal(built.patch.z, np.array(UV_Z, dtype=float))

    def test_random_feasible_batch_has_cubic_slope_lines(self):
        rng = np.random.default_rng(16)
        for _ in range(100):
            built = build_hs_patch(random_feasible_input(rng), Policy.STRICT)
            for coord in built.patch.coords():
                for slope in (1, -1):
                    for offset in (-0.5, -0.25, 0.0, 0.25, 0.5):
                        off = offset if slope == 1 else offset + 1.0
                        poly = line_restriction_coeffs(coord, slope, off)
                        assert effective_degree(poly.coeffs, 1e-9) <= 3

    def test_strict_integer_builds_annihilated_exactly(self):
        # integer inputs made feasible by construction: solve the residual
        # for the last tangent, then check the full 16-vector exactly
        rng = np.random.default_rng(17)
        lam = build_lambda()
        for _ in range(100):
            vals = [int(v) for v in rng.integers(-9, 10, size=11)]
            corners, tangents = vals[:4], vals[4:]
            phi = corners[0] - corners[1] - corners[2] + corners[3]
            # residual = a+b+c+4*phi is linear with coefficient -1 on x42
            t = tangents + [0]
            partial = (t[1] - t[3] + t[6]) + (t[0] - t[2] + t[6]) + (t[4] - t[5] - t[6])
            x42 = partial + 4 * phi  # makes the residual vanish
            c = HsControls(tuple(corners), tuple(tangents + [x42]))
            assert constraint_report(c).residual == 0
            xi = control_vector(control_matrix(c))
            assert all(isinstance(v, int) for v in xi)
            for row in lam:
                assert sum(coef * v for coef, v in zip(row, xi)) == 0

    def test_reports_present_for_all_coordinates(self):
        # the built controls of every coordinate report feasible
        built = build_hs_patch(self._uv_input(), Policy.STRICT)
        reports = [constraint_report(HsControls.from_matrix(m)) for m in built.patch.coords()]
        assert len(reports) == 3 and all(r.feasible for r in reports)


def _exactly_feasible(corners, tangents):
    """tangents with x42 chosen so that the residual a + b + c + 4*phi is 0."""
    x11, x12, x21, x22 = corners
    x13, x14, x23, x24, x31, x32, x41, _ = tangents
    phi = x11 - x12 - x21 + x22
    # the residual is linear in x42 with coefficient -1
    return (*tangents[:7], (x14 - x24 + x41) + (x13 - x23 + x41) + (x31 - x32 - x41) + 4 * phi)


@st.composite
def coordinate_controls(draw):
    """One coordinate's 12 controls: floats scaled by 2^k (k in [-60, 60]) with
    -0.0 among them, ints, or Fractions.  Dyadic floats, ints and Fractions may
    get an x42 that makes the residual exactly 0."""
    kind = draw(st.sampled_from(["float", "dyadic", "int", "fraction"]))
    if kind in ("float", "dyadic"):
        k = draw(st.integers(-60, 60))
        value = st.floats(-4, 4) if kind == "float" else st.integers(-64, 64).map(float)
        values = [v * 2.0 ** k for v in draw(st.lists(st.one_of(value, st.just(-0.0)),
                                                       min_size=12, max_size=12))]
    elif kind == "int":
        values = draw(st.lists(st.integers(-10**6, 10**6), min_size=12, max_size=12))
    else:
        values = [Fraction(n, d) for n, d in draw(st.lists(
            st.tuples(st.integers(-999, 999), st.integers(1, 99)), min_size=12, max_size=12))]
    corners, tangents = values[:4], values[4:]
    if kind != "float" and draw(st.booleans()):  # exact sums: dyadic floats stay exact
        tangents = _exactly_feasible(corners, tangents)
    return HsControls(corners, tangents)


def _bits(matrix) -> bytes:
    return np.array(matrix, dtype=float).tobytes()


class TestOnePassBuild:
    """build_hs_patch against the public per-coordinate functions, value for value."""

    @settings(max_examples=150, deadline=None)
    @given(coords=st.lists(coordinate_controls(), min_size=3, max_size=3),
           tol=st.sampled_from([0.0, 1e-9, 1e-3]))
    def test_project_matches_per_coordinate_functions(self, coords, tol):
        built = build_hs_patch(HsPatchInput(*coords), Policy.PROJECT, tol)
        for c, got in zip(coords, built.patch.coords()):
            assert got.tobytes() == _bits(control_matrix(project_tangents(c)))
        assert built.repaired == any(not constraint_report(c, tol).feasible for c in coords)

    @settings(max_examples=150, deadline=None)
    @given(coords=st.lists(coordinate_controls(), min_size=3, max_size=3),
           tol=st.sampled_from([0.0, 1e-9, 1e-3]))
    def test_strict_matches_per_coordinate_functions(self, coords, tol):
        reports = {n: constraint_report(c, tol) for n, c in zip("xyz", coords)}
        bad = [n for n, r in reports.items() if not r.feasible]
        if not bad:
            built = build_hs_patch(HsPatchInput(*coords), Policy.STRICT, tol)
            assert not built.repaired
            for c, got in zip(coords, built.patch.coords()):
                assert got.tobytes() == _bits(control_matrix(c))
            return
        with pytest.raises(InfeasiblePatchError) as err:
            build_hs_patch(HsPatchInput(*coords), Policy.STRICT, tol)
        detail = ", ".join(f"{n}: residual={float(reports[n].residual):.3g}" for n in bad)
        assert str(err.value) == (f"tangent constraint violated ({detail}); "
                                  "use the project policy to repair")
        assert err.value.reports == reports


def hs_conditions(control) -> dict:
    """The five power-basis conditions of a 4x4 control matrix, in exact arithmetic.

    Read from the exact monomial matrix, and checked against the exact forms
    over the control vector.
    """
    control = fraction_matrix(control)
    mono = monomial_matrix(control)
    values = {
        "u3v3": mono[3, 3], "u3v2": mono[3, 2], "u2v3": mono[2, 3], "u2v2": mono[2, 2],
        "u3v1+u1v3": mono[3, 1] + mono[1, 3],
    }
    xi = control_vector(control)
    forms = [sum(c * v for c, v in zip(form, xi)) for form in monomial_condition_forms()]
    assert forms == list(values.values())
    return values


class TestVerifyHs:
    def test_uv_true(self):
        assert all(v == 0 for v in hs_conditions(UV_Z).values())

    def test_corner_basis_false_with_diagnostic(self):
        diag = hs_conditions(e11_matrix())
        assert diag["u3v3"] == 4
        assert any(v != 0 for v in diag.values())

    def test_zero_true(self):
        assert all(v == 0 for v in hs_conditions(np.zeros((4, 4))).values())

    def test_completed_patches_verify(self):
        # Fraction controls stay exact through projection and completion
        rng = np.random.default_rng(18)
        for _ in range(50):
            raw = HsControls.from_flat(Fraction(int(k), 7) for k in rng.integers(-99, 100, 12))
            c = project_tangents(raw)
            assert all(v == 0 for v in hs_conditions(control_matrix(c)).values())
