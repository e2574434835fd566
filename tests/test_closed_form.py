"""The closed-form degree audit, the slope-line restriction and the batched
continuity check against the per-line and per-sample loops they replaced.

The reference oracles below are the earlier implementations, kept verbatim
apart from names: one binomial expansion per slope line, and one scalar jet
evaluation per boundary sample.  Audits must give equal degree dicts.
`slope_lines` must equal the expansion exactly on Fraction input, and the
audit's earlier float-weight expression bit for bit on floats.  The
continuity check evaluates each side with the grid evaluator's matrix
products, which round differently from the scalar jet, so its gaps must
agree within REL_GAP times the largest |control| of the two patches and its
angle within ABS_ANGLE radians; sample and degenerate counts and the three
verdicts must be equal.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hspatch import (
    GeometricPatch,
    HsControls,
    HsPatchInput,
    Policy,
    Side,
    build_hs_patch,
    continuity_check,
    degree_audit,
    eval_patch_jet,
    line_restriction_coeffs,
    monomial_matrix,
)
from hspatch.analysis import DIRECTIONS, ContinuityReport
from hspatch.patch import _BASIS_FLOAT, Basis, PatchJet, slope_lines

from conftest import LIFTED_CORNER, UV_X, UV_Y, e11_matrix, random_feasible_input
from test_analysis import shared_edge_patches

SIDE_NAMES = ("u0", "u1", "v0", "v1", "u0r", "u1r", "v0r", "v1r")

# Against the oracle, 3000 random pairs at scales 1e-6 to 1e6 plus 448 joints
# of two 8x8 shared-node grids differed by at most 1.5e-15 (gaps relative to
# the largest |control|) and 1.8e-14 rad; the bounds leave room for other BLAS.
REL_GAP = 1e-14
ABS_ANGLE = 1e-12


def max_control(*patches):
    return max(float(np.max(np.abs(c))) for p in patches for c in p.coords())


def assert_reports_close(got, want, a, b):
    bound = REL_GAP * max_control(a, b)
    assert abs(got.max_position_gap - want.max_position_gap) <= bound
    assert abs(got.max_cross_gap - want.max_cross_gap) <= bound
    assert abs(got.max_normal_angle - want.max_normal_angle) <= ABS_ANGLE
    for field in ("samples", "degenerate_normals", "position_ok", "cross_ok", "normal_ok"):
        assert getattr(got, field) == getattr(want, field), field


# ---------------------------------------------------------------- oracles

def oracle_effective_degree(coeffs, tol=1e-9):
    c = np.asarray(coeffs, dtype=float)
    scale = max(1.0, float(np.max(np.abs(c))) if c.size else 1.0)
    n = len(c) - 1
    for k, v in enumerate(c):
        if abs(v) > tol * scale:
            return n - k
    return 0


def oracle_line_restriction(mono, slope, offset):
    """Ascending coefficients of one ascending monomial matrix on v = slope*u + offset.

    Plain Python arithmetic, so Fraction input gives exact coefficients.
    """
    out = [0] * 7
    for q in range(4):
        for m in range(q + 1):
            # (slope*u + offset)^q contributes C(q,m) slope^m offset^(q-m) u^m
            w = math.comb(q, m) * (slope ** m) * (offset ** (q - m))
            if w == 0:
                continue
            for p in range(4):
                out[p + m] += mono[p][q] * w
    return out


def oracle_degree_audit(patch, grid_n, tol=1e-9):
    n = int(grid_n)
    result = {d: 0 for d in DIRECTIONS}
    monos = [monomial_matrix(c) for c in patch.coords()]

    powers = np.arange(4)
    for k in range(n + 1):
        t = k / n
        tp = t ** powers
        for mono in monos:
            horiz = mono @ tp
            vert = tp @ mono
            result["horizontal"] = max(result["horizontal"], oracle_effective_degree(horiz[::-1], tol))
            result["vertical"] = max(result["vertical"], oracle_effective_degree(vert[::-1], tol))

    for mono in monos:
        for k in range(-(n - 1), n):
            poly = oracle_line_restriction(mono, 1, k / n)[::-1]
            result["slope_pos"] = max(result["slope_pos"], oracle_effective_degree(poly, tol))
        for k in range(1, 2 * n):
            poly = oracle_line_restriction(mono, -1, k / n)[::-1]
            result["slope_neg"] = max(result["slope_neg"], oracle_effective_degree(poly, tol))
    return result


def oracle_jet(patch, u, v):
    m = _BASIS_FLOAT[Basis.HERMITE]
    hu = m @ np.array([u * u * u, u * u, u, 1.0])
    dhu = m @ np.array([3.0 * u * u, 2.0 * u, 1.0, 0.0])
    hv = m @ np.array([v * v * v, v * v, v, 1.0])
    dhv = m @ np.array([3.0 * v * v, 2.0 * v, 1.0, 0.0])
    point = np.array([hu @ c @ hv for c in patch.coords()])
    du = np.array([dhu @ c @ hv for c in patch.coords()])
    dv = np.array([hu @ c @ dhv for c in patch.coords()])
    return PatchJet(point, du, dv)


def oracle_boundary_jet(patch, side, t):
    s = 1.0 - t if side.reversed else t
    if side.axis == "u":
        jet = oracle_jet(patch, float(side.value), s)
        return jet, jet.du
    jet = oracle_jet(patch, s, float(side.value))
    return jet, jet.dv


def oracle_continuity(a, side_a, b, side_b, samples=33, tol_position=1e-9,
                      tol_cross=1e-9, tol_normal=1e-6):
    cross_sign = 1.0 if side_a.value != side_b.value else -1.0
    max_c0 = max_c1 = max_g1 = 0.0
    degenerate = 0
    for k in range(samples):
        t = k / (samples - 1)
        jet_a, ca = oracle_boundary_jet(a, side_a, t)
        jet_b, cb = oracle_boundary_jet(b, side_b, t)
        max_c0 = max(max_c0, float(np.linalg.norm(jet_a.point - jet_b.point)))
        max_c1 = max(max_c1, float(np.linalg.norm(ca - cross_sign * cb)))

        na, nb = np.cross(jet_a.du, jet_a.dv), np.cross(jet_b.du, jet_b.dv)
        scale_a = max(1.0, float(np.linalg.norm(jet_a.du) * np.linalg.norm(jet_a.dv)))
        scale_b = max(1.0, float(np.linalg.norm(jet_b.du) * np.linalg.norm(jet_b.dv)))
        la, lb = float(np.linalg.norm(na)), float(np.linalg.norm(nb))
        if la < 1e-12 * scale_a or lb < 1e-12 * scale_b:
            degenerate += 1
            continue
        ua, ub = na / la, nb / lb
        dot = float(np.dot(ua, ub))
        cross = float(np.linalg.norm(np.cross(ua, ub)))
        max_g1 = max(max_g1, math.atan2(cross, abs(dot)))

    return ContinuityReport(
        max_position_gap=max_c0, max_cross_gap=max_c1, max_normal_angle=max_g1,
        samples=samples, degenerate_normals=degenerate,
        position_ok=max_c0 <= tol_position, cross_ok=max_c1 <= tol_cross,
        normal_ok=max_g1 <= tol_normal,
    )


# ---------------------------------------------------------------- fixtures

def shared_node_grid(side=3, seed=5):
    """Hermite patches on a side x side grid whose neighbours share node data."""
    rng = np.random.default_rng(seed)
    n = side + 1
    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    pos = np.stack([ii, jj, rng.uniform(-1, 1, (n, n))], axis=-1)
    du = np.array([1.0, 0.0, 0.0]) + rng.uniform(-0.25, 0.25, (n, n, 3))
    dv = np.array([0.0, 1.0, 0.0]) + rng.uniform(-0.25, 0.25, (n, n, 3))
    twist = rng.uniform(-0.5, 0.5, (n, n, 3))
    patches, joints = {}, []
    for i in range(side):
        for j in range(side):
            nodes = [(i, j), (i, j + 1), (i + 1, j), (i + 1, j + 1)]
            coords = []
            for k in range(3):
                p00, p01, p10, p11 = (pos[a, b, k] for a, b in nodes)
                v00, v01, v10, v11 = (dv[a, b, k] for a, b in nodes)
                u00, u01, u10, u11 = (du[a, b, k] for a, b in nodes)
                t00, t01, t10, t11 = (twist[a, b, k] for a, b in nodes)
                coords.append([[p00, p01, v00, v01], [p10, p11, v10, v11],
                               [u00, u01, t00, t01], [u10, u11, t10, t11]])
            patches[i, j] = GeometricPatch(*coords)
            if i:
                joints.append(((i - 1, j), "u1", (i, j), "u0"))
            if j:
                joints.append(((i, j - 1), "v1", (i, j), "v0"))
    return patches, joints


def built(patch):
    inp = HsPatchInput(*(HsControls.from_matrix(c) for c in patch.coords()))
    return build_hs_patch(inp, Policy.PROJECT).patch


@pytest.fixture(scope="module")
def grid_patches():
    raw, joints = shared_node_grid()
    return raw, {key: built(p) for key, p in raw.items()}, joints


@pytest.fixture(scope="module")
def criterion_4_patches():
    """The 1000 strict builds that acceptance criterion 4 audits."""
    rng = np.random.default_rng(2024)
    return [build_hs_patch(random_feasible_input(rng), Policy.STRICT).patch
            for _ in range(1000)]


def collapsed_edge_patch():
    """The v = 0 edge collapses to a point: equal corners and zero d/du there."""
    rng = np.random.default_rng(11)
    coords = []
    for _ in range(3):
        m = rng.uniform(-1, 1, (4, 4))
        m[1, 0] = m[0, 0]      # P(1, 0) = P(0, 0)
        m[2, 0] = m[3, 0] = 0  # P_u(0, 0) = P_u(1, 0) = 0
        coords.append(m)
    return GeometricPatch(*coords)


def random_patch(rng, scale=1.0):
    return GeometricPatch(*(rng.uniform(-scale, scale, (4, 4)) for _ in range(3)))


# ------------------------------------------------------------------ audit

class TestDegreeAuditOracle:
    @pytest.mark.parametrize("grid", [1, 2, 4, 8, 32])
    def test_criterion_4_set(self, criterion_4_patches, grid):
        # the oracle's per-line loop is slow at grid 32, which covers the
        # first 100 patches; the other grids cover all 1000
        patches = criterion_4_patches[:100] if grid == 32 else criterion_4_patches
        for patch in patches:
            assert degree_audit(patch, grid) == oracle_degree_audit(patch, grid)

    @pytest.mark.parametrize("grid", [1, 2, 3, 8])
    def test_lifted_corner_counterexample(self, grid):
        raw = GeometricPatch(UV_X, UV_Y, e11_matrix())
        degrees = degree_audit(raw, grid)
        assert degrees == oracle_degree_audit(raw, grid)
        assert degrees["slope_pos"] == degrees["slope_neg"] == 6
        inp = HsPatchInput(x=HsControls.from_matrix(UV_X), y=HsControls.from_matrix(UV_Y),
                           z=LIFTED_CORNER)
        repaired = build_hs_patch(inp, Policy.PROJECT).patch
        assert degree_audit(repaired, grid) == oracle_degree_audit(repaired, grid)

    @pytest.mark.parametrize("grid", [8, 32])
    def test_grid_patches_raw_and_built(self, grid_patches, grid):
        raw, done, _ = grid_patches
        for key in raw:
            for patch in (raw[key], done[key]):
                assert degree_audit(patch, grid) == oracle_degree_audit(patch, grid)

    def test_values_are_python_ints(self, uv_patch):
        degrees = degree_audit(uv_patch, 4)
        assert degrees == oracle_degree_audit(uv_patch, 4)
        assert all(type(d) is int for d in degrees.values())

    @pytest.mark.parametrize("tol", [0.0, 1e-12, 1e-3, 0.5])
    def test_tolerances(self, tol):
        patch = random_patch(np.random.default_rng(3), scale=4.0)
        for grid in (1, 5):
            assert degree_audit(patch, grid, tol) == oracle_degree_audit(patch, grid, tol)


# ------------------------------------------------------------ slope lines

def float_weight_slope_lines(monos, slope, offsets):
    """The audit's slope-line expression with float64 binomial weights."""
    w = np.zeros((4, 4, 7, 4))
    for p, q in np.ndindex(4, 4):
        for m in range(q + 1):
            w[p, q, p + m, q - m] = math.comb(q, m) * slope ** m
    per_offset_power = (monos.reshape(3, 16) @ w.reshape(16, 28)).reshape(3, 7, 4)
    return (per_offset_power @ (offsets[:, None] ** np.arange(4)).T).swapaxes(1, 2)


class TestSlopeLinesOracle:
    @pytest.mark.parametrize("slope", [1, -1])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_exact_on_fractions(self, slope, n):
        rng = np.random.default_rng(100 * n + slope)
        controls = [[[Fraction(int(k), int(d)) for k, d in zip(row, dens)]
                     for row, dens in zip(rng.integers(-50, 51, (4, 4)), rng.integers(1, 13, (4, 4)))]
                    for _ in range(3)]
        monos = monomial_matrix(np.array(controls, dtype=object))
        offsets = [Fraction(k, n) for k in range(-n, 2 * n + 1)]
        got = slope_lines(monos, slope, np.array(offsets, dtype=object))
        assert got.shape == (3, len(offsets), 7)
        for mono, lines in zip(monos, got):
            for offset, line in zip(offsets, lines):
                assert all(type(v) is Fraction for v in line)
                assert list(line) == oracle_line_restriction(mono, slope, offset)

    @pytest.mark.parametrize("slope", [1, -1])
    def test_float_matches_float_weights_bit_for_bit(self, slope):
        rng = np.random.default_rng(41 + slope)
        for _ in range(200):
            monos = rng.uniform(-5, 5, (3, 4, 4)) * 10.0 ** int(rng.integers(-6, 7))
            n = int(rng.integers(1, 40))
            offsets = np.arange(-(n - 1), n) / n if slope == 1 else np.arange(1, 2 * n) / n
            assert np.array_equal(slope_lines(monos, slope, offsets),
                                  float_weight_slope_lines(monos, slope, offsets))

    @pytest.mark.parametrize("slope", [1, -1])
    def test_line_api_matches_float_oracle(self, slope):
        rng = np.random.default_rng(7 - slope)
        for _ in range(200):
            x = rng.uniform(-3, 3, (4, 4))
            offset = float(rng.uniform(-1, 1)) + (slope == -1)
            mono = monomial_matrix(x)
            want = oracle_line_restriction(mono, slope, offset)[::-1]
            got = line_restriction_coeffs(x, slope, offset).coeffs
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(mono))


# ------------------------------------------------------------- continuity

class TestContinuityOracle:
    def check(self, a, side_a, b, side_b, samples=33, **tols):
        sa, sb = Side.parse(side_a), Side.parse(side_b)
        got = continuity_check(a, sa, b, sb, samples=samples, **tols)
        assert_reports_close(got, oracle_continuity(a, sa, b, sb, samples=samples, **tols), a, b)
        return got

    @pytest.mark.parametrize("samples", [2, 33])
    def test_opposite_values(self, samples):
        a, b = shared_edge_patches()
        self.check(a, "u1", b, "u0", samples)

    @pytest.mark.parametrize("samples", [2, 33])
    def test_equal_values_cross_sign(self, uv_patch, samples):
        a, b = shared_edge_patches()
        self.check(a, "u1", b, "u1", samples)
        self.check(uv_patch, "u1", uv_patch, "u1", samples)

    @pytest.mark.parametrize("samples", [2, 33])
    def test_reversed_side(self, uv_patch, samples):
        self.check(uv_patch, "u1", uv_patch, "u1r", samples)
        a, b = shared_edge_patches()
        self.check(a, "v0r", b, "u0", samples)

    @pytest.mark.parametrize("samples", [2, 33])
    def test_collapsed_edge_counts_degenerate_normals(self, samples):
        pole = collapsed_edge_patch()
        other = random_patch(np.random.default_rng(12))
        whole = self.check(pole, "v0", other, "u1", samples)
        assert whole.degenerate_normals == samples
        # only the u0 endpoint t = 0 lies on the collapsed edge
        end = self.check(pole, "u0", other, "v0", samples)
        assert end.degenerate_normals == 1
        assert self.check(other, "u0", pole, "u0r", samples).degenerate_normals == 1

    def test_all_degenerate_plane(self):
        m = np.array([[0, 1, 1, 1], [1, 2, 1, 1], [1, 1, 0, 0], [1, 1, 0, 0]], dtype=float)
        p = GeometricPatch(m, m, np.zeros((4, 4)))
        assert self.check(p, "u0", p, "u0", 9).degenerate_normals == 9

    def test_grid_joints_raw_and_built(self, grid_patches):
        raw, done, joints = grid_patches
        for key_a, side_a, key_b, side_b in joints:
            assert self.check(raw[key_a], side_a, raw[key_b], side_b).position_ok
            self.check(done[key_a], side_a, done[key_b], side_b)

    def test_tolerances_and_sample_counts(self):
        a, b = shared_edge_patches()
        for samples in (3, 17, 64):
            self.check(a, "u1", b, "u0", samples, tol_position=0.0, tol_cross=1.0,
                       tol_normal=0.1)

    def test_jet_batch_matches_scalar_calls(self):
        # arrays of u and v give the jets on the grid u x v; a scalar drops its axis
        rng = np.random.default_rng(8)
        patch = random_patch(rng, scale=10.0)
        us, vs = rng.uniform(size=9), rng.uniform(size=7)
        bound = REL_GAP * max_control(patch)
        grid = eval_patch_jet(patch, us, vs)
        rows = [eval_patch_jet(patch, u, vs) for u in us]
        for i, j in np.ndindex(9, 7):
            one = oracle_jet(patch, float(us[i]), float(vs[j]))
            column = eval_patch_jet(patch, us, vs[j])
            for field in ("point", "du", "dv"):
                want = getattr(one, field)
                assert getattr(grid, field).shape == (9, 7, 3)
                assert np.max(np.abs(getattr(grid, field)[i, j] - want)) <= bound
                assert np.max(np.abs(getattr(rows[i], field)[j] - want)) <= bound
                assert np.max(np.abs(getattr(column, field)[i] - want)) <= bound
                scalar = getattr(eval_patch_jet(patch, us[i], vs[j]), field)
                assert scalar.shape == (3,)
                assert np.max(np.abs(scalar - want)) <= bound


# --------------------------------------------------------------- properties

finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
matrix = st.lists(finite, min_size=16, max_size=16).map(lambda xs: np.reshape(xs, (4, 4)))
hermite_patch = st.tuples(matrix, matrix, matrix).map(lambda xyz: GeometricPatch(*xyz))
# multiples of 1/8 keep every monomial entry exact, and each nonzero line
# coefficient at least 1/(8 n^3) away from zero, so rounding cannot move a
# degree across the 1e-9 threshold in either implementation
dyadic = st.integers(-64, 64).map(lambda k: k / 8)
dyadic_matrix = st.lists(dyadic, min_size=16, max_size=16).map(lambda xs: np.reshape(xs, (4, 4)))
dyadic_patch = st.tuples(dyadic_matrix, dyadic_matrix, dyadic_matrix).map(
    lambda xyz: GeometricPatch(*xyz))


@settings(max_examples=60, deadline=None)
@given(patch=dyadic_patch, grid=st.integers(1, 12))
def test_audit_matches_oracle_on_random_patches(patch, grid):
    assert degree_audit(patch, grid) == oracle_degree_audit(patch, grid)


@settings(max_examples=60, deadline=None)
@given(a=hermite_patch, b=hermite_patch, side_a=st.sampled_from(SIDE_NAMES),
       side_b=st.sampled_from(SIDE_NAMES), samples=st.integers(2, 40))
def test_continuity_matches_oracle_on_random_patches(a, b, side_a, side_b, samples):
    sa, sb = Side.parse(side_a), Side.parse(side_b)
    assert_reports_close(continuity_check(a, sa, b, sb, samples=samples),
                         oracle_continuity(a, sa, b, sb, samples=samples), a, b)
