import numpy as np
import pytest

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
)
from hspatch.analysis import DIRECTIONS
from hspatch.cli import main
from hspatch.documents import PatchSetDocument, save_patchset

from conftest import UV_X, UV_Y, UV_Z, e11_matrix, random_feasible_input


def plane_patch(z_matrix) -> GeometricPatch:
    return GeometricPatch(UV_X, UV_Y, z_matrix)


class TestDegreeAudit:
    def test_uv_patch_is_at_most_quadratic(self, uv_patch):
        for n in (1, 2, 4):
            degrees = degree_audit(uv_patch, n)
            assert set(degrees) == set(DIRECTIONS)
            assert all(d <= 2 for d in degrees.values())

    def test_generic_patch_reports_degree_six_on_slopes(self):
        p = plane_patch(e11_matrix())
        degrees = degree_audit(p, 2)
        assert degrees["slope_pos"] == 6
        assert degrees["slope_neg"] == 6
        assert degrees["horizontal"] <= 3
        assert degrees["vertical"] <= 3

    def test_constrained_patches_stay_cubic_on_all_grids(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            built = build_hs_patch(random_feasible_input(rng), Policy.STRICT)
            for n in (1, 2, 4, 8):
                degrees = degree_audit(built.patch, n)
                assert all(d <= 3 for d in degrees.values()), (n, degrees)

    def test_rejects_bad_grid(self, uv_patch):
        with pytest.raises(ValueError):
            degree_audit(uv_patch, 0)

    @staticmethod
    def lifted_corner(scale):
        return GeometricPatch(*(np.array(m, dtype=float) * scale for m in (UV_X, UV_Y, e11_matrix())))

    @pytest.mark.parametrize("scale", [1.0, 1e300, 1e306])
    def test_large_patch_still_audits_degree_six(self, scale):
        degrees = degree_audit(self.lifted_corner(scale), 2)
        assert degrees["slope_pos"] == degrees["slope_neg"] == 6

    @pytest.mark.parametrize("scale", [1e307, 1.7e308, -1.7e308])
    def test_overflowing_coefficients_are_an_error(self, scale, recwarn):
        # slope-line or monomial coefficients overflow to inf; at 1.7e308 that
        # once made every degree 0, so the audit printed "all cubic"
        with pytest.raises(ValueError, match="overflow the float range"):
            degree_audit(self.lifted_corner(scale), 2)
        assert len(recwarn) == 0

    def test_overflowing_audit_exits_two_without_warnings(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        save_patchset(PatchSetDocument("hermite", [self.lifted_corner(1.7e308)]), path)
        assert main(["audit", str(path), "--grid", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: degree audit: polynomial coefficients overflow the float range\n"


def shared_edge_patches():
    """Two constrained patches agreeing in corners and tangents along u1/u0."""
    rng = np.random.default_rng(32)

    def controls(corners, tangents):
        return HsControls(tuple(corners), tuple(tangents))

    def random_input(shared_right=None):
        coords = {}
        for name in ("x", "y", "z"):
            corners = rng.uniform(-1, 1, size=4)
            tangents = rng.uniform(-1, 1, size=8)
            if shared_right is not None:
                prev_c, prev_t = shared_right[name]
                # left edge (u=0) of B copies the right edge (u=1) of A:
                # corners x11,x12 <- x21,x22; v-tangents x13,x14 <- x23,x24
                corners[0], corners[1] = prev_c[2], prev_c[3]
                tangents[0], tangents[1] = prev_t[2], prev_t[3]
            coords[name] = (corners, tangents)
        return coords

    raw_a = random_input()
    raw_b = random_input(shared_right=raw_a)

    def finish(raw):
        # fix the residual by adjusting x31/x32 only, keeping the shared
        # boundary data (corners and v-tangents) untouched
        out = {}
        for name, (corners, tangents) in raw.items():
            c = controls(corners, tangents)
            phi = corners[0] - corners[1] - corners[2] + corners[3]
            a = tangents[1] - tangents[3] + tangents[6] - tangents[7]
            b = tangents[0] - tangents[2] + tangents[6] - tangents[7]
            cc = tangents[4] - tangents[5] - tangents[6] + tangents[7]
            residual = a + b + cc + 4 * phi
            tangents = tangents.copy()
            tangents[4] -= residual  # x31 carries coefficient +1 in c
            out[name] = controls(corners, tangents)
        return HsPatchInput(x=out["x"], y=out["y"], z=out["z"])

    a = build_hs_patch(finish(raw_a), Policy.STRICT)
    b = build_hs_patch(finish(raw_b), Policy.STRICT)
    return a.patch, b.patch


class TestContinuity:
    def test_self_comparison_same_side(self, uv_patch):
        rep = continuity_check(uv_patch, Side.parse("u1"), uv_patch, Side.parse("u1"))
        assert rep.max_position_gap == 0.0
        # cross derivatives oppose on the same side: gap is twice their size
        sizes = [
            np.linalg.norm(eval_patch_jet(uv_patch, 1.0, t).du)
            for t in np.linspace(0, 1, rep.samples)
        ]
        assert rep.max_cross_gap == pytest.approx(2 * max(sizes), rel=1e-12)
        assert rep.max_normal_angle <= 1e-12  # same plane either way

    def test_shared_boundary_patches_are_c0(self):
        a, b = shared_edge_patches()
        rep = continuity_check(a, Side.parse("u1"), b, Side.parse("u0"), samples=33)
        assert rep.max_position_gap <= 1e-12
        assert rep.position_ok

    def test_translated_copy_reports_exact_gap(self):
        # dyadic delta and the default 33 dyadic samples keep evaluation exact
        delta = 0.5
        base = plane_patch(np.zeros((4, 4)))
        lifted = base.translated((0.0, 0.0, delta))
        rep = continuity_check(base, Side.parse("u1"), lifted, Side.parse("u1"))
        assert rep.max_position_gap == delta

    def test_g1_angle_is_scale_invariant(self):
        a, b = shared_edge_patches()
        rep1 = continuity_check(a, Side.parse("u1"), b, Side.parse("u0"), samples=17)

        def scaled(p, s):
            return GeometricPatch(p.x * s, p.y * s, p.z * s, p.basis)

        for s in (2.0, 1.7, 1e3):
            rep2 = continuity_check(scaled(a, s), Side.parse("u1"),
                                    scaled(b, s), Side.parse("u0"), samples=17)
            assert abs(rep2.max_normal_angle - rep1.max_normal_angle) <= 1e-10

    def test_degenerate_normals_are_counted(self):
        # x = y = u + v collapses the normal everywhere on the plane z = 0
        m = np.array([
            [0, 1, 1, 1],
            [1, 2, 1, 1],
            [1, 1, 0, 0],
            [1, 1, 0, 0],
        ], dtype=float)
        p = GeometricPatch(m, m, np.zeros((4, 4)))
        rep = continuity_check(p, Side.parse("u0"), p, Side.parse("u0"), samples=9)
        assert rep.degenerate_normals == 9
        assert rep.max_normal_angle == 0.0

    def test_reversed_side_matches_reversed_samples(self, uv_patch):
        # comparing u1 against itself reversed must show the endpoint spread
        rep = continuity_check(uv_patch, Side.parse("u1"), uv_patch, Side.parse("u1r"))
        # boundary curve of u1 runs from (1,0,0) to (1,1,1): reversed pairing
        # puts opposite endpoints together, gap sqrt(0^2+1+1)
        assert rep.max_position_gap == pytest.approx(np.sqrt(2.0), rel=1e-12)

    def test_sample_count_validation(self, uv_patch):
        with pytest.raises(ValueError):
            continuity_check(uv_patch, Side.parse("u0"), uv_patch, Side.parse("u1"), samples=1)


class TestSide:
    def test_parse_round_trip(self):
        for name in ("u0", "u1", "v0", "v1", "u0r", "v1r"):
            assert str(Side.parse(name)) == name

    def test_parse_rejects_garbage(self):
        for bad in ("w0", "u2", "", "uv", "u00"):
            with pytest.raises(ValueError):
                Side.parse(bad)
