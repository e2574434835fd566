import json
import sys
import weakref
from decimal import Decimal

import numpy as np
import pytest

import hspatch.cli
import hspatch.mesh
from hspatch import (
    Basis,
    BasisMismatchError,
    GeometricPatch,
    TessPattern,
    TriangleMesh,
    export_obj,
    tessellate,
)

from hspatch.cli import main
from hspatch.documents import FLOAT_FORMAT, PatchSetDocument, save_patchset
from hspatch.documents import _spell_floats, format_rows
from hspatch.mesh import _BLOCK, _cell_triangles, _index_tokens

from conftest import UV_X, UV_Y, assert_same_text

ALL_PATTERNS = [TessPattern.DIAG_NE, TessPattern.DIAG_NW, TessPattern.ALTERNATING]


def flat_square() -> GeometricPatch:
    return GeometricPatch(UV_X, UV_Y, np.zeros((4, 4)))


# --- reference oracles: the straightforward per-cell and per-line forms ------


def reference_cell_triangles(n: int, pattern: TessPattern) -> np.ndarray:
    tris = []
    for j in range(n):
        for i in range(n):
            v00 = j * (n + 1) + i
            v10 = v00 + 1
            v01 = v00 + (n + 1)
            v11 = v01 + 1
            ne = pattern is TessPattern.DIAG_NE or (
                pattern is TessPattern.ALTERNATING and (i + j) % 2 == 0
            )
            if ne:
                tris.append((v00, v10, v11))
                tris.append((v00, v11, v01))
            else:
                tris.append((v00, v10, v01))
                tris.append((v10, v11, v01))
    return np.array(tris, dtype=np.int64)


def reference_export_obj(meshes) -> str:
    def fmt(x):
        return format(float(x), ".17g")

    if isinstance(meshes, TriangleMesh):
        meshes = [meshes]
    meshes = list(meshes)
    total_v = sum(len(m.vertices) for m in meshes)
    total_t = sum(len(m.triangles) for m in meshes)
    lines = [
        "# hspatch OBJ export",
        f"# groups: {sum(1 for m in meshes if len(m.vertices))}"
        f" vertices: {total_v} triangles: {total_t}",
    ]
    offset = 1
    for k, m in enumerate(meshes):
        if not len(m.vertices):
            continue
        lines.append(f"g patch_{k}")
        for v in m.vertices:
            lines.append(f"v {fmt(v[0])} {fmt(v[1])} {fmt(v[2])}")
        for t in m.uvs:
            lines.append(f"vt {fmt(t[0])} {fmt(t[1])}")
        for nrm in m.normals:
            lines.append(f"vn {fmt(nrm[0])} {fmt(nrm[1])} {fmt(nrm[2])}")
        for a, b, c in m.triangles + offset:
            lines.append(f"f {a}/{a}/{a} {b}/{b}/{b} {c}/{c}/{c}")
        offset += len(m.vertices)
    return "\n".join(lines) + "\n"


SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                  1.7976931348623157e308, -1.7976931348623157e308, 1 / 3, -2 / 3,
                  0.1, 1e16, 123456789.125, 1e-7]


def empty_mesh() -> TriangleMesh:
    return TriangleMesh(
        vertices=np.zeros((0, 3)), normals=np.zeros((0, 3)),
        uvs=np.zeros((0, 2)), triangles=np.zeros((0, 3), dtype=int),
    )


def special_mesh(triangles=((0, 1, 2), (0, 2, 3))) -> TriangleMesh:
    """Four vertices whose coordinates, uvs and normals cycle through SPECIAL_FLOATS."""
    values = np.resize(np.array(SPECIAL_FLOATS), 4 * 8).reshape(4, 8)
    return TriangleMesh(
        vertices=values[:, :3], normals=values[:, 3:6][::-1], uvs=values[:, 6:],
        triangles=np.array(triangles, dtype=np.int64).reshape(-1, 3),
    )


class TestTessellate:
    def test_minimal_counts(self, uv_patch):
        m = tessellate(uv_patch, 1, TessPattern.DIAG_NE)
        assert len(m.vertices) == 4
        assert len(m.triangles) == 2

    @pytest.mark.parametrize("pattern", ALL_PATTERNS)
    def test_counts_at_n8(self, uv_patch, pattern):
        m = tessellate(uv_patch, 8, pattern)
        assert len(m.vertices) == 81
        assert len(m.triangles) == 128
        assert len(m.normals) == 81
        assert len(m.uvs) == 81

    def test_planar_patch_normals(self):
        m = tessellate(flat_square(), 4)
        assert np.allclose(np.abs(m.normals[:, 2]), 1.0)
        assert np.allclose(m.normals[:, :2], 0.0)
        assert m.degenerate_normals == []

    def test_vertices_bitwise_pattern_independent(self, uv_patch):
        meshes = [tessellate(uv_patch, 5, p) for p in ALL_PATTERNS]
        for m in meshes[1:]:
            assert np.array_equal(meshes[0].vertices, m.vertices)
            assert np.array_equal(meshes[0].normals, m.normals)

    def test_vertex_order_and_uvs(self, uv_patch):
        n = 3
        m = tessellate(uv_patch, n)
        for j in range(n + 1):
            for i in range(n + 1):
                k = j * (n + 1) + i
                assert m.uvs[k, 0] == i / n
                assert m.uvs[k, 1] == j / n
                # x = u, y = v on this patch
                assert m.vertices[k, 0] == pytest.approx(i / n, abs=1e-15)
                assert m.vertices[k, 1] == pytest.approx(j / n, abs=1e-15)

    def test_nested_refinement_is_bitwise(self, uv_patch):
        for n in (1, 2, 4):
            coarse = tessellate(uv_patch, n)
            fine = tessellate(uv_patch, 2 * n)
            for j in range(n + 1):
                for i in range(n + 1):
                    k = j * (n + 1) + i
                    k2 = (2 * j) * (2 * n + 1) + 2 * i
                    assert np.array_equal(coarse.vertices[k], fine.vertices[k2])

    @pytest.mark.parametrize("pattern", ALL_PATTERNS)
    def test_winding_positive_in_uv(self, uv_patch, pattern):
        m = tessellate(uv_patch, 4, pattern)
        for tri in m.triangles:
            a, b, c = m.uvs[tri]
            area2 = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
            assert area2 > 0

    def test_euler_characteristic_of_disk(self, uv_patch):
        for n in (1, 2, 5):
            m = tessellate(uv_patch, n)
            edges = set()
            for a, b, c in m.triangles:
                for e in ((a, b), (b, c), (c, a)):
                    edges.add(tuple(sorted(e)))
            v, e, f = len(m.vertices), len(edges), len(m.triangles)
            assert v - e + f == 1

    def test_unit_or_flagged_normals(self):
        rng = np.random.default_rng(41)
        mats = [rng.uniform(-1, 1, size=(4, 4)) for _ in range(3)]
        m = tessellate(GeometricPatch(*mats), 6)
        lengths = np.linalg.norm(m.normals, axis=1)
        for k, ln in enumerate(lengths):
            if k in m.degenerate_normals:
                assert ln == 0.0
            else:
                assert abs(ln - 1.0) <= 1e-9

    def test_degenerate_normal_flagged(self):
        # x = y = u + v: du parallel to dv everywhere
        m = np.array([
            [0, 1, 1, 1],
            [1, 2, 1, 1],
            [1, 1, 0, 0],
            [1, 1, 0, 0],
        ], dtype=float)
        mesh = tessellate(GeometricPatch(m, m, np.zeros((4, 4))), 2)
        assert len(mesh.degenerate_normals) == 9
        assert np.all(mesh.normals == 0.0)

    def test_grid_arrays_are_shared_and_read_only(self, uv_patch):
        a = tessellate(uv_patch, 3, TessPattern.ALTERNATING)
        b = tessellate(flat_square(), 3, TessPattern.ALTERNATING)
        assert a.uvs is b.uvs and a.triangles is b.triangles
        with pytest.raises(ValueError):
            a.uvs[0, 0] = 0.5
        with pytest.raises(ValueError):
            b.triangles[0] = (0, 1, 2)
        for other in (tessellate(uv_patch, 4, TessPattern.ALTERNATING),
                      tessellate(uv_patch, 3, TessPattern.DIAG_NE)):
            assert other.uvs is not a.uvs and other.triangles is not a.triangles
        assert not np.array_equal(tessellate(uv_patch, 3).triangles, a.triangles)

    def test_rejects_wrong_basis_and_level(self, uv_patch):
        bez = GeometricPatch(uv_patch.x, uv_patch.y, uv_patch.z, Basis.BEZIER)
        with pytest.raises(BasisMismatchError):
            tessellate(bez, 4)
        with pytest.raises(ValueError):
            tessellate(uv_patch, 0)


class TestExportObj:
    def test_unit_square_layout(self):
        text = export_obj(tessellate(flat_square(), 1, TessPattern.DIAG_NE))
        lines = text.splitlines()
        v_lines = [l for l in lines if l.startswith("v ")]
        f_lines = [l for l in lines if l.startswith("f ")]
        assert len(v_lines) == 4
        assert len(f_lines) == 2
        assert f_lines[0] == "f 1/1/1 2/2/2 4/4/4"
        assert f_lines[1] == "f 1/1/1 4/4/4 3/3/3"
        assert lines[2] == "g patch_0"

    def test_empty_mesh_header_only(self):
        text = export_obj(empty_mesh())
        assert all(line.startswith("#") for line in text.splitlines())

    def test_reparse_round_trip(self, uv_patch):
        mesh = tessellate(uv_patch, 3)
        text = export_obj(mesh)
        parsed = []
        for line in text.splitlines():
            if line.startswith("v "):
                parsed.append([float(tok) for tok in line.split()[1:]])
        assert np.array_equal(np.array(parsed), mesh.vertices)

    def test_byte_deterministic(self, uv_patch):
        meshes = [tessellate(uv_patch, 4), tessellate(uv_patch, 2, TessPattern.ALTERNATING)]
        assert_same_text(export_obj(meshes), export_obj(meshes))

    def test_multi_group_offsets(self, uv_patch):
        meshes = [tessellate(uv_patch, 1), tessellate(uv_patch, 1)]
        text = export_obj(meshes)
        f_lines = [l for l in text.splitlines() if l.startswith("f ")]
        # second group's first face references vertices 5..8
        assert f_lines[2] == "f 5/5/5 6/6/6 8/8/8"
        groups = [l for l in text.splitlines() if l.startswith("g ")]
        assert groups == ["g patch_0", "g patch_1"]

    def test_index_bounds_validated(self):
        with pytest.raises(ValueError):
            TriangleMesh(
                vertices=np.zeros((3, 3)), normals=np.zeros((3, 3)),
                uvs=np.zeros((3, 2)), triangles=np.array([[0, 1, 3]]),
            )


class TestCellTrianglesOracle:
    @pytest.mark.parametrize("pattern", ALL_PATTERNS)
    @pytest.mark.parametrize("n", range(1, 10))
    def test_matches_per_cell_loop(self, n, pattern):
        got = _cell_triangles(n, pattern)
        expected = reference_cell_triangles(n, pattern)
        assert got.dtype == np.int64
        assert np.array_equal(got, expected)


class TestExportObjOracle:
    def test_float_format_matches_format_spec(self):
        rng = np.random.default_rng(7)
        # random bit patterns cover subnormals, huge exponents, nan and inf
        bits = rng.integers(0, 2**64, size=20000, dtype=np.uint64).view(np.float64)
        values = SPECIAL_FLOATS + [float("nan"), float("inf"), -float("inf")] + bits.tolist()
        for x in values:
            assert FLOAT_FORMAT % x == format(x, ".17g")

    def test_special_values(self):
        mesh = special_mesh()
        text = export_obj(mesh)
        assert_same_text(text, reference_export_obj(mesh))
        assert "v 0 -0 4.9406564584124654e-324" in text
        assert "1.7976931348623157e+308" in text

    def test_multi_group_offsets(self, uv_patch):
        rng = np.random.default_rng(3)
        patches = [uv_patch] + [GeometricPatch(*rng.uniform(-2, 2, size=(3, 4, 4)))
                                for _ in range(3)]
        meshes = [tessellate(p, n, pattern) for p, n, pattern
                  in zip(patches, (1, 3, 4, 2), ALL_PATTERNS + [TessPattern.DIAG_NE])]
        meshes.append(special_mesh())
        assert_same_text(export_obj(meshes), reference_export_obj(meshes))

    def test_empty_groups(self, uv_patch):
        assert_same_text(export_obj([]), reference_export_obj([]))
        assert_same_text(export_obj([empty_mesh(), empty_mesh()]),
                         reference_export_obj([empty_mesh(), empty_mesh()]))
        # an empty group in the middle is skipped but keeps its number
        meshes = [tessellate(uv_patch, 2), empty_mesh(), tessellate(uv_patch, 1)]
        assert_same_text(export_obj(meshes), reference_export_obj(meshes))

    def test_vt_block_reuse_follows_uvs(self, uv_patch):
        # export_obj reuses the previous group's vt text when the uvs repeat;
        # groups at changing n, and uvs that differ only in the sign of a
        # zero, must each get their own block
        meshes = [tessellate(uv_patch, n) for n in (2, 2, 3, 2, 3, 3, 1)]
        assert_same_text(export_obj(meshes), reference_export_obj(meshes))
        signed = special_mesh()
        signed.uvs = np.where(signed.uvs == 0.0, -signed.uvs, signed.uvs)
        assert not np.array_equal(np.signbit(signed.uvs), np.signbit(special_mesh().uvs))
        meshes = [special_mesh(), signed, special_mesh(), special_mesh()]
        text = export_obj(meshes)
        assert_same_text(text, reference_export_obj(meshes))
        assert text.count("vt 0 ") != text.count("vt -0 ")

    def test_vertices_without_triangles(self):
        meshes = [special_mesh(triangles=()), special_mesh()]
        text = export_obj(meshes)
        assert_same_text(text, reference_export_obj(meshes))
        assert "\n\n" not in text
        assert_same_text(export_obj(meshes[0]), reference_export_obj(meshes[0]))


class TestCliObjWrite:
    def test_commands_call_export_obj_by_name(self, uv_patch, tmp_path, monkeypatch):
        # out-of-process tracers wrap hspatch.cli.export_obj; every OBJ must go through it
        calls = []
        real = hspatch.cli.export_obj

        def spy(meshes):
            calls.append(len(meshes))
            return real(meshes)

        monkeypatch.setattr(hspatch.cli, "export_obj", spy)
        doc = tmp_path / "uv.json"
        save_patchset(PatchSetDocument(basis="hermite", patches=[uv_patch]), doc)
        assert main(["tessellate", str(doc), "--n", "2", "--out", str(tmp_path / "a.obj")]) == 0
        assert main(["demo-teapot", "--n", "1", "--out", str(tmp_path / "b.obj")]) == 0
        assert calls == [1, 32]
        assert (tmp_path / "a.obj").read_text(encoding="utf-8") == export_obj(
            tessellate(uv_patch, 2))

    def test_obj_longer_than_one_write_slice_is_written_whole(self, uv_patch, tmp_path):
        doc, out = tmp_path / "uv.json", tmp_path / "big.obj"
        save_patchset(PatchSetDocument(basis="hermite", patches=[uv_patch]), doc)
        assert main(["tessellate", str(doc), "--n", "120", "--out", str(out)]) == 0
        want = export_obj(tessellate(uv_patch, 120))
        assert len(want.encode("utf-8")) > 2 * (1 << 20)
        assert_same_text(out.read_bytes().decode("utf-8"), want)


def spelled(values) -> list[str]:
    """The OBJ kernel's text of each value, NUL padding removed."""
    fields = _spell_floats(np.asarray(values, dtype=float))
    return [field.tobytes().replace(b"\0", b"").decode("ascii") for field in fields]


class TestObjKernelOracle:
    """The vectorized OBJ writer against FLOAT_FORMAT % x, value by value."""

    def test_random_bit_patterns_and_special_values(self):
        rng = np.random.default_rng(19)
        bits = rng.integers(0, 2**64, size=20000, dtype=np.uint64).view(np.float64)
        values = SPECIAL_FLOATS + [float("nan"), float("inf"), -float("inf")] + bits.tolist()
        values += rng.uniform(-3, 3, 5000).tolist()  # the fast path, teapot-like values
        assert spelled(values) == [FLOAT_FORMAT % x for x in values]

    def test_powers_of_ten_and_their_neighbours(self):
        values = []
        for j in range(-5, 18):
            p = float(f"1e{j}")
            values += [p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)]
        values += [-x for x in values]
        assert spelled(values) == [FLOAT_FORMAT % float(x) for x in values]

    def test_exact_ties_round_half_to_even(self):
        # 2**e * (1 + j / 2**17), j odd: exact decimals whose 18th significant digit
        # is a final 5 for many e, so the 17-digit rounding is an exact tie
        values = [2.0 ** e * (1 + j / 2**17) for e in range(-12, 40) for j in range(1, 2**17, 262)]
        ties = [x for x in values if len(Decimal(x).normalize().as_tuple().digits) == 18
                and Decimal(x).as_tuple().digits[-1] == 5]
        assert len(ties) > 500
        down = [x for x in ties if Decimal(FLOAT_FORMAT % x) < Decimal(x)]
        assert 0 < len(down) < len(ties)  # both directions occur, as half-to-even asks
        assert spelled(values) == [FLOAT_FORMAT % x for x in values]

    def test_fallback_values_at_block_edges(self):
        nv = 3 * _BLOCK + 37
        rng = np.random.default_rng(23)
        values = rng.uniform(-2, 2, size=(nv, 8))
        odd = [float("nan"), float("inf"), -float("inf"), 1e300, 5e-324, -0.0, 0.0, 1e16, 9e-5]
        for row in (0, _BLOCK - 1, _BLOCK, 2 * _BLOCK - 1, 2 * _BLOCK, 3 * _BLOCK, nv - 1):
            values[row] = np.resize(rng.permutation(odd), 8)
        tris = rng.integers(0, nv, size=(2 * _BLOCK + 5, 3))
        mesh = TriangleMesh(vertices=values[:, :3], normals=values[:, 3:6], uvs=values[:, 6:],
                            triangles=tris)
        meshes = [tessellate(flat_square(), 2), mesh, mesh]
        assert_same_text(export_obj(meshes), reference_export_obj(meshes))

    @staticmethod
    def fallback_values(rng, size: int) -> list[float]:
        """Values that FLOAT_FORMAT spells for the kernel: |x| < 1e-4 but not 0, |x| >= 1e16,
        subnormals, inf and nan, among them twist round-off such as 1e-17."""
        tiny = rng.uniform(-1e-4, 1e-4, size) * 10.0 ** rng.integers(-300, 1, size)
        huge = rng.uniform(1, 10, size) * 10.0 ** rng.integers(16, 308, size)
        subnormal = rng.integers(1, 2**52, size, dtype=np.int64).view(np.float64)
        odd = [1e-17, -1e-17, 9.9999999999999991e-5, -1e16, 1e300, 5e-324,
               float("inf"), -float("inf"), float("nan")]
        subnormal *= rng.choice([-1, 1], size)
        values = odd + tiny.tolist() + huge.tolist() + subnormal.tolist()
        return rng.permutation(np.array(values)).tolist()

    @pytest.mark.parametrize("size", [1, 9, 300])
    def test_all_fallback_block(self, size):
        values = self.fallback_values(np.random.default_rng(size), size)
        assert not any(1e-4 <= abs(x) < 1e16 or x == 0 for x in values)
        assert spelled(values) == [FLOAT_FORMAT % x for x in values]

    def test_mixed_blocks(self):
        rng = np.random.default_rng(31)
        fast = rng.uniform(-3, 3, 2000) * 10.0 ** rng.integers(-3, 15, 2000)
        for share in (0.01, 0.5, 0.99):
            values = np.where(rng.random(2000) < share,
                              np.resize(self.fallback_values(rng, 700), 2000), fast)
            values[rng.random(2000) < 0.05] = 0.0
            values = values.tolist()
            assert spelled(values) == [FLOAT_FORMAT % x for x in values]

    def test_format_rows_places_every_field(self):
        # the template of one patch-set row: slots between literal pieces of every length
        rng = np.random.default_rng(37)
        template = '  "x": [' + ", ".join([FLOAT_FORMAT] * 5) + "],\n\t" + FLOAT_FORMAT + "\n"
        fallback = np.resize(self.fallback_values(rng, 80), (40, 6))
        rows = np.where(rng.random((40, 6)) < 0.3, fallback, rng.uniform(-2, 2, (40, 6)))
        for block in (rows, rows[:1], rows[:0]):
            assert format_rows(template, block) == "".join(
                template % tuple(row) for row in block.tolist())

    @pytest.mark.parametrize("a", [1, 9, 10, 99999999, 10**8, 10**12, 2**63 - 1])
    def test_index_tokens(self, a):
        token = _index_tokens(a, 1)[0].tobytes().replace(b"\0", b"")
        assert token == f"{a}/{a}/{a}".encode()

    def test_index_tokens_across_digit_counts(self):
        tokens = _index_tokens(95, 10)
        assert tokens.shape == (10, 11)
        assert [t.tobytes().replace(b"\0", b"").decode() for t in tokens] == [
            f"{a}/{a}/{a}" for a in range(95, 105)]


class TestMeshRelease:
    """export_obj lets each mesh go once its group is written, from its own list only."""

    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="the callee takes over its argument references from 3.11")
    def test_demo_teapot_holds_at_most_one_mesh_while_writing_the_last_group(
            self, tmp_path, monkeypatch):
        refs, alive_at_f = [], []
        real_tessellate, real_lines = hspatch.cli.tessellate, hspatch.mesh._lines

        def tessellate_spy(*args, **kwargs):
            mesh = real_tessellate(*args, **kwargs)
            refs.append(weakref.ref(mesh))
            return mesh

        def lines_spy(template, rows, spell=None):
            if template.startswith("f "):
                alive_at_f.append(sum(ref() is not None for ref in refs))
            return real_lines(template, rows, spell)

        monkeypatch.setattr(hspatch.cli, "tessellate", tessellate_spy)
        monkeypatch.setattr(hspatch.mesh, "_lines", lines_spy)
        assert main(["demo-teapot", "--n", "2", "--out", str(tmp_path / "t.obj")]) == 0
        assert len(refs) == len(alive_at_f) == 32
        assert alive_at_f[-1] <= 1
        assert all(ref() is None for ref in refs)

    def test_caller_list_keeps_its_meshes(self, uv_patch):
        ms = [tessellate(uv_patch, 3), special_mesh(), tessellate(flat_square(), 2)]
        held = list(ms)
        arrays = [(m.vertices.copy(), m.normals.copy(), m.uvs.copy(), m.triangles.copy())
                  for m in ms]
        first = export_obj(ms)
        assert all(a is b for a, b in zip(ms, held)) and len(ms) == len(held)
        for m, before in zip(ms, arrays):
            after = (m.vertices, m.normals, m.uvs, m.triangles)
            assert all(np.array_equal(a, b) for a, b in zip(after, before))
        assert export_obj(ms) == first

    def test_tessellate_json_totals_match_the_obj_header(self, uv_patch, tmp_path, capsys):
        doc, out = tmp_path / "two.json", tmp_path / "two.obj"
        save_patchset(PatchSetDocument(basis="hermite",
                                       patches=[uv_patch, flat_square()]), doc)
        assert main(["tessellate", str(doc), "--n", "3", "--out", str(out), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        header = out.read_text(encoding="utf-8").splitlines()[1]
        assert header == (f"# groups: 2 vertices: {report['vertices']}"
                          f" triangles: {report['triangles']}")
        assert (report["patches"], report["vertices"], report["triangles"]) == (2, 32, 36)
