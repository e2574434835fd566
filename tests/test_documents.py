import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hspatch import Basis, DocumentError, GeometricPatch, HsControls, HsPatchInput, Side
from hspatch.documents import (
    _PATCH_BLOCK,
    HS_INPUT_BASIS,
    Adjacency,
    PatchSetDocument,
    bundled_teapot_path,
    parse_patchset,
    parse_teapot,
    serialize_patchset,
    teapot_bezier_patches,
)

from conftest import UV_X, UV_Y, UV_Z, assert_same_text


def uv_document() -> PatchSetDocument:
    return PatchSetDocument(
        basis="hermite",
        patches=[GeometricPatch(UV_X, UV_Y, UV_Z)],
        adjacency=[],
    )


class TestPatchSetRoundTrip:
    def test_lossless_for_awkward_doubles(self):
        rng = np.random.default_rng(51)
        mats = [rng.uniform(-1, 1, size=(4, 4)) for _ in range(3)]
        mats[0][0, 0] = 0.1
        mats[1][1, 1] = 1e-17
        mats[2][2, 2] = -12345.678901234567
        doc = PatchSetDocument(basis="hermite",
                               patches=[GeometricPatch(*mats)], adjacency=[])
        text = serialize_patchset(doc)
        back = parse_patchset(text)
        for name in ("x", "y", "z"):
            assert np.array_equal(getattr(back.patches[0], name),
                                  getattr(doc.patches[0], name))

    def test_serialization_is_stable(self):
        doc = uv_document()
        assert serialize_patchset(doc) == serialize_patchset(parse_patchset(serialize_patchset(doc)))

    def test_hs_input_round_trip(self):
        controls = HsControls.from_flat([0, 0, 0, 1, 0, 0, 1, 1, 0, 1, 0, 1])
        doc = PatchSetDocument(
            basis="hs-input",
            patches=[HsPatchInput(x=controls, y=controls, z=controls)],
        )
        back = parse_patchset(serialize_patchset(doc))
        assert back.basis == "hs-input"
        assert back.patches[0].z.corners == (0.0, 0.0, 0.0, 1.0)
        assert back.patches[0].z.tangents == (0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 0.0, 1.0)

    def test_adjacency_round_trip(self):
        doc = PatchSetDocument(
            basis="hermite",
            patches=[GeometricPatch(UV_X, UV_Y, UV_Z)] * 2,
            adjacency=[Adjacency(0, Side.parse("u1"), 1, Side.parse("u0r"))],
        )
        back = parse_patchset(serialize_patchset(doc))
        adj = back.adjacency[0]
        assert (adj.a, str(adj.side_a), adj.b, str(adj.side_b)) == (0, "u1", 1, "u0r")

    def test_bezier_basis_preserved(self):
        doc = PatchSetDocument(basis="bezier",
                               patches=[GeometricPatch(UV_X, UV_Y, UV_Z, Basis.BEZIER)])
        back = parse_patchset(serialize_patchset(doc))
        assert back.patches[0].basis is Basis.BEZIER


class TestPatchSetValidation:
    def test_invalid_json_reports_position(self):
        with pytest.raises(DocumentError, match="line"):
            parse_patchset("{ not json")

    def test_wrong_format_tag(self):
        with pytest.raises(DocumentError, match="format"):
            parse_patchset('{"format": "other", "version": 1, "basis": "hermite", "patches": []}')

    def test_bad_basis(self):
        with pytest.raises(DocumentError, match="basis"):
            parse_patchset('{"format": "hspatch-patchset", "version": 1, '
                           '"basis": "nurbs", "patches": []}')

    def test_wrong_matrix_shape_names_field(self):
        text = ('{"format": "hspatch-patchset", "version": 1, "basis": "hermite", '
                '"patches": [{"x": [[1,2,3],[4,5,6],[7,8,9],[1,2,3]], '
                '"y": [[0,0,0,0],[0,0,0,0],[0,0,0,0],[0,0,0,0]], '
                '"z": [[0,0,0,0],[0,0,0,0],[0,0,0,0],[0,0,0,0]]}]}')
        with pytest.raises(DocumentError, match=r"patches\[0\].x"):
            parse_patchset(text)

    def test_missing_coordinate_key(self):
        text = ('{"format": "hspatch-patchset", "version": 1, "basis": "hermite", '
                '"patches": [{"x": [], "y": []}]}')
        with pytest.raises(DocumentError, match="keys x, y, z"):
            parse_patchset(text)

    def test_hs_input_needs_12_values(self):
        text = ('{"format": "hspatch-patchset", "version": 1, "basis": "hs-input", '
                '"patches": [{"x": [1,2,3], "y": [1,2,3], "z": [1,2,3]}]}')
        with pytest.raises(DocumentError, match="12 numbers"):
            parse_patchset(text)

    def test_adjacency_out_of_range(self):
        text = ('{"format": "hspatch-patchset", "version": 1, "basis": "hermite", '
                '"patches": [], "adjacency": [[0, "u0", 1, "u1"]]}')
        with pytest.raises(DocumentError, match="adjacency"):
            parse_patchset(text)

    def test_empty_patch_list_ok(self):
        doc = parse_patchset('{"format": "hspatch-patchset", "version": 1, '
                             '"basis": "hermite", "patches": []}')
        assert doc.patches == []


class TestTeapot:
    def test_bundled_file_counts(self):
        doc = parse_teapot(bundled_teapot_path().read_text(encoding="utf-8"))
        assert doc.patches.shape == (32, 16)
        assert doc.vertices.shape == (290, 3)
        assert doc.patches.min() >= 0
        assert doc.patches.max() == len(doc.vertices) - 1

    def test_bundled_first_vertex_and_patch(self):
        doc = parse_teapot(bundled_teapot_path().read_text(encoding="utf-8"))
        assert doc.vertices[0] == pytest.approx([1.4, 0.0, 2.4])
        assert list(doc.patches[0]) == list(range(16))

    def test_bezier_patches_pick_up_net(self):
        doc = parse_teapot(bundled_teapot_path().read_text(encoding="utf-8"))
        patches = teapot_bezier_patches(doc)
        assert len(patches) == 32
        assert patches[0].basis is Basis.BEZIER
        assert patches[0].x[0, 0] == doc.vertices[doc.patches[0][0], 0]

    def test_small_synthetic_file(self):
        text = "1\n" + ",".join(str(i + 1) for i in range(16)) + "\n16\n" + \
               "\n".join(f"{i}.0, {i}.5, 0" for i in range(16)) + "\n"
        doc = parse_teapot(text)
        assert doc.patches.shape == (1, 16)
        assert doc.vertices.shape == (16, 3)

    def test_whitespace_separated_values(self):
        text = "1\n" + " ".join(str(i + 1) for i in range(16)) + "\n16\n" + \
               "\n".join(f"{i}.0 {i}.5 0" for i in range(16)) + "\n"
        assert parse_teapot(text).vertices[3, 1] == 3.5

    def test_index_out_of_range(self):
        text = "1\n" + ",".join(str(i + 1) for i in range(15)) + ",99\n3\n" + \
               "\n".join("0,0,0" for _ in range(3)) + "\n"
        with pytest.raises(DocumentError, match="range"):
            parse_teapot(text)

    def test_truncated_file(self):
        with pytest.raises(DocumentError, match="ended early"):
            parse_teapot("2\n1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16\n")

    def test_wrong_token_count(self):
        with pytest.raises(DocumentError, match="expected 16"):
            parse_teapot("1\n1,2,3\n")

    def test_comments_and_blank_lines_ignored(self):
        text = "# teapot\n\n1\n" + ",".join(str(i + 1) for i in range(16)) + \
               "\n\n16\n" + "\n".join("0,0,0" for _ in range(16)) + "\n"
        assert parse_teapot(text).patches.shape == (1, 16)

    def test_constraint_residuals_match_raw_data_oracle(self):
        # residuals computed straight from the Bezier nets via the cubic
        # endpoint-derivative identities, bypassing every conversion matrix
        from hspatch import Basis, HsControls, constraint_report, convert_patch

        doc = parse_teapot(bundled_teapot_path().read_text(encoding="utf-8"))
        for row in doc.patches:
            net = doc.vertices[row].reshape(4, 4, 3)
            for axis in range(3):
                b = net[:, :, axis]
                phi = b[0, 0] - b[0, 3] - b[3, 0] + b[3, 3]
                x13, x14 = 3 * (b[0, 1] - b[0, 0]), 3 * (b[0, 3] - b[0, 2])
                x23, x24 = 3 * (b[3, 1] - b[3, 0]), 3 * (b[3, 3] - b[3, 2])
                x31, x32 = 3 * (b[1, 0] - b[0, 0]), 3 * (b[1, 3] - b[0, 3])
                x41, x42 = 3 * (b[3, 0] - b[2, 0]), 3 * (b[3, 3] - b[2, 3])
                a_ = x14 - x24 + x41 - x42
                b_ = x13 - x23 + x41 - x42
                c_ = x31 - x32 - x41 + x42
                expected = a_ + b_ + c_ + 4 * phi

                patch = GeometricPatch(net[:, :, 0], net[:, :, 1], net[:, :, 2], Basis.BEZIER)
                hermite = convert_patch(patch, Basis.HERMITE)
                coord = hermite.coords()[axis]
                rep = constraint_report(HsControls.from_matrix(coord))
                assert float(rep.residual) == pytest.approx(expected, abs=1e-12)


# --- the writer and the entry checks that the stacked versions replaced -----


def _fmt(x) -> str:
    return "%.17g" % float(x)


def _matrix_lines(matrix, indent: str) -> list[str]:
    rows = []
    for i, row in enumerate(matrix):
        tail = "," if i < len(matrix) - 1 else ""
        rows.append(indent + "[" + ", ".join(_fmt(v) for v in row) + "]" + tail)
    return rows


def reference_serialize(doc) -> str:
    """The per-patch, per-value writer: the byte oracle of serialize_patchset."""
    out = ["{", '  "format": "hspatch-patchset",', f'  "version": {doc.version},',
           f'  "basis": "{doc.basis}",', '  "patches": [']
    for p_idx, patch in enumerate(doc.patches):
        out.append("    {")
        for c_idx, name in enumerate(("x", "y", "z")):
            tail = "," if c_idx < 2 else ""
            if doc.basis == HS_INPUT_BASIS:
                values = patch.coords()[name].flat()
                out.append(f'      "{name}": [' + ", ".join(_fmt(v) for v in values) + "]" + tail)
            else:
                out.append(f'      "{name}": [')
                out.extend(_matrix_lines(getattr(patch, name), "        "))
                out.append("      ]" + tail)
        out.append("    }" + ("," if p_idx < len(doc.patches) - 1 else ""))
    out.append("  ],")
    out.append('  "adjacency": [')
    for a_idx, adj in enumerate(doc.adjacency):
        tail = "," if a_idx < len(doc.adjacency) - 1 else ""
        out.append(f'    [{adj.a}, "{adj.side_a}", {adj.b}, "{adj.side_b}"]{tail}')
    out.append("  ]")
    out.append("}")
    return "\n".join(out) + "\n"


def _require(condition: bool, message: str):
    if not condition:
        raise DocumentError(message)


def _require_numbers(values, where: str):
    _require(all(type(v) in (int, float) for v in values), f"{where}: values must be numbers")
    try:
        finite = all(map(math.isfinite, values))
    except OverflowError:
        finite = False
    _require(finite, f"{where}: non-finite value")


def reference_entry_error(raw_patches, basis: str):
    """Message of the first entry error, checked patch by patch and row by row."""
    try:
        for idx, entry in enumerate(raw_patches):
            where = f"patches[{idx}]"
            _require(isinstance(entry, dict), f"{where}: expected an object")
            _require(set(entry.keys()) == {"x", "y", "z"},
                     f"{where}: expected exactly the keys x, y, z")
            for name in "xyz":
                raw, at = entry[name], f"{where}.{name}"
                if basis == HS_INPUT_BASIS:
                    _require(isinstance(raw, list) and len(raw) == 12,
                             f"{at}: expected 12 numbers (4 corners then 8 tangents)")
                    _require_numbers(raw, at)
                    continue
                _require(isinstance(raw, list) and len(raw) == 4, f"{at}: expected 4 rows")
                for i, row in enumerate(raw):
                    _require(isinstance(row, list) and len(row) == 4,
                             f"{at}[{i}]: expected 4 numbers")
                    _require_numbers(row, f"{at}[{i}]")
    except DocumentError as exc:
        return str(exc)
    return None


EXTREMES = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
            2.2250738585072014e-308, 0.1, -1 / 3, 1e16, 123.0]
MATRIX_BASES = ["hermite", "bezier", "bspline"]


def matrix_document(basis: str, n: int, **kw) -> PatchSetDocument:
    """n patches of random magnitudes; the first entries are EXTREMES."""
    rng = np.random.default_rng(n)
    stack = rng.uniform(-2, 2, size=(n, 3, 4, 4)) * 10.0 ** rng.integers(-300, 300, (n, 3, 4, 4))
    flat = stack.reshape(-1)
    flat[:len(EXTREMES)] = EXTREMES[:len(flat)]
    patches = [GeometricPatch(*m, Basis(basis)) for m in stack]
    if n:  # an integer beyond int64, as GeometricPatch accepts it
        patches[-1] = GeometricPatch(stack[-1, 0], stack[-1, 1], [[10**20, 0, 0, 1]] * 4,
                                     Basis(basis))
    return PatchSetDocument(basis, patches, **kw)


def hs_input_document(n: int, **kw) -> PatchSetDocument:
    values = [Fraction(1, 3), -Fraction(22, 7), 10**20, -3, 0, Fraction(10**30, 7),
              *EXTREMES]
    patches = [HsPatchInput(*(HsControls.from_flat(
        [values[(k + 5 * c + i) % len(values)] for i in range(12)]) for c in range(3)))
        for k in range(n)]
    return PatchSetDocument(HS_INPUT_BASIS, patches, **kw)


ADJACENCY = [Adjacency(0, Side.parse("u1"), 1, Side.parse("u0r")),
             Adjacency(1, Side.parse("v0"), 0, Side.parse("v1"))]


class TestWriterOracle:
    @pytest.mark.parametrize("n", [0, 1, 2, 255, 256, 257, 513])
    @pytest.mark.parametrize("basis", MATRIX_BASES + [HS_INPUT_BASIS])
    def test_bytes_match_per_value_writer(self, basis, n):
        doc = hs_input_document(n) if basis == HS_INPUT_BASIS else matrix_document(basis, n)
        text = serialize_patchset(doc)
        assert_same_text(text, reference_serialize(doc))
        # a parsed document is written from its stack and gives the same bytes again
        assert_same_text(serialize_patchset(parse_patchset(text)),
                         reference_serialize(parse_patchset(text)))

    @pytest.mark.parametrize("basis", MATRIX_BASES + [HS_INPUT_BASIS])
    def test_adjacency_and_version(self, basis):
        make = hs_input_document if basis == HS_INPUT_BASIS else (
            lambda n, **kw: matrix_document(basis, n, **kw))
        for adjacency in (ADJACENCY[:1], ADJACENCY):
            doc = make(2, adjacency=adjacency, version=3)
            text = serialize_patchset(doc)
            assert_same_text(text, reference_serialize(doc))
            assert '"version": 3,' in text
        empty = make(0, adjacency=[], version=3)
        assert_same_text(serialize_patchset(empty), reference_serialize(empty))

    def test_special_values_are_written_as_before(self):
        text = serialize_patchset(matrix_document("hermite", 1))
        assert "[-0, 0, 4.9406564584124654e-324, -4.9406564584124654e-324]," in text
        assert "[1.7976931348623157e+308, -1.7976931348623157e+308, " in text
        assert "[1e+20, 0, 0, 1]," in text
        text = serialize_patchset(hs_input_document(1))
        assert '"x": [0.33333333333333331, -3.1428571428571428, 1e+20, -3, 0, ' in text


# --- the % template writer: the byte oracle of the vectorized serializer ----

_PERCENT_ROW = "[" + ", ".join(["%.17g"] * 4) + "]"
PERCENT_PATCH = {
    "matrix": "    {\n" + ",\n".join(
        f'      "{name}": [\n' + ",\n".join(["        " + _PERCENT_ROW] * 4) + "\n      ]"
        for name in "xyz") + "\n    }",
    HS_INPUT_BASIS: "    {\n" + ",\n".join(
        f'      "{name}": [' + ", ".join(["%.17g"] * 12) + "]" for name in "xyz") + "\n    }",
}


def reference_percent_serialize(doc) -> str:
    """One % template per patch over its stack row; % writes float() of ints and Fractions."""
    template = PERCENT_PATCH[HS_INPUT_BASIS if doc.basis == HS_INPUT_BASIS else "matrix"]
    patches = ",\n".join(template % tuple(row.ravel().tolist()) for row in doc.controls)
    joints = ",\n".join(f'    [{a.a}, "{a.side_a}", {a.b}, "{a.side_b}"]' for a in doc.adjacency)
    return (f'{{\n  "format": "hspatch-patchset",\n  "version": {doc.version},\n'
            f'  "basis": "{doc.basis}",\n  "patches": [\n' + patches + ("\n" if patches else "")
            + '  ],\n  "adjacency": [\n' + joints + ("\n" if joints else "") + "  ]\n}\n")


# patch counts on both sides of the serializer's block edges
BLOCK_EDGES = [k * _PATCH_BLOCK + d for k in (1, 2, 7) for d in (-1, 0, 1)]
HS_VALUES = [0, 7, -3, 10**20, -(10**30), Fraction(1, 3), -Fraction(22, 7), Fraction(10**30, 7),
             -0.0, 0.0, 5e-324, -5e-324, 1e-5, -1e-5, 1e16, 1e300, -1e300, 0.1, 1e-17]


def exact_hs_input_document(n: int, **kw) -> PatchSetDocument:
    """n hs-input patches cycling through HS_VALUES (ints, Fractions, awkward floats)."""
    patches = [HsPatchInput(*(HsControls.from_flat(
        [HS_VALUES[(7 * k + 12 * c + i) % len(HS_VALUES)] for i in range(12)]) for c in range(3)))
        for k in range(n)]
    return PatchSetDocument(HS_INPUT_BASIS, patches, **kw)


class TestPercentTemplateOracle:
    @pytest.mark.parametrize("n", [0, 1] + BLOCK_EDGES)
    @pytest.mark.parametrize("basis", MATRIX_BASES + [HS_INPUT_BASIS])
    def test_bytes_match_percent_templates(self, basis, n):
        doc = (exact_hs_input_document(n) if basis == HS_INPUT_BASIS
               else matrix_document(basis, n))
        text = serialize_patchset(doc)
        assert_same_text(text, reference_percent_serialize(doc))
        assert_same_text(text, reference_serialize(doc))

    def test_hs_input_values_are_written_as_float_of_each(self):
        doc = exact_hs_input_document(len(HS_VALUES))
        values = doc.controls.ravel().tolist()
        assert {type(v) for v in values} == {int, float, Fraction}
        text = serialize_patchset(doc)
        assert_same_text(text, reference_percent_serialize(doc))
        written = [float(v) for p in json.loads(text)["patches"] for c in "xyz" for v in p[c]]
        assert [v.hex() for v in written] == [(float(v) + 0.0).hex() for v in values]
        tokens = set(re.findall(r"[-+.\w]+", text))
        assert {"1e+20", "-1e+30", "0.33333333333333331", "-0", "4.9406564584124654e-324",
                "1.0000000000000001e-05", "10000000000000000", "1.0000000000000001e+300",
                "1.0000000000000001e-17"} <= tokens

    @pytest.mark.parametrize("basis", MATRIX_BASES + [HS_INPUT_BASIS])
    def test_adjacency_at_block_edges(self, basis):
        for n in (_PATCH_BLOCK, _PATCH_BLOCK + 1):
            joints = ADJACENCY + [Adjacency(n - 1, Side.parse("v1r"), 0, Side.parse("u0"))]
            doc = (exact_hs_input_document(n, adjacency=joints, version=2)
                   if basis == HS_INPUT_BASIS else matrix_document(basis, n, adjacency=joints))
            text = serialize_patchset(doc)
            assert_same_text(text, reference_percent_serialize(doc))
            assert [tuple(j) for j in json.loads(text)["adjacency"]][-1] == (n - 1, "v1r", 0, "u0")


finite_doubles = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def documents(draw):
    basis = draw(st.sampled_from(MATRIX_BASES + [HS_INPUT_BASIS]))
    n = draw(st.integers(0, 4))
    width = 12 if basis == HS_INPUT_BASIS else 16
    values = draw(st.lists(finite_doubles, min_size=3 * n * width, max_size=3 * n * width))
    stack = np.array(values, dtype=float).reshape(n, 3, width)
    if basis == HS_INPUT_BASIS:
        patches = [HsPatchInput(*(HsControls.from_flat(c.tolist()) for c in p)) for p in stack]
    else:
        patches = [GeometricPatch(*p.reshape(3, 4, 4), Basis(basis)) for p in stack]
    joints = [Adjacency(draw(st.integers(0, n - 1)), Side.parse(draw(st.sampled_from(SIDES))),
                        draw(st.integers(0, n - 1)), Side.parse(draw(st.sampled_from(SIDES))))
              for _ in range(draw(st.integers(0, 3)) if n else 0)]
    return PatchSetDocument(basis, patches, joints, draw(st.integers(1, 5))), stack


SIDES = ["u0", "u1", "v0", "v1", "u0r", "u1r", "v0r", "v1r"]


@settings(max_examples=150, deadline=None)
@given(documents())
def test_round_trip_keeps_every_bit(case):
    doc, stack = case
    text = serialize_patchset(doc)
    assert_same_text(text, reference_serialize(doc))
    back = parse_patchset(text)
    assert (back.basis, back.version) == (doc.basis, doc.version)
    assert [(a.a, str(a.side_a), a.b, str(a.side_b)) for a in back.adjacency] == [
        (a.a, str(a.side_a), a.b, str(a.side_b)) for a in doc.adjacency]
    if doc.basis == HS_INPUT_BASIS:
        got = np.array([[c.flat() for c in (p.x, p.y, p.z)] for p in back.patches], dtype=float)
    else:
        got = back.controls
    # -0.0 is written as "-0", which JSON reads as the integer 0
    want = stack + 0.0
    assert np.array_equal(got.reshape(want.shape).view(np.uint64), want.view(np.uint64))


def mutate(data: dict, rng) -> dict:
    """One or two structural or numeric faults at random places of a document."""
    patches = data["patches"]
    for _ in range(int(rng.integers(1, 3))):
        k = int(rng.integers(len(patches)))
        name = "xyz"[int(rng.integers(3))]
        bad = [None, "1", True, False, float("nan"), float("inf"), -float("inf"), 10**400,
               [1], {"a": 1}][int(rng.integers(10))]
        kind = int(rng.integers(6))
        if not isinstance(patches[k], dict) or not isinstance(patches[k].get(name), list):
            continue  # an earlier fault already broke this entry
        target = patches[k][name]
        if kind == 0:
            patches[k] = [target]
        elif kind == 1:
            patches[k] = {"x": target, "y": target}
        elif kind == 2:
            patches[k][name] = target[:-1]
        elif isinstance(target[0], list):  # a matrix: break a row or one entry
            i, j = int(rng.integers(len(target))), int(rng.integers(4))
            row = target[i]
            if isinstance(row, list):
                target[i] = row[:3] if kind == 3 else bad if kind == 4 else (
                    row[:j] + [bad] + row[j + 1:])
        else:
            target[int(rng.integers(len(target)))] = bad
    return data


class TestParseErrorsKeepTheirLocation:
    @pytest.mark.parametrize("basis", MATRIX_BASES + [HS_INPUT_BASIS])
    def test_first_error_is_the_per_row_one(self, basis):
        doc = hs_input_document(4) if basis == HS_INPUT_BASIS else matrix_document(basis, 4)
        text = serialize_patchset(doc)
        rng = np.random.default_rng(list(basis.encode()))
        for _ in range(300):
            data = mutate(json.loads(text), rng)
            want = reference_entry_error(data["patches"], basis)
            if want is None:  # the mutation left a valid document
                parse_patchset(json.dumps(data))
                continue
            with pytest.raises(DocumentError) as err:
                parse_patchset(json.dumps(data))
            assert str(err.value) == want

    @pytest.mark.parametrize("bad, message", [
        ("NaN", "patches[1].y[2]: non-finite value"),
        ("1e400", "patches[1].y[2]: non-finite value"),
        ("1" + "0" * 400, "patches[1].y[2]: non-finite value"),
        ("true", "patches[1].y[2]: values must be numbers"),
        ('"1"', "patches[1].y[2]: values must be numbers"),
        ("null", "patches[1].y[2]: values must be numbers"),
    ])
    def test_matrix_entry_messages(self, bad, message):
        data = json.loads(serialize_patchset(matrix_document("bezier", 3)))
        data["patches"][1]["y"][2][3] = "@"
        text = json.dumps(data).replace('"@"', bad)
        with pytest.raises(DocumentError) as err:
            parse_patchset(text)
        assert str(err.value) == message


class TestStackedDocument:
    def test_parsed_patches_behave_as_a_list(self):
        doc = parse_patchset(serialize_patchset(matrix_document("bspline", 3)))
        assert doc.controls.shape == (3, 3, 4, 4)
        patches = doc.patches
        assert patches is doc.patches
        assert len(patches) == 3 and patches[-1] is list(patches)[2]
        for p, m in zip(patches, doc.controls):
            assert p.basis is Basis.BSPLINE
            assert all(np.array_equal(a, b) for a, b in zip(p.coords(), m))
        assert parse_patchset(serialize_patchset(matrix_document("hermite", 0))).patches == []

    def test_constructor_stacks_patches(self, uv_patch):
        doc = PatchSetDocument(basis="hermite", patches=[uv_patch, uv_patch])
        assert doc.controls.shape == (2, 3, 4, 4)
        assert np.array_equal(doc.controls[1], np.stack(uv_patch.coords()))
        assert doc.patches == [uv_patch, uv_patch]
        assert PatchSetDocument(basis="hermite", patches=[]).controls.shape == (0, 3, 4, 4)
        assert PatchSetDocument(basis=HS_INPUT_BASIS, patches=[]).controls.shape == (0, 3, 12)

    def test_non_finite_controls_rejected_like_a_patch(self):
        stack = np.zeros((3, 3, 4, 4))
        stack[1, 2, 0, 0] = stack[2, 0, 0, 0] = np.inf
        with pytest.raises(ValueError, match="control matrix z contains non-finite"):
            PatchSetDocument("bezier", controls=stack)
