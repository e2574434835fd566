"""Patch-set documents hold one stack, and the HS inputs come from its rows.

An hs-input document keeps its decoded controls as a (P, 3, 12) stack: float64
when every control is a float, else an object array, so ints stay ints; both
give the HS inputs the same Python values.  A hermite stack reaches the same
rows through one gather of the 12 corner and tangent entries of each matrix.
The expected values are written out here from the control layout, not taken
from the package.
"""

import json
import math
import weakref
from fractions import Fraction

import numpy as np
import pytest

import hspatch.cli
from hspatch import HsControls, HsPatchInput
from hspatch.cli import main
from hspatch.documents import HS_INPUT_BASIS, PatchSetDocument, parse_patchset
from hspatch.hs import patch_inputs

from test_golden import hermite_text, hs_input_text


def reference_controls(m) -> HsControls:
    """Corners x11 x12 x21 x22 and tangents x13 x14 x23 x24 x31 x32 x41 x42 of a
    Hermite matrix given as nested lists."""
    return HsControls((m[0][0], m[0][1], m[1][0], m[1][1]),
                      (m[0][2], m[0][3], m[1][2], m[1][3], m[2][0], m[2][1], m[3][0], m[3][1]))


def bits(controls: HsControls) -> list:
    """Type and exact value of every control; float.hex tells -0.0 from 0.0."""
    return [(type(v), v.hex() if type(v) is float else v) for v in controls.flat()]


def input_bits(inputs) -> list:
    return [[bits(c) for c in (inp.x, inp.y, inp.z)] for inp in inputs]


EXTREMES = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]


def random_stack(seed: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    stack = rng.uniform(-2, 2, (n, 3, 4, 4)) * 10.0 ** rng.integers(-300, 300, (n, 3, 4, 4))
    flat = stack.reshape(-1)
    picks = rng.integers(0, flat.size, 4 * len(EXTREMES))
    flat[picks] = np.resize(EXTREMES, len(picks))
    return stack


class TestHsInputStack:
    def test_parsed_stack_keeps_value_types(self):
        x = [1, -2.5, 10**20, 0, 3.0, -7, 1e-300, 0.0, -0.0, 4, 5, 6]
        text = json.dumps({"format": "hspatch-patchset", "version": 1, "basis": "hs-input",
                           "patches": [{"x": x, "y": x[::-1], "z": [0] * 12}]})
        doc = parse_patchset(text)
        assert doc.controls.shape == (1, 3, 12) and doc.controls.dtype == object
        for got, want in zip(doc.controls[0].tolist(), (x, x[::-1], [0] * 12)):
            assert [(type(v), v) for v in got] == [(type(v), v) for v in want]
        assert math.copysign(1.0, doc.controls[0, 0, 8]) == -1.0

    def test_golden_document_patches_match_the_decoded_lists(self):
        text = hs_input_text()
        want = [HsPatchInput(*(HsControls(p[n][:4], p[n][4:]) for n in "xyz"))
                for p in json.loads(text)["patches"]]
        got = parse_patchset(text).patches
        assert got == want
        assert input_bits(got) == input_bits(want)

    def test_constructor_stacks_exact_values(self):
        c = HsControls((Fraction(1, 3), 10**20, -3, 0.5), (0,) * 8)
        doc = PatchSetDocument(HS_INPUT_BASIS, [HsPatchInput(c, c, c)])
        assert doc.controls.shape == (1, 3, 12)
        assert doc.controls[0, 2].tolist() == list(c.flat())
        assert PatchSetDocument(HS_INPUT_BASIS, controls=doc.controls).patches == doc.patches

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, 10**400,
                                     Fraction(10**400, 3)],
                             ids=["inf", "-inf", "nan", "10**400", "huge-fraction"])
    def test_non_finite_control_rejected(self, bad):
        z = HsControls((0,) * 4, (0,) * 8)
        c = HsControls((bad, 0, 0, 0), (0,) * 8)
        with pytest.raises(ValueError, match="control row y contains non-finite entries"):
            PatchSetDocument(HS_INPUT_BASIS, [HsPatchInput(z, z, z), HsPatchInput(z, c, z)])


class TestHermiteGather:
    @pytest.mark.parametrize("seed", range(5))
    def test_gather_matches_from_matrix(self, seed):
        stack = random_stack(seed, 40)
        inputs = patch_inputs(PatchSetDocument("hermite", controls=stack).controls)
        per_matrix = [HsPatchInput(*(HsControls.from_matrix(m) for m in xyz)) for xyz in stack]
        reference = [HsPatchInput(*(reference_controls(m.tolist()) for m in xyz))
                     for xyz in stack]
        assert input_bits(inputs) == input_bits(per_matrix) == input_bits(reference)

    def test_empty_stack(self):
        doc = PatchSetDocument("hermite", controls=np.zeros((0, 3, 4, 4)))
        assert patch_inputs(doc.controls) == [] and doc.adjacency == []

    @pytest.mark.parametrize("seed", range(3))
    def test_patch_inputs_gathers_a_hermite_stack(self, seed):
        floats = random_stack(seed, 40)
        exact = np.arange(2 * 48).reshape(2, 3, 4, 4).astype(object) * 10**20
        exact[1, 2, 3, 1] = Fraction(1, 3)
        for stack in (floats, exact):
            reference = [HsPatchInput(*(reference_controls(m.tolist()) for m in xyz))
                         for xyz in stack]
            assert input_bits(patch_inputs(stack)) == input_bits(reference)
        assert patch_inputs(np.zeros((0, 3, 4, 4))) == []


class TestFromMatrix:
    INTS = [[1, 2, 3, 4], [5, 6, 7, 8], [9, 10, 11, 12], [13, 14, 15, 16]]

    @pytest.mark.parametrize("matrix", [
        np.array(INTS, dtype=float),
        np.array(INTS),
        INTS,
        [[Fraction(v, 7) for v in row] for row in INTS],
        [[1, 2.5, Fraction(1, 3), 10**30]] * 4,
    ], ids=["float-array", "int-array", "int-lists", "fraction-lists", "mixed-lists"])
    def test_values_and_types(self, matrix):
        rows = matrix.tolist() if isinstance(matrix, np.ndarray) else matrix
        assert bits(HsControls.from_matrix(matrix)) == bits(reference_controls(rows))

    def test_twists_are_ignored(self):
        m = np.arange(16.0).reshape(4, 4)
        t = m.copy()
        t[2:, 2:] = np.nan
        assert HsControls.from_matrix(t) == HsControls.from_matrix(m)


@pytest.mark.parametrize("basis", ["hs-input", "hermite"])
@pytest.mark.parametrize("command, traced", [
    (["check"], "constraint_report"),
    (["build", "--policy", "project"], "build_hs_patch"),
])
def test_document_is_let_go_before_per_patch_work(tmp_path, monkeypatch, basis, command,
                                                   traced):
    text = hs_input_text() if basis == "hs-input" else hermite_text()
    (tmp_path / "in.json").write_text(text, encoding="utf-8")
    refs, calls = [], []
    load, per_item = hspatch.documents.load_patchset, getattr(hspatch.cli, traced)

    def loaded(path):
        doc = load(path)
        refs.append(weakref.ref(doc))
        return doc

    def checked(*args, **kwargs):
        calls.append(refs[0]() is None)
        return per_item(*args, **kwargs)

    monkeypatch.setattr(hspatch.documents, "load_patchset", loaded)
    monkeypatch.setattr(hspatch.cli, traced, checked)
    out = ["--out", str(tmp_path / "out.json")] if command[0] == "build" else []
    assert main([command[0], str(tmp_path / "in.json"), *command[1:], *out]) in (0, 1)
    assert len(refs) == 1 and len(calls) > 0 and all(calls)


@pytest.mark.parametrize("basis", ["hs-input", "hermite"])
def test_build_keeps_only_the_output_stack(tmp_path, monkeypatch, basis):
    # each built patch lives on only as its row of the output stack: its input, HsPatch
    # and GeometricPatch are gone before the next build_hs_patch call and before writing
    text = hs_input_text() if basis == "hs-input" else hermite_text()
    (tmp_path / "in.json").write_text(text, encoding="utf-8")
    refs, alive = [], []
    build, serialize = hspatch.cli.build_hs_patch, hspatch.documents.serialize_patchset

    def built(inp, *args, **kwargs):
        alive.append(sum(r() is not None for r in refs))
        result = build(inp, *args, **kwargs)
        refs.extend([weakref.ref(inp), weakref.ref(result), weakref.ref(result.patch)])
        return result

    def serialized(doc):
        alive.append(sum(r() is not None for r in refs))
        return serialize(doc)

    monkeypatch.setattr(hspatch.cli, "build_hs_patch", built)
    monkeypatch.setattr(hspatch.documents, "serialize_patchset", serialized)
    out = tmp_path / "out.json"
    assert main(["build", str(tmp_path / "in.json"), "--policy", "project", "--out", str(out)]) == 0
    patches = len(json.loads(text)["patches"])
    assert len(refs) == 3 * patches and alive == [0] * (patches + 1)
    assert parse_patchset(out.read_text(encoding="utf-8")).controls.shape == (patches, 3, 4, 4)
