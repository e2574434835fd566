"""parse_patchset decodes a document once; check and build work run by run.

The decode compacts each patch entry as json reads it (documents._compact).
With that hook replaced by the identity, every entry goes through the checks
of the whole list, which is how the whole text was always read.  The two must
agree on every text: the same version, basis, adjacency and stack bits, with
the same value types for hs-input, or else the same DocumentError message.
Documents are written here in the serializer's layout and in the
one-entry-per-line layout of the benchmark inputs, and then bent: repeated
keys, "patches" before "basis", nested "patches" keys, true/false, NaN,
Infinity, integers beyond the double range, trailing data, a BOM, deep
nesting and entry-shaped objects outside the patch list.  The empty-document
and bounded-lifetime tests drive the CLI.
"""

import contextlib
import gc
import io
import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hspatch.cli
from hspatch import DocumentError, HsControls, HsPatchInput, documents
from hspatch.cli import main
from hspatch.documents import (BATCH, FLOAT_FORMAT, PatchSetDocument, parse_patchset,
                               serialize_patchset)

BASES = ["hermite", "bezier", "bspline", "hs-input"]
KEYS = ("format", "version", "basis", "patches", "adjacency")
ODD_TOKENS = ["true", "false", "null", "NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400,
              "-" + "9" * 320, '"1"', "[1]", "{}"]


def entry_text(tokens: dict, matrices: bool, layout: str) -> str:
    """One patch entry, each coordinate's values given as JSON tokens."""
    def value(toks):
        if not matrices:
            return "[" + ", ".join(toks) + "]"
        rows = ["[" + ", ".join(toks[k:k + 4]) + "]" for k in range(0, len(toks), 4)]
        if layout == "lines":
            return "[" + ", ".join(rows) + "]"
        return "[\n" + ",\n".join(" " * 8 + row for row in rows) + "\n      ]"
    if layout == "lines":
        return "    {" + ", ".join(f'"{n}": {value(t)}' for n, t in tokens.items()) + "}"
    return "    {\n" + ",\n".join(f'      "{n}": {value(t)}' for n, t in tokens.items()) + "\n    }"


def patch_list(entries: list[str]) -> str:
    return "[\n" + ",\n".join(entries) + ("\n" if entries else "") + "  ]"


def document_text(basis_token: str, entries: list[str], layout: str, keys=KEYS,
                  adjacency: str = "[\n  ]") -> str:
    """The members named by keys, in that order; a (key, value) pair in keys gives its
    own value."""
    values = {"format": '"hspatch-patchset"', "version": "1", "basis": basis_token,
              "patches": patch_list(entries), "adjacency": adjacency}
    members = [k if isinstance(k, tuple) else (k, values[k]) for k in keys]
    sep = ", " if layout == "lines" else ",\n  "
    return "{\n  " + sep.join(f'"{k}": {v}' for k, v in members) + "\n}\n"


@contextlib.contextmanager
def hook_off():
    """parse_patchset with no entry compacted, so that the whole list is checked."""
    with mock.patch.object(documents, "_compact", lambda obj: obj):
        yield


def stack_bits(stack: np.ndarray) -> list:
    """Type and exact value of each control; float.hex tells -0.0 from 0.0."""
    return [(type(v), v.hex() if type(v) is float else v) for v in stack.ravel().tolist()]


def outcome(parse, text) -> tuple:
    """What a parse gave: the document's version, basis, adjacency and stack (dtype,
    shape, and the type and exact value of each control), or its DocumentError message."""
    try:
        doc = parse(text)
    except DocumentError as exc:
        return ("error", str(exc))
    c = doc.controls
    return ("doc", doc.version, doc.basis, doc.adjacency, (c.dtype.str, c.shape, stack_bits(c)))


def assert_paths_agree(text: str) -> tuple:
    """parse_patchset and the hook-off path give one outcome; returns it."""
    with hook_off():
        want = outcome(parse_patchset, text)
    assert outcome(parse_patchset, text) == want
    return want


def compacted(text: str) -> bool:
    """Whether the decode compacted every entry of the document's patch list."""
    entries = documents.decode_json(text, object_hook=documents._compact)["patches"]
    return all(type(entry) is documents._Entry for entry in entries)


def float_token(layout: str):
    return (FLOAT_FORMAT.__mod__ if layout == "serialize" else repr)


VALUES = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.integers(-10**20, 10**20),
                   st.sampled_from([-0.0, 5e-324, -5e-324, 1.7976931348623157e308]))
MUTATIONS = ["none", "leading-ws", "trailing-ws", "extra-key", "nested-patches",
             "repeat-patches", "repeat-basis", "patches-before-basis", "format-last",
             "no-patches", "trailing-data", "bom", "deep", "bad-adjacency", "odd-entry"]


@st.composite
def patchset_texts(draw):
    layout = draw(st.sampled_from(["serialize", "lines"]))
    basis = draw(st.sampled_from(BASES))
    matrices = basis != "hs-input"
    spell = float_token(layout)
    count = draw(st.integers(0, 7))
    entries_tokens = [{n: [spell(v) if type(v) is float else str(v)
                           for v in draw(st.lists(VALUES, min_size=16 if matrices else 12,
                                                  max_size=16 if matrices else 12))]
                       for n in "xyz"} for _ in range(count)]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2])) if count else 0):  # a few odd values
        entry = entries_tokens[draw(st.integers(0, count - 1))][draw(st.sampled_from("xyz"))]
        entry[draw(st.integers(0, len(entry) - 1))] = draw(st.sampled_from(ODD_TOKENS))
    entries = [entry_text(t, matrices, layout) for t in entries_tokens]
    mutation = draw(st.sampled_from(MUTATIONS))
    adjacency = "[\n  ]"
    if mutation == "odd-entry" and count:
        entries[draw(st.integers(0, count - 1))] = draw(st.sampled_from(
            ["    []", "    1", '    {"x": [], "y": [], "z": []}', '    {"patches": []}']))
    if mutation == "bad-adjacency":
        adjacency = draw(st.sampled_from([f'[[0, "u1", {count - 1}, "v0r"]]',
                                          f'[[{count}, "u1", 0, "u0"]]',
                                          '[[true, "u1", 0, "u0"]]', '{}']))
    keys = {
        "extra-key": KEYS + (("comment", '"hs"'), ("meta", '{"x": [1, 2.5, null]}')),
        "nested-patches": ("format", "version", "basis", ("meta", '{"patches": [1, 2]}'),
                           "patches", "adjacency", ("more", '[{"patches": [true]}]')),
        "repeat-patches": KEYS + (
            ("patches", draw(st.sampled_from(["[]", "[1]", patch_list(entries)]))),),
        "repeat-basis": KEYS + (("basis", f'"{draw(st.sampled_from(BASES))}"'),),
        "patches-before-basis": ("format", "version", "patches", "basis", "adjacency"),
        "format-last": ("version", "basis", "patches", "adjacency", "format"),
        "no-patches": ("format", "version", "basis", "adjacency"),
        "deep": KEYS + (("meta", "[" * 50 + "]" * 50),),
    }.get(mutation, KEYS)
    text = document_text(f'"{basis}"', entries, layout, keys, adjacency)
    if mutation == "leading-ws":
        text = " \t\r\n" + text
    if mutation == "trailing-ws":
        text += " \t\r\n"
    if mutation == "trailing-data":
        text += draw(st.sampled_from(["x", "{}", " ", "]", "0", "\f"]))
    if mutation == "bom":
        text = "\ufeff" + text
    return text


@settings(max_examples=300, deadline=None)
@given(text=patchset_texts())
def test_compacting_agrees_with_the_whole_list_checks(text):
    if assert_paths_agree(text)[0] == "doc":
        assert compacted(text)  # in any key order, with repeated keys too


def build_text(doc: PatchSetDocument, layout: str) -> str:
    """doc in one of the two layouts; the serializer's is its own text."""
    if layout == "serialize":
        return serialize_patchset(doc)
    hs_input = doc.basis == "hs-input"
    entries = [entry_text({n: list(map(repr, map(float, coord))) for n, coord in
                           zip("xyz", patch.reshape(3, -1))}, not hs_input, "lines")
               for patch in doc.controls]
    adjacency = [[a.a, str(a.side_a), a.b, str(a.side_b)] for a in doc.adjacency]
    return document_text(f'"{doc.basis}"', entries, "lines",
                         adjacency=json.dumps(adjacency))


def seeded_document(basis: str, count: int, exponents: int = 300) -> PatchSetDocument:
    """count patches of uniform(-2, 2) values times 10**k, |k| < exponents; every other
    hs-input patch has integer y corners."""
    rng = np.random.default_rng(5)
    shape = (count, 3, 12) if basis == "hs-input" else (count, 3, 4, 4)
    values = rng.uniform(-2, 2, shape) * 10.0 ** rng.integers(1 - exponents, exponents, shape)
    if basis == "hs-input":
        values = values.astype(object)
        values[::2, 1, :4] = rng.integers(-10**18, 10**18, (len(values[::2]), 4)).astype(object)
    adjacency = documents.parse_adjacency([[0, "u1", count - 1, "v0r"]] if count else [], count)
    return PatchSetDocument(basis, adjacency=adjacency, controls=values)


@pytest.mark.parametrize("layout", ["serialize", "lines"])
@pytest.mark.parametrize("basis", ["hs-input", "bezier"])
@pytest.mark.parametrize("count", [0, 1, BATCH - 1, BATCH, BATCH + 1,
                                   2 * BATCH - 1, 2 * BATCH, 2 * BATCH + 1])
def test_run_edges(layout, basis, count):
    text = build_text(seeded_document(basis, count), layout)
    assert assert_paths_agree(text)[0] == "doc" and compacted(text)
    assert parse_patchset(text).controls.shape[0] == count


def test_serialize_layout_is_the_serializer_text():
    # the hypothesis documents in the "serialize" layout are the serializer's own text
    for basis in BASES:
        doc = seeded_document(basis, 3)
        doc.adjacency = []
        spell = float_token("serialize")
        entries = [entry_text({n: [spell(float(v)) for v in coord] for n, coord in
                               zip("xyz", patch.reshape(3, -1))}, basis != "hs-input", "serialize")
                   for patch in doc.controls]
        assert document_text(f'"{basis}"', entries, "serialize") == serialize_patchset(doc)
    empty = PatchSetDocument("hermite", controls=np.zeros((0, 3, 4, 4)))
    assert document_text('"hermite"', [], "serialize") == serialize_patchset(empty)


@pytest.mark.parametrize("where", ["meta", "entry", "top"])
def test_deep_nesting(where):
    deep = "[" * 100000 + "]" * 100000
    doc = seeded_document("hermite", 2)
    text = serialize_patchset(doc)
    text = {"meta": text.replace('  "basis"', f'  "meta": {deep},\n  "basis"'),
            "entry": text.replace('      "x"', f'      "w": {deep},\n      "x"', 1),
            "top": deep}[where]
    assert assert_paths_agree(text) == ("error", "JSON nested too deeply")


ZERO = ", ".join(["0"] * 12)
PATCH = f'{{"x": [{ZERO}], "y": [{ZERO}], "z": [{ZERO}]}}'
ROWS = "[" + ", ".join(["[0, 0, 0, 0]"] * 4) + "]"
MATRIX_PATCH = f'{{"x": {ROWS}, "y": {ROWS}, "z": {ROWS}}}'
HEAD = '{"format": "hspatch-patchset", "version": 1, "basis": "hs-input", "patches": [' + PATCH + "]"
HERMITE_HEAD = HEAD.replace('"hs-input"', '"hermite"').replace(PATCH, MATRIX_PATCH)


@pytest.mark.parametrize("text, want", [
    (HEAD + ', "patches": [' + PATCH + ", " + PATCH + "]}", 2),
    (HEAD + ', "basis": "hermite"}', "patches[0].x: expected 4 rows"),
    ('{"format": "hspatch-patchset", "version": 1, "patches": [' + PATCH
     + '], "basis": "hs-input"}', 1),
    ("\ufeff" + HEAD + "}",
     "invalid JSON at line 1, column 1: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
    (HEAD + "} x", "invalid JSON at line 1, column 211: Extra data"),
    (HEAD.replace('"version": 1', '"version": true') + "}",
     'top level: integer "version" >= 1 required'),
], ids=["repeated-patches", "repeated-basis", "patches-before-basis", "bom", "trailing-data",
        "version-true"])
def test_doubts_give_the_whole_text_outcome(text, want):
    # want: the whole-text path's patch count or message
    got = assert_paths_agree(text)
    assert got == ("error", want) if isinstance(want, str) else (
        len(parse_patchset(text).controls) == want and compacted(text))


@pytest.mark.parametrize("text, want", [
    (PATCH, 'top level: "format" must be "hspatch-patchset"'),
    (HEAD + ', "adjacency": ' + PATCH + "}", "adjacency: expected a list"),
    (HEAD + ', "adjacency": [' + PATCH + "]}", "adjacency[0]: expected [id, side, id, side]"),
    (HEAD + ', "meta": ' + PATCH + "}", 1),
    (HEAD + ', "meta": {"a": [' + PATCH + "]}}", 1),
    (HEAD + ', "basis": ' + PATCH + "}",
     'top level: "basis" must be hermite, bezier, bspline or hs-input'),
    (HEAD.replace(PATCH, PATCH.replace('"y": [0', f'"y": [{PATCH}')) + "}",
     "patches[0].y: values must be numbers"),
    (HEAD.replace(PATCH, MATRIX_PATCH) + "}",
     "patches[0].x: expected 12 numbers (4 corners then 8 tangents)"),
    (HEAD.replace(PATCH, PATCH + ", " + MATRIX_PATCH) + "}",
     "patches[1].x: expected 12 numbers (4 corners then 8 tangents)"),
    (HERMITE_HEAD.replace(MATRIX_PATCH, MATRIX_PATCH + ", " + PATCH) + "}",
     "patches[1].x: expected 4 rows"),
    (HERMITE_HEAD.replace(MATRIX_PATCH, MATRIX_PATCH.replace("0]]", "true]]", 1) + ", " + PATCH)
     + "}", "patches[0].x[3]: values must be numbers"),
    (HERMITE_HEAD + ', "patches": [' + MATRIX_PATCH + ", " + MATRIX_PATCH + "]}", 2),
], ids=["top-level", "adjacency", "in-adjacency", "unknown-key", "in-unknown-key", "basis",
        "in-entry", "matrix-in-hs-input", "matrix-after-hs-input", "hs-input-in-matrix",
        "bad-number-before-wrong-kind", "matrix-repeated-patches"])
def test_entry_shaped_objects(text, want):
    # an entry-shaped object is compacted wherever it sits, and fails as before outside
    # the patch list; in the list, an entry of the other kind gets the whole list's message
    got = assert_paths_agree(text)
    assert got == ("error", want) if isinstance(want, str) else (
        len(parse_patchset(text).controls) == want and compacted(text))


@pytest.mark.parametrize("tokens, dtype, types", [
    (["1"] * 12, "|O", {int}), (["1.5", "-0.0"] * 6, "<f8", {float}),
    (["1", "1.5", "-0.0"] * 4, "|O", {int, float}), (["9" * 30] + ["0.5"] * 11, "|O", {int, float}),
], ids=["all-int", "all-float", "mixed", "big-int"])
def test_hs_input_value_types(tokens, dtype, types):
    # all floats: a float64 stack; any int: an object stack, so that ints stay exact
    entry = {n: tokens for n in "xyz"}
    text = document_text('"hs-input"', [entry_text(entry, False, "lines")] * 2, "lines")
    got = assert_paths_agree(text)
    assert compacted(text) and got[-1][0] == dtype and {t for t, _ in got[-1][2]} == types


@pytest.mark.parametrize("int_at", [None, 0, -1], ids=["all-float", "int-first", "int-last"])
def test_hs_input_stack_dtype_follows_the_values(int_at):
    values = np.random.default_rng(11).uniform(-2, 2, (5, 3, 12)).tolist()
    values[1][2][3], values[2][0][0] = -0.0, 5e-324
    if int_at is not None:
        values[int_at][1][4] = 2**53 + 1  # no double holds it
    want = stack_bits(np.array(values, object))
    dtype = float if int_at is None else object
    doc = parse_patchset(json.dumps({"format": "hspatch-patchset", "version": 1,
                                     "basis": "hs-input",
                                     "patches": [dict(zip("xyz", p)) for p in values]}))
    assert doc.controls.dtype == dtype and stack_bits(doc.controls) == want
    # the constructor keeps the same rule, from patch inputs or from a stack
    inputs = [HsPatchInput(*(HsControls(c[:4], c[4:]) for c in patch)) for patch in values]
    for controls in (None, values, np.array(values, object), doc.controls):
        made = PatchSetDocument("hs-input", inputs, controls=controls)
        assert made.controls.dtype == dtype and stack_bits(made.controls) == want


def test_all_float_hs_input_parse_holds_only_its_stack():
    controls = np.random.default_rng(13).uniform(-2, 2, (1000, 3, 12))
    text = serialize_patchset(PatchSetDocument("hs-input", controls=controls))
    parse_patchset(text)  # lazy set-up happens outside the trace
    gc.collect()
    tracemalloc.start()
    try:
        doc = parse_patchset(text)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert doc.controls.tobytes() == controls.tobytes()
    assert held <= 1.1 * controls.nbytes + 64 * 1024
    assert peak < 1.5 * len(text)


# --- the CLI on empty documents and run by run ------------------------------


def run(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("basis", ["hs-input", "hermite"])
def test_empty_documents(tmp_path, basis):
    path = tmp_path / "empty.json"
    path.write_text(document_text(f'"{basis}"', [], "serialize"), encoding="utf-8")
    code, out = run(["check", str(path), "--json"])
    assert code == 0 and json.loads(out) == {"tol": 1e-9, "reports": [], "feasible": True}
    built = tmp_path / "built.json"
    code, out = run(["build", str(path), "--out", str(built), "--json"])
    assert code == 0 and json.loads(out)["patches"] == 0
    assert parse_patchset(built.read_text(encoding="utf-8")).controls.shape == (0, 3, 4, 4)
    # convert takes control matrices: an hs-input document goes through build first
    source = path if basis == "hermite" else built
    converted = tmp_path / "converted.json"
    code, out = run(["convert", str(source), "--to", "bezier", "--out", str(converted),
                     "--json"])
    assert code == 0 and json.loads(out)["patches"] == 0
    assert parse_patchset(converted.read_text(encoding="utf-8")).controls.shape == (0, 3, 4, 4)


@pytest.mark.parametrize("basis", ["hs-input", "hermite"])
@pytest.mark.parametrize("command", [["check", "--json"], ["build", "--policy", "project"]])
def test_runs_stay_bounded(tmp_path, monkeypatch, basis, command):
    count = 2 * BATCH + 1
    path = tmp_path / "in.json"
    path.write_text(serialize_patchset(seeded_document(basis, count, 1)), encoding="utf-8")
    decoded, made, made_at_first_use = [], [], []
    number_rows, patch_inputs = documents._number_rows, hspatch.cli.patch_inputs
    per_item = "constraint_report" if command[0] == "check" else "build_hs_patch"
    item = getattr(hspatch.cli, per_item)

    def rows(raw, *args):
        decoded.append(len(raw))
        return number_rows(raw, *args)

    def inputs(stack):
        made.append(len(stack))
        return patch_inputs(stack)

    def used(*args, **kwargs):
        made_at_first_use.append(len(made))
        return item(*args, **kwargs)

    monkeypatch.setattr(documents, "_number_rows", rows)
    monkeypatch.setattr(hspatch.cli, "patch_inputs", inputs)
    monkeypatch.setattr(hspatch.cli, per_item, used)
    out = ["--out", str(tmp_path / "out.json")] if command[0] == "build" else []
    assert run([command[0], str(path), *command[1:], *out])[0] in (0, 1)
    # one check per entry as it is decoded, and none of the whole list
    assert decoded == [1] * count and made == [BATCH, BATCH, 1]
    assert made_at_first_use[0] == 1  # the inputs of later runs are made when reached


def test_integral_controls_as_ints_or_floats(tmp_path):
    # all written as 2.0 the stack is float64; one control of the first and of the last
    # patch written as 2 makes it an object stack, and every coordinate still computes
    # in floats, so check and build write the same bytes
    values = np.random.default_rng(17).integers(-9, 10, (2 * BATCH + 1, 3, 12))
    spellings = {"floats": lambda k, v: f"{v}.0", "two-ints": lambda k, v: (
        str(v) if k in (0, values.size - 1) else f"{v}.0"), "ints": lambda k, v: str(v)}
    got = {}
    for name, spell in spellings.items():
        tokens = iter([spell(k, v) for k, v in enumerate(values.ravel().tolist())])
        entries = [entry_text({n: [next(tokens) for _ in range(12)] for n in "xyz"}, False,
                              "lines") for _ in values]
        path, built = tmp_path / f"{name}.json", tmp_path / f"{name}.built.json"
        path.write_text(document_text('"hs-input"', entries, "lines"), encoding="utf-8")
        assert parse_patchset(path.read_text(encoding="utf-8")).controls.dtype == (
            float if name == "floats" else object)
        code, out = run(["build", str(path), "--policy", "project", "--out", str(built),
                         "--json"])
        assert code == 0 and json.loads(out)["patches"] == len(values)
        got[name] = run(["check", str(path), "--json"]), built.read_bytes()
    assert got["two-ints"] == got["floats"]
    # all ints compute exactly: the same numbers, though a zero that floats reach
    # through a negation is written -0.0 there and 0.0 here
    (code, out), built = got["ints"]
    (float_code, float_out), float_built = got["floats"]
    assert code == float_code and json.loads(out) == json.loads(float_out)
    assert np.array_equal(parse_patchset(built.decode()).controls,
                          parse_patchset(float_built.decode()).controls)
