"""Fuzzing of the document parsers and of the command line, with hypothesis.

Small valid documents are mutated in their decoded structure (a JSON node
replaced, removed or repeated) or in their text (a span deleted or replaced).
The parsers may raise only DocumentError.  main() may return only 0, 1 or 2,
and any --json report it prints must parse with NaN and Infinity refused.
Sizes stay small (--n and --grid <= 4, --samples <= 9) so that an example
takes milliseconds.  Overflow inside the geometry may warn; that is not
what these tests check.
"""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hspatch import DocumentError, GeometricPatch
from hspatch.cli import main
from hspatch.documents import (PatchSetDocument, parse_adjacency, parse_patchset, parse_teapot,
                               serialize_patchset)

from conftest import UV_X, UV_Y, UV_Z

HERMITE_TEXT = serialize_patchset(PatchSetDocument(
    "hermite", [GeometricPatch(UV_X, UV_Y, UV_Z), GeometricPatch(UV_Y, UV_X, UV_Z)],
    adjacency=parse_adjacency([[0, "u1", 1, "v0r"]], 2)))
HS_INPUT_TEXT = json.dumps({
    "format": "hspatch-patchset", "version": 1, "basis": "hs-input",
    "patches": [{"x": [0, 0, 1, 1, 0, 0, 0, 0, 1, 1, 1, 1],
                 "y": [0, 1, 0, 1, 1, 1, 1, 1, 0, 0, 0, 0],
                 "z": [0, 0, 0, 1, 0.5, 0, 1, 1, 0, 1, 0, 1]}],
    "adjacency": [],
})
TEAPOT_TEXT = ("# one patch\n1\n" + ",".join(str(k) for k in range(1, 17)) + "\n16\n"
               + "".join(f"{k % 4}, {k // 4}, {(k * 7) % 5 / 4}\n" for k in range(16)))
ADJACENCY = [[0, "u1", 1, "v0r"], [1, "u0", 0, "v1"]]

# strings over a fixed alphabet: the default one costs seconds to set up
STRINGS = st.text(alphabet="xyzuv01r_é", max_size=4)
SCALARS = (st.none() | st.booleans() | st.integers() | st.floats() | STRINGS
           | st.sampled_from([10**400, -0.0, 5e-324, 1.7e308, -1.7e308, "u0", "v1r", "hermite"]))
JSON_VALUES = st.recursive(
    SCALARS, lambda kids: st.lists(kids, max_size=4) | st.dictionaries(STRINGS, kids, max_size=3),
    max_leaves=6)
TEXT_PIECES = st.text(alphabet='[]{},:"0123456789.-+eE \n#xnaifINF', max_size=6)


def node_paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from node_paths(value, prefix + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from node_paths(value, prefix + (index,))


def scaled(node, factor):
    """node with every number multiplied by factor: a change of unit."""
    if isinstance(node, dict):
        return {key: scaled(value, factor) for key, value in node.items()}
    if isinstance(node, list):
        return [scaled(value, factor) for value in node]
    return node * factor if type(node) in (int, float) else node


def mutate_json(doc, data):
    """doc with up to three structural edits drawn from `data`."""
    doc = copy.deepcopy(doc)
    for _ in range(data.draw(st.integers(0, 3))):
        paths = list(node_paths(doc))  # indexed: a sampled_from per draw is slow to build
        path = paths[data.draw(st.integers(0, len(paths) - 1))]
        if not path:
            doc = data.draw(JSON_VALUES)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key, action = path[-1], data.draw(st.sampled_from(["replace", "delete", "repeat"]))
        if action == "replace":
            parent[key] = data.draw(JSON_VALUES)
        elif action == "delete":
            del parent[key]
        elif isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        else:
            parent[key + "_"] = copy.deepcopy(parent[key])
    return doc


def mutate_text(text, data):
    """text with one to three spans deleted or replaced."""
    for _ in range(data.draw(st.integers(1, 3))):
        start = data.draw(st.integers(0, len(text)))
        end = data.draw(st.integers(start, min(len(text), start + 8)))
        text = text[:start] + data.draw(TEXT_PIECES) + text[end:]
    return text


def mutated_document(data, text):
    """text edited as text, as JSON, or by a change of unit."""
    kind = data.draw(st.sampled_from(["text", "json", "unit"]))
    if kind == "text":
        return mutate_text(text, data)
    doc = json.loads(text)
    if kind == "json":
        return json.dumps(mutate_json(doc, data))
    doc["patches"] = scaled(doc["patches"], data.draw(st.sampled_from([1.7e308, -1.7e308,
                                                                       1e154, 1e-310])))
    return json.dumps(doc)


def refuse_constant(name):
    raise AssertionError(f"--json wrote {name}")


@settings(max_examples=150, deadline=None)
@given(data=st.data(), text=st.sampled_from([HERMITE_TEXT, HS_INPUT_TEXT]))
def test_parse_patchset_raises_only_document_errors(data, text):
    with contextlib.suppress(DocumentError):
        parse_patchset(mutated_document(data, text))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_parse_teapot_raises_only_document_errors(data):
    with contextlib.suppress(DocumentError):
        parse_teapot(mutate_text(TEAPOT_TEXT, data))


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n_patches=st.integers(0, 3))
def test_parse_adjacency_raises_only_document_errors(data, n_patches):
    with contextlib.suppress(DocumentError):
        parse_adjacency(mutate_json(ADJACENCY, data), n_patches)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


PATCH_SET_COMMANDS = [
    ["check"], ["check", "--json"], ["build", "--json"], ["build", "--policy", "project"],
    ["convert", "--to", "bezier", "--json"], ["convert", "--to", "hermite"],
    ["tessellate", "--json"], ["audit", "--json"], ["continuity", "--json"],
]


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, err.getvalue())
    if "--json" in argv and out.getvalue():
        json.loads(out.getvalue(), parse_constant=refuse_constant)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command", PATCH_SET_COMMANDS, ids=" ".join)
@settings(max_examples=15, deadline=None)
@given(data=st.data(), text=st.sampled_from([HERMITE_TEXT, HS_INPUT_TEXT]),
       size=st.sampled_from(["-1", "0", "1", "2", "4"]),
       samples=st.sampled_from(["1", "2", "9"]),
       tol=st.sampled_from([None, "0", "1e-9", "0.5", "nan", "-1"]))
def test_main_on_mutated_patch_sets(workdir, command, data, text, size, samples, tol):
    path, out = workdir / "doc.json", workdir / "out"
    path.write_text(mutated_document(data, text), encoding="utf-8")
    argv = [command[0], str(path), *command[1:]]
    if command[0] in ("build", "convert", "tessellate"):
        argv += ["--out", str(out)]
    if command[0] in ("tessellate", "audit"):
        argv += ["--n" if command[0] == "tessellate" else "--grid", size]
    if command[0] == "continuity":
        argv += ["--samples", samples]
        if data.draw(st.booleans()):
            adjacency = workdir / "adjacency.json"
            adjacency.write_text(json.dumps(mutate_json(ADJACENCY, data)), encoding="utf-8")
            argv += ["--adjacency", str(adjacency)]
    if tol is not None and command[0] not in ("convert", "tessellate"):
        argv += ["--tol", tol]
    run_main(argv)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=40, deadline=None)
@given(data=st.data(), policy=st.sampled_from(["strict", "project"]),
       n=st.sampled_from(["0", "1", "3"]), as_json=st.booleans())
def test_main_on_mutated_teapots(workdir, data, policy, n, as_json):
    path = workdir / "teapot.txt"
    path.write_text(mutate_text(TEAPOT_TEXT, data), encoding="utf-8")
    argv = ["demo-teapot", str(path), "--policy", policy, "--n", n,
            "--out", str(workdir / "teapot.obj")] + (["--json"] if as_json else [])
    run_main(argv)
