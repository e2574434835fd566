"""The OBJ and patch-set writers hold their output text once, and keep its bytes.

export_obj appends each mesh's spelled group, and serialize_patchset each spelled
block of patches, to one str.  CPython grows a str that has no other reference in
place, so the pieces go as they are appended and no join of the whole text is made.  The trailing comma of the
patch list is dropped from the last block before it is appended.
"""

import json
import platform
import sys
import tracemalloc

import numpy as np
import pytest

from hspatch import Basis, Side
from hspatch.convert import convert_patch
from hspatch.documents import (
    _HS_INPUT_PATCH,
    _MATRIX_PATCH,
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
from hspatch.mesh import TessPattern, export_obj, tessellate

from conftest import assert_same_text


def traced_peak_ratio(write, arg) -> float:
    """Traced peak of write(arg) over the length of the text it returns.  A first call
    builds the kernel's cached tables, so that only the text and its pieces count, and
    lets the interpreter specialise the append loop, as a long-lived process would."""
    write(arg)
    tracemalloc.start()
    try:
        text = write(arg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / len(text)


@pytest.mark.skipif(sys.gettrace() is not None or platform.python_implementation() != "CPython",
                    reason="a str is grown in place only by CPython, and not under a trace "
                           "function (coverage, a debugger): each append then copies the text")
class TestOneCopy:
    """The traced peak of a writer stays close to its text's length; a join of the
    pieces held every piece and the whole text at once, about twice the length.
    Skipped under sys.settrace and on other interpreters, where every append copies
    the text: the bytes stay the same, but the peak is that of a join."""

    def test_export_obj_of_the_teapot(self):
        teapot = parse_teapot(bundled_teapot_path().read_text())
        meshes = [tessellate(convert_patch(p, Basis.HERMITE), 16, TessPattern.ALTERNATING)
                  for p in teapot_bezier_patches(teapot)]
        assert len(meshes) == 32
        assert traced_peak_ratio(export_obj, meshes) <= 1.3

    def test_serialize_patchset_of_2000_hermite_patches(self):
        controls = np.random.default_rng(2000).uniform(-2, 2, (2000, 3, 4, 4))
        doc = PatchSetDocument("hermite", controls=controls)
        assert traced_peak_ratio(serialize_patchset, doc) <= 1.15


# patch counts at the edges of the format_rows blocks, each appended on its own
EDGES = [0, 1, _PATCH_BLOCK, _PATCH_BLOCK + 1, 2 * _PATCH_BLOCK, 2 * _PATCH_BLOCK + 1,
         4 * _PATCH_BLOCK - 1]


def edge_document(kind: str, n: int, adjacency: bool) -> PatchSetDocument:
    rng = np.random.default_rng(n)
    if kind == "hermite":
        controls = rng.uniform(-2, 2, (n, 3, 4, 4))
    elif kind == "hs-float":
        controls = rng.uniform(-2, 2, (n, 3, 12))
    else:  # an object stack: ints stay exact
        controls = rng.integers(-10**6, 10**6, (n, 3, 12)).astype(object)
    joints = [Adjacency(0, Side.parse("u1"), n - 1, Side.parse("u0r")),
              Adjacency(n - 1, Side.parse("v0"), 0, Side.parse("v1"))] if adjacency and n else []
    basis = "hermite" if kind == "hermite" else HS_INPUT_BASIS
    return PatchSetDocument(basis, adjacency=joints, controls=controls)


@pytest.mark.parametrize("adjacency", [False, True])
@pytest.mark.parametrize("kind", ["hermite", "hs-float", "hs-int"])
@pytest.mark.parametrize("n", EDGES)
def test_last_patch_has_no_trailing_comma(kind, n, adjacency):
    doc = edge_document(kind, n, adjacency)
    if n:  # an empty stack is float64 whatever it was made from
        assert doc.controls.dtype == (object if kind == "hs-int" else float)
    template = _MATRIX_PATCH if kind == "hermite" else _HS_INPUT_PATCH
    rows = doc.controls.reshape(n, 48 if kind == "hermite" else 36).tolist()
    patches = "".join(template % tuple(map(float, row)) + (",\n" if k < n - 1 else "\n")
                      for k, row in enumerate(rows))
    joints = "".join(f'    [{a.a}, "{a.side_a}", {a.b}, "{a.side_b}"]'
                     + (",\n" if k < len(doc.adjacency) - 1 else "\n")
                     for k, a in enumerate(doc.adjacency))
    want = ('{\n  "format": "hspatch-patchset",\n  "version": 1,\n'
            f'  "basis": "{doc.basis}",\n  "patches": [\n{patches}'
            f'  ],\n  "adjacency": [\n{joints}  ]\n}}\n')
    text = serialize_patchset(doc)
    assert_same_text(text, want)
    assert len(json.loads(text)["patches"]) == n
    back = parse_patchset(text)
    assert len(back.adjacency) == len(doc.adjacency)
    assert np.array_equal(back.controls.astype(float), doc.controls.astype(float))
