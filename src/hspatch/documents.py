"""Patch-set and teapot file formats.

Patch sets travel as JSON with a fixed layout (one matrix row per line) and
floats printed with 17 significant digits, so serialize(parse(text)) is
lossless for doubles and byte-deterministic.

The teapot format is the classic counts-led text form for cubic Bezier patch
sets: a patch count, that many lines of 16 one-based vertex indices, a vertex
count, then that many x,y,z lines.  Values may be separated by commas or
whitespace.
"""

from __future__ import annotations

import json
import math
from contextlib import suppress
from dataclasses import dataclass
from importlib import resources
from itertools import chain

import numpy as np

from .analysis import Side
from .errors import DocumentError
from .hs import HsControls, HsPatchInput
from .patch import Basis, GeometricPatch

FORMAT_NAME = "hspatch-patchset"
HS_INPUT_BASIS = "hs-input"
_MATRIX_BASES = {b.value for b in Basis}


@dataclass
class Adjacency:
    """A declared shared edge between two patches of a set."""

    a: int
    side_a: Side
    b: int
    side_b: Side


class PatchSetDocument:
    """In-memory form of a patch-set file.

    A matrix-basis document (hermite, bezier, bspline) holds `controls`, one
    (P, 3, 4, 4) float64 stack of the x, y, z control matrices of its P
    patches; `patches` lists them as GeometricPatch objects, made on first
    read.  An hs-input document holds HsPatchInput objects in `patches` (12
    controls per coordinate, twists derived later) and no stack.
    """

    def __init__(self, basis: str, patches=(), adjacency=(), version: int = 1,
                 controls=None):
        self.basis = basis
        self.adjacency = list(adjacency)
        self.version = version
        self._patches = None if controls is not None else list(patches)
        if controls is None and basis != HS_INPUT_BASIS:
            controls = np.array([p.coords() for p in self._patches], dtype=float)
        if controls is not None:
            controls = controls.reshape(-1, 3, 4, 4)
            bad = np.argwhere(~np.isfinite(controls))
            if len(bad):  # named as GeometricPatch names the first bad matrix
                raise ValueError(f"control matrix {'xyz'[bad[0, 1]]} contains non-finite entries")
        self.controls = controls

    @property
    def patches(self) -> list:
        if self._patches is None:
            basis = Basis(self.basis)
            self._patches = [GeometricPatch(*m, basis) for m in self.controls]
        return self._patches


# 17 significant digits: enough for exact double round-trips
FLOAT_FORMAT = "%.17g"
_ROW = "[" + ", ".join([FLOAT_FORMAT] * 4) + "]"
# One patch of each kind as a % template, values in stack order
_MATRIX_PATCH = "    {\n" + ",\n".join(
    f'      "{name}": [\n' + ",\n".join(["        " + _ROW] * 4) + "\n      ]"
    for name in "xyz") + "\n    }"
_HS_INPUT_PATCH = "    {\n" + ",\n".join(
    f'      "{name}": [' + ", ".join([FLOAT_FORMAT] * 12) + "]" for name in "xyz") + "\n    }"
# Patches per % batch: bounds the value list and the text formatted at once
_BATCH = 256


def serialize_patchset(doc: PatchSetDocument) -> str:
    """Render a document as deterministic, line-oriented JSON text."""
    if doc.basis == HS_INPUT_BASIS:
        values = np.array([[c.flat() for c in (p.x, p.y, p.z)] for p in doc.patches],
                          dtype=float)
        template = _HS_INPUT_PATCH
    else:
        values, template = doc.controls, _MATRIX_PATCH
    out = [f'{{\n  "format": "{FORMAT_NAME}",\n  "version": {doc.version},\n'
           f'  "basis": "{doc.basis}",\n  "patches": [\n']
    for start in range(0, len(values), _BATCH):
        batch = values[start:start + _BATCH]
        out.append(",\n".join([template] * len(batch)) % tuple(batch.ravel().tolist()))
        out.append(",\n" if start + _BATCH < len(values) else "\n")
    joints = ",\n".join(f'    [{adj.a}, "{adj.side_a}", {adj.b}, "{adj.side_b}"]'
                         for adj in doc.adjacency)
    out.append('  ],\n  "adjacency": [\n' + joints + ("\n" if joints else "") + "  ]\n}\n")
    return "".join(out)


def _require(condition: bool, message: str):
    if not condition:
        raise DocumentError(message)


def _number_rows(raw_patches, matrices: bool) -> list[list]:
    """The number lists of the patch entries in document order, structure checked.

    A matrix entry gives its four rows, an hs-input entry its 12 controls.
    """
    rows = []
    try:
        for idx, entry in enumerate(raw_patches):
            _require(isinstance(entry, dict), f"patches[{idx}]: expected an object")
            _require(set(entry.keys()) == {"x", "y", "z"},
                     f"patches[{idx}]: expected exactly the keys x, y, z")
            for name in "xyz":
                raw, at = entry[name], f"patches[{idx}].{name}"
                if not matrices:
                    _require(isinstance(raw, list) and len(raw) == 12,
                             f"{at}: expected 12 numbers (4 corners then 8 tangents)")
                    rows.append(raw)
                    continue
                _require(isinstance(raw, list) and len(raw) == 4, f"{at}: expected 4 rows")
                for i, row in enumerate(raw):
                    _require(isinstance(row, list) and len(row) == 4,
                             f"{at}[{i}]: expected 4 numbers")
                    rows.append(row)
    except DocumentError:
        _float_rows(rows, matrices)  # a bad number before the bad structure comes first
        raise
    return rows


def _float_rows(rows, matrices: bool) -> np.ndarray:
    """rows as one float64 array, after one type pass and one finiteness pass.

    Only when those fail are the rows checked one by one, so that the error
    names the first bad list.
    """
    # type() rather than isinstance(): JSON true/false must not pass as 1/0
    if set(map(type, chain.from_iterable(rows))) <= {int, float}:
        with suppress(OverflowError):  # an integer beyond the double range
            values = np.array(rows, dtype=float)
            if np.isfinite(values).all():
                return values
    for j, row in enumerate(rows):
        where = (f"patches[{j // 12}].{'xyz'[j // 4 % 3]}[{j % 4}]" if matrices
                 else f"patches[{j // 3}].{'xyz'[j % 3]}")
        _require(all(type(v) in (int, float) for v in row), f"{where}: values must be numbers")
        try:
            finite = all(map(math.isfinite, row))
        except OverflowError:
            finite = False
        _require(finite, f"{where}: non-finite value")
    raise AssertionError("a number list failed the batch checks but none by itself")


def decode_json(text: str, where: str = ""):
    """json.loads whose failures, deep nesting included, raise DocumentError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(
            f"{where}invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except RecursionError:
        raise DocumentError(f"{where}JSON nested too deeply") from None
    except ValueError as exc:  # an integer literal past the interpreter's digit limit
        raise DocumentError(f"{where}invalid JSON: {exc}") from None


def parse_patchset(text: str) -> PatchSetDocument:
    """Parse and validate patch-set JSON; raises DocumentError with context."""
    data = decode_json(text)
    _require(isinstance(data, dict), "top level: expected an object")
    _require(data.get("format") == FORMAT_NAME, f'top level: "format" must be "{FORMAT_NAME}"')
    version = data.get("version")
    _require(type(version) is int and version >= 1, 'top level: integer "version" >= 1 required')
    basis = data.get("basis")
    _require(
        isinstance(basis, str) and basis in _MATRIX_BASES | {HS_INPUT_BASIS},
        'top level: "basis" must be hermite, bezier, bspline or hs-input',
    )
    raw_patches = data.get("patches")
    _require(isinstance(raw_patches, list), 'top level: "patches" must be a list')
    matrices = basis != HS_INPUT_BASIS
    rows = _number_rows(raw_patches, matrices)
    values = _float_rows(rows, matrices)
    # hs-input controls come from the decoded lists, so that integers stay exact
    patches = () if matrices else [HsPatchInput(*map(HsControls.from_flat, rows[k:k + 3]))
                                   for k in range(0, len(rows), 3)]
    adjacency = parse_adjacency(data.get("adjacency", []), len(raw_patches))
    return PatchSetDocument(basis, patches, adjacency, version, values if matrices else None)


def parse_adjacency(raw, n_patches: int) -> list[Adjacency]:
    """Validate a JSON list of [id, side, id, side] joints between n_patches patches."""
    _require(isinstance(raw, list), "adjacency: expected a list")
    adjacency = []
    for idx, entry in enumerate(raw):
        where = f"adjacency[{idx}]"
        _require(isinstance(entry, list) and len(entry) == 4, f"{where}: expected [id, side, id, side]")
        a, sa, b, sb = entry
        # type() rather than isinstance(): JSON true/false must not pass as ids 1/0
        _require(type(a) is int and type(b) is int, f"{where}: patch ids must be integers")
        _require(0 <= a < n_patches and 0 <= b < n_patches, f"{where}: patch id out of range")
        _require(isinstance(sa, str) and isinstance(sb, str), f"{where}: sides must be strings")
        try:
            adjacency.append(Adjacency(a, Side.parse(sa), b, Side.parse(sb)))
        except ValueError as exc:
            raise DocumentError(f"{where}: {exc}") from None
    return adjacency


def load_patchset(path) -> PatchSetDocument:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_patchset(fh.read())


def save_patchset(doc: PatchSetDocument, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(serialize_patchset(doc))


# --- teapot format ---------------------------------------------------------


@dataclass
class TeapotDocument:
    """A Bezier patch set in the classic counts-led text format."""

    vertices: np.ndarray  # (n_vertices, 3)
    patches: np.ndarray   # (n_patches, 16) vertex indices, stored 0-based


def parse_teapot(text: str) -> TeapotDocument:
    rows = iter([(lineno, line.replace(",", " ").split())
                 for lineno, line in enumerate(text.splitlines(), start=1)
                 if line.strip() and not line.lstrip().startswith("#")])

    def next_row(expected: int, what: str, convert, invalid: str):
        """Line number and converted values of the next row; invalid names a failed convert."""
        lineno, tokens = next(rows, (0, None))
        _require(tokens is not None, f"teapot file ended early while reading {what}")
        _require(len(tokens) == expected,
                 f"line {lineno}: expected {expected} value(s) for {what}, got {len(tokens)}")
        try:
            return lineno, [convert(t) for t in tokens]
        except ValueError:
            raise DocumentError(f"line {lineno}: {invalid}") from None

    def parse_count(what: str) -> int:
        lineno, (count,) = next_row(1, what, int, f"{what} must be an integer")
        _require(count >= 0, f"line {lineno}: {what} must be >= 0")
        return count

    n_patches = parse_count("patch count")
    patch_rows = [next_row(16, f"patch {k} indices", int, "patch indices must be integers")[1]
                  for k in range(n_patches)]
    n_vertices = parse_count("vertex count")
    vertex_rows = []
    for k in range(n_vertices):
        lineno, row = next_row(3, f"vertex {k}", float, "vertex coordinates must be numbers")
        _require(all(map(math.isfinite, row)), f"line {lineno}: non-finite vertex coordinate")
        vertex_rows.append(row)

    # checked before the int64 array, which a huge index would overflow
    _require(all(0 < i <= n_vertices for row in patch_rows for i in row),
             "teapot patch index out of vertex range")
    patches = np.array(patch_rows, dtype=np.int64).reshape(n_patches, 16) - 1
    vertices = np.array(vertex_rows, dtype=float).reshape(n_vertices, 3)
    return TeapotDocument(vertices=vertices, patches=patches)


def bundled_teapot_path():
    """Path of the packaged teapot dataset (32 patches, deduplicated vertices)."""
    return resources.files(__package__) / "data" / "teapot.txt"


def teapot_bezier_patches(doc: TeapotDocument) -> list[GeometricPatch]:
    """Expand index rows into Bezier control matrices, one patch per row.

    Index k of a row maps to control-net entry (k // 4, k % 4).
    """
    out = []
    for row in doc.patches:
        net = doc.vertices[row].reshape(4, 4, 3)
        out.append(GeometricPatch(net[:, :, 0], net[:, :, 1], net[:, :, 2], Basis.BEZIER))
    return out
