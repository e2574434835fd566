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
from dataclasses import dataclass, field
from importlib import resources

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


@dataclass
class PatchSetDocument:
    """In-memory form of a patch-set file.

    `patches` holds GeometricPatch objects for matrix bases and HsPatchInput
    objects when basis == "hs-input" (12 controls per coordinate, twists
    derived later).
    """

    basis: str
    patches: list
    adjacency: list[Adjacency] = field(default_factory=list)
    version: int = 1


# 17 significant digits: enough for exact double round-trips
FLOAT_FORMAT = "%.17g"


def _fmt(x: float) -> str:
    return FLOAT_FORMAT % float(x)


def _matrix_lines(matrix, indent: str) -> list[str]:
    rows = []
    for i, row in enumerate(matrix):
        tail = "," if i < len(matrix) - 1 else ""
        rows.append(indent + "[" + ", ".join(_fmt(v) for v in row) + "]" + tail)
    return rows


def serialize_patchset(doc: PatchSetDocument) -> str:
    """Render a document as deterministic, line-oriented JSON text."""
    out = [
        "{",
        f'  "format": "{FORMAT_NAME}",',
        f'  "version": {doc.version},',
        f'  "basis": "{doc.basis}",',
        '  "patches": [',
    ]
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
        out.append(
            f'    [{adj.a}, "{adj.side_a}", {adj.b}, "{adj.side_b}"]{tail}'
        )
    out.append("  ]")
    out.append("}")
    return "\n".join(out) + "\n"


def _require(condition: bool, message: str):
    if not condition:
        raise DocumentError(message)


def _require_numbers(values, where: str):
    # type() rather than isinstance(): JSON true/false must not pass as 1/0
    _require(all(type(v) in (int, float) for v in values), f"{where}: values must be numbers")
    try:
        finite = all(map(math.isfinite, values))
    except OverflowError:  # an integer beyond the double range
        finite = False
    _require(finite, f"{where}: non-finite value")


def _parse_matrix(raw, where: str) -> np.ndarray:
    _require(isinstance(raw, list) and len(raw) == 4, f"{where}: expected 4 rows")
    for i, row in enumerate(raw):
        _require(isinstance(row, list) and len(row) == 4, f"{where}[{i}]: expected 4 numbers")
        _require_numbers(row, f"{where}[{i}]")
    return np.array(raw, dtype=float)


def _parse_controls(raw, where: str) -> HsControls:
    _require(
        isinstance(raw, list) and len(raw) == 12,
        f"{where}: expected 12 numbers (4 corners then 8 tangents)",
    )
    _require_numbers(raw, where)
    return HsControls.from_flat(raw)


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

    patches = []
    for idx, entry in enumerate(raw_patches):
        where = f"patches[{idx}]"
        _require(isinstance(entry, dict), f"{where}: expected an object")
        _require(
            set(entry.keys()) == {"x", "y", "z"},
            f"{where}: expected exactly the keys x, y, z",
        )
        if basis == HS_INPUT_BASIS:
            patches.append(HsPatchInput(
                x=_parse_controls(entry["x"], f"{where}.x"),
                y=_parse_controls(entry["y"], f"{where}.y"),
                z=_parse_controls(entry["z"], f"{where}.z"),
            ))
        else:
            patches.append(GeometricPatch(
                _parse_matrix(entry["x"], f"{where}.x"),
                _parse_matrix(entry["y"], f"{where}.y"),
                _parse_matrix(entry["z"], f"{where}.z"),
                Basis(basis),
            ))

    adjacency = parse_adjacency(data.get("adjacency", []), len(patches))
    return PatchSetDocument(basis=basis, patches=patches, adjacency=adjacency, version=version)


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
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        rows.append((lineno, stripped.replace(",", " ").split()))

    cursor = 0

    def next_row(expected: int, what: str):
        nonlocal cursor
        if cursor >= len(rows):
            raise DocumentError(f"teapot file ended early while reading {what}")
        lineno, tokens = rows[cursor]
        cursor += 1
        if len(tokens) != expected:
            raise DocumentError(
                f"line {lineno}: expected {expected} value(s) for {what}, got {len(tokens)}"
            )
        return lineno, tokens

    def parse_count(what: str) -> int:
        lineno, tokens = next_row(1, what)
        try:
            count = int(tokens[0])
        except ValueError:
            raise DocumentError(f"line {lineno}: {what} must be an integer") from None
        if count < 0:
            raise DocumentError(f"line {lineno}: {what} must be >= 0")
        return count

    n_patches = parse_count("patch count")
    patch_rows = []
    for k in range(n_patches):
        lineno, tokens = next_row(16, f"patch {k} indices")
        try:
            patch_rows.append([int(t) for t in tokens])
        except ValueError:
            raise DocumentError(f"line {lineno}: patch indices must be integers") from None

    n_vertices = parse_count("vertex count")
    vertex_rows = []
    for k in range(n_vertices):
        lineno, tokens = next_row(3, f"vertex {k}")
        try:
            row = [float(t) for t in tokens]
        except ValueError:
            raise DocumentError(f"line {lineno}: vertex coordinates must be numbers") from None
        _require(all(map(math.isfinite, row)), f"line {lineno}: non-finite vertex coordinate")
        vertex_rows.append(row)

    patches = np.array(patch_rows, dtype=np.int64).reshape(n_patches, 16) - 1
    vertices = np.array(vertex_rows, dtype=float).reshape(n_vertices, 3)
    if n_patches and (patches.min() < 0 or patches.max() >= n_vertices):
        raise DocumentError("teapot patch index out of vertex range")
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
