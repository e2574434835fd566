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
import re
from contextlib import suppress
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from itertools import chain
from math import isfinite

import numpy as np

from .analysis import Side
from .errors import DocumentError
from .hs import patch_inputs
from .patch import Basis, GeometricPatch, control_stack, finite

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
    """In-memory form of a patch-set file: one stack of controls, `controls`.

    It is (P, 3, 4, 4) float64 for a matrix basis (the x, y, z control matrices
    of P patches), and (P, 3, 12) for hs-input, the x, y, z corners then
    tangents: float64 when every control is a float, else an object array, so
    that ints and Fractions stay exact (_hs_dtype).  `patches` lists the patch
    objects it was built from, or else makes GeometricPatch or HsPatchInput
    objects from the stack on first read.
    """

    def __init__(self, basis: str, patches=(), adjacency=(), version: int = 1, controls=None):
        self.basis, self.adjacency, self.version = basis, list(adjacency), version
        self._patches = None if controls is not None else list(patches)
        hs_input, dtype = basis == HS_INPUT_BASIS, float
        if controls is None:
            controls = [[c.flat() for c in (p.x, p.y, p.z)] if hs_input else p.coords()
                        for p in self._patches]
        if hs_input and not (isinstance(controls, np.ndarray) and controls.dtype == float):
            controls = np.asarray(controls, object)
            dtype = _hs_dtype(set(map(type, controls.flat)))
        self.controls = control_stack(controls, dtype, "row" if hs_input else "matrix").reshape(
            -1, 3, *((12,) if hs_input else (4, 4)))

    @property
    def patches(self) -> list:
        if self._patches is None:
            self._patches = patch_inputs(self.controls) if self.basis == HS_INPUT_BASIS else [
                GeometricPatch(*m, Basis(self.basis)) for m in self.controls]
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
# Rows per cli --json % batch; patches per run of check/build inputs
BATCH = 256
# Patches per format_rows block (768 matrix values): build's peak RSS rose with 32 and 64,
# as the kernel's temporaries, 192 bytes per value, grow past malloc's mmap threshold
_PATCH_BLOCK = 16


def serialize_patchset(doc: PatchSetDocument) -> str:
    """Render a document as deterministic, line-oriented JSON text."""
    hs_input = doc.basis == HS_INPUT_BASIS
    template = (_HS_INPUT_PATCH if hs_input else _MATRIX_PATCH) + ",\n"
    controls = doc.controls.reshape(len(doc.controls), 36 if hs_input else 48)
    text = (f'{{\n  "format": "{FORMAT_NAME}",\n  "version": {doc.version},\n'
            f'  "basis": "{doc.basis}",\n  "patches": [\n')
    for start in range(0, len(controls), _PATCH_BLOCK):
        block = controls[start:start + _PATCH_BLOCK]
        if block.dtype == object:  # ints and Fractions: % writes float() of each value
            block = np.fromiter(map(float, block.ravel()), float, block.size).reshape(block.shape)
        piece = format_rows(template, block)
        # CPython grows text, its one reference, in place; under sys.settrace or elsewhere
        # each append copies it: the same bytes, at most a join's peak, one copy per block
        text += piece[:-2] + "\n" if start + _PATCH_BLOCK >= len(controls) else piece
    joints = ",\n".join(f'    [{adj.a}, "{adj.side_a}", {adj.b}, "{adj.side_b}"]'
                         for adj in doc.adjacency)
    text += '  ],\n  "adjacency": [\n' + joints + ("\n" if joints else "") + "  ]\n}\n"
    return text


# --- the %.17g kernel: patch-set and OBJ numbers -----------------------------

_WIDTH = 24  # bytes of the NUL-padded field of one number: the longest %.17g text
_POW10 = np.array([float(10 ** j) for j in range(22)])  # exact doubles


@lru_cache(maxsize=1)
def _tables() -> tuple[np.ndarray, np.ndarray]:
    """digits[g]: the four ASCII digits of g in 0..9999 as one uint32 (built on first use).

    layouts[k + 4, m - 1]: the columns of the row (sign, "0", ".", NUL, "000", D's 17 digits)
    that spell |x| = D * 10**(k - 16), -4 <= k <= 15, whose last nonzero digit is the m-th."""
    # in uint16, not int64, to stay below 128 KiB (see _PATCH_BLOCK)
    g = (np.arange(10000, dtype=np.uint16)[:, None] // np.array([1000, 100, 10, 1], np.uint16)
         % 10 + ord("0"))
    # in intp, take's index type, so that take makes no converted copy of the columns
    layouts = np.full((21, 17, _WIDTH), 3, np.intp)  # column 3 holds a NUL
    for k in range(-4, 16):
        for m in range(1, 18):
            cols = ([0, 1, 2] + [1] * (-1 - k) + list(range(7, 7 + m)) if k < 0 else
                    [0, *range(7, 8 + k)] + [2, *range(8 + k, 7 + m)] * (m > k + 1))
            layouts[k + 4, m - 1, :len(cols)] = cols
    layouts[20, :, :2] = 0, 1  # slot 20 spells 0: the sign, then "0"
    return g.astype(np.uint8).view(np.uint32).ravel(), layouts


def _digit_groups(a: np.ndarray) -> np.ndarray:
    """(N, 5) uint32: the 20 ASCII digits of each int64 in a >= 0, zero-padded."""
    high, low = np.divmod(a, 10 ** 8)  # scalar divisors are fast
    return _tables()[0].take(np.stack([high // 10 ** 8, high // 10 ** 4 % 10 ** 4, high % 10 ** 4,
                                       low // 10 ** 4, low % 10 ** 4], axis=1))


def _scaled(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """hi + lo == a * 10**(16 - k) exactly (Dekker's two-product), hi the rounded product."""
    s = _POW10[16 - k]
    hi, c, d = a * s, a * 134217729.0, s * 134217729.0  # 2**27 + 1: Veltkamp splits
    ah, sh = c - (c - a), d - (d - s)
    al, sl = a - ah, s - sh
    return hi, al * sl - (((hi - ah * sh) - al * sh) - ah * sl)


def _spell_floats(x: np.ndarray) -> np.ndarray:
    """x.shape + (_WIDTH,) NUL-padded fields: the bytes of FLOAT_FORMAT % v per v in x.

    For 1e-4 <= |v| < 1e16, %.17g writes D = round-half-even(|v| * 10**(16 - k)) with
    1e16 <= D < 1e17 in fixed notation; hi is an even integer (above 2**53), so
    D = hi + rint(lo).  FLOAT_FORMAT itself spells every other nonzero value."""
    layouts, flat = _tables()[1], x.ravel()
    a = np.abs(flat)
    fast, zero = (a >= 1e-4) & (a < 1e16), a == 0
    a = np.where(fast, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.int64)
    hi, lo = _scaled(a, k)
    # the signs of the exact differences (Sterbenz) put the product in [1e16, 1e17)
    step = ((hi - 1e17) + lo >= 0).astype(np.int64) - ((hi - 1e16) + lo < 0)
    if step.any():
        k += step
        hi, lo = _scaled(a, k)
    # D < 1e17: below each power of ten here, the nearest double gives D <= 1e17 - 8
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    k[zero] = 16  # slot k + 4 = 20 spells 0
    src = np.empty((len(flat), 6), np.uint32)
    src[:, 0], src[:, 1:] = np.frombuffer(b"\x000.\x00", np.uint32), _digit_groups(d)
    chars = src.view(np.uint8)
    chars[:, 0] = np.signbit(flat) * ord("-")
    trailing = np.argmax(chars[:, :6:-1] != ord("0"), axis=1)  # zeros after D's last digit
    cols = layouts.reshape(-1, _WIDTH).take((k + 4) * 17 + 16 - trailing, axis=0)
    cols += np.arange(0, _WIDTH * len(flat), _WIDTH, dtype=np.intp)[:, None]
    fields = chars.ravel().take(cols)
    slow = np.flatnonzero(~(fast | zero))
    if len(slow):
        fields[slow] = np.array([(FLOAT_FORMAT % v).encode() for v in flat[slow].tolist()],
                                f"S{_WIDTH}").view(np.uint8).reshape(-1, _WIDTH)
    return fields.reshape(*x.shape, _WIDTH)


@lru_cache(maxsize=8)
def _row_layout(template: str, width: int) -> tuple[np.ndarray, list[int]]:
    """One row of the template's literal bytes with width NULs per slot, and the slot starts."""
    pieces = [p.encode("ascii") for p in re.split(r"%\.17g|%s", template)]
    starts = np.cumsum([len(p) + width for p in pieces[:-1]]) - width
    return np.frombuffer(bytes(width).join(pieces), np.uint8), starts.tolist()


def format_rows(template: str, rows: np.ndarray, spell=None) -> str:
    """"".join(template % tuple(row) for row in rows), for a 2-D block of rows.

    The template's slots are FLOAT_FORMAT, spelled by the vectorized kernel above with
    the bytes that % writes.  A caller with other values gives %s slots and spell, which
    maps the block to (rows, slots, width) NUL-padded uint8 fields."""
    fields = _spell_floats(rows) if spell is None else spell(rows)
    n, _, width = fields.shape
    row, starts = _row_layout(template, width)
    out = np.empty((n, len(row)), np.uint8)
    out[:] = row
    for j, start in enumerate(starts):
        out[:, start:start + width] = fields[:, j]
    return out.tobytes().translate(None, b"\0").decode("ascii")


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
                    if not (isinstance(row, list) and len(row) == 4):  # message made if raised
                        raise DocumentError(f"{at}[{i}]: expected 4 numbers")
                    rows.append(row)
    except DocumentError:
        _number_stack(rows, matrices)  # a bad number before the bad structure comes first
        raise
    return rows


def _hs_dtype(types: set) -> type:
    """The dtype of an hs-input stack whose values have these types: float64 when all
    are float, else object, the one form that keeps ints and Fractions exact."""
    return float if types <= {float} else object


def _number_stack(rows, matrices: bool) -> np.ndarray:
    """The numbers of rows in order, as one flat array, after one pass over their types
    and one over their values: float64, or for hs-input the dtype _hs_dtype picks, so
    that integers stay exact.  Only when a batch check fails are the rows checked one
    by one, so that the error names the first bad list."""
    numbers = tuple(chain.from_iterable(rows))
    # type() rather than isinstance(): JSON true/false must not pass as 1/0
    if (types := set(map(type, numbers))) <= {int, float}:
        with suppress(OverflowError):  # an int beyond the double range: the walk names it
            if all(map(isfinite, numbers)):
                return np.array(numbers, float if matrices else _hs_dtype(types))
    for j, row in enumerate(rows):
        where = (f"patches[{j // 12}].{'xyz'[j // 4 % 3]}[{j % 4}]" if matrices
                 else f"patches[{j // 3}].{'xyz'[j % 3]}")
        _require(all(type(v) in (int, float) for v in row), f"{where}: values must be numbers")
        _require(all(map(finite, row)), f"{where}: non-finite value")
    raise AssertionError("a number list failed the batch checks but none by itself")


def decode_json(text: str, where: str = "", object_hook=None):
    """json.loads whose failures, deep nesting included, raise DocumentError."""
    try:
        return json.loads(text, object_hook=object_hook)
    except json.JSONDecodeError as exc:
        raise DocumentError(
            f"{where}invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except RecursionError:
        raise DocumentError(f"{where}JSON nested too deeply") from None
    except ValueError as exc:  # an integer literal past the interpreter's digit limit
        raise DocumentError(f"{where}invalid JSON: {exc}") from None


class _Entry(dict):
    """A decoded patch entry that passed the entry checks of its kind, held flat as
    _number_stack gives it: the 48 numbers of its matrices or its 36 hs-input numbers.
    As a dict it is empty, so that anywhere but in "patches" it fails as the object it
    replaces does."""

    __slots__ = ("values",)

    def __init__(self, values):
        self.values = values

    def lists(self) -> dict:
        """The entry as decoded: its x, y, z lists."""
        shape = (3, 12) if len(self.values) == 36 else (3, 4, 4)
        return dict(zip("xyz", self.values.reshape(shape).tolist()))


def _compact(obj: dict) -> dict:
    """json object_hook: an object with exactly the keys x, y, z that passes the entry
    checks of its shape's kind as an _Entry; any other object as it is."""
    if obj.keys() != {"x", "y", "z"}:
        return obj
    matrices = not (isinstance(obj["x"], list) and len(obj["x"]) == 12)
    with suppress(DocumentError):
        return _Entry(_number_stack(_number_rows([obj], matrices), matrices))
    return obj


def parse_patchset(text: str) -> PatchSetDocument:
    """Parse and validate patch-set JSON; raises DocumentError with context.  The text is
    decoded once, and each patch entry is checked and compacted as it is decoded
    (_compact), so no JSON tree of the whole patch list is held."""
    data = decode_json(text, object_hook=_compact)
    _require(isinstance(data, dict), "top level: expected an object")
    _require(data.get("format") == FORMAT_NAME, f'top level: "format" must be "{FORMAT_NAME}"')
    version = data.get("version")
    _require(type(version) is int and version >= 1, 'top level: integer "version" >= 1 required')
    basis = data.get("basis")
    _require(
        isinstance(basis, str) and basis in _MATRIX_BASES | {HS_INPUT_BASIS},
        'top level: "basis" must be hermite, bezier, bspline or hs-input',
    )
    matrices, entries = basis != HS_INPUT_BASIS, data.get("patches")
    _require(isinstance(entries, list), 'top level: "patches" must be a list')
    if entries and all(type(e) is _Entry and len(e.values) == (48 if matrices else 36)
                       for e in entries):
        # float64 when every entry is; else an object array of the decoded numbers
        values = np.concatenate([e.values for e in entries])
    else:  # the checks of the whole list give the first fault its message
        values = _number_stack(_number_rows([e.lists() if type(e) is _Entry else e
                                             for e in entries], matrices), matrices)
    adjacency = parse_adjacency(data.get("adjacency", []), len(entries))
    del data, entries  # the entries' arrays go before the document checks the stack
    return PatchSetDocument(basis, (), adjacency, version, values)


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
    write_text(path, serialize_patchset(doc))


def write_text(path, text: str):
    """Write text, which the writers build as their one copy, as UTF-8 with LF line ends
    in 1 MiB slices, so that no encoded copy of the whole of it adds to the peak RSS."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for start in range(0, len(text), 1 << 20):
            fh.write(text[start:start + (1 << 20)])


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
        _require(all(map(finite, row)), f"line {lineno}: non-finite vertex coordinate")
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
    nets = doc.vertices[doc.patches].reshape(-1, 4, 4, 3)
    return [GeometricPatch(*np.moveaxis(net, -1, 0), Basis.BEZIER) for net in nets]
