"""Triangle tessellation of the u-v domain and Wavefront OBJ export."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .documents import FLOAT_FORMAT
from .patch import GeometricPatch, eval_patch_grid, unit_normals


class TessPattern(enum.Enum):
    """How each grid cell is split into two triangles.

    DIAG_NE splits every cell along the v = u direction, DIAG_NW along
    v = -u, ALTERNATING flips the split on cells with odd i + j.
    """

    DIAG_NE = "diag-ne"
    DIAG_NW = "diag-nw"
    ALTERNATING = "alternating"


@dataclass
class TriangleMesh:
    """Evaluated patch grid: (n+1)^2 vertices, 2n^2 counter-clockwise triangles.

    Vertex k sits at grid cell (i, j) = (k % (n+1), k // (n+1)); i runs along
    u.  Normals are per-vertex analytic (normalized du x dv); vertices where
    the normal degenerates carry a zero normal and are listed in
    `degenerate_normals`.  `tessellate` shares one read-only `uvs` and
    `triangles` pair among all meshes of the same n and pattern.
    """

    vertices: np.ndarray
    normals: np.ndarray
    uvs: np.ndarray
    triangles: np.ndarray
    degenerate_normals: list[int] = field(default_factory=list)

    def __post_init__(self):
        for name, dtype, width in (("vertices", float, 3), ("normals", float, 3),
                                   ("uvs", float, 2), ("triangles", np.int64, 3)):
            a = np.asarray(getattr(self, name), dtype=dtype)  # in form: the same object
            setattr(self, name, a if a.shape[1:] == (width,) else a.reshape(-1, width))
        nv = len(self.vertices)
        if len(self.normals) != nv or len(self.uvs) != nv:
            raise ValueError("vertices, normals and uvs must have equal length")
        if self.triangles.size and (self.triangles.min() < 0 or self.triangles.max() >= nv):
            raise ValueError("triangle index out of range")


def _cell_triangles(n: int, pattern: TessPattern) -> np.ndarray:
    # cells in v-major order, two triangles per cell
    j, i = np.divmod(np.arange(n * n, dtype=np.int64), n)
    v00 = j * (n + 1) + i
    v10 = v00 + 1
    v01 = v00 + (n + 1)
    v11 = v01 + 1
    if pattern is TessPattern.ALTERNATING:
        ne = ((i + j) % 2 == 0)[:, None]
    else:
        ne = pattern is TessPattern.DIAG_NE
    first = np.where(ne, np.stack([v00, v10, v11], axis=1), np.stack([v00, v10, v01], axis=1))
    second = np.where(ne, np.stack([v00, v11, v01], axis=1), np.stack([v10, v11, v01], axis=1))
    return np.stack([first, second], axis=1).reshape(-1, 3)


def tessellate(patch: GeometricPatch, n: int,
               pattern: TessPattern = TessPattern.DIAG_NE) -> TriangleMesh:
    """Tessellate a Hermite-basis patch on an n x n parameter grid.

    Vertex positions depend only on n (bitwise identical across patterns);
    the pattern decides the triangle indices per the TessPattern rules.
    """
    if n < 1:
        raise ValueError("tessellation level must be >= 1")
    n = int(n)
    params = np.arange(n + 1) / n
    p, pu, pv = eval_patch_grid(patch, params, params)

    # grid arrays are indexed [i_u, j_v]; flatten with v-major vertex order
    def flatten(grid):
        return grid.transpose(1, 0, 2).reshape(-1, grid.shape[2])

    normals, degenerate = unit_normals(flatten(pu), flatten(pv))
    uvs, triangles = _grid(n, pattern)
    return TriangleMesh(
        vertices=flatten(p),
        normals=normals,
        uvs=uvs,
        triangles=triangles,
        degenerate_normals=np.flatnonzero(degenerate).tolist(),
    )


@lru_cache(maxsize=8)
def _grid(n: int, pattern: TessPattern) -> tuple[np.ndarray, np.ndarray]:
    """The (uvs, triangles) of an n x n grid; read-only, shared by every mesh (cached)."""
    params = np.arange(n + 1) / n
    grid = (np.stack(np.meshgrid(params, params), axis=-1).reshape(-1, 2),
            _cell_triangles(n, pattern))
    for a in grid:
        a.setflags(write=False)
    return grid


_WIDTH = 24  # bytes of the NUL-padded field of one OBJ number: the longest %.17g text
_BLOCK = 4096  # rows spelled at once; keeps the temporaries small
_POW10 = np.array([float(10 ** j) for j in range(22)])  # exact doubles


@lru_cache(maxsize=1)
def _tables() -> tuple[np.ndarray, np.ndarray]:
    """digits[g]: the four ASCII digits of g in 0..9999 as one uint32 (built on first use).

    layouts[k + 4, m - 1]: the columns of the row (sign, "0", ".", NUL, "000", D's 17 digits)
    that spell |x| = D * 10**(k - 16), -4 <= k <= 15, whose last nonzero digit is the m-th."""
    g = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")
    layouts = np.full((21, 17, _WIDTH), 3, np.int32)  # column 3 holds a NUL
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
    cols += np.arange(0, _WIDTH * len(flat), _WIDTH, dtype=np.int32)[:, None]
    fields = chars.ravel().take(cols)
    for i in np.flatnonzero(~(fast | zero)).tolist():
        fields[i] = np.frombuffer((FLOAT_FORMAT % flat[i]).encode().ljust(_WIDTH, b"\0"), np.uint8)
    return fields.reshape(*x.shape, _WIDTH)


def _index_tokens(first: int, count: int) -> np.ndarray:
    """(count, width) NUL-padded `a/a/a` tokens of a = first, first + 1, ... (int64)."""
    chars = _digit_groups(np.arange(first, first + count, dtype=np.int64)).view(np.uint8)
    chars[:, :-1][np.logical_and.accumulate(chars[:, :-1] == ord("0"), axis=1)] = 0
    index = chars[:, -len(str(first + count - 1)):]
    return np.hstack([index, np.full((count, 1), ord("/"), np.uint8)] * 2 + [index])


def _lines(tag: bytes, rows: np.ndarray, spell) -> list[str]:
    """Lines `tag f0 f1 ...`, one per row; spell(block) gives (rows, c, width) fields."""
    out = []
    for i in range(0, len(rows), _BLOCK):
        fields = spell(rows[i:i + _BLOCK])
        n, c, width = fields.shape
        line = np.empty((n, len(tag) + c * (width + 1)), np.uint8)
        line[:, :len(tag)] = np.frombuffer(tag, np.uint8)
        cells = line[:, len(tag):].reshape(n, c, width + 1)
        cells[:, :, :width], cells[:, :, width], cells[:, -1, width] = fields, ord(" "), ord("\n")
        out.append(line.tobytes().translate(None, b"\0").decode("ascii"))
    return out


def export_obj(meshes) -> str:
    """Serialize one mesh or a sequence of meshes as Wavefront OBJ text.

    One `g patch_<k>` group per mesh; vertex, texture and normal
    indices are global and 1-based; faces are written as a/a/a b/b/b c/c/c.
    Numbers read as FLOAT_FORMAT % x writes them.
    Output is byte-deterministic for identical input.
    """
    if isinstance(meshes, TriangleMesh):
        meshes = [meshes]
    meshes = list(meshes)
    total_v = sum(len(m.vertices) for m in meshes)
    total_t = sum(len(m.triangles) for m in meshes)
    parts = [
        "# hspatch OBJ export\n",
        f"# groups: {sum(1 for m in meshes if len(m.vertices))}"
        f" vertices: {total_v} triangles: {total_t}\n",
    ]
    offset = 1
    uv_bits = vt_block = None
    for k, m in enumerate(meshes):
        nv = len(m.vertices)
        if not nv:
            continue
        parts.append(f"g patch_{k}\n")
        parts += _lines(b"v ", m.vertices, _spell_floats)
        # uvs depend only on n; bits, not values, decide reuse (-0.0 is not 0.0)
        bits = m.uvs.tobytes()
        if bits != uv_bits:
            uv_bits, vt_block = bits, _lines(b"vt ", m.uvs, _spell_floats)
        parts += vt_block
        parts += _lines(b"vn ", m.normals, _spell_floats)
        parts += _lines(b"f ", m.triangles, _index_tokens(offset, nv).__getitem__)
        offset += nv
    return "".join(parts)
