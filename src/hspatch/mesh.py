"""Triangle tessellation of the u-v domain and Wavefront OBJ export."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .documents import FLOAT_FORMAT, format_rows
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


_BLOCK = 4096  # rows spelled at once; keeps the temporaries small
_V_LINE, _VT_LINE, _VN_LINE = (f"{tag} " + " ".join([FLOAT_FORMAT] * width) + "\n"
                               for tag, width in (("v", 3), ("vt", 2), ("vn", 3)))
_F_LINE = "f %s %s %s\n"


def _index_tokens(first: int, count: int) -> np.ndarray:
    """(count, width) NUL-padded `a/a/a` tokens of a = first, first + 1, ... (int64, >= 1)."""
    powers = 10 ** np.arange(len(str(first + count - 1)) - 1, -1, -1, dtype=np.int64)
    a = np.arange(first, first + count, dtype=np.int64)[:, None]
    index = np.where(a < powers, 0, a // powers % 10 + ord("0")).astype(np.uint8)  # no lead 0s
    return np.hstack([index, np.full((count, 1), ord("/"), np.uint8)] * 2 + [index])


def _lines(template: str, rows: np.ndarray, spell=None) -> list[str]:
    """format_rows of each _BLOCK rows: the numbers of FLOAT_FORMAT slots, or spell's fields."""
    return [format_rows(template, rows[i:i + _BLOCK], spell) for i in range(0, len(rows), _BLOCK)]


def export_obj(meshes) -> str:
    """Serialize one mesh or a sequence of meshes as Wavefront OBJ text.

    One `g patch_<k>` group per mesh; vertex, texture and normal
    indices are global and 1-based; faces are written as a/a/a b/b/b c/c/c.
    Numbers read as FLOAT_FORMAT % x writes them.
    Output is byte-deterministic for identical input.  Each mesh leaves this
    function's own list once its group is spelled, so a mesh that the caller
    does not hold is freed during the export; the caller's list is not touched.
    """
    meshes = [meshes] if isinstance(meshes, TriangleMesh) else list(meshes)
    total_v = sum(len(m.vertices) for m in meshes)
    total_t = sum(len(m.triangles) for m in meshes)
    text = (
        "# hspatch OBJ export\n"
        f"# groups: {sum(1 for m in meshes if len(m.vertices))}"
        f" vertices: {total_v} triangles: {total_t}\n"
    )
    offset = 1
    uv_bits = vt_block = None
    for k in range(len(meshes)):
        m, meshes[k] = meshes[k], None
        nv = len(m.vertices)
        if not nv:
            continue
        # uvs depend only on n; bits, not values, decide reuse (-0.0 is not 0.0)
        bits = m.uvs.tobytes()
        if bits != uv_bits:
            uv_bits, vt_block = bits, _lines(_VT_LINE, m.uvs)
        # CPython grows text, its one reference, in place; under sys.settrace or elsewhere
        # each append copies it: the same bytes, at most a join's peak, one copy per group
        text += "".join([f"g patch_{k}\n", *_lines(_V_LINE, m.vertices), *vt_block,
                         *_lines(_VN_LINE, m.normals),
                         *_lines(_F_LINE, m.triangles, _index_tokens(offset, nv).__getitem__)])
        offset += nv
    return text
