"""Triangle tessellation of the u-v domain and Wavefront OBJ export."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

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
    `degenerate_normals`.
    """

    vertices: np.ndarray
    normals: np.ndarray
    uvs: np.ndarray
    triangles: np.ndarray
    degenerate_normals: list[int] = field(default_factory=list)

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float).reshape(-1, 3)
        self.normals = np.asarray(self.normals, dtype=float).reshape(-1, 3)
        self.uvs = np.asarray(self.uvs, dtype=float).reshape(-1, 2)
        self.triangles = np.asarray(self.triangles, dtype=np.int64).reshape(-1, 3)
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

    uu, vv = np.meshgrid(params, params, indexing="ij")
    uvs = np.stack([uu.T.ravel(), vv.T.ravel()], axis=1)

    return TriangleMesh(
        vertices=flatten(p),
        normals=normals,
        uvs=uvs,
        triangles=_cell_triangles(n, pattern),
        degenerate_normals=np.flatnonzero(degenerate).tolist(),
    )


_V_LINE = f"v {FLOAT_FORMAT} {FLOAT_FORMAT} {FLOAT_FORMAT}\n"
_VT_LINE = f"vt {FLOAT_FORMAT} {FLOAT_FORMAT}\n"
_VN_LINE = f"vn {FLOAT_FORMAT} {FLOAT_FORMAT} {FLOAT_FORMAT}\n"
_F_LINE = "f %s %s %s\n"


def export_obj(meshes) -> str:
    """Serialize one mesh or a sequence of meshes as Wavefront OBJ text.

    One `g patch_<k>` group per mesh; vertex, texture and normal
    indices are global and 1-based; faces are written as a/a/a b/b/b c/c/c.
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
        parts.append(_V_LINE * nv % tuple(m.vertices.ravel().tolist()))
        # uvs depend only on n; bits, not values, decide reuse (-0.0 is not 0.0)
        bits = m.uvs.tobytes()
        if bits != uv_bits:
            uv_bits, vt_block = bits, _VT_LINE * nv % tuple(m.uvs.ravel().tolist())
        parts.append(vt_block)
        parts.append(_VN_LINE * nv % tuple(m.normals.ravel().tolist()))
        # each vertex's a/a/a token is formatted once and shared by its faces
        tokens = [f"{a}/{a}/{a}" for a in range(offset, offset + nv)]
        parts.append(_F_LINE * len(m.triangles)
                     % tuple([tokens[a] for a in m.triangles.ravel().tolist()]))
        offset += nv
    return "".join(parts)
