"""Seeded input generators for the hspatch benchmark.

Every generator takes a seed and writes files; the same seed gives the same
bytes.  The generators use only numpy and the documented file formats, never
the hspatch package, so the inputs stay identical when the program changes.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

BULK_PATCHES = 5_000
GRID_SIDE = 8

# Gradient of the residual a + b + c + 4*phi over the tangents
# (x13, x14, x23, x24, x31, x32, x41, x42), as documented in the README.
_RESIDUAL_SIGNS = np.array([1, 1, -1, -1, 1, -1, 1, -1], dtype=float)


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _num(v: float) -> str:
    return repr(float(v))


def residual(controls: np.ndarray) -> np.ndarray:
    """a + b + c + 4*phi for controls of shape (..., 12)."""
    x11, x12, x21, x22, x13, x14, x23, x24, x31, x32, x41, x42 = np.moveaxis(controls, -1, 0)
    phi = x11 - x12 - x21 + x22
    a = x14 - x24 + x41 - x42
    b = x13 - x23 + x41 - x42
    c = x31 - x32 - x41 + x42
    return a + b + c + 4 * phi


def _patchset_text(basis: str, patch_rows: list[str], adjacency: list) -> str:
    adj = ",\n".join(f'    [{a}, "{sa}", {b}, "{sb}"]' for a, sa, b, sb in adjacency)
    return (
        '{\n  "format": "hspatch-patchset",\n  "version": 1,\n'
        f'  "basis": "{basis}",\n  "patches": [\n'
        + ",\n".join(patch_rows)
        + "\n  ],\n  \"adjacency\": [\n" + adj + ("\n" if adj else "") + "  ]\n}\n"
    )


def bulk_build(seed: int, out_dir: Path) -> dict:
    """hs-input document of BULK_PATCHES patches, controls uniform(-2, 2).

    Half the patches, chosen by the seed, get the minimal tangent correction
    so that every coordinate is feasible; the other half keep their raw
    tangents, whose residual is at least 1e-3 in every coordinate, so they
    are infeasible at any tolerance the CLI accepts by default.
    """
    rng = np.random.default_rng([seed, 1])
    controls = rng.uniform(-2.0, 2.0, size=(BULK_PATCHES, 3, 12))
    feasible = np.zeros(BULK_PATCHES, dtype=bool)
    feasible[rng.permutation(BULK_PATCHES)[: BULK_PATCHES // 2]] = True
    while True:
        small = (~feasible[:, None]) & (np.abs(residual(controls)) < 1e-3)
        if not small.any():
            break
        controls[small] = rng.uniform(-2.0, 2.0, size=(int(small.sum()), 12))
    r = residual(controls[feasible])
    controls[feasible, :, 4:] -= (r / 8.0)[..., None] * _RESIDUAL_SIGNS

    rows = []
    for patch in controls:
        coords = [f'"{name}": [' + ", ".join(map(_num, patch[k])) + "]"
                  for k, name in enumerate("xyz")]
        rows.append("    {" + ", ".join(coords) + "}")
    path = out_dir / "bulk.hs.json"
    path.write_text(_patchset_text("hs-input", rows, []), encoding="utf-8")
    return {
        "files": {"bulk": path},
        "patches": BULK_PATCHES,
        "infeasible": sorted(int(i) for i in np.nonzero(~feasible)[0]),
        "controls": controls,
    }


def grid_index(i: int, j: int) -> int:
    return j * GRID_SIDE + i


def grid_qa(seed: int, out_dir: Path) -> dict:
    """GRID_SIDE x GRID_SIDE Hermite grid whose neighbours share node data.

    Every node carries a position, d/du, d/dv and a twist; each patch takes
    its four corner nodes' data, so every declared joint is C1 by
    construction.  Random twists make the diagonals degree 6.  Patch (i, j)
    has u along i and v along j; all 2 * GRID_SIDE * (GRID_SIDE - 1) joints
    are declared.
    """
    rng = np.random.default_rng([seed, 2])
    n = GRID_SIDE + 1
    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    pos = np.stack([ii, jj, np.zeros_like(ii)], axis=-1) + rng.uniform(-0.25, 0.25, (n, n, 3))
    pos[..., 2] += rng.uniform(-1.0, 1.0, (n, n))
    du = np.array([1.0, 0.0, 0.0]) + rng.uniform(-0.25, 0.25, (n, n, 3))
    dv = np.array([0.0, 1.0, 0.0]) + rng.uniform(-0.25, 0.25, (n, n, 3))
    twist = rng.uniform(-0.5, 0.5, (n, n, 3))

    rows = [None] * (GRID_SIDE * GRID_SIDE)
    matrices = np.empty((GRID_SIDE * GRID_SIDE, 3, 4, 4))
    for i in range(GRID_SIDE):
        for j in range(GRID_SIDE):
            nodes = [(i, j), (i, j + 1), (i + 1, j), (i + 1, j + 1)]
            coords = []
            for k, name in enumerate("xyz"):
                (p00, p01, p10, p11) = (pos[a, b, k] for a, b in nodes)
                (v00, v01, v10, v11) = (dv[a, b, k] for a, b in nodes)
                (u00, u01, u10, u11) = (du[a, b, k] for a, b in nodes)
                (t00, t01, t10, t11) = (twist[a, b, k] for a, b in nodes)
                m = np.array([[p00, p01, v00, v01],
                              [p10, p11, v10, v11],
                              [u00, u01, t00, t01],
                              [u10, u11, t10, t11]])
                matrices[grid_index(i, j), k] = m
                coords.append(
                    f'"{name}": [' + ", ".join(
                        "[" + ", ".join(map(_num, row)) + "]" for row in m) + "]"
                )
            rows[grid_index(i, j)] = "    {" + ", ".join(coords) + "}"
    adjacency = []
    for j in range(GRID_SIDE):
        for i in range(GRID_SIDE - 1):
            adjacency.append((grid_index(i, j), "u1", grid_index(i + 1, j), "u0"))
    for j in range(GRID_SIDE - 1):
        for i in range(GRID_SIDE):
            adjacency.append((grid_index(i, j), "v1", grid_index(i, j + 1), "v0"))
    path = out_dir / "grid.json"
    path.write_text(_patchset_text("hermite", rows, adjacency), encoding="utf-8")
    return {"files": {"grid": path}, "patches": GRID_SIDE * GRID_SIDE,
            "joints": len(adjacency), "matrices": matrices}


def _read_teapot(text: str) -> tuple[list[str], np.ndarray]:
    rows = [line.replace(",", " ").split() for line in text.splitlines()
            if line.strip() and not line.strip().startswith("#")]
    n_patches = int(rows[0][0])
    patch_rows = [",".join(r) for r in rows[1:1 + n_patches]]
    n_vertices = int(rows[1 + n_patches][0])
    vertices = np.array(rows[2 + n_patches:2 + n_patches + n_vertices], dtype=float)
    if vertices.shape != (n_vertices, 3):
        raise ValueError("teapot file: vertex block does not match its count")
    return patch_rows, vertices


def teapot(seed: int, out_dir: Path, bundled: Path) -> dict:
    """The bundled teapot control mesh moved by a seeded rotation and shift.

    Patch structure and sizes are those of the bundled file; only the
    placement depends on the seed.
    """
    patch_rows, vertices = _read_teapot(bundled.read_text(encoding="utf-8"))
    rng = np.random.default_rng([seed, 3])
    q = rng.normal(size=4)
    w, x, y, z = q / np.linalg.norm(q)
    rot = np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])
    moved = vertices @ rot.T + rng.uniform(-5.0, 5.0, size=3)
    lines = [str(len(patch_rows)), *patch_rows, str(len(moved))]
    lines += [",".join(map(_num, v)) for v in moved]
    path = out_dir / "teapot.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return {"files": {"teapot": path}, "patches": len(patch_rows)}

