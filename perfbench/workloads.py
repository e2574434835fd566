"""The benchmark's workloads: the CLI commands of one pass and their output gates.

A workload generates its inputs from a seed, lists the commands of one pass
with the exit code each must return, and checks the outputs of a pass.  The
checks read only the files and standard output the commands produce, and
compare them with the generated inputs and the documented formats.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import inputs

# Documented cubic bases, rows = basis polynomials in t for controls
# [P(0), P(1), P'(0), P'(1)] (Hermite) and the uniform B-spline segment.
HERMITE = np.array([[2, -3, 0, 1], [-2, 3, 0, 0], [1, -2, 1, 0], [1, -1, 0, 0]], dtype=float)
BSPLINE = np.array([[-1, 3, -3, 1], [3, -6, 0, 4], [-3, 3, 3, 1], [1, 0, 0, 0]], dtype=float) / 6

TEAPOT_N = 64
BULK_SAMPLE = 64
SAMPLE_PARAMS = (0.0, 0.3, 0.75, 1.0)


@dataclass(frozen=True)
class Step:
    """One CLI command of a pass."""

    label: str
    args: tuple[str, ...]
    exit_code: int
    outputs: tuple[str, ...] = ()


def _tol(matrix) -> float:
    return 1e-9 * max(1.0, float(np.max(np.abs(matrix))))


def _last_line(stdout: bytes) -> str:
    lines = stdout.decode("utf-8", "replace").strip().splitlines()
    return lines[-1] if lines else ""


def _match(pattern: str, text: str, errors: list[str], what: str):
    m = re.fullmatch(pattern, text)
    if m is None:
        errors.append(f"{what}: unexpected line {text[:200]!r}")
    return m


def _load_patchset(path: Path, basis: str, count: int, errors: list[str]):
    doc = json.loads(path.read_text(encoding="utf-8"))
    if doc.get("format") != "hspatch-patchset" or doc.get("basis") != basis:
        errors.append(f"{path.name}: not a {basis} patch set")
    if len(doc.get("patches", [])) != count:
        errors.append(f"{path.name}: {len(doc.get('patches', []))} patches, expected {count}")
    return doc


def _controls(m: np.ndarray) -> np.ndarray:
    """The 12 corner/tangent controls of a Hermite matrix, in document order."""
    return np.array([m[0, 0], m[0, 1], m[1, 0], m[1, 1], m[0, 2], m[0, 3], m[1, 2],
                     m[1, 3], m[2, 0], m[2, 1], m[3, 0], m[3, 1]])


def _check_completed(matrix: np.ndarray, where: str, errors: list[str]) -> None:
    """Residual zero and twists equal to the documented formulas."""
    x11, x12, x21, x22, x13, x14, x23, x24, x31, x32, x41, x42 = _controls(matrix)
    phi = x11 - x12 - x21 + x22
    a = x14 - x24 + x41 - x42
    b = x13 - x23 + x41 - x42
    c = x31 - x32 - x41 + x42
    x43, x44 = -(b + phi), -(a + phi)
    twists = np.array([[2 * phi - x44, 2 * phi - x43], [x43, x44]])
    tol = _tol(matrix)
    if abs(a + b + c + 4 * phi) > tol:
        errors.append(f"{where}: tangent residual {a + b + c + 4 * phi:.3g} after build")
    if np.max(np.abs(matrix[2:, 2:] - twists)) > tol:
        errors.append(f"{where}: twists differ from the completion formulas")


def _evaluate(matrix: np.ndarray, basis: np.ndarray, u: float, v: float) -> float:
    hu = basis @ np.array([u ** 3, u ** 2, u, 1.0])
    hv = basis @ np.array([v ** 3, v ** 2, v, 1.0])
    return float(hu @ matrix @ hv)


class TeapotObj:
    name = "teapot-obj"
    items = "triangles"

    def generate(self, seed: int, run_dir: Path, root: Path) -> dict:
        return inputs.teapot(seed, run_dir, root / "src/hspatch/data/teapot.txt")

    def steps(self, ctx: dict) -> list[Step]:
        return [Step("demo-teapot", ("demo-teapot", "teapot.txt", "--n", str(TEAPOT_N),
                                     "--pattern", "alternating", "--out", "teapot.obj"),
                     0, ("teapot.obj",))]

    def item_count(self, ctx: dict) -> int:
        return ctx["patches"] * 2 * TEAPOT_N ** 2

    def check(self, label: str, stdout: bytes, run_dir: Path, ctx: dict) -> list[str]:
        errors: list[str] = []
        p = ctx["patches"]
        _match(rf"built {p} patch\(es\) \(\d+ repaired\), tessellated at n={TEAPOT_N} "
               r"-> teapot\.obj", _last_line(stdout), errors, label)
        obj = (run_dir / "teapot.obj").read_bytes()
        verts, tris = p * (TEAPOT_N + 1) ** 2, p * 2 * TEAPOT_N ** 2
        header = obj.split(b"\n", 2)[1] if obj.count(b"\n") >= 2 else b""
        expected = f"# groups: {p} vertices: {verts} triangles: {tris}".encode()
        if header != expected:
            errors.append(f"OBJ header {header[:100]!r}, expected {expected!r}")
        for prefix, count in ((b"\ng ", p), (b"\nv ", verts), (b"\nvt ", verts),
                              (b"\nvn ", verts), (b"\nf ", tris)):
            if obj.count(prefix) != count:
                errors.append(f"OBJ has {obj.count(prefix)} {prefix.strip()!r} lines, "
                              f"expected {count}")
        last = obj.rstrip(b"\n").rsplit(b"\n", 1)[-1].split()
        if not last or last[0] != b"f" or max(int(c.split(b"/")[0]) for c in last[1:]) != verts:
            errors.append("OBJ: last face does not end at the last vertex")
        if not errors:
            errors += self._check_cubic_diagonals(obj, p)
        return errors

    @staticmethod
    def _check_cubic_diagonals(obj: bytes, patches: int) -> list[str]:
        """The written diagonal and anti-diagonal of every patch are cubics.

        Vertex k of a group sits at (i, j) = (k % (n+1), k // (n+1)), so the
        diagonal holds k = i(n+2) and the anti-diagonal k = (n-i)(n+1) + i.
        A least-squares cubic through those n+1 points must fit them exactly,
        which is the property the built patches exist for.
        """
        n = TEAPOT_N
        vertex_lines = [line for line in obj.split(b"\n") if line.startswith(b"v ")]
        i = np.arange(n + 1)
        vander = np.vander(i / n, 4)
        errors = []
        for g in range(patches):
            for name, ks in (("diagonal", i * (n + 2)), ("anti-diagonal", (n - i) * (n + 1) + i)):
                pts = np.array([vertex_lines[g * (n + 1) ** 2 + k].split()[1:] for k in ks],
                               dtype=float)
                fit = vander @ np.linalg.lstsq(vander, pts, rcond=None)[0]
                gap = float(np.max(np.abs(fit - pts)))
                if gap > _tol(pts):
                    errors.append(f"OBJ group {g}: {name} is {gap:.3g} away from a cubic")
        return errors


class BulkBuild:
    name = "bulk-build"
    items = "patches"

    def generate(self, seed: int, run_dir: Path, root: Path) -> dict:
        return inputs.bulk_build(seed, run_dir)

    def steps(self, ctx: dict) -> list[Step]:
        return [
            Step("check", ("check", "bulk.hs.json", "--json"), 1),
            Step("build", ("build", "bulk.hs.json", "--policy", "project",
                           "--out", "bulk.built.json"), 0, ("bulk.built.json",)),
            Step("convert", ("convert", "bulk.built.json", "--to", "bspline",
                             "--out", "bulk.bspline.json"), 0, ("bulk.bspline.json",)),
        ]

    def item_count(self, ctx: dict) -> int:
        return ctx["patches"]

    def check(self, label: str, stdout: bytes, run_dir: Path, ctx: dict) -> list[str]:
        errors: list[str] = []
        n, infeasible = ctx["patches"], ctx["infeasible"]
        if label == "check":
            report = json.loads(stdout)
            rows = report["reports"]
            if len(rows) != 3 * n or report["feasible"] is not False:
                errors.append(f"check: {len(rows)} rows, feasible={report['feasible']}")
            flagged = sorted({r["patch"] for r in rows if not r["feasible"]})
            if flagged != infeasible:
                errors.append(f"check: {len(flagged)} infeasible patches reported, "
                              f"{len(infeasible)} generated")
        elif label == "build":
            _match(rf"built {n} patch\(es\) \({len(infeasible)} repaired\) -> bulk\.built\.json",
                   _last_line(stdout), errors, label)
            doc = _load_patchset(run_dir / "bulk.built.json", "hermite", n, errors)
            raw = ctx["controls"]
            for k in ctx["sample"]:
                for c, name in enumerate("xyz"):
                    m = np.array(doc["patches"][k][name], dtype=float)
                    where = f"built patch {k}.{name}"
                    if not np.array_equal(_controls(m)[:4], raw[k, c, :4]):
                        errors.append(f"{where}: corners changed")
                    if k not in ctx["infeasible_set"] and np.max(
                            np.abs(_controls(m) - raw[k, c])) > _tol(m):
                        errors.append(f"{where}: feasible tangents were moved")
                    _check_completed(m, where, errors)
        elif label == "convert":
            _match(rf"converted {n} patch\(es\) to bspline -> bulk\.bspline\.json",
                   _last_line(stdout), errors, label)
            hermite = json.loads((run_dir / "bulk.built.json").read_text(encoding="utf-8"))
            doc = _load_patchset(run_dir / "bulk.bspline.json", "bspline", n, errors)
            for k in ctx["sample"]:
                for name in "xyz":
                    h = np.array(hermite["patches"][k][name], dtype=float)
                    s = np.array(doc["patches"][k][name], dtype=float)
                    gap = max(abs(_evaluate(h, HERMITE, u, v) - _evaluate(s, BSPLINE, u, v))
                              for u in SAMPLE_PARAMS for v in SAMPLE_PARAMS)
                    if gap > 1e2 * _tol(h):
                        errors.append(f"bspline patch {k}.{name} evaluates {gap:.3g} away")
        return errors


class GridQa:
    name = "grid-qa"
    items = "patches"

    def generate(self, seed: int, run_dir: Path, root: Path) -> dict:
        return inputs.grid_qa(seed, run_dir)

    def steps(self, ctx: dict) -> list[Step]:
        return [
            Step("audit-raw", ("audit", "grid.json", "--grid", "8"), 1),
            Step("build", ("build", "grid.json", "--policy", "project",
                           "--out", "grid.built.json"), 0, ("grid.built.json",)),
            Step("audit-built", ("audit", "grid.built.json", "--grid", "32"), 0),
            Step("continuity-raw", ("continuity", "grid.json", "--samples", "33"), 0),
            # The project policy moves each patch's edge tangents by its own
            # residual, so the shared edges no longer meet: exit 1 is correct.
            Step("continuity-built", ("continuity", "grid.built.json", "--samples", "33"), 1),
        ]

    def item_count(self, ctx: dict) -> int:
        return ctx["patches"]

    def check(self, label: str, stdout: bytes, run_dir: Path, ctx: dict) -> list[str]:
        errors: list[str] = []
        n, joints = ctx["patches"], ctx["joints"]
        text = stdout.decode("utf-8", "replace")
        if label.startswith("audit"):
            grid = 8 if label == "audit-raw" else 32
            m = _match(rf"grid n={grid}: max effective degree (\d+) .*",
                       _last_line(stdout), errors, label)
            if sum(line.startswith("patch ") for line in text.splitlines()) != n:
                errors.append(f"{label}: expected {n} patch lines")
            if m and label == "audit-raw" and int(m.group(1)) != 6:
                errors.append(f"audit-raw: max degree {m.group(1)}, expected 6")
            if m and label == "audit-built" and int(m.group(1)) > 3:
                errors.append(f"audit-built: max degree {m.group(1)}, expected <= 3")
        elif label == "build":
            raw = ctx["matrices"]
            infeasible = sum(
                1 for k in range(n)
                if any(abs(inputs.residual(_controls(raw[k, c]))) > 1e-6 for c in range(3))
            )
            _match(rf"built {n} patch\(es\) \({infeasible} repaired\) -> grid\.built\.json",
                   _last_line(stdout), errors, label)
            doc = _load_patchset(run_dir / "grid.built.json", "hermite", n, errors)
            for k in range(n):
                for c, name in enumerate("xyz"):
                    m = np.array(doc["patches"][k][name], dtype=float)
                    if not np.array_equal(_controls(m)[:4], _controls(raw[k, c])[:4]):
                        errors.append(f"built patch {k}.{name}: corners changed")
                    _check_completed(m, f"built patch {k}.{name}", errors)
        else:
            _match(rf"checked {joints} joint\(s\) at 33 samples", _last_line(stdout),
                   errors, label)
            if label == "continuity-raw" and text.count("[ok]") != joints:
                errors.append(f"continuity-raw: {text.count('[ok]')} of {joints} joints ok")
        return errors


WORKLOADS = {w.name: w for w in (TeapotObj(), BulkBuild(), GridQa())}


def prepare(workload, seed: int, run_dir: Path, root: Path) -> dict:
    """Generate the inputs and the facts the checks compare against."""
    ctx = workload.generate(seed, run_dir, root)
    ctx["input_sha256"] = {p.name: inputs.sha256_file(p) for p in ctx["files"].values()}
    if "infeasible" in ctx:
        ctx["infeasible_set"] = set(ctx["infeasible"])
        rng = np.random.default_rng([seed, 4])
        ctx["sample"] = sorted(int(k) for k in rng.choice(ctx["patches"], BULK_SAMPLE,
                                                          replace=False))
    return ctx
