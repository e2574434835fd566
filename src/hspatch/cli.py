"""Command-line front end.

Exit codes are a stable contract: 0 success (all checks feasible/passing),
1 a constraint or continuity violation was found, 2 usage or parse errors.
The default feasibility tolerance is 1e-9 and can be overridden by the
HSPATCH_TOL environment variable; an explicit --tol beats both.  A tolerance
must be a finite number >= 0.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import documents
from .analysis import DIRECTIONS, continuity_check, degree_audit
from .convert import convert_controls, convert_patch
from .documents import Adjacency, PatchSetDocument
from .errors import DocumentError, GeometryError, InfeasiblePatchError
from .hs import (
    DEFAULT_TOL,
    SUM_OVERFLOW,
    Policy,
    build_hs_patch,
    constraint_report,
    patch_inputs,
)
from .mesh import TessPattern, export_obj, tessellate
from .patch import Basis

_EXIT_OK = 0
_EXIT_VIOLATION = 1
_EXIT_USAGE = 2

# Largest --grid and --samples: the audit and continuity hold arrays this long
MAX_GRID_SAMPLES = 65536
# Largest tessellation --n: one patch at n = 1024 holds about 300 MB of OBJ text
MAX_TESS_N = 1024


class _UsageError(Exception):
    pass


def _resolve_tol(args) -> float:
    if getattr(args, "tol", None) is not None:
        tol, source = args.tol, "--tol"
    else:
        env = os.environ.get("HSPATCH_TOL")
        if not env:
            return DEFAULT_TOL
        try:
            tol, source = float(env), "HSPATCH_TOL"
        except ValueError:
            raise _UsageError(f"HSPATCH_TOL is not a number: {env!r}") from None
    if not (math.isfinite(tol) and tol >= 0):
        raise _UsageError(f"{source} must be a finite number >= 0, got {tol!r}")
    return tol


def _hs_stack(doc: PatchSetDocument) -> tuple[np.ndarray, list[Adjacency]]:
    """The control stack and adjacency of a hermite or hs-input document."""
    if doc.basis in (documents.HS_INPUT_BASIS, Basis.HERMITE.value):
        return doc.controls, doc.adjacency
    raise _UsageError(f"this command needs a hermite or hs-input document, got basis"
                      f" {doc.basis!r} (run convert first)")


def _each_input(stack: np.ndarray):
    """The HsPatchInput of each patch of a _hs_stack stack in order, made BATCH patches
    at a time; none is held here once given out."""
    for start in range(0, len(stack), documents.BATCH):
        run = patch_inputs(stack[start:start + documents.BATCH])[::-1]
        while run:
            yield run.pop()


def _load_matrices(path, needed: Basis | None = None) -> PatchSetDocument:
    doc = documents.load_patchset(path)
    if doc.basis == documents.HS_INPUT_BASIS:
        raise _UsageError("this command needs full control matrices (run build first)")
    if needed is not None and doc.basis != needed.value:
        raise _UsageError(f"this command needs a {needed.value} document, got {doc.basis!r}")
    return doc


def _report_rows(inputs, tol: float):
    rows = []
    for idx, inp in enumerate(inputs):
        for coord, controls in inp.coords().items():
            try:
                r = constraint_report(controls, tol)
                rows.append({
                    "patch": idx, "coord": coord, "phi": float(r.phi), "a": float(r.a),
                    "b": float(r.b), "c": float(r.c), "residual": float(r.residual),
                    "alpha": None if r.alpha is None else float(r.alpha),
                    "beta": None if r.beta is None else float(r.beta),
                    "feasible": bool(r.feasible),
                })
            except OverflowError:  # float() of an exact value
                raise _UsageError(f"patch {idx} {coord}: {SUM_OVERFLOW}") from None
    return rows


def _json_scalar(value) -> str:
    """One scalar as json.dumps writes it; a non-finite float is a usage error."""
    if isinstance(value, float):  # checked first: no type is both float and str or int
        if math.isfinite(value):
            return float.__repr__(value)
        raise _UsageError("--json cannot write a non-finite number (inf or nan)")
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    return int.__repr__(value)


def _json_parts(payload: dict) -> list[str]:
    """json.dumps(payload, indent=2) and a newline, in pieces.  A payload holds
    scalars, and lists of flat dicts with the first row's keys in order, each
    written through one % template.  str() spells a column of only ints, or only
    finite floats, as json does; other columns go through _json_scalar."""
    parts, sep = [], "{\n"
    for key, value in payload.items():
        parts.append(f"{sep}  {encode_basestring_ascii(key)}: ")
        sep = ",\n"
        if type(value) is not list or not value:
            parts.append("[]" if type(value) is list else _json_scalar(value))
            continue
        row = "    {\n" + ",\n".join("      %s: %%s" % encode_basestring_ascii(k).replace(
            "%", "%%") for k in value[0]) + "\n    }"
        for start in range(0, len(value), documents.BATCH):
            batch = zip(*(r.values() for r in value[start:start + documents.BATCH]))
            columns = [column if (kinds := set(map(type, column))) == {int}
                       or kinds == {float} and all(map(math.isfinite, column))
                       else list(map(_json_scalar, column)) for column in batch]
            parts.append(("[\n" if start == 0 else ",\n")
                         + ",\n".join([row % values for values in zip(*columns)]))
        parts.append("\n  ]")
    parts.append("\n}\n")
    return parts


def _emit(args, payload: dict, text_lines):
    if getattr(args, "json", False):
        # whole before the first write, so a usage error prints nothing
        sys.stdout.writelines(_json_parts(payload))
    else:
        for line in text_lines:
            print(line)


def _check_count(flag: str, value: int, low: int, high: int = MAX_GRID_SAMPLES):
    if not low <= value <= high:
        raise _UsageError(f"{flag} must be between {low} and {high}, got {value}")


def _default_out(input_path: str, suffix: str) -> Path:
    p = Path(input_path)
    return p.with_name(p.stem + suffix)


def cmd_check(args) -> int:
    tol = _resolve_tol(args)
    rows = _report_rows(_each_input(_hs_stack(documents.load_patchset(args.input))[0]), tol)
    all_ok = all(r["feasible"] for r in rows)

    def lines():  # formatted only when printed: --json never reads them
        for r in rows:
            verdict = "ok" if r["feasible"] else "INFEASIBLE"
            yield (f"patch {r['patch']} {r['coord']}: phi={r['phi']:.6g} a={r['a']:.6g}"
                   f" b={r['b']:.6g} c={r['c']:.6g} residual={r['residual']:.6g} [{verdict}]")
        yield (f"checked {len(rows)} coordinate(s): "
               + ("all feasible" if all_ok else "violations found"))

    _emit(args, {"tol": tol, "reports": rows, "feasible": all_ok}, lines())
    return _EXIT_OK if all_ok else _EXIT_VIOLATION


def cmd_build(args) -> int:
    tol = _resolve_tol(args)
    policy = Policy(args.policy)
    stack, adjacency = _hs_stack(documents.load_patchset(args.input))
    controls, repaired, inputs = np.empty((len(stack), 3, 4, 4)), 0, _each_input(stack)
    for idx in range(len(controls)):
        try:
            built = build_hs_patch(next(inputs), policy, tol)
        except InfeasiblePatchError as exc:
            print(f"patch {idx}: {exc}", file=sys.stderr)
            return _EXIT_VIOLATION
        except OverflowError as exc:  # names the coordinate
            raise _UsageError(f"patch {idx} {exc}") from None
        controls[idx], repaired = built.patch.coords(), repaired + built.repaired
        del built  # only its row in controls is kept
    del stack, inputs  # the output stack alone is held while writing
    out = Path(args.out) if args.out else _default_out(args.input, ".built.json")
    documents.save_patchset(
        PatchSetDocument(Basis.HERMITE.value, adjacency=adjacency, controls=controls), out)
    lines = [f"built {len(controls)} patch(es) ({repaired} repaired) -> {out}"]
    _emit(args, {"out": str(out), "patches": len(controls), "repaired": repaired}, lines)
    return _EXIT_OK


def cmd_convert(args) -> int:
    doc = _load_matrices(args.input)
    target, adjacency = Basis(args.to), doc.adjacency
    controls = convert_controls(doc.controls, Basis(doc.basis), target)
    del doc  # the converted stack alone is held while writing
    out = Path(args.out) if args.out else _default_out(args.input, f".{target.value}.json")
    documents.save_patchset(
        PatchSetDocument(target.value, adjacency=adjacency, controls=controls), out)
    _emit(args, {"out": str(out), "patches": len(controls), "basis": target.value},
          [f"converted {len(controls)} patch(es) to {target.value} -> {out}"])
    return _EXIT_OK


def cmd_tessellate(args) -> int:
    _check_count("--n", args.n, 1, MAX_TESS_N)
    patches = _load_matrices(args.input, Basis.HERMITE).patches
    pattern = TessPattern(args.pattern)
    out = Path(args.out) if args.out else _default_out(args.input, ".obj")
    # no mesh list is held here, so export_obj lets each mesh go once it is written
    documents.write_text(out, export_obj([tessellate(p, args.n, pattern) for p in patches]))
    verts, tris = len(patches) * (args.n + 1) ** 2, len(patches) * 2 * args.n ** 2
    _emit(args, {"out": str(out), "patches": len(patches), "n": args.n,
                 "pattern": pattern.value, "vertices": verts, "triangles": tris},
          [f"tessellated {len(patches)} patch(es) at n={args.n} ({pattern.value}): "
           f"{verts} vertices, {tris} triangles -> {out}"])
    return _EXIT_OK


def cmd_audit(args) -> int:
    _check_count("--grid", args.grid, 1)
    tol = _resolve_tol(args)
    patches = _load_matrices(args.input, Basis.HERMITE).patches
    rows = []
    worst = 0
    for idx, p in enumerate(patches):
        degrees = degree_audit(p, args.grid, tol)
        worst = max(worst, max(degrees.values()))
        rows.append({"patch": idx, **degrees})
    lines = [
        f"patch {r['patch']}: " + " ".join(f"{d}={r[d]}" for d in DIRECTIONS)
        for r in rows
    ]
    ok = worst <= 3
    lines.append(f"grid n={args.grid}: max effective degree {worst} "
                 + ("(all cubic)" if ok else "(degree-6 directions present)"))
    _emit(args, {"grid": args.grid, "audits": rows, "max_degree": worst}, lines)
    return _EXIT_OK if ok else _EXIT_VIOLATION


def _load_adjacency_file(path, n_patches: int) -> list[Adjacency]:
    data = documents.decode_json(Path(path).read_text(encoding="utf-8"), "adjacency file: ")
    return documents.parse_adjacency(data, n_patches)


def cmd_continuity(args) -> int:
    _check_count("--samples", args.samples, 2)
    tol = _resolve_tol(args)
    doc = _load_matrices(args.input, Basis.HERMITE)
    patches = doc.patches
    adjacency = (_load_adjacency_file(args.adjacency, len(patches))
                 if args.adjacency else doc.adjacency)
    rows = []
    all_ok = True
    for adj in adjacency:
        rep = continuity_check(
            patches[adj.a], adj.side_a, patches[adj.b], adj.side_b,
            samples=args.samples, tol_position=tol, tol_cross=tol,
            tol_normal=args.g1_tol,
        )
        ok = rep.position_ok and rep.normal_ok
        all_ok = all_ok and ok
        rows.append({
            "a": adj.a, "side_a": str(adj.side_a), "b": adj.b, "side_b": str(adj.side_b),
            "c0": rep.max_position_gap, "c1": rep.max_cross_gap,
            "g1_radians": rep.max_normal_angle,
            "degenerate_normals": rep.degenerate_normals,
            "position_ok": rep.position_ok, "cross_ok": rep.cross_ok,
            "normal_ok": rep.normal_ok,
        })
    lines = [
        f"{r['a']}:{r['side_a']} ~ {r['b']}:{r['side_b']}  c0={r['c0']:.3e}"
        f" c1={r['c1']:.3e} g1={r['g1_radians']:.3e} rad "
        + ("[ok]" if r["position_ok"] and r["normal_ok"] else "[FAIL]")
        for r in rows
    ]
    lines.append(f"checked {len(rows)} joint(s) at {args.samples} samples")
    _emit(args, {"samples": args.samples, "joints": rows, "ok": all_ok}, lines)
    return _EXIT_OK if all_ok else _EXIT_VIOLATION


def cmd_demo_teapot(args) -> int:
    _check_count("--n", args.n, 1, MAX_TESS_N)
    tol = _resolve_tol(args)
    policy = Policy(args.policy)
    path = args.file if args.file else documents.bundled_teapot_path()
    with open(path, "r", encoding="utf-8") as fh:
        teapot = documents.parse_teapot(fh.read())
    bezier = documents.teapot_bezier_patches(teapot)
    inputs = patch_inputs(np.array([convert_patch(p, Basis.HERMITE).coords() for p in bezier],
                                   float).reshape(-1, 3, 4, 4))

    rows = _report_rows(inputs, tol)
    lines = [
        f"patch {r['patch']} {r['coord']}: residual={r['residual']:.6g} "
        + ("ok" if r["feasible"] else "violated")
        for r in rows
    ]
    infeasible = sum(1 for r in rows if not r["feasible"])
    lines.append(
        f"teapot: {len(bezier)} patches, {infeasible} coordinate violation(s) before repair"
    )

    if policy is Policy.STRICT and infeasible:
        lines.append("strict policy: not building (use --policy project)")
        _emit(args, {"patches": len(bezier), "reports": rows, "built": False}, lines)
        return _EXIT_VIOLATION

    built = [build_hs_patch(inp, policy, tol) for inp in inputs]
    pattern = TessPattern(args.pattern)
    out = Path(args.out) if args.out else Path("teapot_hs.obj")
    documents.write_text(out, export_obj([tessellate(b.patch, args.n, pattern) for b in built]))
    repaired = sum(1 for b in built if b.repaired)
    lines.append(f"built {len(built)} patch(es) ({repaired} repaired), "
                 f"tessellated at n={args.n} -> {out}")
    _emit(args, {"patches": len(bezier), "reports": rows, "built": True,
                 "repaired": repaired, "out": str(out)}, lines)
    return _EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hspatch",
        description="Hermite bicubic patches with cubic diagonal curves",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, func, tol=True):
        if tol:
            p.add_argument("--tol", type=float, default=None,
                           help="feasibility tolerance (default 1e-9, env HSPATCH_TOL)")
        p.add_argument("--json", action="store_true", help="machine-readable report")
        p.set_defaults(func=func)

    p = sub.add_parser("check", help="report the tangent constraint per patch/coordinate")
    p.add_argument("input")
    common(p, cmd_check)

    p = sub.add_parser("build", help="complete twists and write a hermite document")
    p.add_argument("input")
    p.add_argument("--policy", choices=["strict", "project"], default="strict")
    p.add_argument("--out", default=None)
    common(p, cmd_build)

    p = sub.add_parser("convert", help="change patch basis")
    p.add_argument("input")
    p.add_argument("--to", required=True, choices=["hermite", "bezier", "bspline"])
    p.add_argument("--out", default=None)
    common(p, cmd_convert, tol=False)

    p = sub.add_parser("tessellate", help="triangulate patches and write OBJ")
    p.add_argument("input")
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--pattern", choices=[t.value for t in TessPattern], default="diag-ne")
    p.add_argument("--out", default=None)
    common(p, cmd_tessellate, tol=False)

    p = sub.add_parser("audit", help="max effective degree per edge direction")
    p.add_argument("input")
    p.add_argument("--grid", type=int, default=4)
    common(p, cmd_audit)

    p = sub.add_parser("continuity", help="C0/C1/G1 checks along declared joints")
    p.add_argument("input")
    p.add_argument("--adjacency", default=None,
                   help="JSON list of [id, side, id, side]; default: document adjacency")
    p.add_argument("--samples", type=int, default=33)
    p.add_argument("--g1-tol", type=float, default=1e-6,
                   help="tangent-plane angle threshold in radians")
    common(p, cmd_continuity)

    p = sub.add_parser("demo-teapot", help="run the full pipeline on a teapot patch file")
    p.add_argument("file", nargs="?", default=None,
                   help="counts-led Bezier patch file (default: bundled dataset)")
    p.add_argument("--policy", choices=["strict", "project"], default="project")
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--pattern", choices=[t.value for t in TessPattern], default="diag-ne")
    p.add_argument("--out", default=None)
    common(p, cmd_demo_teapot)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed the message; normalize the exit code
        return _EXIT_USAGE if exc.code not in (0, None) else _EXIT_OK
    try:
        return args.func(args)
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_VIOLATION
    except (_UsageError, DocumentError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
