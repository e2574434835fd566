"""Run one hspatch CLI command with spans recorded around each module's calls.

    python3 perfbench/trace_cli.py TRACE_OUT -- CLI_ARG...

The program is not modified.  The CLI and the modules import functions by
name, so each wrapper replaces the name in the namespace where the call looks
it up (for example `hspatch.cli.tessellate` or
`hspatch.analysis.line_restriction_coeffs`).  Spans are kept in memory and
written to TRACE_OUT as JSON when the command ends; the process exits with the
command's exit code.  A name that no longer exists is listed under "missing"
instead of failing the run.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

_clock = time.perf_counter

# (span name, module, attribute) for every call boundary that is timed.
WRAPPED = (
    ("cli.main", "hspatch.cli", "main"),
    ("documents.parse", "hspatch.documents", "parse_patchset"),
    ("documents.parse", "hspatch.documents", "parse_teapot"),
    ("documents.parse", "hspatch.documents", "teapot_bezier_patches"),
    ("documents.serialize", "hspatch.documents", "serialize_patchset"),
    ("convert.patch", "hspatch.cli", "convert_patch"),
    ("hs.report", "hspatch.cli", "constraint_report"),
    ("hs.report", "hspatch.hs", "constraint_report"),
    ("hs.build", "hspatch.cli", "build_hs_patch"),
    ("patch.eval_grid", "hspatch.mesh", "eval_patch_grid"),
    ("patch.eval_jet", "hspatch.analysis", "eval_patch_jet"),
    ("patch.line_restriction", "hspatch.analysis", "line_restriction_coeffs"),
    ("patch.monomial", "hspatch.analysis", "monomial_matrix"),
    ("patch.monomial", "hspatch.patch", "monomial_matrix"),
    ("mesh.tessellate", "hspatch.cli", "tessellate"),
    ("mesh.export_obj", "hspatch.cli", "export_obj"),
    ("analysis.audit", "hspatch.cli", "degree_audit"),
    ("analysis.continuity", "hspatch.cli", "continuity_check"),
)


def _text_bytes(text) -> int:
    return len(text) if text.isascii() else len(text.encode("utf-8"))


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Spans as [name index, start, end, parent span index] plus counters."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.stack = [-1]
        self.counters: dict[str, float] = {}
        self.missing: list[str] = []

    def add(self, key: str, amount) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def peak(self, key: str, value) -> None:
        self.counters[key] = max(self.counters.get(key, 0.0), value)

    def wrap(self, name: str, fn, count=None):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            span = [name_id, 0.0, 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(span)
            span[1] = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = _clock()
                stack.pop()
            if count is not None:
                count(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for name, module_name, attr in WRAPPED:
            try:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(name, fn, self._counter(name)))

    def _counter(self, name: str):
        """Counts taken at the boundary named `name`, from arguments and results."""
        add, peak = self.add, self.peak

        def parsed(args, kwargs, result):
            if args and isinstance(args[0], str):
                add("documents.bytes_read", _text_bytes(args[0]))

        def serialized(args, kwargs, result):
            add("documents.bytes_written", _text_bytes(result))

        def converted(args, kwargs, result):
            add("convert.patches", 1)

        def reported(args, kwargs, result):
            add("hs.reports", 1)
            peak("hs.max_abs_residual", abs(float(result.residual)))

        def built(args, kwargs, result):
            add("hs.builds", 1)
            add("hs.repaired", int(bool(result.repaired)))

        def jet(args, kwargs, result):
            add("patch.eval_jet_calls", 1)

        def line(args, kwargs, result):
            add("patch.line_restrictions", 1)

        def tessellated(args, kwargs, result):
            add("mesh.vertices", len(result.vertices))
            add("mesh.triangles", len(result.triangles))
            add("mesh.degenerate_normals", len(result.degenerate_normals))

        def exported(args, kwargs, result):
            add("mesh.obj_bytes", _text_bytes(result))

        def audited(args, kwargs, result):
            # Edge lines the audit covers for one patch: per coordinate the
            # n + 1 horizontals and verticals and 2n - 1 lines of each slope.
            n = int(_arg(args, kwargs, 1, "grid_n"))
            add("analysis.audit_lines", 3 * (2 * (n + 1) + 2 * (2 * n - 1)))

        def joined(args, kwargs, result):
            add("analysis.joints", 1)
            add("analysis.joint_samples", result.samples)
            add("analysis.degenerate_normals", result.degenerate_normals)

        return {
            "documents.parse": parsed,
            "documents.serialize": serialized,
            "convert.patch": converted,
            "hs.report": reported,
            "hs.build": built,
            "patch.eval_jet": jet,
            "patch.line_restriction": line,
            "mesh.tessellate": tessellated,
            "mesh.export_obj": exported,
            "analysis.audit": audited,
            "analysis.continuity": joined,
        }.get(name)

    def dump(self, path: str, import_s: float) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "names": self.names, "spans": self.spans,
                       "counters": self.counters, "missing": self.missing}, fh)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: trace_cli.py TRACE_OUT -- CLI_ARG...", file=sys.stderr)
        return 2
    trace_out, cli_args = argv[0], argv[2:]
    start = _clock()
    import hspatch.cli
    import_s = _clock() - start

    tracer = Tracer()
    tracer.install()
    try:
        return hspatch.cli.main(cli_args)
    finally:
        tracer.dump(trace_out, import_s)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
