"""hspatch benchmark: CLI workloads timed end to end, module spans traced from outside.

    python3 perfbench/run.py --workload teapot-obj|bulk-build|grid-qa|all \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  One client runs the workload's
`hspatch` commands one after another (a closed loop), each in a fresh Python
process, so the import is part of every command.  A pass is one run of the
workload's commands; passes repeat until --seconds are used up.  Every
command's exit code and outputs are checked, and output hashes must repeat
across passes and across runs of the same source tree and seed.

--trace 0 reports the end-to-end metrics: median pass wall time, items per
second, peak RSS and set-up time.  --trace 1 alternates untraced passes with
passes whose commands run under trace_cli.py, and reports per-module self
times and counts from the traced passes.  The last line of standard output is
the JSON result; the full record goes to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import workloads
from trace_cli import WRAPPED

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
TRACE_CLI = Path(__file__).resolve().parent / "trace_cli.py"
LAUNCH = Path(__file__).resolve().parent / "launch.py"

SETUP_REPEATS = 7
STEP_TIMEOUT_S = 120
ENTRY = "import sys; from hspatch.cli import main; sys.exit(main())"

# name, unit, how it is measured, span.  "self": self time of the span summed
# over a pass; "count" and "max": the counter of the same name, taken at the
# span's boundary; "ratio": repaired over builds.  A metric is null when a name
# its span wraps no longer exists in the program.
PER_LAYER = (
    ("cli.import_s", "s", "import", None),
    ("cli.self_s", "s", "self", "cli.main"),
    ("documents.parse_s", "s", "self", "documents.parse"),
    ("documents.serialize_s", "s", "self", "documents.serialize"),
    ("documents.bytes_read", "bytes", "count", "documents.parse"),
    ("documents.bytes_written", "bytes", "count", "documents.serialize"),
    ("convert.patch_s", "s", "self", "convert.patch"),
    ("convert.patches", "count", "count", "convert.patch"),
    ("hs.report_s", "s", "self", "hs.report"),
    ("hs.reports", "count", "count", "hs.report"),
    ("hs.build_s", "s", "self", "hs.build"),
    ("hs.builds", "count", "count", "hs.build"),
    ("hs.repaired", "count", "count", "hs.build"),
    ("hs.repair_ratio", "ratio", "ratio", "hs.build"),
    ("hs.max_abs_residual", "coord", "max", "hs.report"),
    ("patch.eval_grid_s", "s", "self", "patch.eval_grid"),
    ("patch.eval_jet_s", "s", "self", "patch.eval_jet"),
    ("patch.eval_jet_calls", "count", "count", "patch.eval_jet"),
    ("patch.line_restriction_s", "s", "self", "patch.line_restriction"),
    ("patch.line_restrictions", "count", "count", "patch.line_restriction"),
    ("patch.monomial_s", "s", "self", "patch.monomial"),
    ("mesh.tessellate_s", "s", "self", "mesh.tessellate"),
    ("mesh.export_obj_s", "s", "self", "mesh.export_obj"),
    ("mesh.obj_bytes", "bytes", "count", "mesh.export_obj"),
    ("mesh.vertices", "count", "count", "mesh.tessellate"),
    ("mesh.triangles", "count", "count", "mesh.tessellate"),
    ("mesh.degenerate_normals", "count", "count", "mesh.tessellate"),
    ("analysis.audit_s", "s", "self", "analysis.audit"),
    ("analysis.audit_lines", "count", "count", "analysis.audit"),
    ("analysis.continuity_s", "s", "self", "analysis.continuity"),
    ("analysis.joints", "count", "count", "analysis.continuity"),
    ("analysis.joint_samples", "count", "count", "analysis.continuity"),
    ("analysis.degenerate_normals", "count", "count", "analysis.continuity"),
    ("trace.overhead_s", "s", "overhead", None),
)
MAX_COUNTERS = {name for name, _, how, _ in PER_LAYER if how == "max"}


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "HSPATCH_TOL"}
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(argv: list[str], cwd: Path, stdout_path: Path, env: dict) -> dict:
    """Run one command to completion through launch.py; wall time, exit code, peak RSS."""
    report = stdout_path.with_suffix(".run.json")
    report.unlink(missing_ok=True)
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
        proc = subprocess.Popen([sys.executable, "-S", str(LAUNCH), str(report), "--", *argv],
                                cwd=cwd, stdout=out, stderr=err, env=env,
                                start_new_session=True)
        killer = threading.Timer(STEP_TIMEOUT_S, _kill_group, (proc.pid,))
        killer.start()
        try:
            proc.wait()
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            killer.cancel()
    if not report.exists():  # killed at the time limit
        return {"wall_s": float(STEP_TIMEOUT_S), "exit": proc.returncode, "rss_mb": 0.0}
    return json.loads(report.read_text())


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def source_fingerprint() -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in SRC.rglob("*") if p.is_file()
                       and "__pycache__" not in p.parts and ".egg-info" not in str(p)):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def environment(fingerprint: str) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    env = child_env()
    commit = dirty = None
    if (ROOT / ".git").exists():
        def git(*args):
            return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                                  text=True, timeout=30).stdout.strip()
        commit = git("rev-parse", "HEAD") or None
        dirty = bool(git("status", "--porcelain"))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu or platform.processor() or None,
        "commit": commit,
        "dirty": dirty,
        "source_sha256": fingerprint,
        "child_env": {k: env[k] for k in
                      ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "PYTHONHASHSEED")},
        "loop": "closed, 1 client, 1 command at a time",
    }


def setup(workload, seed: int, run_dir: Path, env: dict) -> tuple[dict, list[float]]:
    """Generate the inputs and warm the import, SETUP_REPEATS times.

    Returns the context of the last repeat and the time of each; the inputs
    must hash the same every time.
    """
    times, hashes, ctx = [], None, None
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir(parents=True)
        start = time.perf_counter()
        ctx = workloads.prepare(workload, seed, run_dir, ROOT)
        warm = spawn([sys.executable, "-c", "import hspatch.cli"], run_dir,
                     run_dir / "warmup.out", env)
        times.append(time.perf_counter() - start)
        if warm["exit"] != 0:
            raise RuntimeError("warm-up import of hspatch.cli failed: "
                               + (run_dir / "warmup.err").read_text(errors="replace")[-2000:])
        if hashes is not None and ctx["input_sha256"] != hashes:
            raise RuntimeError("input generator is not deterministic")
        hashes = ctx["input_sha256"]
    return ctx, times


def run_pass(workload, ctx: dict, run_dir: Path, env: dict, traced: bool, index: int) -> dict:
    """One closed-loop pass over the workload's commands; outputs are checked later."""
    steps = workload.steps(ctx)
    for step in steps:
        for name in step.outputs:
            (run_dir / name).unlink(missing_ok=True)
    results = []
    for step in steps:
        trace_path = run_dir / f"trace-{index}-{step.label}.json"
        argv = ([sys.executable, str(TRACE_CLI), str(trace_path), "--", *step.args]
                if traced else [sys.executable, "-c", ENTRY, *step.args])
        r = spawn(argv, run_dir, run_dir / f"{step.label}.out", env)
        r["trace_path"] = trace_path if traced else None
        results.append(r)
    outputs = {}
    for step, r in zip(steps, results):
        r["stdout"] = (run_dir / f"{step.label}.out").read_bytes()
        outputs[f"{step.label}.stdout"] = sha256_bytes(r["stdout"])
        for name in step.outputs:
            path = run_dir / name
            outputs[name] = sha256_bytes(path.read_bytes()) if path.exists() else None
    return {"wall_s": sum(r["wall_s"] for r in results), "steps": list(zip(steps, results)), "outputs": outputs,
            "rss_mb": max(r["rss_mb"] for r in results), "traced": traced}


def check_pass(workload, ctx: dict, run_dir: Path, p: dict, reference: dict | None) -> list[str]:
    """Gate one pass; returns one message per failed command (empty when all pass).

    The first pass is checked in full; later passes must reproduce its hashes.
    """
    failures = []
    for step, r in p["steps"]:
        errors = []
        if r["exit"] != step.exit_code:
            err = (run_dir / f"{step.label}.err").read_text(errors="replace")[-500:]
            errors.append(f"exit {r['exit']}, expected {step.exit_code}: {err.strip()}")
        names = [f"{step.label}.stdout", *step.outputs]
        if reference is None:
            if not errors:
                try:
                    errors += workload.check(step.label, r["stdout"], run_dir, ctx)
                except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                    errors.append(f"output check raised {type(exc).__name__}: {exc}")
        else:
            errors += [f"{n} hash differs from the reference" for n in names
                       if p["outputs"][n] != reference[n]]
        if errors:
            failures.append(f"{step.label}: " + "; ".join(errors))
    return failures


def check_across_runs(key: str, outputs: dict) -> list[str]:
    """Output hashes must match earlier runs of the same source tree and seed."""
    store = WORK / "hashes.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    if key in known:
        return [f"{n}: hash differs from an earlier run of the same source and seed"
                for n, h in outputs.items() if known[key].get(n) != h]
    known[key] = outputs
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, store)
    return []


def layer_metrics(trace_passes: list[dict], overhead: float) -> dict:
    """Per-layer metrics: per pass sums over the pass's processes, then medians."""
    missing, per_pass = set(), []
    for p in trace_passes:
        self_s, counters, import_s = {}, {}, 0.0
        for _, r in p["steps"]:
            if not r["trace_path"].exists():  # the command died; the gate counts it
                continue
            trace = json.loads(r["trace_path"].read_text())
            missing.update(trace["missing"])
            import_s += trace["import_s"]
            names, spans = trace["names"], trace["spans"]
            child = [0.0] * len(spans)
            for name_id, start, end, parent in spans:
                if parent >= 0:
                    child[parent] += end - start
            for k, (name_id, start, end, _) in enumerate(spans):
                name = names[name_id]
                self_s[name] = self_s.get(name, 0.0) + (end - start) - child[k]
            for key, value in trace["counters"].items():
                if key in MAX_COUNTERS:
                    counters[key] = max(counters.get(key, 0.0), value)
                else:
                    counters[key] = counters.get(key, 0) + value
        per_pass.append((self_s, counters, import_s))

    missing_spans = {name for name, module, attr in WRAPPED if f"{module}.{attr}" in missing}
    out = {}
    for name, unit, how, span in PER_LAYER:
        if span in missing_spans:
            value = None
        elif how == "import":
            value = statistics.median(imp for _, _, imp in per_pass)
        elif how == "self":
            value = statistics.median(s.get(span, 0.0) for s, _, _ in per_pass)
        elif how in ("count", "max"):
            value = statistics.median(c.get(name, 0) for _, c, _ in per_pass)
        elif how == "ratio":
            ratios = [c["hs.repaired"] / c["hs.builds"] for _, c, _ in per_pass
                      if c.get("hs.builds")]
            value = statistics.median(ratios) if ratios else None
        else:
            value = overhead
        out[name] = {"value": value, "unit": unit}
    return out


def run_workload(name: str, seed: int, seconds: float, traced: bool, fingerprint: str) -> dict:
    workload = workloads.WORKLOADS[name]
    env = child_env()
    run_dir = WORK / name
    ctx, setup_times = setup(workload, seed, run_dir, env)

    passes, failures = [], []
    reference = None
    start = time.perf_counter()
    while True:
        trace_this = traced and len(passes) % 2 == 1
        p = run_pass(workload, ctx, run_dir, env, trace_this, len(passes))
        failures += check_pass(workload, ctx, run_dir, p, reference)
        if reference is None:
            reference = p["outputs"]
            failures += check_across_runs(f"{fingerprint}:{name}:{seed}", reference)
        passes.append(p)
        elapsed = time.perf_counter() - start
        enough = len(passes) >= (2 if traced else 1)
        if enough and elapsed + p["wall_s"] > seconds:
            break

    attempted = sum(len(p["steps"]) for p in passes)
    plain = [p for p in passes if not p["traced"]]
    items = workload.item_count(ctx)
    walls = [p["wall_s"] for p in plain]
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "items_per_pass": items,
        "item": workload.items,
        "passes": len(plain),
        "traced_passes": len(passes) - len(plain),
        "pass_wall_s": walls,
        "pass_peak_rss_mb": [p["rss_mb"] for p in plain],
        "command_wall_s": [{s.label: r["wall_s"] for s, r in p["steps"]} for p in passes],
        "setup_s_each": setup_times,
        "input_sha256": ctx["input_sha256"],
        "output_sha256": reference,
        "attempted": attempted,
        "failed": len(failures),
        "error_rate": len(failures) / attempted,
        "failures": failures,
    }
    if traced:
        traced_walls = [p["wall_s"] for p in passes if p["traced"]]
        overhead = statistics.median(traced_walls) - statistics.median(walls)
        record["traced_pass_wall_s"] = traced_walls
        metrics = layer_metrics([p for p in passes if p["traced"]], overhead)
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "items_per_s": {"value": statistics.median(items / w for w in walls), "unit": "1/s"},
            "peak_rss_mb": {"value": statistics.median(record["pass_peak_rss_mb"]),
                            "unit": "MB"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        }
    record["metrics"] = metrics
    return record


def print_summary(record: dict, env: dict) -> None:
    print(f"perfbench {record['workload']} seed={record['seed']} "
          f"passes={record['passes']} traced_passes={record['traced_passes']} "
          f"({env['loop']}; {record['items_per_pass']} {record['item']} per pass)")
    for name, m in record["metrics"].items():
        value = "null" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:<28} {value:>14} {m['unit']}")
    print(f"  {'error_rate':<28} {record['error_rate']:>14.6g} "
          f"({record['failed']} of {record['attempted']} commands failed)")
    for fname, digest in record["input_sha256"].items():
        print(f"  input  {fname:<24} sha256 {digest}")
    for fname, digest in record["output_sha256"].items():
        print(f"  output {fname:<24} sha256 {digest}")
    for failure in record["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hspatch" / "cli.py").is_file():
        print(f"perfbench: no hspatch sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    # SIGTERM unwinds like Ctrl-C, so the running command is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    fingerprint = source_fingerprint()
    env = environment(fingerprint)
    records = []
    for name in names:
        record = run_workload(name, args.seed, args.seconds, bool(args.trace), fingerprint)
        record["environment"] = env
        records.append(record)
        results = WORK / "results"
        results.mkdir(parents=True, exist_ok=True)
        out = results / f"{name}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(record, indent=1, default=str))
        print_summary(record, env)
        print(f"  record {out.relative_to(ROOT)}")
    if args.workload == "all":
        return 0 if all(r["failed"] == 0 for r in records) else 1
    r = records[0]
    print(json.dumps({"correct": r["failed"] == 0, "attempted": r["attempted"],
                      "failed": r["failed"], "metrics": r["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
