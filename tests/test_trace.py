"""The benchmark tracer runs every CLI command to the end and writes a whole trace.

`perfbench/trace_cli.py` wraps the call boundaries at which the per-layer
metrics are taken, runs one command and writes its spans and counters as JSON.
A renamed boundary shows up in "missing", and a counter that is not a plain
number stops the JSON dump halfway; either way the benchmark run ends without
its result line.  Each command runs here in its own process, as in the
benchmark, on small documents.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hspatch import HsControls, HsPatchInput, Side
from hspatch.documents import Adjacency, PatchSetDocument, save_patchset

from conftest import LIFTED_CORNER, UV_X, UV_Y, UV_Z
from test_analysis import shared_edge_patches

ROOT = Path(__file__).resolve().parents[1]
TRACE_CLI = ROOT / "perfbench" / "trace_cli.py"

# (CLI arguments, exit code, counters that must be present with their values)
COMMANDS = [
    (["check", "in.hs.json", "--json"], 1, {"hs.reports": 6}),
    (["build", "in.hs.json", "--policy", "project", "--out", "built.json"], 0,
     {"hs.builds": 2, "hs.repaired": 1}),
    (["convert", "pair.json", "--to", "bspline", "--out", "pair.bspline.json"], 0, {}),
    (["audit", "pair.json", "--grid", "3"], 0, {"analysis.audit_lines": 2 * 3 * 18}),
    # the two patches meet (C0) but their tangent planes differ along the joint
    (["continuity", "pair.json", "--samples", "5"], 1,
     {"analysis.joints": 1, "analysis.joint_samples": 5}),
    (["tessellate", "pair.json", "--n", "2", "--out", "pair.obj"], 0,
     {"mesh.vertices": 18, "mesh.triangles": 16}),
    (["demo-teapot", "--n", "2", "--out", "teapot.obj"], 0,
     {"hs.builds": 32, "convert.patches": 32, "mesh.triangles": 32 * 8}),
]


@pytest.fixture(scope="module")
def work_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("trace")
    joint = Adjacency(0, Side.parse("u1"), 1, Side.parse("u0"))
    save_patchset(PatchSetDocument(basis="hermite", patches=list(shared_edge_patches()),
                                   adjacency=[joint]), path / "pair.json")
    flat = HsPatchInput(*(HsControls.from_matrix(m) for m in (UV_X, UV_Y, UV_Z)))
    lifted = HsPatchInput(flat.x, flat.y, LIFTED_CORNER)
    save_patchset(PatchSetDocument(basis="hs-input", patches=[flat, lifted]),
                  path / "in.hs.json")
    return path


@pytest.mark.parametrize("args, exit_code, expected", COMMANDS, ids=[c[0][0] for c in COMMANDS])
def test_trace_is_whole(work_dir, args, exit_code, expected):
    trace_path = work_dir / f"trace-{args[0]}.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, str(TRACE_CLI), str(trace_path), "--", *args],
                         cwd=work_dir, env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == exit_code, run.stderr
    trace = json.loads(trace_path.read_text(encoding="utf-8"))
    assert trace["missing"] == []
    assert "cli.main" in trace["names"] and trace["spans"]
    counters = trace["counters"]
    assert all(type(v) in (int, float) for v in counters.values()), counters
    assert {k: counters.get(k) for k in expected} == expected
