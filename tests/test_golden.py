"""Golden output hashes: the CLI's bytes on small seeded inputs must not change.

The inputs are generated here from `random.Random`, whose float and integer
streams are stable across Python versions, and written with `json.dumps`, so
they do not depend on the package's own serializer.  The hs-input document has
300 patches: float controls (mostly infeasible), integer controls made exactly
feasible, and patches whose corners give phi = 0.  The hermite document puts
the same controls in Hermite matrices, with seeded twist entries that `check`
and `build` ignore.  The joints document takes the first patches of the
hermite one and adds seeded adjacency joints, for the commands that rebuild one
GeometricPatch per matrix (tessellate, audit, continuity).  The expected SHA-256
values were recorded before the one-pass build and the template JSON writer
(the hermite ones before hermite stacks were gathered into hs-input rows, the
joints ones before the patch and document constructors shared one control
check); a change that moves a single output byte fails here.
"""

import contextlib
import hashlib
import io
import json
import os
import random

import pytest

from hspatch.cli import main

HS_INPUT_PATCHES = 300
JOINT_PATCHES = 40
JOINTS = 60

EXPECTED = {
    "check --json": "f7f5ba34bc3970aaf231731a42ab5134e22d61d50c175c242160a377dd5304f7",
    "build": "9914a68f32aaddf921b1dbbe95c02da5b9611ff7c7c58c0cb87bd037b33c8284",
    "convert --to bspline": "ba3c5823c85e4ca570f87f2bfd37969a6301a163bed90a49fb5c4a45273abdfe",
    "demo-teapot obj": "43a43d0de4701a9522c0c624d1d73d664cd00901776c6d5eaf6ee45d8a3f4201",
    "demo-teapot --json": "a043f5a7773238dbc62b9b9d99010d03e919d41a07eed6d542b31154f19e8060",
    "hermite check --json": "6a561e662b453436cacac477a9a94be1548fd2cf47017b19424f26514ce1c863",
    "hermite build": "6316054dd0d810c813d6c6bd8a81ff9b11da4eea1e4bb30ec97df81409a90381",
    "tessellate obj": "98bc32130cd86c15066d22055f56f2f8286517ab7e78f0dc6f03251c58447902",
    "audit --json": "80b345dec3abc6e51459dd2cfb32d3b7d51b7b8b8bfea94d4f1b5ce18b28d9b1",
    "continuity --json": "f097e2669f593d3e31d44522a85e972420ec91db4770d381adcd86ced3ad6ae2",
}

# Row-major positions in a Hermite matrix of x11 x12 x21 x22, then the tangents
# x13 x14 x23 x24 x31 x32 x41 x42; the twists sit at 10, 11, 14 and 15.
HERMITE_POSITIONS = (0, 1, 4, 5, 2, 3, 6, 7, 8, 9, 12, 13)


def _coordinate(rng: random.Random, kind: str) -> list:
    """12 controls of one coordinate: 4 corners then 8 tangents."""
    if kind == "float":
        return [rng.uniform(-2.0, 2.0) for _ in range(12)]
    corners = [rng.randint(-9, 9) for _ in range(4)]
    if kind == "phi0":  # x11 - x12 - x21 + x22 = 0
        corners[3] = corners[1] + corners[2] - corners[0]
    t = [rng.randint(-9, 9) for _ in range(7)]
    phi = corners[0] - corners[1] - corners[2] + corners[3]
    # the residual a + b + c + 4*phi is linear in x42 with coefficient -1
    x42 = (t[1] - t[3] + t[6]) + (t[0] - t[2] + t[6]) + (t[4] - t[5] - t[6]) + 4 * phi
    return corners + t + [x42]


def hs_input_text(seed: int = 16) -> str:
    rng = random.Random(seed)
    kinds = ("float", "float", "int", "phi0")
    patches = [{name: _coordinate(rng, kinds[k % len(kinds)]) for name in "xyz"}
               for k in range(HS_INPUT_PATCHES)]
    return json.dumps({"format": "hspatch-patchset", "version": 1, "basis": "hs-input",
                       "patches": patches, "adjacency": []})


def hermite_text(seed: int = 16) -> str:
    data = json.loads(hs_input_text(seed))
    rng = random.Random(seed + 1)
    for patch in data["patches"]:
        for name in "xyz":
            flat = [rng.uniform(-2.0, 2.0) for _ in range(16)]
            for position, value in zip(HERMITE_POSITIONS, patch[name]):
                flat[position] = value
            patch[name] = [flat[row:row + 4] for row in range(0, 16, 4)]
    data["basis"] = "hermite"
    return json.dumps(data)


def joints_text(seed: int = 16) -> str:
    """The first JOINT_PATCHES hermite patches and JOINTS seeded joints between them,
    some reversed and some joining a patch to itself."""
    data = json.loads(hermite_text(seed))
    data["patches"] = data["patches"][:JOINT_PATCHES]
    rng = random.Random(seed + 2)
    sides = [axis + value + rev for axis in "uv" for value in "01" for rev in ("", "r")]
    data["adjacency"] = [[rng.randrange(JOINT_PATCHES), rng.choice(sides),
                          rng.randrange(JOINT_PATCHES), rng.choice(sides)] for _ in range(JOINTS)]
    return json.dumps(data)


def run(argv) -> tuple[int, bytes]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue().encode("utf-8")


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """SHA-256 of each golden output, computed with relative paths from a work dir."""
    work = tmp_path_factory.mktemp("golden")
    (work / "in.hs.json").write_text(hs_input_text(), encoding="utf-8")
    (work / "in.hermite.json").write_text(hermite_text(), encoding="utf-8")
    (work / "in.joints.json").write_text(joints_text(), encoding="utf-8")
    cwd = os.getcwd()
    os.chdir(work)  # contextlib.chdir needs Python 3.11
    try:
        digests = {}
        code, stdout = run(["check", "in.hs.json", "--json"])
        assert code == 1
        digests["check --json"] = sha(stdout)
        assert run(["build", "in.hs.json", "--policy", "project", "--out", "built.json"])[0] == 0
        digests["build"] = sha((work / "built.json").read_bytes())
        assert run(["convert", "built.json", "--to", "bspline", "--out", "built.bspline.json"]
                   )[0] == 0
        digests["convert --to bspline"] = sha((work / "built.bspline.json").read_bytes())
        code, stdout = run(["demo-teapot", "--n", "3", "--out", "teapot.obj", "--json"])
        assert code == 0
        digests["demo-teapot obj"] = sha((work / "teapot.obj").read_bytes())
        digests["demo-teapot --json"] = sha(stdout)
        code, stdout = run(["check", "in.hermite.json", "--json"])
        assert code == 1
        digests["hermite check --json"] = sha(stdout)
        assert run(["build", "in.hermite.json", "--policy", "project", "--out",
                    "hermite.built.json"])[0] == 0
        digests["hermite build"] = sha((work / "hermite.built.json").read_bytes())
        assert run(["tessellate", "in.joints.json", "--n", "7", "--pattern", "alternating",
                    "--out", "joints.obj"])[0] == 0
        digests["tessellate obj"] = sha((work / "joints.obj").read_bytes())
        code, stdout = run(["audit", "in.joints.json", "--grid", "4", "--json"])
        assert code == 1
        digests["audit --json"] = sha(stdout)
        code, stdout = run(["continuity", "in.joints.json", "--json"])
        assert code == 1
        digests["continuity --json"] = sha(stdout)
    finally:
        os.chdir(cwd)
    return digests


@pytest.mark.parametrize("name", list(EXPECTED))
def test_output_bytes_unchanged(outputs, name):
    assert outputs[name] == EXPECTED[name]
