"""Malformed documents and tolerances are usage errors: DocumentError, exit 2.

A value that is not a finite JSON number (NaN, Infinity, a boolean, an
integer beyond the double range) must be rejected with its location rather
than reach the geometry and come back as a "violation" (exit 1).
"""

import json

import pytest

from hspatch import DocumentError
from hspatch.cli import main
from hspatch.documents import parse_patchset

ZERO_MATRIX = [[0, 0, 0, 0]] * 4


def hs_input_text(z_controls, version="1") -> str:
    z = "[" + ", ".join(z_controls) + "]"
    return ('{"format": "hspatch-patchset", "version": ' + version + ', "basis": "hs-input", '
            '"patches": [{"x": [0,0,0,0,0,0,0,0,0,0,0,0], '
            '"y": [0,0,0,0,0,0,0,0,0,0,0,0], "z": ' + z + '}]}')


def hermite_text(x_row1: str) -> str:
    rows = json.dumps(ZERO_MATRIX)
    x = "[[0,0,0,0], " + x_row1 + ", [0,0,0,0], [0,0,0,0]]"
    return ('{"format": "hspatch-patchset", "version": 1, "basis": "hermite", '
            '"patches": [{"x": ' + x + ', "y": ' + rows + ', "z": ' + rows + '}]}')


def controls_with(bad: str) -> list[str]:
    return [bad] + ["0"] * 11


BAD_NUMBERS = ["NaN", "Infinity", "-Infinity", "true", "false", "1e400", "1" + "0" * 400]
BAD_IDS = ["nan", "inf", "-inf", "true", "false", "1e400", "10**400"]


class TestParseRejects:
    @pytest.mark.parametrize("bad", BAD_NUMBERS, ids=BAD_IDS)
    def test_hs_input_control(self, bad):
        with pytest.raises(DocumentError, match=r"patches\[0\]\.z"):
            parse_patchset(hs_input_text(controls_with(bad)))

    @pytest.mark.parametrize("bad", BAD_NUMBERS, ids=BAD_IDS)
    def test_matrix_entry(self, bad):
        with pytest.raises(DocumentError, match=r"patches\[0\]\.x\[1\]"):
            parse_patchset(hermite_text(f"[0, 0, {bad}, 0]"))

    @pytest.mark.parametrize("version", ["true", "false", "1.0", "0", '"1"'])
    def test_version(self, version):
        with pytest.raises(DocumentError, match="version"):
            parse_patchset(hs_input_text(["0"] * 12, version=version))

    def test_valid_documents_still_parse(self):
        doc = parse_patchset(hs_input_text(["1", "-2.5", "1e300"] + ["0"] * 9))
        assert doc.patches[0].z.corners == (1, -2.5, 1e300, 0)
        # integers stay integers for the exact constraint layer
        assert type(doc.patches[0].z.corners[0]) is int
        doc = parse_patchset(hermite_text("[1, 2.5, -3, 1e-300]"))
        assert doc.patches[0].x[1].tolist() == [1.0, 2.5, -3.0, 1e-300]


class TestCliExitsTwo:
    @pytest.mark.parametrize("bad", BAD_NUMBERS, ids=BAD_IDS)
    @pytest.mark.parametrize("command", [["check"], ["build", "--policy", "project"]])
    def test_hs_input_control(self, tmp_path, capsys, command, bad):
        path = tmp_path / "doc.json"
        path.write_text(hs_input_text(controls_with(bad)), encoding="utf-8")
        assert main([command[0], str(path), *command[1:]]) == 2
        assert "patches[0].z" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", BAD_NUMBERS, ids=BAD_IDS)
    @pytest.mark.parametrize("command", [["audit"], ["tessellate"], ["continuity"],
                                         ["convert", "--to", "bezier"]])
    def test_matrix_entry(self, tmp_path, capsys, command, bad):
        path = tmp_path / "doc.json"
        path.write_text(hermite_text(f"[0, {bad}, 0, 0]"), encoding="utf-8")
        assert main([command[0], str(path), *command[1:]]) == 2
        assert "patches[0].x[1]" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["check", "build"])
    def test_boolean_version(self, tmp_path, capsys, command):
        path = tmp_path / "doc.json"
        path.write_text(hs_input_text(["0"] * 12, version="true"), encoding="utf-8")
        assert main([command, str(path)]) == 2
        assert "version" in capsys.readouterr().err


@pytest.fixture
def zero_doc(tmp_path):
    """An all-zero hs-input patch: feasible under every valid tolerance."""
    path = tmp_path / "zero.json"
    path.write_text(hs_input_text(["0"] * 12), encoding="utf-8")
    return path


BAD_TOLS = ["-1", "-1e-300", "nan", "inf", "-inf"]


class TestTolerance:
    @pytest.mark.parametrize("tol", BAD_TOLS)
    def test_flag_rejected(self, zero_doc, capsys, tol):
        # --tol=VALUE so that argparse does not read "-inf" as an option
        assert main(["check", str(zero_doc), f"--tol={tol}"]) == 2
        assert "--tol" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", BAD_TOLS)
    def test_env_rejected(self, zero_doc, monkeypatch, capsys, tol):
        monkeypatch.setenv("HSPATCH_TOL", tol)
        assert main(["check", str(zero_doc)]) == 2
        assert "HSPATCH_TOL" in capsys.readouterr().err

    def test_build_and_demo_teapot_reject(self, zero_doc, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        commands = [["build", str(zero_doc)], ["demo-teapot", "--n", "1"]]
        for args in commands:
            assert main(args + ["--tol", "nan"]) == 2
        monkeypatch.setenv("HSPATCH_TOL", "-1")
        for args in commands:
            assert main(args) == 2

    def test_zero_and_finite_accepted(self, zero_doc, monkeypatch):
        assert main(["check", str(zero_doc), "--tol", "0"]) == 0
        assert main(["check", str(zero_doc), "--tol", "1e300"]) == 0
        monkeypatch.setenv("HSPATCH_TOL", "0")
        assert main(["check", str(zero_doc)]) == 0
