"""Malformed documents, tolerances and oversized grids are usage errors: exit 2.

A value that is not a finite JSON number (NaN, Infinity, a boolean, an
integer beyond the double range) must be rejected with its location rather
than reach the geometry and come back as a "violation" (exit 1).  JSON nested
too deeply for the decoder, integer literals past the interpreter's digit
limit and bad teapot rows are rejected the same way, and grid sizes are
checked before any input is read.  A --json report never writes NaN or
Infinity: a report that would hold one is an exit 2 with empty stdout.
"""

import json

import pytest

import hspatch.cli
from hspatch import DocumentError
from hspatch.cli import MAX_GRID_SAMPLES, MAX_TESS_N, main
from hspatch.documents import parse_patchset, parse_teapot

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


@pytest.fixture
def one_patch_doc(tmp_path):
    """One hermite patch, x = 0 on u = 0 and x = 1 on u = 1, joined to itself along u1/u0."""
    path = tmp_path / "one.json"
    text = hermite_text("[1, 1, 0, 0]")
    path.write_text(text[:-1] + ', "adjacency": [[0, "u1", 0, "u0"]]}', encoding="utf-8")
    return path


class TestGridSampleLimit:
    @pytest.mark.parametrize("command, flag", [("audit", "--grid"), ("continuity", "--samples")])
    def test_huge_value_rejected_before_any_work(self, one_patch_doc, monkeypatch, capsys,
                                                 command, flag):
        # the limit check must come first: nothing is loaded, audited or sampled
        def forbidden(*args, **kwargs):
            raise AssertionError("called before the limit check")

        for name in ("degree_audit", "continuity_check"):
            monkeypatch.setattr(hspatch.cli, name, forbidden)
        monkeypatch.setattr(hspatch.cli.documents, "load_patchset", forbidden)
        assert main([command, str(one_patch_doc), flag, str(10**12)]) == 2
        assert f"{flag} must be between" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag, bad", [
        ("audit", "--grid", MAX_GRID_SAMPLES + 1), ("audit", "--grid", 0),
        ("audit", "--grid", -5), ("continuity", "--samples", MAX_GRID_SAMPLES + 1),
        ("continuity", "--samples", 1), ("continuity", "--samples", 0)])
    def test_out_of_range_rejected_without_patches(self, tmp_path, command, flag, bad):
        # with no patches or joints nothing else would reject the value
        path = tmp_path / "empty.json"
        path.write_text('{"format": "hspatch-patchset", "version": 1, "basis": "hermite",'
                        ' "patches": []}', encoding="utf-8")
        assert main([command, str(path), flag, str(bad)]) == 2
        low = 1 if flag == "--grid" else 2
        assert main([command, str(path), flag, str(low)]) == 0

    def test_largest_value_accepted(self, one_patch_doc, capsys):
        assert MAX_GRID_SAMPLES == 65536
        assert main(["audit", str(one_patch_doc), "--grid", str(MAX_GRID_SAMPLES), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["grid"] == MAX_GRID_SAMPLES
        # side u1 against side u0: every sample is 1 apart, so exit 1
        assert main(["continuity", str(one_patch_doc), "--samples", str(MAX_GRID_SAMPLES),
                     "--json"]) == 1
        assert json.loads(capsys.readouterr().out)["samples"] == MAX_GRID_SAMPLES


# deeper than the JSON decoder's recursion limit
DEEP_JSON = "[" * 100000 + "]" * 100000


class TestDeepJson:
    def test_parse_patchset(self):
        with pytest.raises(DocumentError, match="nested too deeply"):
            parse_patchset(DEEP_JSON)

    @pytest.mark.parametrize("command", ["check", "build", "audit", "continuity"])
    def test_document_exits_two(self, tmp_path, capsys, command):
        path = tmp_path / "deep.json"
        path.write_text(DEEP_JSON, encoding="utf-8")
        assert main([command, str(path)]) == 2
        assert "JSON nested too deeply" in capsys.readouterr().err

    def test_adjacency_file_exits_two(self, one_patch_doc, tmp_path, capsys):
        path = tmp_path / "adjacency.json"
        path.write_text(DEEP_JSON, encoding="utf-8")
        assert main(["continuity", str(one_patch_doc), "--adjacency", str(path)]) == 2
        assert "adjacency file: JSON nested too deeply" in capsys.readouterr().err


def teapot_text(vertex: str) -> str:
    """One patch over 16 vertices; the last vertex, on line 19, is `vertex`."""
    indices = ",".join(str(k) for k in range(1, 17))
    return f"1\n{indices}\n16\n" + "0,0,0\n" * 15 + vertex + "\n"


class TestTeapotVertices:
    @pytest.mark.parametrize("bad", ["nan", "inf", "-Infinity", "1e400"])
    def test_non_finite_vertex_names_its_line(self, tmp_path, capsys, bad):
        text = teapot_text(f"0,{bad},0")
        with pytest.raises(DocumentError, match="line 19: non-finite vertex"):
            parse_teapot(text)
        path = tmp_path / "teapot.txt"
        path.write_text(text, encoding="utf-8")
        assert main(["demo-teapot", str(path), "--n", "1", "--out", str(tmp_path / "t.obj")]) == 2
        assert "line 19: non-finite vertex" in capsys.readouterr().err

    def test_finite_vertex_accepted(self):
        assert parse_teapot(teapot_text("1e300,-2,0.5")).vertices[15].tolist() == [1e300, -2, 0.5]


INDICES = ",".join(str(k) for k in range(1, 17))


class TestTeapotRows:
    @pytest.mark.parametrize("text, message", [
        ("1.5\n", "line 1: patch count must be an integer"),
        ("-1\n", "line 1: patch count must be >= 0"),
        (f"1\n{INDICES[:-2]}x\n", "line 2: patch indices must be integers"),
        ("0\nfour\n", "line 2: vertex count must be an integer"),
        ("0\n-2\n", "line 2: vertex count must be >= 0"),
        (teapot_text("0,zero,0"), "line 19: vertex coordinates must be numbers"),
        ("# header\n\n1\n1,2\n", "line 4: expected 16 value(s) for patch 0 indices, got 2"),
        (f"1\n{INDICES}\n2\n0,0,0\n", "teapot file ended early while reading vertex 1"),
    ])
    def test_message_names_the_row(self, text, message):
        with pytest.raises(DocumentError) as err:
            parse_teapot(text)
        assert str(err.value) == message

    @pytest.mark.parametrize("index", ["0", "17", "9" * 30])
    def test_index_out_of_range(self, tmp_path, index):
        # a 30-digit index once overflowed the int64 index array
        text = teapot_text("0,0,0").replace(INDICES, INDICES[:-2] + index, 1)
        with pytest.raises(DocumentError, match="^teapot patch index out of vertex range$"):
            parse_teapot(text)
        path = tmp_path / "teapot.txt"
        path.write_text(text, encoding="utf-8")
        assert main(["demo-teapot", str(path), "--n", "1", "--out", str(tmp_path / "t.obj")]) == 2


def test_integer_past_the_digit_limit_is_a_document_error():
    with pytest.raises(DocumentError, match="^invalid JSON: Exceeds the limit"):
        parse_patchset(hs_input_text(controls_with("1" * 5000)))


OVERFLOWING_X = ["1.7e308", "-1.7e308", "1.7e308"] + ["1"] * 9


class TestJsonNeverWritesNonFinite:
    @pytest.fixture
    def overflowing_doc(self, tmp_path):
        # phi = x11 - x12 - x21 + x22 overflows to inf, alpha to nan
        path = tmp_path / "overflow.json"
        text = hs_input_text(["0"] * 12).replace('"x": [0,0,0,0,0,0,0,0,0,0,0,0]',
                                                  '"x": [' + ", ".join(OVERFLOWING_X) + "]")
        path.write_text(text, encoding="utf-8")
        return path

    def test_json_report_is_a_usage_error(self, overflowing_doc, capsys):
        assert main(["check", str(overflowing_doc), "--json"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: --json cannot write a non-finite number (inf or nan)\n"

    def test_text_report_prints_the_values(self, overflowing_doc, capsys):
        assert main(["check", str(overflowing_doc)]) == 1
        out = capsys.readouterr().out
        assert "patch 0 x: phi=inf a=0 b=0 c=0 residual=inf [INFEASIBLE]" in out

    def test_finite_json_report_unchanged(self, tmp_path, capsys):
        path = tmp_path / "zero.json"
        path.write_text(hs_input_text(["0"] * 12), encoding="utf-8")
        assert main(["check", str(path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["feasible"] is True


BAD_N = [0, -3, MAX_TESS_N + 1, 10**12]


class TestTessellationLimit:
    @pytest.mark.parametrize("n", BAD_N)
    @pytest.mark.parametrize("command", ["tessellate", "demo-teapot"])
    def test_rejected_before_any_work(self, one_patch_doc, tmp_path, monkeypatch, capsys,
                                      command, n):
        # the limit check must come first: nothing is read or tessellated
        def forbidden(*args, **kwargs):
            raise AssertionError("called before the limit check")

        monkeypatch.setattr(hspatch.cli, "tessellate", forbidden)
        for name in ("load_patchset", "parse_teapot"):
            monkeypatch.setattr(hspatch.cli.documents, name, forbidden)
        out = tmp_path / "out.obj"
        source = [str(one_patch_doc)] if command == "tessellate" else []
        assert main([command, *source, "--n", str(n), "--out", str(out)]) == 2
        assert f"--n must be between 1 and {MAX_TESS_N}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n", BAD_N)
    def test_out_of_range_rejected_without_patches(self, empty_inputs, n):
        # with no patches nothing else would reject the value
        for args in empty_inputs:
            assert main([*args, "--n", str(n)]) == 2

    def test_largest_value_accepted_on_empty_documents(self, empty_inputs):
        assert MAX_TESS_N == 1024
        for args in empty_inputs:
            assert main([*args, "--n", str(MAX_TESS_N)]) == 0


@pytest.fixture
def empty_inputs(tmp_path):
    """tessellate and demo-teapot argument lists on inputs without patches."""
    doc, teapot = tmp_path / "empty.json", tmp_path / "empty.txt"
    doc.write_text('{"format": "hspatch-patchset", "version": 1, "basis": "hermite",'
                   ' "patches": []}', encoding="utf-8")
    teapot.write_text("0\n0\n", encoding="utf-8")
    out = str(tmp_path / "out.obj")
    return [["tessellate", str(doc), "--out", out], ["demo-teapot", str(teapot), "--out", out]]
