"""Malformed adjacency is a document error with a location, and exit code 2.

The same parser serves a document's "adjacency" list and the file given to
`continuity --adjacency`, so both paths are exercised with the same entries.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hspatch import DocumentError, GeometricPatch
from hspatch.cli import main
from hspatch.documents import (
    PatchSetDocument,
    parse_adjacency,
    parse_patchset,
    save_patchset,
    serialize_patchset,
)

from conftest import UV_X, UV_Y, UV_Z

SRC = Path(__file__).resolve().parents[1] / "src"

# (entry, text the error message must contain)
MALFORMED = [
    ([0, 5, 1, "u0"], "adjacency[0]: sides must be strings"),
    ([0, "u1", 1, None], "adjacency[0]: sides must be strings"),
    ([True, "u1", 1, "u0"], "adjacency[0]: patch ids must be integers"),
    ([0, "u1", False, "u0"], "adjacency[0]: patch ids must be integers"),
    ([0, "x9", 1, "u0"], "adjacency[0]: invalid side name 'x9'"),
    ([0, "u1", 2, "u0"], "adjacency[0]: patch id out of range"),
    ([0, "u1", 1], "adjacency[0]: expected [id, side, id, side]"),
]
IDS = ["int-side", "null-side", "bool-id-a", "bool-id-b", "bad-side-name", "range", "short"]


def pair_document(adjacency) -> str:
    """Two-patch hermite document text with the given raw adjacency list."""
    patch = GeometricPatch(UV_X, UV_Y, UV_Z)
    data = json.loads(serialize_patchset(PatchSetDocument(basis="hermite",
                                                          patches=[patch, patch])))
    data["adjacency"] = adjacency
    return json.dumps(data)


@pytest.mark.parametrize("entry, message", MALFORMED, ids=IDS)
def test_parse_adjacency_rejects_with_location(entry, message):
    with pytest.raises(DocumentError) as info:
        parse_adjacency([entry], 2)
    assert message in str(info.value)


@pytest.mark.parametrize("entry, message", MALFORMED, ids=IDS)
def test_document_adjacency_rejected_with_location(entry, message):
    with pytest.raises(DocumentError) as info:
        parse_patchset(pair_document([entry]))
    assert message in str(info.value)


def test_adjacency_must_be_a_list():
    with pytest.raises(DocumentError, match="adjacency"):
        parse_patchset(pair_document({"0": "u1"}))
    with pytest.raises(DocumentError, match="adjacency"):
        parse_adjacency("[0, 'u1', 1, 'u0']", 2)


def test_valid_entries_parse():
    adj = parse_adjacency([[0, "u1", 1, "u0r"], [1, " V0 ", 0, "v1"]], 2)
    assert [(a.a, str(a.side_a), a.b, str(a.side_b)) for a in adj] == [
        (0, "u1", 1, "u0r"), (1, "v0", 0, "v1"),
    ]


@pytest.mark.parametrize("command", ["check", "build", "continuity"])
@pytest.mark.parametrize("entry, message", MALFORMED, ids=IDS)
def test_cli_document_adjacency_exits_two(tmp_path, capsys, command, entry, message):
    doc = tmp_path / "pair.json"
    doc.write_text(pair_document([entry]), encoding="utf-8")
    assert main([command, str(doc), *(["--out", str(tmp_path / "o.json")]
                                      if command == "build" else [])]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("entry, message", MALFORMED, ids=IDS)
def test_cli_adjacency_file_exits_two(tmp_path, capsys, entry, message):
    doc = tmp_path / "pair.json"
    patch = GeometricPatch(UV_X, UV_Y, UV_Z)
    save_patchset(PatchSetDocument(basis="hermite", patches=[patch, patch]), doc)
    adj = tmp_path / "adj.json"
    adj.write_text(json.dumps([entry]), encoding="utf-8")
    assert main(["continuity", str(doc), "--adjacency", str(adj)]) == 2
    assert message in capsys.readouterr().err


def test_cli_process_prints_no_traceback(tmp_path):
    doc = tmp_path / "pair.json"
    doc.write_text(pair_document([[0, 5, 1, "u0"]]), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "hspatch.cli", "check", str(doc)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "adjacency[0]" in proc.stderr
