"""The CLI's --json writer gives json.dumps(payload, indent=2) byte for byte.

Payloads have the CLI's shape: a dict of scalars and of lists of flat dicts
whose rows share their keys, in order.  A non-finite float anywhere is a usage error,
raised before anything is printed.
"""

import argparse
import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hspatch.cli import _emit, _json_parts, _UsageError
from hspatch.documents import BATCH

TEXT = st.one_of(st.text(), st.sampled_from(['"', "\\", 'a"b\\c', "été", "☃",
                                             "\U0001f600", "\n\t\x00", "</script>"]))
FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e308, 1e16, 1e-7, 0.1]))
INTS = st.one_of(st.integers(), st.integers(-2**80, 2**80),
                 st.sampled_from([2**63, -2**63 - 1, 2**64]))
SCALARS = st.one_of(TEXT, st.booleans(), INTS, FLOATS, st.none())
# a column holds one kind, as the CLI's do, or a mix (e.g. alpha: float or None)
COLUMNS = st.sampled_from([FLOATS, INTS, TEXT, st.booleans(), st.one_of(FLOATS, st.none()),
                           SCALARS])


@st.composite
def row_lists(draw):
    keys = draw(st.lists(TEXT, min_size=1, max_size=6, unique=True))
    columns = [draw(COLUMNS) for _ in keys]
    n_rows = draw(st.integers(0, 6))
    return [{k: draw(c) for k, c in zip(keys, columns)} for _ in range(n_rows)]


PAYLOADS = st.dictionaries(TEXT, st.one_of(SCALARS, row_lists()), min_size=1, max_size=5)


@settings(max_examples=200, deadline=None)
@given(payload=PAYLOADS)
def test_writer_matches_json_dumps(payload):
    assert "".join(_json_parts(payload)) == json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("value", [-0.0, 5e-324, 1e308, 1e16, 2**63, 2**64 + 1, None, True,
                                   "q\"\\é", []])
def test_edge_scalars(value):
    payload = {"v": value, "rows": [{"a": value, "b": 1.5}, {"a": value, "b": -0.0}]}
    if value == []:
        payload["rows"] = []
    assert "".join(_json_parts(payload)) == json.dumps(payload, indent=2) + "\n"


@st.composite
def payloads_with_non_finite(draw):
    payload = draw(PAYLOADS)
    bad = draw(st.sampled_from([math.inf, -math.inf, math.nan]))
    if draw(st.booleans()):
        payload[draw(TEXT)] = bad
    else:
        rows = draw(row_lists().filter(bool))
        key = draw(st.sampled_from(list(rows[0])))
        rows[draw(st.integers(0, len(rows) - 1))][key] = bad
        payload[draw(TEXT)] = rows
    return payload


@settings(max_examples=100, deadline=None)
@given(payload=payloads_with_non_finite())
def test_non_finite_is_a_usage_error_with_empty_stdout(payload):
    out = io.StringIO()
    with pytest.raises(_UsageError, match=r"non-finite number \(inf or nan\)"):
        with contextlib.redirect_stdout(out):
            _emit(argparse.Namespace(json=True), payload, [])
    assert out.getvalue() == ""


def test_rows_past_one_batch():
    rows = [{"i": k, "x": k / 3, "alpha": None if k % 7 else -0.0, "ok": k % 2 == 0}
            for k in range(2 * BATCH + 1)]
    payload = {"n": len(rows), "rows": rows, "done": True}
    assert "".join(_json_parts(payload)) == json.dumps(payload, indent=2) + "\n"
