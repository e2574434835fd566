"""One admission rule for control values, at every entry point.

A control value is admitted when it is a finite double: NaN, an infinity, and
an int or Fraction beyond the double range are refused.  GeometricPatch, a
PatchSetDocument built from a stack or from patch objects, and the patch-set
parser must accept the same (3, 4, 4) matrix blocks and (3, 12) hs-input
blocks, or refuse them naming the same coordinate, the first one that holds a
refused value.  HsControls keeps no such check, because it is built for every
coordinate of every patch; its scale() turns a control beyond the double range,
NaN or an infinity into a ValueError instead.
"""

import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hspatch import (DocumentError, GeometricPatch, HsControls, HsPatchInput, Policy,
                     build_hs_patch, constraint_report)
from hspatch.documents import PatchSetDocument, parse_patchset

from conftest import UV_X, UV_Z

# ints from 2**1024 - 2**971 up round to 2**1024 and leave the double range
EDGE = st.integers(2**1024 - 2**972, 2**1024 + 2**972) | st.integers(-2**1024 - 2**972,
                                                                     -2**1024 + 2**972)
IN_RANGE = (st.floats(allow_nan=False, allow_infinity=False) | st.integers(-10**20, 10**20)
            | st.integers(-2**1023, 2**1023))
OUT_OF_RANGE = (st.sampled_from([math.nan, math.inf, -math.inf])
                | st.integers(10**309, 10**400) | st.integers(-10**400, -10**309))
FRACTIONS = (st.fractions(-10**6, 10**6, max_denominator=10**6)
             | st.builds(Fraction, st.integers(-10**400, 10**400), st.integers(1, 10**9)))


def admitted(value) -> bool:
    """The rule, written out: float() gives a finite double."""
    try:
        return math.isfinite(float(value))
    except OverflowError:
        return False


@st.composite
def blocks(draw, shape, fractions: bool):
    """Nested lists of the given shape: in-range values with up to three others put in."""
    n = math.prod(shape)
    values = IN_RANGE | EDGE | FRACTIONS if fractions else IN_RANGE | EDGE
    flat = draw(st.lists(values, min_size=n, max_size=n))
    for _ in range(draw(st.integers(0, 3))):
        flat[draw(st.integers(0, n - 1))] = draw(OUT_OF_RANGE)
    return np.array(flat, dtype=object).reshape(shape).tolist()


def first_refused(block) -> str | None:
    """The coordinate of the first value that the rule refuses, or None."""
    refused = [name for name, values in zip("xyz", block)
               if not all(map(admitted, np.ravel(np.array(values, dtype=object))))]
    return refused[0] if refused else None


def named(make, kind: str) -> str | None:
    """None if make() admits its block, else the coordinate its ValueError names."""
    try:
        make()
    except ValueError as exc:
        match = re.fullmatch(rf"control {kind} ([xyz]) contains non-finite entries", str(exc))
        assert match, str(exc)
        return match[1]
    return None


def parsed(basis: str, block) -> str | None:
    """None if the parser admits a one-patch document, else the coordinate it names."""
    text = json.dumps({"format": "hspatch-patchset", "version": 1, "basis": basis,
                       "patches": [dict(zip("xyz", block))]})
    try:
        parse_patchset(text)
    except DocumentError as exc:
        match = re.fullmatch(r"patches\[0\]\.([xyz])(\[\d\])?: non-finite value", str(exc))
        assert match, str(exc)
        return match[1]
    return None


@pytest.mark.parametrize("fractions", [False, True], ids=["json-values", "with-fractions"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_matrix_blocks(fractions, data):
    block = data.draw(blocks((3, 4, 4), fractions))
    want = first_refused(block)
    assert named(lambda: GeometricPatch(*block), "matrix") == want
    assert named(lambda: PatchSetDocument("hermite", controls=[block]), "matrix") == want
    if not fractions:
        assert parsed("hermite", block) == want


@pytest.mark.parametrize("fractions", [False, True], ids=["json-values", "with-fractions"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_hs_input_blocks(fractions, data):
    block = data.draw(blocks((3, 12), fractions))
    want = first_refused(block)
    inputs = HsPatchInput(*map(HsControls.from_flat, block))
    assert named(lambda: PatchSetDocument("hs-input", controls=[block]), "row") == want
    assert named(lambda: PatchSetDocument("hs-input", [inputs]), "row") == want
    if not fractions:
        assert parsed("hs-input", block) == want


class TestGeometricPatch:
    @pytest.mark.parametrize("at", range(3))
    def test_int_beyond_the_double_range_names_its_matrix(self, at):
        matrices = [[[0] * 4 for _ in range(4)] for _ in range(3)]
        matrices[at][1][2] = -10**400
        with pytest.raises(ValueError, match=f"^control matrix {'xyz'[at]} contains non-finite"):
            GeometricPatch(*matrices)

    @pytest.mark.parametrize("bad, shape", [([[0] * 4] * 3, "(3, 4)"), ([[0] * 4] * 5, "(5, 4)"),
                                            ([0] * 16, "(16,)")])
    def test_shape_message(self, bad, shape):
        with pytest.raises(ValueError, match=re.escape(f"control matrix y must be 4x4, got {shape}")):
            GeometricPatch(UV_X, bad, UV_Z)

    def test_equal_wrong_shapes_name_the_first_matrix(self):
        with pytest.raises(ValueError, match=re.escape("control matrix x must be 4x4, got (3, 3)")):
            GeometricPatch(*np.zeros((3, 3, 3)))

    @pytest.mark.parametrize("matrices, message", [
        ((np.full((4, 4), np.nan), UV_X, [[0] * 4] * 3), "x contains non-finite entries"),
        ((UV_X, [[10**400] * 4] * 4, [[0] * 4] * 3), "y contains non-finite entries"),
        ((UV_X, [[0] * 4] * 3, [[math.inf] * 4] * 4), "y must be 4x4, got (3, 4)"),
    ], ids=["non-finite-x", "huge-y", "short-y"])
    def test_first_bad_matrix_is_named(self, matrices, message):
        with pytest.raises(ValueError, match=re.escape(f"control matrix {message}")):
            GeometricPatch(*matrices)


class TestHsControlsBeyondTheRange:
    ZERO = HsControls((0,) * 4, (0,) * 8)
    HUGE = [10**400, -10**400, Fraction(10**400, 3)]

    @pytest.mark.parametrize("value", HUGE, ids=["int", "negative-int", "fraction"])
    def test_constraint_report(self, value):
        with pytest.raises(ValueError, match="^a control lies beyond the double range$"):
            constraint_report(HsControls((value, 0, 0, 0), (0,) * 8))

    @pytest.mark.parametrize("policy", list(Policy))
    @pytest.mark.parametrize("value", HUGE, ids=["int", "negative-int", "fraction"])
    def test_build_names_the_coordinate(self, policy, value):
        bad = HsControls((0,) * 4, (0,) * 7 + (value,))
        with pytest.raises(ValueError, match="^y: a control lies beyond the double range$"):
            build_hs_patch(HsPatchInput(self.ZERO, bad, self.ZERO), policy)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize("slot", range(12))
    def test_non_finite_control_is_refused(self, slot, value):
        # an infinity made residual and scale inf (inf <= tol * inf: feasible); a nan
        # was dropped by max(1.0, nan), so scale read 1.0
        flat = [0] * 12
        flat[slot] = value
        bad = HsControls.from_flat(flat)
        with pytest.raises(ValueError, match="^a control is not finite$"):
            constraint_report(bad)
        for policy in Policy:
            with pytest.raises(ValueError, match="^z: a control is not finite$"):
                build_hs_patch(HsPatchInput(self.ZERO, self.ZERO, bad), policy)

    def test_largest_exact_control_is_admitted(self):
        big = int(np.finfo(float).max)
        report = constraint_report(HsControls((big, big, 0, 0), (0,) * 8))  # phi = 0
        assert (report.scale, report.residual, report.feasible) == (float(big), 0, True)
