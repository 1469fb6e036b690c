"""The float-text kernel against repr, byte for byte.

Every float of trajectory.csv and events.csv goes through etsmc.floattext,
so each of its texts must be the one repr gives.  These tests need no run
of the simulator and read the same on every supported Python.
"""

import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from etsmc import floattext
from etsmc.floattext import CHUNK, cells, join, reprs

#: nans with payloads: quiet, negative, signalling, and high bits set
PAYLOAD_NANS = np.array([0x7FF8000000000001, 0xFFF8000000000000,
                         0x7FF0000000000001, 0x7FF8DEADBEEF0000],
                        dtype=np.uint64).view(np.float64).tolist()

#: the column forms cells reads, each built from a list of floats
COLUMN_FORMS = {
    "ndarray": np.array,
    "memoryview": lambda values: memoryview(np.array(values)).toreadonly(),
    "list": list,
    "zero-stride": lambda values: np.broadcast_to(values[0], len(values)),
}


def texts(col) -> list[str]:
    """The kernel's text of each element of the float column col."""
    return join(cells([col]), b"\n").decode("ascii").split("\n")[:-1]


def bits(*patterns) -> list[float]:
    return np.array(patterns, dtype=np.uint64).view(np.float64).tolist()


class TestFloatText:
    @settings(derandomize=True, database=None, max_examples=60,
              deadline=None)
    @given(values=st.lists(st.one_of(st.sampled_from(PAYLOAD_NANS),
                                     st.floats()), min_size=1, max_size=40),
           length=st.integers(1, CHUNK + 8),
           form=st.sampled_from(sorted(COLUMN_FORMS)))
    @example(values=[-0.0, 0.0, 5e-324], length=CHUNK + 1, form="memoryview")
    @example(values=PAYLOAD_NANS + [math.nan, -math.inf], length=CHUNK,
             form="list")
    @example(values=[-0.0], length=2 * CHUNK + 1, form="zero-stride")
    def test_matches_repr_of_each_element(self, values, length, form):
        # values repeated to length: past CHUNK a column takes two passes
        # of the kernel, and a zero-stride column is its first value
        # broadcast over that length
        values = (values * (length // len(values) + 1))[:length]
        if form == "zero-stride":
            values = values[:1] * length
        col = COLUMN_FORMS[form](values)
        want = [repr(v) for v in values]
        assert texts(col) == want
        assert reprs(col) == want

    def test_list_input_and_empty_column(self):
        assert reprs([0.1, 0.1, 0.2]) == ["0.1", "0.1", "0.2"]
        assert reprs([]) == []
        assert reprs(np.broadcast_to(0.5, 0)) == []

    def test_random_bit_patterns(self):
        # every exponent field, sign and mantissa, nans and infs included
        rng = np.random.default_rng(37)
        col = rng.integers(0, 2 ** 64, 100_000, dtype=np.uint64,
                           endpoint=False).view(np.float64)
        assert texts(col) == [repr(v) for v in col.tolist()]

    @pytest.mark.parametrize("value,text", [
        # Java keeps two digits; repr does not
        (5e-324, "5e-324"), (8e-323, "8e-323"),
        # the smallest normal, and the largest subnormal below it
        (2.2250738585072014e-308, "2.2250738585072014e-308"),
        (bits(0x000FFFFFFFFFFFFF)[0], "2.225073858507201e-308"),
        # halfway between two shortest candidates: to the even digit
        (562949953421312.25, "562949953421312.2"),
        (562949953421312.75, "562949953421312.8"),
        (9007199254740993.0, "9007199254740992.0"),
        # where the layout switches between positional and scientific
        (1e15, "1000000000000000.0"), (1e16, "1e+16"),
        (1e-4, "0.0001"), (1e-5, "1e-05"),
        # 1e23 is the midpoint of two doubles: only the even one, below,
        # may print it; the odd one above excludes its interval's ends
        (1e23, "1e+23"), (1.0000000000000001e23, "1.0000000000000001e+23"),
        (1.7976931348623157e308, "1.7976931348623157e+308"),
        (-0.0, "-0.0"), (0.0, "0.0"), (math.inf, "inf"),
        (-math.inf, "-inf"),
        (bits(0xFFF8000000000001)[0], "nan"),
    ])
    def test_edges(self, value, text):
        assert repr(value) == text
        assert texts([value]) == [text]

    def test_powers_of_two_and_ten_with_neighbours(self):
        # the c = 2^52 boundary, whose gap below is half the gap above,
        # at every exponent; and each power of ten that is a double
        powers = [math.ldexp(1.0, e) for e in range(-1074, 1024)]
        powers += [float(f"1e{e}") for e in range(-323, 309)]
        step = np.array(powers).view(np.uint64)
        one = np.uint64(1)
        col = np.concatenate([step + one, step, step[1:] - one])
        col = col.view(np.float64)[np.isfinite(col.view(np.float64))]
        assert texts(col) == [repr(v) for v in col.tolist()]

    def test_rows_of_columns_with_their_tails(self):
        # row-major: each row's cells in column order, each with its tail;
        # the zero-stride middle column is formatted once for all rows
        a = np.array([1.5, -0.25, 1e-7])
        b = np.broadcast_to(0.1, 3)
        c = [math.nan, 2.0, -1e300]
        tails = np.array([[b","] * 2 + [b",0\n"], [b","] * 2 + [b",1\n"]])
        text = join(cells([a, b, c]), tails[[1, 0, 1]])
        assert text == (b"1.5,0.1,nan,1\n-0.25,0.1,2.0,0\n"
                        b"1e-07,0.1,-1e+300,1\n")

    def test_columns_must_have_equal_length(self):
        with pytest.raises(ValueError, match=r"columns of \[2, 1\] rows"):
            cells([[1.0, 2.0], [3.0]])

    def test_tables_are_built_on_first_call(self):
        # importing the CLI compiles no kernel, and importing the kernel
        # builds neither table: they cost a few ms, which the short runs
        # and the bench's set-up would pay for nothing
        code = ("import sys, etsmc.cli; print('etsmc.floattext' in "
                "sys.modules); import etsmc.floattext as f; print(sum("
                "t.cache_info().currsize for t in (f._g_table, "
                "f._layout_table)))")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True).stdout
        assert out == "False\n0\n"
        assert reprs([1.0]) == ["1.0"]
        assert floattext._g_table.cache_info().currsize == 1
