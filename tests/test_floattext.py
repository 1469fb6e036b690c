"""The float-text kernel against repr, and its integers against str,
byte for byte.

Every float of trajectory.csv and events.csv goes through etsmc.floattext,
so each of its texts must be the one repr gives, and every k of events.csv
the one str gives.  These tests read the same on every supported Python,
and all but the pass count of the writers need no run of the simulator.
"""

import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from etsmc import floattext
from etsmc.config import build_config
from etsmc.floattext import CSV_BLOCK, INT_MAX, cells, ints, join
from etsmc.sim import MAX_STEPS, run_event_triggered, write_trajectory_csv
from etsmc.trigger import write_event_csv

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

#: the values of a trajectory block: seven columns and x1ref's one
BLOCK_VALUES = 7 * CSV_BLOCK + 1


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
           length=st.integers(1, BLOCK_VALUES + 8),
           form=st.sampled_from(sorted(COLUMN_FORMS)))
    @example(values=[-0.0, 0.0, 5e-324], length=BLOCK_VALUES + 1,
             form="memoryview")
    @example(values=PAYLOAD_NANS + [math.nan, -math.inf],
             length=BLOCK_VALUES, form="list")
    @example(values=[-0.0], length=2 * BLOCK_VALUES + 1, form="zero-stride")
    def test_matches_repr_of_each_element(self, values, length, form):
        # values repeated to length, as many as a trajectory block's pass
        # and more, and a zero-stride column is its first value broadcast
        # over that length
        values = (values * (length // len(values) + 1))[:length]
        if form == "zero-stride":
            values = values[:1] * length
        col = COLUMN_FORMS[form](values)
        want = [repr(v) for v in values]
        assert texts(col) == want

    def test_list_input_and_empty_column(self):
        assert texts([0.1, 0.1, 0.2]) == ["0.1", "0.1", "0.2"]
        assert texts([]) == []
        assert texts(np.broadcast_to(0.5, 0)) == []
        assert cells([[], []]).shape == (0, 2, 4)

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

    def test_cli_import_loads_no_kernel(self):
        # the kernel's tables cost a few ms at its import, which the
        # bench's set-up and an in-memory sweep would pay for nothing
        code = ("import sys, etsmc.cli; print('etsmc.floattext' in "
                "sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True).stdout
        assert out == "False\n"


class TestWriterPasses:
    """Each CSV block takes one pass of the kernel: a pass has a fixed
    cost of about 0.2 ms, whatever its size."""

    @pytest.fixture
    def passes(self, monkeypatch):
        """The sizes of the kernel's passes, in order."""
        sizes = []
        texts_of = floattext._texts

        def counted(x):
            sizes.append(len(x))
            return texts_of(x)
        monkeypatch.setattr(floattext, "_texts", counted)
        return sizes

    def write(self, cfg, tmp_path, passes):
        """The passes of each writer on the run of cfg, and the run's
        rows and events."""
        traj, log, _ = run_event_triggered(cfg)
        write_trajectory_csv(traj, tmp_path / "trajectory.csv")
        rows = len(passes)
        write_event_csv(log, tmp_path / "events.csv")
        return (rows, len(passes) - rows), (len(traj.t), len(log.instants))

    def test_dense_run(self, tmp_path, passes):
        # an event at every row, the last block one row long
        cfg = build_config({"t_end": 2 * CSV_BLOCK * 1e-3})
        counts, lengths = self.write(cfg, tmp_path, passes)
        assert lengths == (2 * CSV_BLOCK + 1,) * 2
        assert counts == (3, 3)
        # a full block: x1ref's zero-stride column and, but in the last
        # block, T_k's are formatted once
        assert passes[0] == BLOCK_VALUES
        assert passes[3] == 3 * CSV_BLOCK + 2

    def test_sparse_run(self, tmp_path, passes):
        cfg = build_config({"t_end": 10.0, "mu": 0.5, "m1": 2.0})
        counts, (rows, events) = self.write(cfg, tmp_path, passes)
        assert CSV_BLOCK < events < rows
        assert counts == (-(-rows // CSV_BLOCK), -(-events // CSV_BLOCK))


def spelled(k) -> list[str]:
    """ints' text of each integer of k, over words that held other bytes."""
    words = np.full((len(k), 4), 0x4141_4141_4141_4141, dtype=np.uint64)
    ints(np.asarray(k, dtype=np.int64), words)
    return join(words, b"\n").decode("ascii").split("\n")[:-1]


class TestInts:
    def test_digit_count_edges(self):
        # each side of every change in the count of digits, up to the
        # largest k a run can log and the largest ints spells
        edges = [0, *(10 ** e + d for e in range(1, 8) for d in (-1, 0)),
                 MAX_STEPS - 1, MAX_STEPS, INT_MAX]
        assert spelled(edges) == [str(k) for k in edges]

    def test_seeded_random(self):
        k = np.random.default_rng(39).integers(0, INT_MAX, 100_000,
                                               endpoint=True)
        assert spelled(k) == [str(v) for v in k.tolist()]

    @pytest.mark.parametrize("k", [[0, INT_MAX + 1], [-1, 5]],
                             ids=["above", "negative"])
    def test_rejects_k_outside_its_range(self, k):
        # refused before words is written
        words = np.zeros((2, 4), dtype=np.uint64)
        with pytest.raises(ValueError, match=f"not {min(k)} to {max(k)}"):
            ints(np.array(k), words)
        assert not words.any()
