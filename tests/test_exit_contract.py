"""The CLI exit-code contract as a property over extreme config values.

0 is success, 1 is a named run invariant violated and nothing else, 2 is a
config, plant or IO error reported on an ``error:`` line.  No exception may
escape ``cli.main``.
"""

import inspect
import io
import json
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from etsmc import sim
from etsmc.cli import SCENARIO_NAMES, main
from etsmc.config import KEYS

#: Every invariant name check_invariants can report.
INVARIANTS = frozenset(re.findall(r'bad\.append\("([a-z0-9-]+)"\)',
                                  inspect.getsource(sim.check_invariants)))

#: h and t_end are left out, so --duration 0.02 holds every run to 20 steps.
CONTRACT_KEYS = sorted(set(KEYS) - {"h", "t_end"})

EXTREMES = st.one_of(
    st.sampled_from([0.0, 5e-324, -5e-324, 1e300, -1e300, 1e308, -1e308,
                     float("nan"), float("inf"), float("-inf")]),
    st.integers(min_value=-3, max_value=3),
)


@st.composite
def config_texts(draw):
    keys = draw(st.lists(st.sampled_from(CONTRACT_KEYS), min_size=1,
                         max_size=4, unique=True))
    return "".join(f"{key} = {draw(EXTREMES)!r}\n" for key in keys)


def test_invariant_names_are_found():
    assert "lyapunov-decrease-outside-band" in INVARIANTS


def _strict(name):
    raise ValueError(f"{name} is not JSON")


# each example reaches a numpy floating-point warning site, which the
# test suite turns into an error: sigma and V, the x2 reference, the gain
# norms and the squared tracking error
@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(scenario=st.sampled_from(SCENARIO_NAMES), text=config_texts())
@example(scenario="nominal", text="x1ref = -1e308\nx0_2 = 3\n")
@example(scenario="nominal", text="k1 = 1e308\n")
@example(scenario="nominal", text="beta = 1e300\n")
@example(scenario="baseline-comparison",
         text="x1ref = -1e300\nlambda1 = 2\nx2ss = 1e300\nk1 = 0\n")
def test_exit_code_contract(scenario, text):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/extreme.cfg"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        # an exception escaping main fails the example with its traceback
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(["--scenario", scenario, "--config", path,
                       "--duration", "0.02", "--out", f"{tmp}/runs"])
        if rc in (0, 1):
            for name in ("metrics.json", "manifest.json"):
                data = (Path(tmp) / "runs" / scenario / name).read_text()
                json.loads(data, parse_constant=_strict)
    # stderr may also hold warnings when pytest does not capture them
    lines = err.getvalue().splitlines()
    errors = [ln for ln in lines if ln.startswith("error: ")]
    prefix = "invariant check failed: "
    failed = [ln[len(prefix):].split(", ") for ln in lines
              if ln.startswith(prefix)]
    assert "Traceback" not in err.getvalue()
    assert rc in (0, 1, 2)
    assert len(errors) == (rc == 2), lines
    assert len(failed) == (rc == 1), lines
    if failed:
        assert set(failed[0]) <= INVARIANTS, failed


#: --duration and h extremes (None: not set).  No pair of them makes a run
#: that fits under sim.MAX_STEPS, so each is rejected with the config,
#: before any array is allocated.
DURATIONS = [float("nan"), float("inf"), float("-inf"), 0.0, -0.0, 5e-324,
             -5e-324, 1e308, -1e308, None]
STEPS = [float("nan"), float("inf"), float("-inf"), 0.0, -1.0, 5e-324,
         1e300, 1e308, None]
HORIZON_ERRORS = ("value for 'h' must be finite",
                  "h must be positive and finite",
                  "t_end must be finite and at least 10*h",
                  f"exceeds the ceiling of {sim.MAX_STEPS}")


def _no_loop(*args):
    raise AssertionError("the closed loop ran")


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(duration=st.sampled_from(DURATIONS), h=st.sampled_from(STEPS))
def test_duration_and_step_extremes_exit_2(duration, h):
    assume(duration is not None or h is not None)
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            pytest.MonkeyPatch.context() as mp:
        # a draw that got past the config would run here, and fail
        mp.setattr(sim, "_run_loop", _no_loop)
        path = f"{tmp}/horizon.cfg"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("" if h is None else f"h = {h!r}\n")
        argv = ["--config", path, "--out", f"{tmp}/runs"]
        if duration is not None:
            # the = form, since argparse reads a bare "-inf" as an option
            argv.append(f"--duration={duration!r}")
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(argv)
        assert not Path(tmp, "runs").exists()
    lines = err.getvalue().splitlines()
    assert "Traceback" not in err.getvalue()
    assert rc == 2, lines
    errors = [ln for ln in lines if ln.startswith("error: ")]
    assert len(errors) == 1, lines
    assert any(text in errors[0] for text in HORIZON_ERRORS), errors
