"""Shared fixtures: each full-horizon closed-loop run executes once per
session, and run_cli is the one in-process CLI runner."""

import inspect
import io
import json
import re
import time
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import pytest

from etsmc import sim
from etsmc.cli import ARTIFACTS, main
from etsmc.config import build_config
from etsmc.controller import switching_law
from etsmc.sim import (resolve_regulation, run_event_triggered,
                       run_time_triggered)


@pytest.fixture(scope="session")
def traced_peak():
    """traced_peak(fn, *args, warm=None) -> (fn(*args), kept, peak).

    kept and peak are the bytes tracemalloc counts during the one call:
    still allocated when it returns (its result included) and at most.
    A warm tuple of arguments runs fn on them first, untraced, so that
    one-time allocations such as caches stay out of the count.
    """
    def traced(fn, *args, warm=None):
        if warm is not None:
            fn(*warm)
        tracemalloc.start()
        try:
            result = fn(*args)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, kept, peak
    return traced


@pytest.fixture(scope="session")
def default_cfg():
    return build_config({})


@pytest.fixture(scope="session")
def nominal_run(default_cfg):
    """(traj, log, metrics, elapsed_seconds) for the default startup case."""
    t0 = time.perf_counter()
    traj, log, metrics = run_event_triggered(default_cfg)
    elapsed = time.perf_counter() - t0
    return traj, log, metrics, elapsed


@pytest.fixture(scope="session")
def disturbed_run(default_cfg):
    cfg = replace(default_cfg, scenario="disturbed")
    return run_event_triggered(cfg)


@pytest.fixture(scope="session")
def nominal_tt(default_cfg):
    return run_time_triggered(default_cfg)


@pytest.fixture(scope="session")
def disturbed_tt(default_cfg):
    cfg = replace(default_cfg, scenario="disturbed")
    return run_time_triggered(cfg)


@pytest.fixture(scope="session")
def regulate_runs(default_cfg):
    """Setpoint runs keyed by coolant-feed setpoint in kelvin."""
    out = {}
    for setpoint in (300.0, 400.0, 500.0):
        cfg = replace(default_cfg, scenario="regulate",
                      setpoint_kelvin=setpoint)
        cfg = resolve_regulation(cfg)
        out[setpoint] = (cfg,) + run_event_triggered(cfg)
    return out


@pytest.fixture(scope="session")
def run_flipped():
    """run_event_triggered with the loop's control law negated.

    The run takes a copy of the config, so that a dense flipped run, kept
    as a baseline for the config it ran, is never served for the caller's.
    """
    def run(cfg):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sim, "switching_law",
                       lambda *args: -switching_law(*args))
            return run_event_triggered(replace(cfg))
    return run


@pytest.fixture(scope="session")
def flipped_run(default_cfg, run_flipped):
    """Falsification control: actuation sign deliberately inverted."""
    return run_flipped(default_cfg)


#: Every invariant name check_invariants can report.
INVARIANTS = frozenset(re.findall(r'bad\.append\("([a-z0-9-]+)"\)',
                                  inspect.getsource(sim.check_invariants)))


@pytest.fixture(scope="session")
def invariants():
    return INVARIANTS


@pytest.fixture(scope="session")
def run_cli():
    """run_cli(where, scenario, config, argv, *, out="runs", loop=True)
    -> (rc, stdout, stderr, run directory).

    Runs cli.main in the directory where, made if missing, on the
    scenario, with the space-separated argv and ``--out out``; a config
    text (str or bytes; None for none) is written to where/run.cfg and
    passed as --config.  loop=False fails the run if it enters the closed
    loop.  Whatever code comes back, checks the exit-code contract for it:
    - every code is 0, 1 or 2, with no traceback; the one warning a run
      may record is the loop's "exceeds feed conversion", on 0 or 1;
    - 2: no stdout, no warning, one ``error:`` line and no run directory;
    - 1: the ``wrote`` line, and one ``invariant check failed:`` line whose
      names are in INVARIANTS and are those of manifest.json;
    - 0: the ``wrote`` line, then ``all run invariants passed``, and
      neither line of 1 or 2 on stderr;
    - 0 and 1: metrics.json and manifest.json hold no NaN or Infinity.
    A plain function, and a session fixture, so that a Hypothesis example
    can call it too; ``from conftest import`` may find the conftest.py of
    bench/tests instead.
    """
    def run(where, scenario, config, argv, *, out="runs", loop=True):
        where = Path(where)
        where.mkdir(parents=True, exist_ok=True)
        run_dir = where / out / scenario
        out_existed = (where / out).exists()
        stdout, stderr = io.StringIO(), io.StringIO()
        with pytest.MonkeyPatch.context() as mp, \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            mp.chdir(where)
            if not loop:
                mp.setattr(sim, "_run_loop", lambda *args, **kwargs:
                           pytest.fail("the closed loop ran"))
            if config is not None:
                data = config if isinstance(config, bytes) else config.encode()
                Path("run.cfg").write_bytes(data + b"\n")
                argv = f"--config run.cfg {argv}"
            with redirect_stdout(stdout), redirect_stderr(stderr):
                rc = main(["--scenario", scenario, *argv.split(),
                           "--out", out])
        out_text, err = stdout.getvalue(), stderr.getvalue()
        lines = err.splitlines()
        assert rc in (0, 1, 2), (rc, lines)
        assert "Traceback" not in err, err
        assert all(w.category is RuntimeWarning
                   and "exceeds feed conversion" in str(w.message)
                   for w in caught), [str(w.message) for w in caught]
        if rc == 2:
            assert (out_text, caught) == ("", []), (out_text, caught)
            assert err.startswith("error: ") and err.endswith("\n"), err
            assert err.count("\n") == 1, err
            assert not run_dir.exists()
            assert (where / out).exists() == out_existed
            return rc, out_text, err, run_dir
        wrote = f"wrote {len(ARTIFACTS)} artifacts to {Path(out) / scenario}\n"
        prefix = "invariant check failed: "
        if rc == 1:
            assert out_text == wrote, out_text
            assert len(lines) == 1 and lines[0].startswith(prefix), lines
            names = lines[0][len(prefix):].split(", ")
            assert set(names) <= INVARIANTS, names
        else:
            assert out_text == wrote + "all run invariants passed\n", out_text
            assert not any(ln.startswith(("error: ", prefix))
                           for ln in lines), lines
            names = []
        # a NaN or Infinity constant fails the run
        _, manifest = (json.loads((run_dir / name).read_text(),
                                 parse_constant=pytest.fail)
                      for name in ("metrics.json", "manifest.json"))
        assert manifest["invariant_violations"] == names
        return rc, out_text, err, run_dir
    return run
