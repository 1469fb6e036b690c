"""Shared fixtures: each full-horizon closed-loop run executes once per session."""

import time
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

from etsmc import sim
from etsmc.cli import main
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


@pytest.fixture
def exit_2(tmp_path, monkeypatch, capsys):
    """exit_2(scenario, config, argv, text, before_loop) runs cli.main in
    tmp_path on the scenario, with argv and the config text (str or bytes;
    None for no --config), and checks the exit-2 contract: exit code 2, no
    stdout, no warning, one ``error:`` line holding text and no run
    directory.  A before_loop run must fail ahead of the closed loop."""
    def run(scenario, config, argv, text, before_loop):
        monkeypatch.chdir(tmp_path)
        if before_loop:
            monkeypatch.setattr(sim, "_run_loop", lambda *args, **kwargs:
                                pytest.fail("the closed loop ran"))
        if config is not None:
            data = config if isinstance(config, bytes) else config.encode()
            Path("run.cfg").write_bytes(data + b"\n")
            argv = f"--config run.cfg {argv}"
        # a warning would have printed ahead of the error line
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["--scenario", scenario, *argv.split(), "--out", "runs"])
        out, err = capsys.readouterr()
        assert (rc, out, caught) == (2, "", [])
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.endswith("\n"), err
        assert err.count("\n") == 1, err
        assert text in err
        assert not Path("runs").exists()
    return run
