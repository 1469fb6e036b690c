import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from etsmc import cli, plant, sim, trigger
from etsmc.cli import SCENARIOS, build_parser, run_scenario
from etsmc.config import (KEYS, UNREAD_KEYS, ConfigError, build_config,
                          config_values, parse_config)
from etsmc.controller import SlidingParams
from test_golden import GOLDEN


class TestParsing:
    def write(self, tmp_path, text):
        path = tmp_path / "run.cfg"
        path.write_text(text)
        return path

    def test_defaults_and_overrides(self, tmp_path):
        path = self.write(tmp_path, "# comment only\nmu = 12.5\n\nh=2e-3\n")
        cfg = parse_config(path)
        assert cfg.sliding.mu == 12.5
        assert cfg.h == 2e-3
        assert cfg.plant.da == 0.078  # untouched default

    def test_unknown_key(self, tmp_path):
        path = self.write(tmp_path, "mu = 1\nwarpfactor = 9\n")
        with pytest.raises(ConfigError, match="line 2.*warpfactor"):
            parse_config(path)

    def test_duplicate_key(self, tmp_path):
        path = self.write(tmp_path, "mu = 1\nmu = 2\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(path)

    def test_malformed_line(self, tmp_path):
        path = self.write(tmp_path, "just words\n")
        with pytest.raises(ConfigError, match="line 1"):
            parse_config(path)

    def test_non_decimal_value(self, tmp_path):
        path = self.write(tmp_path, "mu = high\n")
        with pytest.raises(ConfigError, match="decimal"):
            parse_config(path)

    def test_invalid_value_propagates_as_config_error(self, tmp_path):
        path = self.write(tmp_path, "psi = 2.0\n")
        with pytest.raises(ConfigError, match="psi"):
            parse_config(path)

    @pytest.mark.parametrize("data", [b"mu = 1\rh = 2e-3\r",
                                      b"mu = 1\r\nh = 2e-3\r\n"],
                             ids=["cr", "crlf"])
    def test_cr_and_crlf_line_ends(self, tmp_path, data):
        path = tmp_path / "run.cfg"
        path.write_bytes(data)
        cfg = parse_config(path)
        assert (cfg.sliding.mu, cfg.h) == (1.0, 2e-3)


class TestBuildConfig:
    def test_documented_defaults(self):
        cfg = build_config({})
        assert cfg.plant.da == 0.078
        assert cfg.plant.gamma == 20.0
        assert cfg.plant.b_rise == 8.0
        assert cfg.plant.beta == 0.3
        assert cfg.sliding.lambda1 == 1.0
        assert cfg.sliding.lambda2 == 2.0
        assert cfg.sliding.mu == 25.0
        assert cfg.trigger.zeta == 0.8
        assert cfg.trigger.psi == 0.5
        assert cfg.trigger.m2 == 0.2025
        assert cfg.trigger.trigger_both == 0.0
        assert cfg.reference.x1_const == 0.4472
        assert cfg.reference.x2ss == 2.6516
        assert cfg.h == 1e-3
        assert cfg.t_end == 50.0
        assert (cfg.x0.x1, cfg.x0.x2) == (0.0, 0.0)

    def test_trigger_both_switch(self):
        assert build_config({"trigger_both": 1.0}).trigger.trigger_both == 1.0

    def test_physical_block_all_or_nothing(self):
        # the physical parameters select nothing in a run, so no part of
        # the block is accepted: a lone key is an unknown key
        with pytest.raises(ConfigError, match="unknown key 'k0'"):
            build_config({"k0": 3.784e7})
        assert not hasattr(build_config({}), "physical")

    def test_emit_roundtrip(self, tmp_path):
        # the resolved values, written back as a config file, parse to an
        # equal config
        cfg = build_config({"mu": 30.0, "setpoint_kelvin": 410.0})
        path = tmp_path / "echo.cfg"
        path.write_text("".join(f"{k} = {v!r}\n"
                                for k, v in config_values(cfg).items()))
        again = parse_config(path)
        assert again == cfg
        assert config_values(again) == config_values(cfg)

    def test_records_raise_the_config_error_where_they_check(self):
        # one class for a file and a library caller, raised where the
        # value is checked and not re-raised from another type
        assert ConfigError is plant.ConfigError
        with pytest.raises(ConfigError,
                           match="^mu must be positive and finite$") as exc:
            build_config({"mu": 0.0})
        assert exc.value.__cause__ is None and exc.value.__context__ is None
        # the dataclass API takes no nonfinite value that a file cannot hold
        with pytest.raises(ConfigError,
                           match="^mu must be positive and finite$"):
            SlidingParams(1.0, 2.0, math.inf)

    def test_every_default_key_roundtrips(self):
        vals = config_values(build_config({}))
        defaults = {k: d for k, (_, _, d) in KEYS.items() if d is not None}
        assert vals == defaults


class TestCliParser:
    def test_scenario_choices(self):
        parser = build_parser()
        args = parser.parse_args(["--scenario", "regulate-400"])
        assert args.scenario == "regulate-400"
        with pytest.raises(SystemExit):
            parser.parse_args(["--scenario", "bogus"])

    def test_scenario_kinds_are_the_config_kinds(self):
        kinds = {kind for kind, _ in SCENARIOS.values()}
        assert kinds == set(sim.SCENARIOS) == set(UNREAD_KEYS)

    def test_option_set(self):
        options = {opt for action in build_parser()._actions
                   for opt in action.option_strings}
        assert options - {"-h", "--help"} == {"--scenario", "--config",
                                              "--out", "--duration"}


ARTIFACTS = ("trajectory.csv", "events.csv", "metrics.txt", "metrics.json",
             "composition.svg", "temperature.svg", "events.svg",
             "manifest.json")

#: (scenario name, key) for each key that the name does not read, and for
#: each key that some name does not read, on each name that reads it
UNREAD = [(name, key) for name, (kind, _) in SCENARIOS.items()
          for key in UNREAD_KEYS[kind]]
READ = [(name, key) for key in dict.fromkeys(k for _, k in UNREAD)
        for name, (kind, _) in SCENARIOS.items()
        if key not in UNREAD_KEYS[kind]]


def off_default(key):
    """A value off the key's default, in range wherever it is read."""
    return 350 if key.endswith("_kelvin") else 0.5


class TestCliRuns:
    def test_manifest_hashes_only_the_run_artifacts(self, tmp_path, run_cli):
        run_dir = tmp_path / "runs" / "nominal"
        (run_dir / "sub").mkdir(parents=True)
        (run_dir / "notes.txt").write_text("not an artifact\n")
        # the runner checks the "wrote 7 artifacts" line
        assert run_cli(tmp_path, "nominal", None, "--duration 1.0")[0] == 0
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert set(manifest["files"]) == set(ARTIFACTS) - {"manifest.json"}

    def test_run_directory_does_not_depend_on_out(self, tmp_path, run_cli):
        # one config into a relative and an absolute --out: every file,
        # manifest.json included, is the same bytes
        dirs = []
        for out in ("runs", str(tmp_path / "elsewhere" / "runs")):
            rc, _, _, run_dir = run_cli(tmp_path, "nominal", None,
                                        "--duration 0.5", out=out)
            assert rc == 0
            dirs.append(run_dir)
        files = [{p.name: p.read_bytes() for p in d.iterdir()} for d in dirs]
        assert sorted(files[0]) == sorted(ARTIFACTS)
        assert files[0] == files[1]

    @pytest.mark.parametrize("scenario,line", [
        ("nominal", "x0_2 = -0.0"), ("disturbed", ""), ("regulate-300", ""),
        ("regulate-400", "tf0_kelvin = 350"), ("regulate-500", ""),
        ("baseline-comparison", ""),
        # an unread key at its default is taken, and left out
        ("nominal", "d1_amp = 0.026"),
    ])
    def test_manifest_config_reruns_its_run(self, tmp_path, scenario, line,
                                            run_cli):
        # a manifest's config holds exactly the keys the run read and,
        # written back as a config file, gives the same run: every file,
        # manifest.json included, is the same bytes
        def run(name, text):
            rc, _, _, run_dir = run_cli(tmp_path / name, scenario, text,
                                        "--duration 0.5")
            assert rc == 0
            return {p.name: p.read_bytes() for p in run_dir.iterdir()}
        first = run("first", line)
        config = json.loads(first["manifest.json"])["config"]
        unread = UNREAD_KEYS[SCENARIOS[scenario][0]]
        assert set(config) == set(KEYS) - set(unread)
        again = run("again", "".join(f"{key} = {value!r}\n"
                                     for key, value in config.items()))
        assert sorted(first) == sorted(ARTIFACTS)
        assert first == again

    def test_full_horizon_reports_invariant_failure(self, tmp_path, run_cli):
        # the runner checks that manifest.json names the same invariants
        rc, _, err, _ = run_cli(tmp_path, "nominal", None, "")
        assert rc == 1
        assert "invariant check failed" in err
        assert "lyapunov-decrease-outside-band" in err

    def test_run_scenario_rejects_a_key_the_scenario_does_not_read(
            self, tmp_path):
        # a library caller gets the rule a config file gets
        cfg = build_config({"d1_amp": 0.1})
        with pytest.raises(ConfigError, match="^the scenario nominal does "
                           "not read d1_amp$"):
            run_scenario("nominal", cfg, tmp_path / "runs")
        assert not (tmp_path / "runs").exists()

    # a key that the scenario name does not read exits 2 before the
    # scenario runs, checked as the rows of test_exit_contract.EXIT_2 are;
    # a regulate-NNN name's own setpoint counts, since the name sets it
    @pytest.mark.parametrize("scenario,key", UNREAD)
    def test_key_the_scenario_does_not_read_exits_2(self, scenario, key,
                                                    tmp_path, run_cli):
        setpoint = SCENARIOS[scenario][1]
        value = (setpoint if key == "setpoint_kelvin" and setpoint
                 else off_default(key))
        rc, _, err, _ = run_cli(tmp_path, scenario, f"{key} = {value}",
                                "--duration 0.02", loop=False)
        assert (rc, err) == (
            2, f"error: the scenario {scenario} does not read {key}\n")

    @pytest.mark.parametrize("kelvin", ["0", "-300"])
    def test_nonpositive_feed_temperature_exits_2(self, kelvin, tmp_path,
                                                  run_cli):
        rc, _, err, _ = run_cli(tmp_path, "regulate-400",
                                f"tf0_kelvin = {kelvin}", "--duration 0.02",
                                loop=False)
        assert (rc, err) == (
            2, "error: tf0_kelvin must be positive and finite\n")

    def test_feed_conversion_excursion_warns_from_the_cli_alone(
            self, tmp_path):
        # x1 passes 1 + X1_PHYSICAL_TOL at the first step: the run
        # functions warn of nothing (a copy of the config makes the
        # baseline run its own loop), and run_scenario warns once, naming
        # its caller (stacklevel)
        cfg = replace(build_config({}), x0=plant.DimlessState(1.2, 0.0),
                      t_end=0.1)
        for run, arg in ((sim.run_event_triggered, cfg),
                         (sim.run_time_triggered, replace(cfg))):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                run(arg)
            assert caught == [], run
        for name in ("nominal", "baseline-comparison"):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                run_scenario(name, cfg, tmp_path)
            assert [(str(w.message), w.category, w.filename)
                    for w in caught] == [
                ("x1=1.1988 exceeds feed conversion at t=0.0010",
                 RuntimeWarning, __file__)], name

    def test_unknown_scenario_lists_the_scenarios(self, tmp_path):
        with pytest.raises(ConfigError) as exc:
            run_scenario("regulate-450", build_config({}), tmp_path / "runs")
        assert str(exc.value) == (
            "unknown scenario 'regulate-450'; expected one of nominal, "
            "disturbed, regulate-300, regulate-400, regulate-500, "
            "baseline-comparison")
        assert not (tmp_path / "runs").exists()

    def test_one_event_run_plots_the_instant_alone(self, tmp_path, run_cli):
        # a tolerance this wide fires only at t = 0: no inter-event gap
        rc, _, _, run_dir = run_cli(tmp_path, "nominal", "m1 = 1000000",
                                    "--duration 0.1")
        assert rc == 0
        rows = (run_dir / "events.csv").read_text().splitlines()[1:]
        assert len(rows) == 1 and rows[0].split(",")[2] == "nan"
        svg = (run_dir / "events.svg").read_text()
        assert ">Sampling instants (nominal)</text>" in svg
        assert svg.count("<line") == 3  # two axes and one stem
        metrics = json.loads((run_dir / "metrics.json").read_text())
        assert metrics["event_count"] == 1
        assert [metrics[k] for k in ("min_gap", "mean_gap", "max_gap")] == [
            None, None, None]

    @pytest.mark.parametrize("scenario,line", [
        (scenario, f"{key} = {off_default(key)}") for scenario, key in READ])
    def test_key_the_scenario_reads_changes_an_artifact(
            self, tmp_path, scenario, line, run_cli):
        dirs = []
        for out, config in (("default", None), ("set", line)):
            rc, _, _, run_dir = run_cli(tmp_path, scenario, config,
                                        "--duration 0.02", out=out)
            assert rc in (0, 1)
            dirs.append(run_dir)
        changed = [p.name for p in sorted(dirs[1].iterdir())
                   if p.name != "manifest.json"
                   and p.read_bytes() != (dirs[0] / p.name).read_bytes()]
        assert changed

    def test_import_loads_no_third_party_module_but_numpy(self):
        # against the modules loaded before the import, since a site .pth
        # file may load others at start-up
        src = Path(__file__).resolve().parents[1] / "src"
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys; before = set(sys.modules); import etsmc.cli; "
             "print(*sorted({m.partition('.')[0] for m in sys.modules} "
             "- {m.partition('.')[0] for m in before} "
             "- sys.stdlib_module_names))"],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["etsmc", "numpy"]

    def test_nonfinite_metric_is_written_as_json_text(self, tmp_path,
                                                      run_cli):
        # sigma cancels to 0 while x2 - x2ref overflows when squared; the
        # runner parses both JSON files with no NaN or Infinity constant
        rc, _, _, run_dir = run_cli(
            tmp_path, "nominal", "x1ref = -1e300\nlambda1 = 2\nx2ss = 1e300\n"
            "k1 = 0", "--duration 0.02")
        assert rc == 0
        metrics = json.loads((run_dir / "metrics.json").read_text())
        assert metrics["tracking_rmse"] == "inf"
        assert "tracking_rmse = inf" in (run_dir / "metrics.txt").read_text()


def _patch_everywhere(monkeypatch, fn, replacement):
    """Rebind fn in every loaded etsmc module, as a tracer wrapping it would."""
    for name, mod in list(sys.modules.items()):
        if name == "etsmc" or name.startswith("etsmc."):
            for key, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, key, replacement)


def test_run_scenario_calls_each_writer_once_with_its_path(tmp_path,
                                                           monkeypatch):
    """The benchmark's per-layer spans wrap these two calls and read the
    artifact size from their second positional argument."""
    calls = []
    for fn in (sim.write_trajectory_csv, trigger.write_event_csv):
        def recorder(*args, _fn=fn, **kwargs):
            calls.append((_fn.__name__, args[1:2]))
            return _fn(*args, **kwargs)
        _patch_everywhere(monkeypatch, fn, recorder)
    run_scenario("nominal", replace(build_config({}), t_end=0.05), tmp_path)
    out = tmp_path / "nominal"
    assert calls == [("write_trajectory_csv", (out / "trajectory.csv",)),
                     ("write_event_csv", (out / "events.csv",))]


def test_artifacts_need_no_lapack(tmp_path, monkeypatch):
    """No artifact byte depends on a LAPACK build: a run and its writers
    make no np.linalg call, on the default design or another."""
    def no_lapack(*args, **kwargs):
        raise AssertionError("np.linalg was called")
    monkeypatch.setattr(np.linalg, "norm", no_lapack)
    monkeypatch.setattr(np.linalg, "svd", no_lapack)
    nominal = replace(build_config({}), t_end=0.05)
    design = replace(
        nominal, plant=replace(nominal.plant, beta=0.45),
        sliding=replace(nominal.sliding, lambda1=1.3, lambda2=2.7))
    for out, cfg in (("default", nominal), ("design", design)):
        run_scenario("nominal", cfg, tmp_path / out)
        for name in cli.ARTIFACTS:
            assert (tmp_path / out / "nominal" / name).is_file(), (out, name)


def test_text_artifacts_have_lf_line_ends_on_every_platform(tmp_path,
                                                             monkeypatch):
    """Text mode writes each line end as CR LF on Windows unless newline
    is given: under a Path.write_text that does so, no artifact byte
    moves."""
    write_text = Path.write_text

    def windows(self, data, encoding=None, errors=None, newline=None):
        return write_text(self, data, encoding, errors,
                          "\r\n" if newline is None else newline)
    monkeypatch.setattr(Path, "write_text", windows)
    run_scenario("nominal", build_config({"t_end": 2.0}), tmp_path)
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in (tmp_path / "nominal").iterdir()} == GOLDEN["nominal"]


def test_main_parses_the_config_through_parse_config(tmp_path, monkeypatch,
                                                     run_cli):
    """The benchmark's config.parse span wraps this call."""
    calls = []

    def recorder(*args, **kwargs):
        calls.append(args)
        return parse_config(*args, **kwargs)
    _patch_everywhere(monkeypatch, parse_config, recorder)
    assert run_cli(tmp_path, "nominal", "mu = 25", "--duration 0.02")[0] == 0
    assert calls == [(Path("run.cfg"),)]


def test_whole_run_peak_memory_per_step(tmp_path, traced_peak):
    """A dense run's process peak sits past the loop, where the records
    are held with what each later stage holds at once.  About 207 B per
    step at 10,001 steps, reached by the events figure, which
    tests/test_plots.py bounds alone; the trajectory writer, one
    floattext.CSV_BLOCK of formatted text at a time, reaches about 178,
    the line figures 159 and the event writer 148.  240 leaves a 16%
    margin."""
    cfg = build_config({"t_end": 10.0})
    _, _, peak = traced_peak(
        run_scenario, "nominal", cfg, tmp_path / "run",
        warm=("nominal", replace(cfg, t_end=0.02), tmp_path / "warm"))
    traj, _, _ = sim.run_event_triggered(cfg)
    assert len(traj.t) == 10_001 and traj.event.all()
    assert peak / cfg.step_count() <= 240
