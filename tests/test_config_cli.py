import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from etsmc import cli, plant, sim, trigger
from etsmc.cli import SCENARIOS, build_parser, main, run_scenario
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


class TestCliRuns:
    def test_short_nominal_run_exits_clean(self, tmp_path, capsys):
        rc = main(["--scenario", "nominal", "--duration", "1.0",
                   "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "all run invariants passed" in out
        run_dir = tmp_path / "nominal"
        for name in ARTIFACTS:
            assert (run_dir / name).exists(), name

    def test_manifest_hashes_only_the_run_artifacts(self, tmp_path, capsys):
        run_dir = tmp_path / "nominal"
        (run_dir / "sub").mkdir(parents=True)
        (run_dir / "notes.txt").write_text("not an artifact\n")
        assert main(["--duration", "1.0", "--out", str(tmp_path)]) == 0
        assert "wrote 7 artifacts" in capsys.readouterr().out
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert set(manifest["files"]) == set(ARTIFACTS) - {"manifest.json"}

    def test_run_directory_does_not_depend_on_out(self, tmp_path,
                                                  monkeypatch):
        # one config into a relative and an absolute --out: every file,
        # manifest.json included, is the same bytes
        monkeypatch.chdir(tmp_path)
        dirs = []
        for out in ("runs", str(tmp_path / "elsewhere" / "runs")):
            assert main(["--duration", "0.5", "--out", out]) == 0
            dirs.append(tmp_path / out / "nominal")
        files = [{p.name: p.read_bytes() for p in d.iterdir()} for d in dirs]
        assert sorted(files[0]) == sorted(ARTIFACTS)
        assert files[0] == files[1]

    @pytest.mark.parametrize("scenario,line", [
        ("nominal", "x0_2 = -0.0"), ("disturbed", ""), ("regulate-300", ""),
        ("regulate-400", "tf0_kelvin = 350"), ("regulate-500", ""),
        ("baseline-comparison", ""),
    ])
    def test_manifest_config_reruns_its_run(self, tmp_path, scenario, line):
        # a manifest's config, written back as a config file, gives the
        # same run: every file, manifest.json included, is the same bytes
        def run(name, text):
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(text)
            assert main(["--scenario", scenario, "--config", str(cfg),
                         "--duration", "0.5",
                         "--out", str(tmp_path / name)]) == 0
            return {p.name: p.read_bytes()
                    for p in (tmp_path / name / scenario).iterdir()}
        first = run("first", line + "\n")
        config = json.loads(first["manifest.json"])["config"]
        again = run("again", "".join(f"{key} = {value!r}\n"
                                     for key, value in config.items()))
        assert sorted(first) == sorted(ARTIFACTS)
        assert first == again

    def test_full_horizon_reports_invariant_failure(self, tmp_path, capsys):
        rc = main(["--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "invariant check failed" in err
        assert "lyapunov-decrease-outside-band" in err
        manifest = json.loads(
            (tmp_path / "nominal" / "manifest.json").read_text())
        assert "lyapunov-decrease-outside-band" in manifest[
            "invariant_violations"]

    def test_run_scenario_rejects_a_key_the_scenario_does_not_read(
            self, tmp_path):
        # a library caller gets the rule a config file gets
        cfg = build_config({"d1_amp": 0.1})
        with pytest.raises(ConfigError, match="^d1_amp applies only to "
                           "disturbed, not to nominal$"):
            run_scenario("nominal", cfg, tmp_path / "runs")
        assert not (tmp_path / "runs").exists()

    # a key that the scenario name sets or does not read exits 2 before
    # the scenario runs, checked by the exit_2 fixture as the rows of
    # test_exit_contract.EXIT_2 are
    @pytest.mark.parametrize("scenario,key", [
        *((scenario, key) for scenario in ("nominal", "baseline-comparison")
          for key in ("d1_amp", "d1_freq", "d2_amp", "d2_freq")),
        *((f"regulate-{kelvin}", key) for kelvin in (300, 400, 500)
          for key in ("x1ref", "x2ss", "d1_amp", "d1_freq", "d2_amp",
                      "d2_freq"))])
    def test_key_the_scenario_does_not_read_exits_2(self, scenario, key,
                                                    exit_2):
        exit_2(scenario, f"{key} = 0.5", "--duration 0.02",
               f"{key} applies only to", True)

    @pytest.mark.parametrize("scenario", ["nominal", "disturbed",
                                          "baseline-comparison"])
    @pytest.mark.parametrize("key", ["tf0_kelvin", "setpoint_kelvin"])
    def test_regulate_key_in_config_outside_regulate_exits_2(
            self, key, scenario, exit_2):
        exit_2(scenario, f"{key} = 350", "--duration 0.02",
               f"{key} applies only to", True)

    @pytest.mark.parametrize("scenario,config,kelvin", [
        ("regulate-400", "setpoint_kelvin = 350", 350),
        # the setpoint is named ahead of an unread key, as when a
        # regulate-400 manifest's config is run as regulate-300
        ("regulate-300", "setpoint_kelvin = 400\nx1ref = 0.5", 400),
    ], ids=["regulate-400", "and-x1ref-regulate-300"])
    def test_setpoint_kelvin_in_config_on_regulate_exits_2(
            self, scenario, config, kelvin, exit_2):
        exit_2(scenario, config, "--duration 0.02",
               f"setpoint_kelvin = {kelvin}.0 conflicts with the scenario "
               f"{scenario}", True)

    @pytest.mark.parametrize("kelvin", ["0", "-300"])
    def test_nonpositive_feed_temperature_exits_2(self, kelvin, exit_2):
        exit_2("regulate-400", f"tf0_kelvin = {kelvin}", "--duration 0.02",
               "error: tf0_kelvin must be positive and finite\n", True)

    def test_unknown_scenario_lists_the_scenarios(self, tmp_path):
        with pytest.raises(ConfigError) as exc:
            run_scenario("regulate-450", build_config({}), tmp_path / "runs")
        assert str(exc.value) == (
            "unknown scenario 'regulate-450'; expected one of nominal, "
            "disturbed, regulate-300, regulate-400, regulate-500, "
            "baseline-comparison")
        assert not (tmp_path / "runs").exists()

    def test_one_event_run_plots_the_instant_alone(self, tmp_path):
        # a tolerance this wide fires only at t = 0: no inter-event gap
        cfg = tmp_path / "one.cfg"
        cfg.write_text("m1 = 1000000\n")
        assert main(["--config", str(cfg), "--duration", "0.1",
                     "--out", str(tmp_path)]) == 0
        run_dir = tmp_path / "nominal"
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
        ("regulate-400", "tf0_kelvin = 350"),
        ("nominal", "x1ref = 0.5"), ("nominal", "x2ss = 0.5"),
        ("baseline-comparison", "x1ref = 0.5"),
        ("disturbed", "d1_amp = 0.5"), ("disturbed", "d1_freq = 0.5"),
        ("disturbed", "d2_amp = 0.5"), ("disturbed", "d2_freq = 0.5"),
    ])
    def test_key_the_scenario_reads_changes_an_artifact(
            self, tmp_path, scenario, line):
        cfg = tmp_path / "read.cfg"
        cfg.write_text(line + "\n")
        for out, extra in (("default", []), ("set", ["--config", str(cfg)])):
            assert main(["--scenario", scenario, *extra, "--duration",
                         "0.02", "--out", str(tmp_path / out)]) in (0, 1)
        changed = [p.name for p in sorted((tmp_path / "set" / scenario)
                                          .iterdir())
                   if p.name != "manifest.json" and p.read_bytes() !=
                   (tmp_path / "default" / scenario / p.name).read_bytes()]
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

    def test_nonfinite_metric_is_written_as_json_text(self, tmp_path):
        # sigma cancels to 0 while x2 - x2ref overflows when squared
        cfg = tmp_path / "overflow.cfg"
        cfg.write_text("x1ref = -1e300\nlambda1 = 2\nx2ss = 1e300\nk1 = 0\n")
        assert main(["--config", str(cfg), "--duration", "0.02",
                     "--out", str(tmp_path)]) == 0

        def strict(name):
            raise ValueError(f"not JSON: {name}")
        run_dir = tmp_path / "nominal"
        metrics = json.loads((run_dir / "metrics.json").read_text(),
                             parse_constant=strict)
        json.loads((run_dir / "manifest.json").read_text(),
                   parse_constant=strict)
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


def test_main_parses_the_config_through_parse_config(tmp_path, monkeypatch):
    """The benchmark's config.parse span wraps this call."""
    calls = []

    def recorder(*args, **kwargs):
        calls.append(args)
        return parse_config(*args, **kwargs)
    _patch_everywhere(monkeypatch, parse_config, recorder)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mu = 25\n")
    assert main(["--config", str(cfg), "--duration", "0.02",
                 "--out", str(tmp_path)]) == 0
    assert calls == [(cfg,)]


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
