import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from etsmc import cli, sim, trigger
from etsmc.cli import SCENARIOS, build_parser, main, run_scenario
from etsmc.config import (KEYS, UNREAD_KEYS, ConfigError, build_config,
                          config_values, parse_config)


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


PHYSICAL_BLOCK = dict(k0=3.784e7, caf0=1.0, f0=1.0, rho=1e6, cp=1.0,
                      dh=-2.0e5, rhoc=1e6, cpc=1.0, v=1.0, fc=1.0,
                      e=49884.0, r=8.314, tf0=300.0, tc0=300.0, a=1.0, b=0.0)


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

    def test_complete_physical_block(self):
        # a complete block is rejected too, rather than silently stored
        with pytest.raises(ConfigError, match="unknown key 'k0'"):
            build_config(PHYSICAL_BLOCK)
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

    def test_scenario_name_set(self):
        assert tuple(SCENARIOS) == ("nominal", "disturbed", "regulate-300",
                                    "regulate-400", "regulate-500",
                                    "baseline-comparison")

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

    def test_manifest_digests_match_files(self, tmp_path):
        assert main(["--duration", "1.0", "--out", str(tmp_path)]) == 0
        run_dir = tmp_path / "nominal"
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["scenario"] == "nominal"
        assert manifest["invariant_violations"] == []
        assert set(manifest["files"]) == set(ARTIFACTS) - {"manifest.json"}
        for name, digest in manifest["files"].items():
            actual = hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
            assert actual == digest

    def test_manifest_hashes_only_the_run_artifacts(self, tmp_path, capsys):
        run_dir = tmp_path / "nominal"
        (run_dir / "sub").mkdir(parents=True)
        (run_dir / "notes.txt").write_text("not an artifact\n")
        assert main(["--duration", "1.0", "--out", str(tmp_path)]) == 0
        assert "wrote 7 artifacts" in capsys.readouterr().out
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert set(manifest["files"]) == set(ARTIFACTS) - {"manifest.json"}

    def test_reruns_are_bit_identical(self, tmp_path):
        cfg = build_config({"t_end": 1.0})
        m1, v1 = run_scenario("nominal", cfg, tmp_path / "a")
        m2, v2 = run_scenario("nominal", cfg, tmp_path / "b")
        assert v1 == v2 == []
        assert m1 == m2

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

    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("unknown_key = 1\n")
        rc = main(["--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_physical_block_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "physical.cfg"
        cfg.write_text("".join(f"{k} = {v!r}\n"
                               for k, v in PHYSICAL_BLOCK.items()))
        rc = main(["--config", str(cfg), "--duration", "1",
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "unknown key 'k0'" in capsys.readouterr().err
        assert not (tmp_path / "nominal").exists()

    def test_missing_config_exits_2(self, tmp_path, capsys):
        rc = main(["--config", str(tmp_path / "absent.cfg"),
                   "--out", str(tmp_path)])
        assert rc == 2

    def test_bad_step_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "step.cfg"
        cfg.write_text("h = -1\n")
        rc = main(["--config", str(cfg), "--out", str(tmp_path / "runs")])
        assert rc == 2
        assert "h must be positive" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_infinite_horizon_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "inf.cfg"
        cfg.write_text("t_end = inf\n")
        rc = main(["--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 2
        assert "finite" in capsys.readouterr().err

    def test_step_ceiling_exits_2_before_running(self, tmp_path, capsys):
        cfg = tmp_path / "long.cfg"
        cfg.write_text("t_end = 1e9\n")
        rc = main(["--config", str(cfg), "--out", str(tmp_path / "runs")])
        assert rc == 2
        assert "ceiling" in capsys.readouterr().err
        # rejected with the config, before any run directory or array exists
        assert not (tmp_path / "runs").exists()

    def test_nonfinite_plant_value_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "nan.cfg"
        cfg.write_text("x2c0 = nan\n")
        rc = main(["--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 2
        assert "x2c0" in capsys.readouterr().err

    @pytest.mark.parametrize("scenario", ["nominal", "disturbed",
                                          "baseline-comparison"])
    @pytest.mark.parametrize("key", ["tf0_kelvin", "setpoint_kelvin"])
    def test_regulate_key_in_config_outside_regulate_exits_2(
            self, tmp_path, capsys, scenario, key):
        cfg = tmp_path / "regulate.cfg"
        cfg.write_text(f"{key} = 350\n")
        rc = main(["--scenario", scenario, "--config", str(cfg),
                   "--duration", "0.02", "--out", str(tmp_path / "runs")])
        assert rc == 2
        assert f"{key} applies only to" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_tf0_kelvin_in_config_applies_to_regulate(self, tmp_path):
        cfg = tmp_path / "regulate.cfg"
        cfg.write_text("tf0_kelvin = 350\n")
        rc = main(["--scenario", "regulate-400", "--config", str(cfg),
                   "--duration", "0.02", "--out", str(tmp_path)])
        assert rc == 0
        manifest = json.loads(
            (tmp_path / "regulate-400" / "manifest.json").read_text())
        assert manifest["config"]["tf0_kelvin"] == 350.0

    def test_setpoint_kelvin_in_config_on_regulate_exits_2(self, tmp_path,
                                                           capsys):
        # the scenario name is the one route to the setpoint of a run
        cfg = tmp_path / "regulate.cfg"
        cfg.write_text("setpoint_kelvin = 350\n")
        rc = main(["--scenario", "regulate-400", "--config", str(cfg),
                   "--duration", "0.02", "--out", str(tmp_path / "runs")])
        assert rc == 2
        assert "setpoint_kelvin = 350.0 conflicts with the scenario " \
            "regulate-400" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    # with test_regulate_key_in_config_outside_regulate_exits_2, every
    # (scenario, key) pair that a scenario does not read
    @pytest.mark.parametrize("scenario,key", [
        (scenario, key)
        for scenarios, keys in [
            (("nominal", "baseline-comparison"),
             ("d1_amp", "d1_freq", "d2_amp", "d2_freq")),
            (("regulate-300", "regulate-400", "regulate-500"),
             ("x1ref", "x2ss", "d1_amp", "d1_freq", "d2_amp", "d2_freq")),
        ]
        for scenario in scenarios for key in keys])
    def test_key_the_scenario_does_not_read_exits_2(
            self, tmp_path, capsys, scenario, key):
        cfg = tmp_path / "unread.cfg"
        cfg.write_text(f"{key} = 0.5\n")
        rc = main(["--scenario", scenario, "--config", str(cfg),
                   "--duration", "0.02", "--out", str(tmp_path / "runs")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f" {key} " in err
        assert not (tmp_path / "runs").exists()

    def test_run_scenario_rejects_a_key_the_scenario_does_not_read(
            self, tmp_path):
        # a library caller gets the rule a config file gets
        cfg = build_config({"d1_amp": 0.1})
        with pytest.raises(ConfigError, match="^d1_amp applies only to "
                           "disturbed, not to nominal$"):
            run_scenario("nominal", cfg, tmp_path / "runs")
        assert not (tmp_path / "runs").exists()

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

    def test_trigger_both_other_than_0_or_1_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "both.cfg"
        cfg.write_text("trigger_both = 2\n")
        rc = main(["--config", str(cfg), "--duration", "0.02",
                   "--out", str(tmp_path / "runs")])
        assert rc == 2
        assert "trigger_both must be 0 or 1" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("scenario,key,duration,message", [
        ("disturbed", "d1_freq = 1e308", "2.5", "phase"),
        ("nominal", "mu = 5e-324", "0.02", "Zeno bound"),
        ("nominal", "k2 = -1e300", "0.02", "k2"),
        ("nominal", "lambda2 = -5e-324", "0.02", "lambda2*beta"),
        ("regulate-500", "gamma = 1e300", "0.02", "overflows"),
        ("nominal", "da = 1e308", "0.02", "Jacobian is not finite"),
        ("nominal", "b_rise = 1e308", "0.02", "Jacobian is not finite"),
        ("nominal", "lambda1 = 0", "0.02", "trigger band"),
        ("nominal", "lambda1 = 5e-324", "0.02", "trigger band"),
        ("nominal", "x1ref = -1e308", "0.02", "V = sigma^2/2 is not finite"),
        ("nominal", "x1ref = 1e300", "0.02", "V = sigma^2/2 is not finite"),
        ("nominal", "k1 = 1e308", "0.02", "x2 reference"),
        ("nominal", "beta = 1e300", "0.02", "state became nonfinite"),
        ("nominal", "lambda1 = 1e300\nlambda2 = 1e-10", "0.02",
         "gain matrix M"),
    ], ids=["disturbance-phase-overflow", "zeno-denominator-underflow",
            "negative-reference-rate", "gain-divisor-underflow",
            "drift-exponential-overflow", "jacobian-da-overflow",
            "jacobian-b-rise-overflow", "band-zero-weight",
            "band-subnormal-weight-overflow", "sigma-at-float-max",
            "lyapunov-v-overflow", "reference-overflow",
            "huge-beta-state-overflow", "gain-norm-overflow"])
    def test_extreme_value_exits_2_without_traceback(
            self, tmp_path, scenario, key, duration, message):
        cfg = tmp_path / "extreme.cfg"
        cfg.write_text(key + "\n")
        src = Path(__file__).resolve().parents[1] / "src"
        out = subprocess.run(
            [sys.executable, "-m", "etsmc", "--scenario", scenario,
             "--config", str(cfg), "--duration", duration,
             "--out", str(tmp_path / "runs")],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True)
        assert out.returncode == 2, out.stderr
        assert "Traceback" not in out.stderr
        assert out.stderr.startswith("error:") and message in out.stderr

    @pytest.mark.parametrize("line", ["mu = 2_5", "zeta = \u0660.8"],
                             ids=["digit-group-underscore",
                                  "arabic-indic-zero"])
    def test_non_ascii_decimal_value_exits_2(self, tmp_path, capsys, line):
        # float() reads these as 25.0 and 0.8
        cfg = tmp_path / "text.cfg"
        cfg.write_text(line + "\n", encoding="utf-8")
        rc = main(["--config", str(cfg), "--duration", "0.02",
                   "--out", str(tmp_path / "runs")])
        assert rc == 2
        key = line.split()[0]
        assert capsys.readouterr().err == (
            f"error: line 1: value for {key!r} is not a decimal number\n")
        assert not (tmp_path / "runs").exists()

    def test_non_ascii_key_exits_2(self, tmp_path, capsys):
        # str.lower() folds the KELVIN SIGN U+212A to k, so this read as k1
        cfg = tmp_path / "key.cfg"
        cfg.write_text("\u212a1 = 0.5\n", encoding="utf-8")
        rc = main(["--config", str(cfg), "--duration", "0.02",
                   "--out", str(tmp_path / "runs")])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: line 1: unknown key '\u212a1'\n")
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("line,message", [
        ("mu = 25\u00a0", "value for 'mu' is not a decimal number"),
        ("\u00a0mu = 25", "unknown key '\\xa0mu'"),
        ("mu\u2003= 25", "unknown key 'mu\\u2003'"),
    ], ids=["nbsp-after-value", "nbsp-before-key", "em-space-after-key"])
    def test_non_ascii_space_exits_2(self, tmp_path, capsys, line,
                                     message):
        # str.strip() drops these, so each line read as mu = 25
        cfg = tmp_path / "space.cfg"
        cfg.write_text(line + "\n", encoding="utf-8")
        rc = main(["--config", str(cfg), "--duration", "0.02",
                   "--out", str(tmp_path / "runs")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: line 1: {message}\n"
        assert not (tmp_path / "runs").exists()

    def test_non_utf8_config_exits_2_without_traceback(self, tmp_path):
        cfg = tmp_path / "latin.cfg"
        cfg.write_bytes(b"mu = 25\n\xff\xfe = 1\n")
        src = Path(__file__).resolve().parents[1] / "src"
        out = subprocess.run(
            [sys.executable, "-m", "etsmc", "--config", str(cfg),
             "--duration", "0.02", "--out", str(tmp_path / "runs")],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True)
        assert out.returncode == 2, out.stderr
        assert "Traceback" not in out.stderr
        assert out.stderr.startswith("error:") and "UTF-8" in out.stderr
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("text", ["1_0e-1", "\u0660.\u0660\u0662"],
                             ids=["digit-group-underscore",
                                  "arabic-indic-digits"])
    def test_non_ascii_decimal_duration_exits_2(self, tmp_path, capsys,
                                                text):
        # float() reads these as 1.0 and 0.02; a config file refuses them
        rc = main(["--duration", text, "--out", str(tmp_path / "runs")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: --duration {text!r} is not a decimal number\n")
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("value", ["0", "-300"])
    def test_nonpositive_feed_temperature_exits_2(self, tmp_path, capsys,
                                                  value):
        cfg = tmp_path / "feed.cfg"
        cfg.write_text(f"tf0_kelvin = {value}\n")
        rc = main(["--scenario", "regulate-400", "--config", str(cfg),
                   "--duration", "0.02", "--out", str(tmp_path / "runs")])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: tf0_kelvin must be positive and finite\n")
        assert not (tmp_path / "runs").exists()

    def test_import_does_not_load_scipy(self):
        src = Path(__file__).resolve().parents[1] / "src"
        out = subprocess.run(
            [sys.executable, "-c",
             "import etsmc.cli, sys; print('scipy' in sys.modules)"],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"

    def test_regulate_scenario_resolves_setpoint(self, tmp_path):
        main(["--scenario", "regulate-400", "--duration", "1.0",
              "--out", str(tmp_path)])
        manifest = json.loads(
            (tmp_path / "regulate-400" / "manifest.json").read_text())
        assert manifest["config"]["setpoint_kelvin"] == 400.0
        assert manifest["config"]["x2ss"] == pytest.approx(20.0 / 3.0)

    def test_baseline_comparison_metrics(self, tmp_path):
        main(["--scenario", "baseline-comparison", "--duration", "1.0",
              "--out", str(tmp_path)])
        metrics = json.loads(
            (tmp_path / "baseline-comparison" / "metrics.json").read_text())
        assert "baseline_event_count" in metrics
        assert "update_saving_vs_baseline" in metrics
        assert metrics["update_saving_vs_baseline"] == pytest.approx(
            1.0 - metrics["event_count"] / metrics["baseline_event_count"])


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

    @pytest.mark.parametrize("scenario,key", [
        ("disturbed", "d1_freq = 1e308"),
        ("nominal", "mu = 5e-324"),
    ], ids=["loop-error", "zeno-denominator"])
    def test_exit_2_leaves_no_run_directory(self, tmp_path, capsys,
                                            scenario, key):
        cfg = tmp_path / "extreme.cfg"
        cfg.write_text(key + "\n")
        assert main(["--scenario", scenario, "--config", str(cfg),
                     "--duration", "2.5", "--out", str(tmp_path / "runs")]) == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    # The reference x2 = -100 drives the temperature down through x2 =
    # -gamma = -20, where 1 + x2/gamma vanishes.  Each x0_2 was bisected so
    # that one point of an RK4 step lands on -20 exactly (singular) or is
    # the first to fall just below it (overflow); the id names that point.
    # d1_freq = 1.5*pi/h sets the disturbance apart at the middle and the
    # end of the first step, so that the later points can be reached.
    @pytest.mark.parametrize("scenario,text,message", [
        ("nominal", "gamma = 1000000\nx0_2 = 700",
         "exp(x2/(1+x2/gamma)) overflows "
         "(x2=-1.2120387540852948e+299, gamma=1000000.0)"),
        ("nominal", "x2ss = -100\nk1 = 0\nx0_2 = -19.99375",
         "1 + x2/gamma vanishes (x2=-20.0, gamma=20.0)"),
        ("disturbed", "x2ss = -100\nk1 = 0\nd1_amp = -100\n"
         "d1_freq = 3141.592653589793\nx0_2 = -19.9437540625",
         "1 + x2/gamma vanishes (x2=-20.0, gamma=20.0)"),
        ("nominal", "x2ss = -100\nk1 = 0\nx0_2 = -19.98750811971875",
         "1 + x2/gamma vanishes (x2=-20.0, gamma=20.0)"),
        ("disturbed", "x2ss = -100\nk1 = 0\nd1_amp = 10\n"
         "d1_freq = 4712.38898038469\nx0_2 = -19.990552436888013",
         "1 + x2/gamma vanishes (x2=-20.0, gamma=20.0)"),
        ("disturbed", "x2ss = -100\nk1 = 0\nd1_amp = 10\n"
         "d1_freq = 4712.38898038469\nx0_2 = -19.9195",
         "exp(x2/(1+x2/gamma)) overflows (x2=-20.00015312096196, "
         "gamma=20.0)"),
        ("disturbed", "x2ss = -100\nk1 = 0\nd1_amp = 10\n"
         "d1_freq = 4712.38898038469\nx0_2 = -19.911",
         "exp(x2/(1+x2/gamma)) overflows (x2=-20.00018459237209, "
         "gamma=20.0)"),
        ("disturbed", "x2ss = -100\nk1 = 0\nd1_amp = 10\n"
         "d1_freq = 4712.38898038469\nx0_2 = -19.9",
         "exp(x2/(1+x2/gamma)) overflows (x2=-20.00395496641699, "
         "gamma=20.0)"),
        ("disturbed", "x2ss = -100\nk1 = 0\nd1_amp = 10\n"
         "d1_freq = 4712.38898038469\nx0_2 = -19.94075",
         "exp(x2/(1+x2/gamma)) overflows (x2=-20.00016505873047, "
         "gamma=20.0)"),
        ("nominal", "x0_1 = 1.5e308",
         "state became nonfinite at t=0.001: (nan, nan)"),
    ], ids=["stage-2-overflow-gamma", "stage-2-singular", "stage-3-singular",
            "stage-4-singular", "next-drift-singular", "stage-2-overflow",
            "stage-3-overflow", "stage-4-overflow", "next-drift-overflow",
            "nonfinite-state"])
    def test_error_inside_a_step_exits_2(self, tmp_path, capsys, scenario,
                                         text, message):
        cfg = tmp_path / "step.cfg"
        cfg.write_text(text + "\n")
        rc = main(["--scenario", scenario, "--config", str(cfg),
                   "--duration", "0.02", "--out", str(tmp_path / "runs")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "runs").exists()

    def test_zeno_denominator_rejected_before_the_loop(
            self, tmp_path, capsys, monkeypatch):
        def no_loop(*args, **kwargs):
            raise AssertionError("the closed loop ran")
        monkeypatch.setattr(sim, "_run_loop", no_loop)
        cfg = tmp_path / "extreme.cfg"
        cfg.write_text("mu = 5e-324\n")
        assert main(["--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "error: Zeno bound denominator L(1 + ||M||)||x_k|| + "
            "||Bbar||*mu is not positive (mu=5e-324)\n")


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
    """A dense run's process peak sits in the writers, past the loop: the
    records, the event-row text and one CSV_BLOCK of formatted text are
    held at once.  About 234 B per step at 10,001 steps; 240 leaves a 2.5%
    margin, below the 242 the writers took with column-sized copies."""
    cfg = build_config({"t_end": 10.0})
    _, _, peak = traced_peak(
        run_scenario, "nominal", cfg, tmp_path / "run",
        warm=("nominal", replace(cfg, t_end=0.02), tmp_path / "warm"))
    traj, _, _ = sim.run_event_triggered(cfg)
    assert len(traj.t) == 10_001 and traj.event.all()
    assert peak / cfg.step_count() <= 240


@pytest.mark.parametrize("scenario,config,block_events", [
    ("nominal", "", [512] * 19 + [273]),
    ("regulate-400", "mu = 1\nm1 = 1\n", [13, 194, 57, 0, 0, 1] + [0] * 14),
    ("nominal", "mu = 0.5\nm1 = 2\n",
     [1, 1, 1] + [0] * 6 + [331, 512, 35] + [0] * 5 + [1, 1, 0]),
], ids=["dense", "sparse", "mixed"])
def test_shared_event_text_matches_standalone_writers(
        tmp_path, scenario, config, block_events):
    """The CLI hands the trajectory's event-row text to the event writer;
    the bytes must equal those of each writer formatting on its own."""
    path = tmp_path / "run.cfg"
    path.write_text(config)
    assert main(["--scenario", scenario, "--config", str(path),
                 "--duration", "10", "--out", str(tmp_path / "cli")]) in (0, 1)
    cfg = cli._scenario_config(scenario,
                               replace(parse_config(path), t_end=10.0))
    traj, log, _ = sim.run_event_triggered(cfg)
    assert [int(traj.event[a:a + trigger.CSV_BLOCK].sum())
            for a in range(0, len(traj.t), trigger.CSV_BLOCK)] == block_events
    alone = tmp_path / "alone"
    alone.mkdir()
    sim.write_trajectory_csv(traj, alone / "trajectory.csv")
    trigger.write_event_csv(log, alone / "events.csv")
    for name in ("trajectory.csv", "events.csv"):
        assert ((tmp_path / "cli" / scenario / name).read_bytes()
                == (alone / name).read_bytes())
