import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from etsmc import cli, sim, trigger
from etsmc.cli import SCENARIO_NAMES, build_parser, main, run_scenario
from etsmc.config import (KEYS, ConfigError, build_config, config_values,
                          parse_config)


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
        assert SCENARIO_NAMES == ("nominal", "disturbed", "regulate-300",
                                  "regulate-400", "regulate-500",
                                  "baseline-comparison")


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

    def test_reruns_are_bit_identical(self, tmp_path):
        cfg = build_config({"t_end": 1.0})
        m1, v1 = run_scenario("nominal", cfg, tmp_path / "a")
        m2, v2 = run_scenario("nominal", cfg, tmp_path / "b")
        assert v1 == v2 == []
        assert m1.files == m2.files

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
        rc = main(["--step", "-1", "--out", str(tmp_path)])
        assert rc == 2

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
        ("nominal", "beta = 1e300", "0.02", "gain matrix M"),
    ], ids=["disturbance-phase-overflow", "zeno-denominator-underflow",
            "negative-reference-rate", "gain-divisor-underflow",
            "drift-exponential-overflow", "jacobian-da-overflow",
            "jacobian-b-rise-overflow", "band-zero-weight",
            "band-subnormal-weight-overflow", "sigma-at-float-max",
            "lyapunov-v-overflow", "reference-overflow",
            "gain-norm-overflow"])
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


@pytest.mark.parametrize("scenario,config,block_events", [
    ("nominal", "", [1024] * 9 + [785]),
    ("regulate-400", "mu = 1\nm1 = 1\n", [207, 57, 1] + [0] * 7),
    ("nominal", "mu = 0.5\nm1 = 2\n", [2, 1, 0, 0, 331, 547, 0, 0, 1, 1]),
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
