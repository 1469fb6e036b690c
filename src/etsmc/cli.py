"""Batch experiment front end: scenario dispatch and artifact emission."""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import warnings
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from .config import (KEYS, UNREAD_KEYS, ConfigError, build_config,
                     config_values, decimal, parse_config)
from .plant import PlantError
from .plots import emit_plot
from .sim import (SimConfig, check_invariants, resolve_regulation,
                  run_event_triggered, run_time_triggered,
                  write_trajectory_csv)
from .trigger import write_event_csv

#: Each scenario name -> (SimConfig scenario kind, the setpoint in kelvin
#: that the name sets, or None).
SCENARIOS: dict[str, tuple[str, float | None]] = {
    "nominal": ("nominal", None), "disturbed": ("disturbed", None),
    "regulate-300": ("regulate", 300.0), "regulate-400": ("regulate", 400.0),
    "regulate-500": ("regulate", 500.0),
    "baseline-comparison": ("nominal", None)}

#: The files a run writes besides manifest.json, which holds their digests.
ARTIFACTS = ("composition.svg", "events.csv", "events.svg", "metrics.json",
             "metrics.txt", "temperature.svg", "trajectory.csv")

#: x1 is the reactant conversion: a run whose x1 reaches 1 + X1_PHYSICAL_TOL
#: after t = 0 has left the physical model, and run_scenario warns of it.
X1_PHYSICAL_TOL = 0.1


@dataclass(frozen=True)
class RunManifest:
    """manifest.json: a record that depends only on the run's config."""

    scenario: str
    config: dict[str, float]  # each key the run read -> its value
    files: dict[str, str]  # filename -> sha256
    invariant_violations: list[str]


def _sha256(path: Path) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def _scenario_config(name: str, cfg: SimConfig) -> SimConfig:
    """The run config of the scenario name on cfg.  Raises ConfigError for
    an unknown name, and for a key that the name does not read
    (config.UNREAD_KEYS) set off its config.KEYS default, where it would
    change nothing."""
    if name not in SCENARIOS:
        raise ConfigError(f"unknown scenario {name!r}; "
                          f"expected one of {', '.join(SCENARIOS)}")
    kind, setpoint = SCENARIOS[name]
    values = config_values(cfg)
    for key in UNREAD_KEYS[kind]:
        if values.get(key) != KEYS[key][2]:
            raise ConfigError(f"the scenario {name} does not read {key}")
    return resolve_regulation(replace(cfg, scenario=kind,
                                      setpoint_kelvin=setpoint))


def _json_values(values: dict) -> dict:
    """values with each nonfinite float as its text, "inf", "-inf" or "nan",
    which JSON has no number for."""
    return {k: str(v) if isinstance(v, float) and not math.isfinite(v) else v
            for k, v in values.items()}


def _write_json(path: Path, values: dict) -> None:
    path.write_text(json.dumps(values, indent=2, sort_keys=True,
                               allow_nan=False) + "\n", newline="\n")


def run_scenario(name: str, cfg: SimConfig, outdir) -> tuple[RunManifest, list[str]]:
    """Execute one named scenario, write all artifacts, return manifest and
    the list of violated run invariants."""
    out = Path(outdir) / name
    rcfg = _scenario_config(name, cfg)

    traj, log, metrics = run_event_triggered(rcfg)
    baseline = (run_time_triggered(rcfg)[1]
                if name == "baseline-comparison" else None)
    # once every run has succeeded; the baseline gives only its metrics
    over = traj.x1[1:] >= 1.0 + X1_PHYSICAL_TOL
    if over.any():
        i = over.argmax() + 1
        warnings.warn(f"x1={traj.x1[i]:.4f} exceeds feed conversion at "
                      f"t={traj.t[i]:.4f}", RuntimeWarning, stacklevel=2)
    violations = check_invariants(traj, log, rcfg)
    metrics_dict = asdict(metrics)

    if baseline is not None:
        metrics_dict.update(
            {f"baseline_{k}": v for k, v in asdict(baseline).items()})
        metrics_dict["update_saving_vs_baseline"] = (
            1.0 - metrics.event_count / baseline.event_count)

    # made only now, so that a run failing with exit 2 leaves no directory
    out.mkdir(parents=True, exist_ok=True)
    write_trajectory_csv(traj, out / "trajectory.csv")
    write_event_csv(log, out / "events.csv")
    (out / "metrics.txt").write_text(
        "".join(f"{k} = {v}\n" for k, v in metrics_dict.items()),
        newline="\n")
    _write_json(out / "metrics.json", _json_values(metrics_dict))

    emit_plot([("x1", traj.t, traj.x1), ("x1 reference", traj.t, traj.x1ref)],
              "line", out / "composition.svg",
              title=f"Composition profile ({name})",
              xlabel="dimensionless time", ylabel="x1")
    emit_plot([("x2", traj.t, traj.x2), ("x2 reference", traj.t, traj.x2ref)],
              "line", out / "temperature.svg",
              title=f"Temperature profile ({name})",
              xlabel="dimensionless time", ylabel="x2")
    if log.gaps:
        emit_plot([("inter-event time", log.instants[:-1], log.gaps)],
                  "stem", out / "events.svg",
                  title=f"Sampling instants and intervals ({name})",
                  xlabel="event instant", ylabel="inter-event time")
    else:
        emit_plot([("events", log.instants, [1.0] * len(log.instants))],
                  "stem", out / "events.svg",
                  title=f"Sampling instants ({name})",
                  xlabel="event instant", ylabel="event")

    # only what this run wrote: the directory may hold other files
    files = {name: _sha256(out / name) for name in ARTIFACTS}
    read = {k: v for k, v in config_values(rcfg).items()
            if k not in UNREAD_KEYS[rcfg.scenario]}
    manifest = RunManifest(scenario=name, config=read, files=files,
                           invariant_violations=violations)
    _write_json(out / "manifest.json", asdict(manifest))
    return manifest, violations


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="etsmc",
        description="Event-triggered sliding-mode CSTR simulation runner")
    parser.add_argument("--scenario", default="nominal",
                        choices=SCENARIOS)
    parser.add_argument("--config", type=Path, default=None,
                        help="key = value configuration file")
    parser.add_argument("--out", type=Path, default=Path("runs"),
                        help="output directory root")
    parser.add_argument("--duration", default=None,
                        help="horizon override, a decimal number")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = (build_config({}) if args.config is None
               else parse_config(args.config))
        if args.duration is not None:
            t_end = decimal(args.duration, f"--duration {args.duration!r}")
            cfg = replace(cfg, t_end=t_end)
        manifest, violations = run_scenario(args.scenario, cfg, args.out)
    except (ConfigError, PlantError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {len(manifest.files)} artifacts to "
          f"{args.out / args.scenario}")
    if violations:
        print("invariant check failed: " + ", ".join(violations),
              file=sys.stderr)
        return 1
    print("all run invariants passed")
    return 0
