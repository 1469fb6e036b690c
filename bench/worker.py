"""Child-process side of the benchmark.

Every workload runs in a child process so that its peak resident memory is
its own.  Modes (the last stdout line is a JSON object):

    worker.py setup-cli PLAN        import etsmc.cli and build the config
    worker.py setup-sweep PLAN      import, build the sweep configs and run
                                    the one cold Lipschitz estimate
    worker.py sweep PLAN SECONDS MIN_UNITS MAX_SECONDS
                                    set up, then repeat the sweep
    worker.py trace PLAN SECONDS OUTDIR
                                    alternate untraced and traced passes
    worker.py lbar                  print l_bar for the default plant

``ready`` in the output is ``time.monotonic()`` when set-up finished; the
parent subtracts its own spawn time from it.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

MIN_PASS_PAIRS = 3


def _check_origin() -> None:
    import etsmc
    if SRC not in Path(etsmc.__file__).resolve().parents:
        raise SystemExit(f"etsmc imported from {etsmc.__file__}, not {SRC}")


def setup_cli(plan: dict) -> dict:
    import etsmc.cli  # noqa: F401  (the import is what set-up pays for)
    from etsmc import config
    config.parse_config(plan["config"])
    ready = time.monotonic()
    _check_origin()
    return {"ready": ready}


def load_sweep(plan: dict) -> list:
    """Build the sweep's configs from the generated files (config generation)."""
    from etsmc import config, sim
    cfgs = []
    for entry in plan["entries"]:
        kind = "regulate" if entry["scenario"].startswith("regulate-") \
            else entry["scenario"]
        cfg = config.parse_config(entry["config"], scenario=kind)
        cfgs.append(sim.resolve_regulation(cfg))
    return cfgs


def setup_sweep(plan: dict):
    from etsmc import trigger
    cfgs = load_sweep(plan)
    # the sweep keeps the default plant, so one cold estimate serves it all
    lip = trigger.estimate_lipschitz(cfgs[0].plant)
    return cfgs, lip


def sweep_once(cfgs: list) -> list:
    """One sweep, like baseline-comparison per config but writing nothing."""
    from etsmc import sim
    results = []
    for cfg in cfgs:
        traj, log, metrics = sim.run_event_triggered(cfg)
        violations = sim.check_invariants(traj, log, cfg)
        tt_traj, tt_metrics = sim.run_time_triggered(cfg)
        results.append((cfg, traj, log, metrics, violations, tt_traj,
                        tt_metrics))
    return results


TRAJECTORY_FIELDS = ("t", "x1", "x2", "x1ref", "x2ref", "u", "sigma",
                     "sigma_dot", "delta", "event", "v", "band", "eps")
LOG_FIELDS = ("instants", "gaps", "bound_at_event", "delta_at_event")


def summarize_sweep(results: list, allowed: set[str]
                    ) -> tuple[str, list[str], dict]:
    """Digest of every in-memory output, gate problems, sweep properties."""
    import hashlib

    import gate
    import numpy as np
    h = hashlib.sha256()
    problems: list[str] = []
    props = {"steps": 0, "et_steps": 0, "events": 0}
    for cfg, traj, log, metrics, violations, tt_traj, tt_metrics in results:
        for tr in (traj, tt_traj):
            for name in TRAJECTORY_FIELDS:
                h.update(np.ascontiguousarray(getattr(tr, name)).tobytes())
        for name in LOG_FIELDS:
            h.update(np.asarray(getattr(log, name), dtype=float).tobytes())
        h.update(json.dumps(list(violations)).encode())
        problems += gate.check_sweep_config({
            "et": {"rows": len(traj.t), "step_count": metrics.step_count,
                   "event_count": metrics.event_count,
                   "flagged": int(traj.event.sum()),
                   "logged": len(log.instants)},
            "tt": {"rows": len(tt_traj.t), "step_count": tt_metrics.step_count,
                   "event_count": tt_metrics.event_count,
                   "flagged": int(tt_traj.event.sum())},
            "invariants": list(violations),
        }, allowed)
        props["steps"] += metrics.step_count + tt_metrics.step_count
        props["et_steps"] += metrics.step_count
        props["events"] += metrics.event_count
    props["event_ratio"] = props["events"] / props["et_steps"]
    return h.hexdigest(), problems, props


def sweep(plan: dict, seconds: float, min_units: int,
          max_seconds: float) -> dict:
    """Repeat the sweep for ``seconds``, and on until ``min_units`` sweeps
    are done unless ``max_seconds`` have passed."""
    import calibrate
    import gate
    allowed = gate.allowed_invariants(plan["workload"])
    cfgs, lip = setup_sweep(plan)
    ready = time.monotonic()
    _check_origin()
    units = []
    speed = calibrate.Speed()
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        try:
            results = sweep_once(cfgs)
        except Exception:
            import traceback
            units.append({"problems": [traceback.format_exc()]})
            break
        wall = time.perf_counter() - t0
        norm = speed.scale(wall)
        digest, problems, props = summarize_sweep(results, allowed)
        del results
        units.append({"wall": wall, "norm": norm, "digest": digest,
                      "problems": problems, "properties": props})
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (len(units) >= min_units
                                   or elapsed >= max_seconds):
            break
    return {"ready": ready, "l_bar": lip.l_bar, "units": units,
            "readings": speed.readings}


# --- traced passes -------------------------------------------------------

def _run_hook(captured: list):
    def hook(rec, args, result):
        metrics = result[-1]
        rec["counts"] = {"steps": metrics.step_count,
                         "events": metrics.event_count}
        captured.append((rec["name"], args[0], result))
    return hook


def _lipschitz_hook(rec, args, result):
    rec["counts"] = {"samples": result.sample_count, "l_bar": result.l_bar}


def _file_hook(position: int):
    def hook(rec, args, result):
        rec["counts"] = {"bytes": Path(args[position]).stat().st_size}
    return hook


def _targets(captured: list) -> dict:
    return {
        "cli.run_scenario": None,
        "config.parse_config": None,
        "trigger.estimate_lipschitz": _lipschitz_hook,
        "sim.run_event_triggered": _run_hook(captured),
        "sim.run_time_triggered": _run_hook(captured),
        "sim.compute_metrics": None,
        "sim.check_invariants": None,
        "sim.write_trajectory_csv": _file_hook(1),
        "trigger.write_event_csv": _file_hook(1),
        "plots.emit_plot": _file_hook(2),
    }


def _timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - t0, result


def zeno_probe(cfg, traj, log) -> float:
    """Seconds to recompute the loop's Zeno bounds for the logged events.

    The recomputed bounds must equal the logged ones bit for bit.
    """
    from etsmc import plant, trigger
    lip = trigger.estimate_lipschitz(cfg.plant)
    eps_max = max(float(traj.eps.max()), 1e-300)
    t0 = time.perf_counter()
    bounds = []
    for t_k in log.instants:
        idx = int(round(t_k / cfg.h))
        x_k = plant.DimlessState(float(traj.x1[idx]), float(traj.x2[idx]))
        bounds.append(trigger.zeno_bound(x_k, eps_max, lip, cfg.plant,
                                         cfg.sliding))
    elapsed = time.perf_counter() - t0
    if bounds != log.bound_at_event:
        raise AssertionError("zeno probe disagrees with the logged bounds")
    return elapsed


def digest_probe(run_dir: Path) -> float:
    """Seconds to hash every artifact, as the CLI does for its manifest."""
    import gate
    t0 = time.perf_counter()
    for path in sorted(run_dir.iterdir()):
        if path.name != "manifest.json":
            gate.sha256_file(path)
    return time.perf_counter() - t0


def writer_probe(traj, log, out: Path) -> dict:
    """Time the CLI's writers on one in-memory result (sweep workload)."""
    from etsmc import plots, sim, trigger
    out.mkdir(parents=True, exist_ok=True)
    t_csv, _ = _timed(sim.write_trajectory_csv, traj, out / "trajectory.csv")
    t_ev, _ = _timed(trigger.write_event_csv, log, out / "events.csv")
    figures = [
        ([("x1", traj.t, traj.x1), ("x1 reference", traj.t, traj.x1ref)],
         "line", out / "composition.svg"),
        ([("x2", traj.t, traj.x2), ("x2 reference", traj.t, traj.x2ref)],
         "line", out / "temperature.svg"),
        ([("inter-event time", log.instants[:-1], log.gaps)]
         if log.gaps else [("events", log.instants, [1.0] * len(log.instants))],
         "stem", out / "events.svg"),
    ]
    t_svg = sum(_timed(plots.emit_plot, *fig)[0] for fig in figures)
    return {
        "sim.trajectory_csv_s": t_csv,
        "sim.trajectory_csv_bytes": (out / "trajectory.csv").stat().st_size,
        "trigger.event_csv_s": t_ev,
        "trigger.event_csv_bytes": (out / "events.csv").stat().st_size,
        "plots.emit_plot_s": t_svg,
        "plots.svg_bytes": sum((out / f).stat().st_size for *_, f in figures),
    }


def cli_pass(plan: dict, out: Path, tracer) -> dict:
    import io
    import traceback
    from contextlib import nullcontext, redirect_stderr, redirect_stdout

    from etsmc import cli, trigger
    from tracing import instrument
    trigger.estimate_lipschitz.cache_clear()
    captured: list = []
    argv = plan["argv"] + ["--out", str(out)]
    stdout, stderr = io.StringIO(), io.StringIO()
    ctx = instrument(tracer, _targets(captured)) if tracer else nullcontext()
    with ctx, redirect_stdout(stdout), redirect_stderr(stderr):
        t0 = time.perf_counter()
        try:
            with tracer.span("cli.main") if tracer else nullcontext():
                rc = cli.main(argv)
        except Exception:
            rc = 1
            stderr.write(traceback.format_exc())
        wall = time.perf_counter() - t0
    return {"wall": wall, "rc": rc, "stderr": stderr.getvalue(),
            "captured": captured}


def sweep_pass(plan: dict, tracer) -> dict:
    from contextlib import nullcontext

    from etsmc import trigger
    from tracing import instrument
    trigger.estimate_lipschitz.cache_clear()
    # the sweep keeps its results itself; nothing to capture from the hooks
    ctx = instrument(tracer, _targets([])) if tracer else nullcontext()
    with ctx:
        t0 = time.perf_counter()
        with tracer.span("bench.setup") if tracer else nullcontext():
            cfgs, lip = setup_sweep(plan)
        with tracer.span("bench.sweep") if tracer else nullcontext():
            results = sweep_once(cfgs)
        wall = time.perf_counter() - t0
    return {"wall": wall, "l_bar": lip.l_bar, "results": results}


def trace(plan: dict, seconds: float, outdir: Path) -> dict:
    """Alternate untraced and traced passes; gate each, probe the traced."""
    import shutil
    import traceback

    import gate
    from etsmc import sim
    from tracing import Tracer
    allowed = gate.allowed_invariants(plan["workload"])
    is_sweep = plan["workload"] == "sweep-tuning"
    tracer = Tracer()
    passes = []
    end = time.perf_counter() + seconds
    while len(passes) < 2 * MIN_PASS_PAIRS or time.perf_counter() < end:
        traced = len(passes) % 2 == 1
        tracer.run = len(passes)
        out = outdir / f"pass-{len(passes)}"
        rec = {"run": tracer.run, "traced": traced, "probes": {}}
        probes = rec["probes"]
        try:
            if is_sweep:
                res = sweep_pass(plan, tracer if traced else None)
                rec["digest"], rec["problems"], _ = summarize_sweep(
                    res["results"], allowed)
                rec["l_bar"] = res["l_bar"]
                runs = [(c, tr, lg) for c, tr, lg, *_ in res["results"]]
                if traced:
                    _, traj, log = runs[0]
                    probes.update(writer_probe(traj, log, out))
                    probes["cli.digest_s"] = digest_probe(out)
                    rec["problems"] += gate.check_rows(
                        out, len(traj.t), len(log.instants))
            else:
                res = cli_pass(plan, out, tracer if traced else None)
                run_dir = out / "nominal"
                rec["problems"], rec["digest"] = gate.check_cli_unit(
                    run_dir, res["rc"], res["stderr"], allowed)
                runs = [(c, r[0], r[1]) for name, c, r in res["captured"]
                        if name == "sim.run_event_triggered"]
                if traced:
                    probes["sim.run_time_triggered_s"] = _timed(
                        sim.run_time_triggered, runs[0][0])[0]
                    probes["cli.digest_s"] = digest_probe(run_dir)
            rec["wall"] = res["wall"]
            if traced:
                probes["trigger.zeno_bound_s"] = sum(
                    zeno_probe(*run) for run in runs)
        except Exception:
            rec["problems"] = rec.get("problems", []) + [traceback.format_exc()]
        shutil.rmtree(out, ignore_errors=True)
        passes.append(rec)
        if "wall" not in rec:
            break
    return {"passes": passes, "spans": tracer.spans}


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "lbar":
        from etsmc import config, trigger
        _check_origin()
        lip = trigger.estimate_lipschitz(config.build_config({}).plant)
        out = {"l_bar": lip.l_bar}
    else:
        plan = json.loads(Path(argv[1]).read_text())
        if mode == "setup-cli":
            out = setup_cli(plan)
        elif mode == "setup-sweep":
            setup_sweep(plan)
            out = {"ready": time.monotonic()}
            _check_origin()
        elif mode == "sweep":
            out = sweep(plan, float(argv[2]), int(argv[3]), float(argv[4]))
        elif mode == "trace":
            _check_origin()
            out = trace(plan, float(argv[2]), Path(argv[3]))
        else:
            raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
