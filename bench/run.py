"""etsmc benchmark: three workloads, a correctness gate and a traced run.

    python3 bench/run.py --workload cli-nominal --seed 1 --seconds 25 --trace 0

Run from anywhere; it works on the checkout that contains this file and
writes only under ``.bench_work/`` there.  ``--trace 0`` times the workload
with tracing off and reports the end-to-end metrics; ``--trace 1`` makes the
separate traced run and reports the per-layer metrics.  ``--workload all``
runs every workload in turn.  Human-readable lines come first; the last
stdout line is one JSON object with keys correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from dataclasses import dataclass
from pathlib import Path

import calibrate
import gate
import tracing
from generate import DEFAULT_SEED, WORKLOADS, write_inputs

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
WORK = ROOT / ".bench_work"
# metric names, units and the run length are declared once, in BENCHMARK.json
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
CPUS = os.sched_getaffinity(0)

SETUP_REPS = 5
IMPORTTIME_REPS = 3
# a tail percentile needs ten samples beyond it (see tail()), so a run keeps
# measuring past --seconds until it has MIN_UNITS units, but never past
# STRETCH times --seconds: on a slowed-down machine the tail falls back to
# the maximum rather than the run overrunning its time
MIN_UNITS = 11
STRETCH = 1.5
# a child that runs this much longer than its measuring time is killed and
# counted as failed
CHILD_TIMEOUT_S = 150.0


@dataclass
class Spawned:
    returncode: int
    wall: float
    peak_rss_mb: float
    t0: float  # time.monotonic() just before the spawn
    stdout: str
    stderr: str

    def last_json(self) -> dict:
        return json.loads(self.stdout.strip().splitlines()[-1])


def spawn(cmd: list[str], logdir: Path,
          timeout: float = CHILD_TIMEOUT_S) -> Spawned:
    """Run one child to completion; wall from spawn to exit, its own rusage."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    logdir.mkdir(parents=True, exist_ok=True)
    out_path, err_path = logdir / "stdout.txt", logdir / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Spawned(proc.returncode, wall, usage.ru_maxrss / 1024.0, t0,
                   out_path.read_text(), err_path.read_text())


def worker(*args) -> list[str]:
    return [sys.executable, str(BENCH / "worker.py"), *map(str, args)]


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest nearest-rank percentile that still
    has at least ten samples above it; the maximum when there are fewer
    than eleven samples."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < MIN_UNITS:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def machine_facts() -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(CPUS),
        "pinned_to_cpu": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "loadavg_start": list(os.getloadavg()),
    }


class Result:
    """Gate outcomes and samples of one benchmark invocation."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.pins = gate.load_pins()
        self.allowed = set(self.pins["allowed_invariants"][workload])
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0
        self.reference = None

    def unit(self, problems: list[str], digests=None) -> None:
        """Count one gated unit; digests are compared across repeats."""
        self.attempted += 1
        if digests is not None and not problems:
            if self.reference is None:
                self.reference = digests
            problems = gate.check_repeat(self.reference, digests)
        if problems:
            self.failed += 1
            self.problems += [f"unit {self.attempted}: {p}" for p in problems]

    def pinned(self, l_bar: float) -> None:
        """On the default seed, compare with the seed commit's outputs."""
        if self.seed != DEFAULT_SEED:
            return
        self.unit(gate.check_pinned(
            self.reference, self.pins["digests"].get(self.workload),
            l_bar, self.pins["l_bar"]))


def setup_times(plan_path: Path, workload: str, res: Result, logdir: Path,
                speed: calibrate.Speed) -> list[dict]:
    mode = "setup-sweep" if workload == "sweep-tuning" else "setup-cli"
    samples = []
    for rep in range(SETUP_REPS):
        child = spawn(worker(mode, plan_path), logdir / f"setup-{rep}")
        ok = child.returncode == 0
        res.unit([] if ok else [f"set-up exited {child.returncode}: "
                                f"{child.stderr[-500:]}"])
        if ok:
            wall = child.last_json()["ready"] - child.t0
            samples.append({"wall": wall, "norm": speed.scale(wall)})
    return samples


def cli_units(plan: dict, seconds: float, res: Result, logdir: Path,
              min_units: int, speed: calibrate.Speed) -> list[dict]:
    """Fresh ``etsmc`` processes, one per unit, until the time is used.

    Returns the units that passed the gate."""
    units = []
    start = time.monotonic()
    for i in itertools.count():
        elapsed = time.monotonic() - start
        if elapsed >= seconds and (i >= min_units
                                   or elapsed >= STRETCH * seconds):
            break
        unit_dir = logdir / f"unit-{i}"
        run_dir = unit_dir / "out" / "nominal"
        child = spawn([sys.executable, "-m", "etsmc", *plan["argv"],
                       "--out", str(unit_dir / "out")], unit_dir)
        norm = speed.scale(child.wall)
        problems, digests = gate.check_cli_unit(
            run_dir, child.returncode, child.stderr, res.allowed)
        res.unit(problems, digests)
        if not problems:
            metrics = json.loads((run_dir / "metrics.json").read_text())
            units.append({"wall": child.wall, "norm": norm,
                          "rss": child.peak_rss_mb,
                          "properties": {
                              "steps": metrics["step_count"],
                              "event_ratio": metrics["event_ratio"]}})
        shutil.rmtree(unit_dir)
        if problems and child.returncode not in (0, 1):
            break
    return units


def lbar_child(logdir: Path) -> float:
    child = spawn(worker("lbar"), logdir / "lbar")
    return child.last_json()["l_bar"] if child.returncode == 0 else None


def measure(plan: dict, plan_path: Path, seconds: float, res: Result,
            logdir: Path, report: dict) -> dict:
    """Untraced run: the end-to-end metrics."""
    workload = plan["workload"]
    setup_speed = calibrate.Speed()
    setup = setup_times(plan_path, workload, res, logdir, setup_speed)
    if workload == "sweep-tuning":
        child = spawn(worker("sweep", plan_path, seconds, MIN_UNITS,
                             STRETCH * seconds),
                      logdir / "sweep", STRETCH * seconds + CHILD_TIMEOUT_S)
        if child.returncode != 0:
            res.unit([f"sweep worker exited {child.returncode}: "
                      f"{child.stderr[-2000:]}"])
            return {}
        out = child.last_json()
        for u in out["units"]:
            res.unit(u["problems"], u.get("digest"))
        units = [u for u in out["units"] if not u["problems"]]
        readings = out["readings"]
        rss = child.peak_rss_mb
        res.pinned(out["l_bar"])
    else:
        speed = calibrate.Speed()
        units = cli_units(plan, seconds, res, logdir, MIN_UNITS, speed)
        readings = speed.readings
        rss = statistics.median(u["rss"] for u in units) if units else None
        if res.seed == DEFAULT_SEED:
            res.pinned(lbar_child(logdir))
    walls = [u["norm"] for u in units]
    props = units[0]["properties"] if units else {}
    report["properties"].update(props)
    report["samples"] = {
        "setup_s": [u["norm"] for u in setup],
        "setup_s_raw": [u["wall"] for u in setup],
        "wall_s": walls,
        "wall_s_raw": [u["wall"] for u in units],
    }
    if not walls or not setup:
        return {}
    wall = statistics.median(walls)
    tail_value, tail_pct = tail(walls)
    report["wall_s_tail"] = {"value": tail_value, "percentile": tail_pct,
                             "units": len(walls)}
    report["raw_s"] = {
        "setup_s": statistics.median(report["samples"]["setup_s_raw"]),
        "wall_s": statistics.median(report["samples"]["wall_s_raw"]),
    }
    report["probe_readings_s"] = {"setup": setup_speed.readings,
                                  "units": readings}
    # probe time over the reference time: above 1 the machine ran slower
    report["slowdown"] = {
        "setup": statistics.median(setup_speed.readings) / calibrate.NOMINAL_S,
        "units": statistics.median(readings) / calibrate.NOMINAL_S}
    scaled = "at reference speed"
    return {
        "setup_s": (statistics.median(u["norm"] for u in setup),
                    f"median of {len(setup)}, {scaled}"),
        "wall_s": (wall, f"median of {len(walls)} units, {scaled}"),
        "steps_per_s": (props["steps"] / wall,
                        f"{props['steps']} steps per unit, {scaled}"),
        "peak_rss_mb": (rss, "ru_maxrss of the child"),
    }


def import_times(logdir: Path, res: Result) -> dict:
    cli, trig = [], []
    for rep in range(IMPORTTIME_REPS):
        child = spawn([sys.executable, "-X", "importtime", "-c",
                       "import etsmc.cli"], logdir / f"importtime-{rep}")
        cumulative = tracing.parse_importtime(child.stderr)
        ok = child.returncode == 0 and "etsmc.cli" in cumulative
        res.unit([] if ok else ["import of etsmc.cli failed"])
        if ok:
            cli.append(cumulative["etsmc.cli"])
            trig.append(cumulative["etsmc.trigger"])
    if not cli:
        return {}
    return {"cli.import_s": statistics.median(cli),
            "trigger.import_s": statistics.median(trig)}


def measure_traced(plan: dict, plan_path: Path, seconds: float, res: Result,
                   logdir: Path, report: dict) -> dict:
    """Traced run: the per-layer metrics and self time per layer."""
    if plan["workload"] != "sweep-tuning":
        # the untraced CLI process the traced passes must reproduce
        cli_units(plan, 0.0, res, logdir, 1, calibrate.Speed())
    imports = import_times(logdir, res)
    if not imports:
        return {}
    child = spawn(worker("trace", plan_path, seconds, logdir / "passes"),
                  logdir / "trace", seconds + CHILD_TIMEOUT_S)
    if child.returncode != 0:
        res.unit([f"trace worker exited {child.returncode}: "
                  f"{child.stderr[-2000:]}"])
        return {}
    out = child.last_json()
    spans = out["spans"]
    (logdir / "spans.json").write_text(json.dumps(spans))
    traced, untraced = [], []
    for p in out["passes"]:
        res.unit(p["problems"], p.get("digest"))
        if p["problems"]:
            continue
        if p["traced"]:
            traced.append((p, {**p["probes"],
                               **tracing.pass_metrics(spans, p["run"])}))
        else:
            untraced.append(p)
    if not traced or not untraced:
        return {}
    res.pinned(traced[0][1]["l_bar"])
    values = {k: statistics.median(m[k] for _, m in traced)
              for k in traced[0][1] if k != "l_bar"}
    values.update(imports)
    traced_wall = statistics.median(p["wall"] for p, _ in traced)
    values["trace.overhead_s"] = traced_wall - statistics.median(
        p["wall"] for p in untraced)

    def median_self(key):
        per_pass = [tracing.self_times(spans, p["run"], key) for p, _ in traced]
        names = {name for times in per_pass for name in times}
        return {name: statistics.median(t.get(name, 0.0) for t in per_pass)
                for name in names}
    report["self_time_s"] = {"import": values["cli.import_s"],
                             **median_self(tracing.layer)}
    report["self_time_by_span_s"] = median_self(lambda name: name)
    report["properties"].update({"steps": values["sim.steps"],
                                 "event_ratio": values["trigger.event_ratio"]})
    report["traced_passes"] = len(traced)
    note = f"median of {len(traced)} traced passes"
    return {k: (v, note) for k, v in values.items()}


def run_workload(workload: str, seed: int, seconds: float, traced: bool
                 ) -> tuple[Result, dict, dict]:
    logdir = WORK / f"{workload}-seed{seed}-trace{int(traced)}"
    shutil.rmtree(logdir, ignore_errors=True)
    plan = write_inputs(workload, seed, logdir / "inputs")
    plan_path = logdir / "inputs" / "plan.json"
    res = Result(workload, seed)
    report = {"workload": workload, "seed": seed, "trace": int(traced),
              "seconds": seconds, "machine": machine_facts(),
              "properties": {}}
    if workload == "sweep-tuning":
        mix: dict[str, int] = {}
        for entry in plan["entries"]:
            key = f"{entry['scenario']}/{entry['regime']}"
            mix[key] = mix.get(key, 0) + 1
        report["properties"]["scenario_mix"] = mix
    else:
        report["properties"]["scenario_mix"] = {"nominal": 1}
    go = measure_traced if traced else measure
    measured = go(plan, plan_path, seconds, res, logdir, report)
    declared = SPEC["per_layer" if traced else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in measured]
    if missing:
        res.unit(["metrics not measured: " + ", ".join(missing)])
    metrics = {m["name"]: {"value": measured[m["name"]][0], "unit": m["unit"],
                           "note": measured[m["name"]][1]}
               for m in declared if m["name"] in measured}
    report["machine"]["loadavg_end"] = list(os.getloadavg())
    report["attempted"], report["failed"] = res.attempted, res.failed
    report["fail_ratio"] = res.failed / max(res.attempted, 1)
    report["problems"] = res.problems
    report["digests"] = res.reference
    report["metrics"] = metrics
    (logdir / "result.json").write_text(json.dumps(report, indent=2) + "\n")
    return res, report, metrics


def print_report(report: dict, metrics: dict) -> None:
    m = report["machine"]
    print(f"== {report['workload']}  seed {report['seed']}  "
          f"trace {report['trace']}  seconds {report['seconds']}")
    print(f"machine: nproc {m['nproc']} (usable {m['cpus_usable']}, "
          f"pinned to {m['pinned_to_cpu']}), "
          f"{m['cpu_model']}, python {m['python']}, numpy {m['numpy']}, "
          f"scipy {m['scipy']}, load {m['loadavg_start'][0]:.2f} -> "
          f"{m['loadavg_end'][0]:.2f}")
    print("properties: " + json.dumps(report["properties"], sort_keys=True))
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:14.6g} {m['unit']:6s} {m['note']}")
    if "wall_s_tail" in report:
        t = report["wall_s_tail"]
        print(f"  {'wall_s_tail':28s} {t['value']:14.6g} {'s':6s} "
              f"p{t['percentile']:.1f} of {t['units']} units, at reference "
              f"speed (reported, not a BENCHMARK.json metric)")
    if "raw_s" in report:
        raw, slow = report["raw_s"], report["slowdown"]
        print(f"unscaled medians: setup_s {raw['setup_s']:.6g} s, wall_s "
              f"{raw['wall_s']:.6g} s; probe slowdown against the reference "
              f"speed: {slow['setup']:.3f} in set-up, {slow['units']:.3f} "
              f"in the units")
    print(f"  {'fail_ratio':28s} {report['fail_ratio']:14.6g} {'':6s} "
          f"{report['failed']} of {report['attempted']} attempted")
    if "self_time_s" in report:
        total = sum(report["self_time_s"].values())
        print("self time, median over traced passes, as a share of import "
              "plus one traced pass:")
        for title, times in (("layer", report["self_time_s"]),
                             ("span", report["self_time_by_span_s"])):
            for name, secs in sorted(times.items(), key=lambda kv: -kv[1]):
                print(f"  {title:5s} {name:28s} {secs:9.4f} s "
                      f"{100 * secs / total:5.1f}%")
    for problem in report["problems"]:
        print(f"  FAILED {problem.splitlines()[0]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated benchmark still kills and reaps the child it is timing
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # the vCPUs of a shared host change speed independently, within a
    # second; on one CPU the speed probe reads the CPU that the timed
    # unit ran on (children inherit the affinity)
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if not (ROOT / "src" / "etsmc" / "cli.py").is_file():
        print(f"error: no etsmc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for workload in workloads:
        res, report, metrics = run_workload(workload, args.seed, args.seconds,
                                            bool(args.trace))
        print_report(report, metrics)
        results.append((workload, res, metrics))
    flat = {w: {k: {"value": m["value"], "unit": m["unit"]}
                for k, m in metrics.items()}
            for w, _, metrics in results}
    print(json.dumps({
        "correct": all(r.failed == 0 for _, r, _ in results),
        "attempted": sum(r.attempted for _, r, _ in results),
        "failed": sum(r.failed for _, r, _ in results),
        "metrics": flat[workloads[0]] if len(workloads) == 1 else flat,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
