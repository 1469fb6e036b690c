"""Spans recorded by the benchmark around the program's public calls.

The tracer wraps public functions of the etsmc modules for the duration of
one traced pass; the program's source is not touched.  Spans are kept in
memory (name, start, end, parent, run id and optional counts) and written
out by the caller when the benchmark ends.
"""

from __future__ import annotations

import functools
import importlib
import re
import sys
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Optional

Hook = Callable[[dict, tuple, object], None]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.run = 0
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {"name": name, "start": perf_counter(), "end": None,
               "parent": self._open[-1] if self._open else None,
               "run": self.run}
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn, hook: Optional[Hook] = None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(rec, args, result)
            return result
        return traced


@contextmanager
def instrument(tracer: Tracer, targets: dict[str, Optional[Hook]]):
    """Route calls to each ``module.function`` target through a span.

    Every binding of the function object in a loaded ``etsmc`` module is
    replaced, so calls made through ``from .x import f`` names are traced
    too.  The original bindings are restored on exit.
    """
    patched = []
    try:
        for qualname, hook in targets.items():
            module, attr = qualname.split(".")
            fn = getattr(importlib.import_module(f"etsmc.{module}"), attr)
            wrapper = tracer.wrap(qualname, fn, hook)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "etsmc" and not mod_name.startswith("etsmc."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)
                        patched.append((mod, key, fn))
        yield tracer
    finally:
        for mod, key, fn in reversed(patched):
            setattr(mod, key, fn)


def layer(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans: list[dict], run: int,
               key: Callable[[str], str] = layer) -> dict[str, float]:
    """Self time in one run: each span's duration minus the time its child
    spans cover, summed by ``key(span name)`` (by default, the layer)."""
    child_time = [0.0] * len(spans)
    for rec in spans:
        if rec["parent"] is not None:
            child_time[rec["parent"]] += rec["end"] - rec["start"]
    out: dict[str, float] = {}
    for rec, covered in zip(spans, child_time):
        if rec["run"] != run:
            continue
        own = rec["end"] - rec["start"] - covered
        group = key(rec["name"])
        out[group] = out.get(group, 0.0) + own
    return out


_IMPORTTIME = re.compile(r"^import time:\s+\d+\s+\|\s+(\d+)\s+\|\s*(\S+)\s*$")


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative seconds per module from ``python -X importtime`` output.

    A module imported as part of a package import (``import etsmc.cli``
    loads ``etsmc`` first) gets its own line; the cumulative column already
    includes every nested import.
    """
    out = {}
    for line in stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if m:
            out[m.group(2)] = int(m.group(1)) * 1e-6
    return out


def pass_metrics(spans: list[dict], run: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from its spans and their counts.

    ``sim.run_event_triggered_s`` excludes the Lipschitz estimate the loop
    triggers on a cold cache, which ``trigger.lipschitz_s`` reports.
    """
    total: dict[str, float] = {}
    counts: dict[tuple[str, str], float] = {}
    lipschitz = None
    lipschitz_in_loop = 0.0
    for rec in spans:
        if rec["run"] != run:
            continue
        name, dur = rec["name"], rec["end"] - rec["start"]
        total[name] = total.get(name, 0.0) + dur
        for key, value in rec.get("counts", {}).items():
            counts[name, key] = counts.get((name, key), 0) + value
        if name == "trigger.estimate_lipschitz":
            lipschitz = lipschitz or rec["counts"]
            if (rec["parent"] is not None and spans[rec["parent"]]["name"]
                    == "sim.run_event_triggered"):
                lipschitz_in_loop += dur
    et = total["sim.run_event_triggered"] - lipschitz_in_loop
    tt = total.get("sim.run_time_triggered", 0.0)
    et_steps = counts["sim.run_event_triggered", "steps"]
    steps = et_steps + counts.get(("sim.run_time_triggered", "steps"), 0)
    events = counts["sim.run_event_triggered", "events"]
    out = {
        "config.parse_s": total["config.parse_config"],
        "trigger.lipschitz_s": total["trigger.estimate_lipschitz"],
        "trigger.lipschitz_samples": lipschitz["samples"],
        "sim.run_event_triggered_s": et,
        "sim.steps": steps,
        "sim.ns_per_step": (et + tt) / steps * 1e9,
        "trigger.events": events,
        "trigger.event_ratio": events / et_steps,
        "sim.compute_metrics_s": total["sim.compute_metrics"],
        "sim.check_invariants_s": total["sim.check_invariants"],
        "l_bar": lipschitz["l_bar"],
    }
    optional = {
        "sim.run_time_triggered_s": ("sim.run_time_triggered", None),
        "sim.trajectory_csv_s": ("sim.write_trajectory_csv", None),
        "sim.trajectory_csv_bytes": ("sim.write_trajectory_csv", "bytes"),
        "trigger.event_csv_s": ("trigger.write_event_csv", None),
        "trigger.event_csv_bytes": ("trigger.write_event_csv", "bytes"),
        "plots.emit_plot_s": ("plots.emit_plot", None),
        "plots.svg_bytes": ("plots.emit_plot", "bytes"),
    }
    for metric, (name, key) in optional.items():
        if name in total:
            out[metric] = total[name] if key is None else counts[name, key]
    return out
