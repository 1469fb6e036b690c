"""Spans, self time and the tail percentile rule."""

import pytest

import tracing
from run import tail


def _span(name, start, end, parent=None, run=0):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "run": run}


def test_self_time_subtracts_children():
    spans = [_span("cli.main", 0.0, 10.0),
             _span("sim.run_event_triggered", 1.0, 5.0, parent=0),
             _span("trigger.estimate_lipschitz", 1.0, 2.0, parent=1),
             _span("sim.write_trajectory_csv", 6.0, 9.0, parent=0),
             _span("cli.main", 0.0, 4.0, run=1)]
    assert tracing.self_times(spans, 0) == pytest.approx(
        {"cli": 3.0, "sim": 6.0, "trigger": 1.0})
    assert tracing.self_times(spans, 0, key=lambda n: n)[
        "sim.run_event_triggered"] == pytest.approx(3.0)
    assert tracing.self_times(spans, 1) == pytest.approx({"cli": 4.0})


def test_parse_importtime():
    stderr = ("import time: self [us] | cumulative | imported package\n"
              "import time:      3522 |     730013 |       etsmc.trigger\n"
              "import time:      2703 |     877815 | etsmc.cli\n")
    assert tracing.parse_importtime(stderr) == pytest.approx(
        {"etsmc.trigger": 0.730013, "etsmc.cli": 0.877815})


def test_instrument_nests_spans_and_restores():
    from etsmc import config, sim
    original = sim.compute_metrics
    tracer = tracing.Tracer()
    cfg = config.build_config({"t_end": 0.05})
    with tracing.instrument(tracer, {"sim.run_event_triggered": None,
                                     "sim.compute_metrics": None}):
        sim.run_event_triggered(cfg)
    assert sim.compute_metrics is original
    names = [(s["name"], s["parent"]) for s in tracer.spans]
    assert names == [("sim.run_event_triggered", None),
                     ("sim.compute_metrics", 0)]


def test_tail_keeps_ten_samples_above():
    samples = [float(i) for i in range(1, 101)]
    assert tail(samples) == (90.0, 90.0)
    assert tail(samples[:20]) == (10.0, 50.0)
    assert tail(samples[:11]) == (1.0, 100.0 / 11)
    assert tail(samples[:5]) == (5.0, 100.0)
