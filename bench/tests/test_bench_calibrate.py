"""Each unit is scaled by the probe readings on either side of it."""

import pytest

import calibrate


def test_scale_uses_neighbouring_readings(monkeypatch):
    readings = iter([0.03, 0.06, 0.03])
    monkeypatch.setattr(calibrate, "probe", lambda: next(readings))
    speed = calibrate.Speed()
    # the machine ran at half the reference speed around the first unit
    assert speed.scale(4.0) == pytest.approx(
        4.0 * calibrate.NOMINAL_S / 0.045)
    assert speed.scale(2.0) == pytest.approx(
        2.0 * calibrate.NOMINAL_S / 0.045)
    assert speed.readings == [0.03, 0.06, 0.03]


def test_probe_times_the_kernel():
    assert 0.0 < calibrate.probe(steps=50, reps=2) < 1.0
