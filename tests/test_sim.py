import gc
import hashlib
import importlib
import inspect
import itertools
import json
import math
import pkgutil
import re
import warnings
import weakref
from dataclasses import asdict, fields, is_dataclass, replace

import numpy as np
import pytest

import etsmc
from etsmc import sim
from etsmc.config import build_config
from etsmc.controller import SlidingParams, event_control_update
from etsmc.floattext import CSV_BLOCK
from etsmc.plant import (ConfigError, DimlessParams, DimlessState,
                         Disturbance, PlantError, drift)
from etsmc.sim import (ReachabilityResult, Trajectory, check_invariants,
                       resolve_regulation, rk4, rk4_step, run_event_triggered,
                       run_time_triggered, verify_reachability,
                       write_trajectory_csv)
from etsmc.trigger import LIPSCHITZ_BOX, EventLog, margin, thresholds

NOMINAL = DimlessParams(da=0.078, gamma=20.0, b_rise=8.0, beta=0.3, x2c0=0.0)
LINEAR = DimlessParams(da=1e-300, gamma=20.0, b_rise=8.0, beta=0.3, x2c0=0.0)


def small_cfg(**overrides):
    cfg = build_config({})
    return replace(cfg, **overrides)


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            small_cfg(h=0.0)
        with pytest.raises(ConfigError):
            small_cfg(t_end=0.005)  # below 10*h
        with pytest.raises(ConfigError, match="last grid time"):
            small_cfg(h=1.789e307, t_end=1.79e308)  # 11*h overflows
        with pytest.raises(ConfigError):
            small_cfg(scenario="warp")
        with pytest.raises(ConfigError):
            small_cfg(scenario="regulate")  # setpoint missing
        # lambda2*beta, the divisor of the switching law, underflows to
        # -0.0 or overflows to inf: caught with the config, before a run
        # divides by it
        for lam2, beta in ((-5e-324, 0.3), (1e308, 10.0)):
            with pytest.raises(ConfigError, match=r"lambda2\*beta"):
                small_cfg(plant=replace(NOMINAL, beta=beta),
                          sliding=SlidingParams(1.0, lam2, 25.0))
        # a zero lambda1, or one so small that the division overflows,
        # makes the band tols/min(|lambda1|, |lambda2|) infinite
        for lam1 in (0.0, 5e-324, -5e-324):
            with pytest.raises(ConfigError, match="trigger band"):
                small_cfg(sliding=SlidingParams(lam1, 2.0, 25.0))

    def test_step_count(self):
        assert small_cfg().step_count() == 50000
        assert small_cfg(h=0.3, t_end=50.0).step_count() == 167

    def test_disturbance_selection(self):
        assert small_cfg().disturbance().eval(7.0) == (0.0, 0.0)
        d = small_cfg(scenario="disturbed").disturbance()
        t_peak = 0.5 * math.pi / 0.1
        d1, d2 = d.eval(t_peak)
        assert d1 == pytest.approx(0.026, rel=1e-12)
        assert d2 == pytest.approx(0.037, rel=1e-12)


class TestRegulationResolution:
    def test_setpoint_conversion(self):
        cfg = small_cfg(scenario="regulate", setpoint_kelvin=400.0)
        rcfg = resolve_regulation(cfg)
        # gamma*(400-300)/300 = 20/3
        assert rcfg.reference.x2ss == pytest.approx(20.0 / 3.0, abs=1e-12)
        assert rcfg.reference.x1_const == pytest.approx(
            0.920484892097301, abs=1e-12)

    def test_composition_reference_sits_on_the_nullcline(self):
        from etsmc.plant import composition_nullcline
        for setpoint in (300.0, 400.0, 500.0):
            cfg = small_cfg(scenario="regulate", setpoint_kelvin=setpoint)
            rcfg = resolve_regulation(cfg)
            assert rcfg.reference.x1_const == composition_nullcline(
                rcfg.reference.x2ss, rcfg.plant)

    def test_identity_outside_regulate(self):
        cfg = small_cfg()
        assert resolve_regulation(cfg) is cfg


class TestRk4:
    def test_linear_decay_single_step(self):
        # with a vanishing reaction term x1' = -x1, so one step from 1.0
        # must be exp(-h) up to the local O(h^5) defect
        nxt = rk4_step(DimlessState(1.0, 0.0), 0.0, 0.0, 0.1, LINEAR,
                       Disturbance.zero())
        assert nxt.x1 == pytest.approx(math.exp(-0.1), abs=1e-7)
        assert abs(nxt.x2) < 1e-290  # only the vanishing reaction leak

    def test_zoh_constant_input_exact_linear_response(self):
        # x2' = -(1+beta) x2 + beta u with u frozen across stages; compare
        # with the exact first-order step response
        a, u = 1.3, 2.0
        x = DimlessState(0.0, 0.0)
        h, n = 0.01, 200
        for i in range(n):
            x = rk4_step(x, u, i * h, h, LINEAR, Disturbance.zero())
        exact = (0.3 * u / a) * (1.0 - math.exp(-a * n * h))
        assert x.x2 == pytest.approx(exact, abs=1e-10)

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ConfigError):
            rk4_step(DimlessState(0.0, 0.0), 0.0, 0.0, 0.0, NOMINAL,
                     Disturbance.zero())
        # so is a step that leaves the floats: from x1 = 1.5e308 the second
        # stage's drift overflows to -inf, and the later stages give nan
        with pytest.raises(PlantError, match=re.escape(
                "state became nonfinite at t=0.001: (nan, nan)")):
            rk4_step(DimlessState(1.5e308, 0.0), 0.0, 0.0, 1e-3, NOMINAL,
                     Disturbance.zero())


def reference_margin(x, u, t, cfg):
    """Trigger margin at state x and time t under the held control u.

    The tracking errors and their rates are built here from drift,
    Disturbance.eval and the reference, independently of the loop.
    """
    p, r = cfg.plant, cfg.reference
    f1, f2 = drift(x.x1, x.x2, p)
    d1v, d2v = cfg.disturbance().eval(t)
    tol = float(thresholds(np.array([t]), cfg.trigger)[0])
    return margin(x.x1 - r.x1_const, x.x2 - r.x2ref(t), f1 - d2v,
                  f2 + p.beta * u + d1v - r.x2ref_dot(t), tol, cfg.trigger)


def assert_matches_public_operations(traj, cfg, case, sgn=1.0,
                                     every_step=False):
    """traj equals, bit for bit, a replay of cfg through the public
    operations: drift, rk4, Disturbance.eval, the reference, margin and
    event_control_update (scaled by sgn), firing at every step if asked."""
    p, sp, r = cfg.plant, cfg.sliding, cfg.reference
    d = cfg.disturbance()
    h = cfg.h
    x = cfg.x0
    u = sgn * event_control_update(x, 0.0, p, d, r, sp).u
    assert traj.u[0] == u and traj.event[0], case
    for i in range(1, cfg.step_count() + 1):
        t = i * h
        x = DimlessState(*rk4(x.x1, x.x2, *drift(x.x1, x.x2, p), u,
                              t, h, p, *d.eval(t - h),
                              *d.eval((t - h) + 0.5 * h),
                              *d.eval(t)))
        dlt = reference_margin(x, u, t, cfg)
        fired = every_step or dlt >= 0.0
        if fired:
            u = sgn * event_control_update(x, t, p, d, r, sp).u
        assert traj.x1[i] == x.x1, (case, i)
        assert traj.x2[i] == x.x2, (case, i)
        assert traj.u[i] == u, (case, i)
        assert traj.delta[i] == dlt, (case, i)
        assert bool(traj.event[i]) == fired, (case, i)


def assert_records_consistent(traj, log, cfg):
    """The properties that _run_loop builds into the records of an
    event-triggered run, asserted on them: the control changes only at an
    event; V is 0.5*sigma*sigma bit for bit; t = 0 fires, and a later step
    fires exactly where its margin is nonnegative; the log's instants
    increase and its gaps are at least h, since they are the times of the
    event steps and their differences times h; it holds the margins of
    those steps, and one bound each."""
    ev = traj.event
    held = ~ev[1:]
    assert np.array_equal(traj.u[1:][held], traj.u[:-1][held])
    assert np.array_equal(traj.v, 0.5 * traj.sigma * traj.sigma)
    assert ev[0] and np.array_equal(ev[1:], traj.delta[1:] >= 0.0)
    instants, gaps = np.asarray(log.instants), np.asarray(log.gaps)
    assert np.all(np.diff(instants) > 0.0)
    assert np.all(gaps >= cfg.h)
    steps = np.flatnonzero(ev)
    assert np.array_equal(instants, traj.t[steps])
    assert np.array_equal(gaps, np.diff(steps) * cfg.h)
    assert np.array_equal(np.asarray(log.delta_at_event), traj.delta[steps])
    assert len(log.bound_at_event) == len(steps)


def test_full_horizon_records_are_consistent(default_cfg, nominal_run,
                                             disturbed_run, regulate_runs):
    # the session's full-horizon runs, which the acceptance gate reads
    runs = [(default_cfg, *nominal_run[:2]),
            (replace(default_cfg, scenario="disturbed"), *disturbed_run[:2])]
    runs += [(cfg, traj, log) for cfg, traj, log, _ in regulate_runs.values()]
    for cfg, traj, log in runs:
        assert_records_consistent(traj, log, cfg)


class TestLoopEquivalence:
    """The loop's fused kernel against the public operations, bit for bit.

    Moderate gain, so that the trigger skips grid points (the flipped
    control fires everywhere).  The disturbed cases guard the loop's reuse
    of the drift between steps, since the disturbance must still be read
    at t - h, t - h/2 and t.  At ~1000 rad per time unit an ulp in the
    stage time moves the sine, so the fast case also pins that the start
    of a step is t - h, not the previous grid time.  The plant case sets
    every drift constant the kernel hoists away from its default, and the
    regulate-400 state climbs out of LIPSCHITZ_BOX towards x2ss = 6.67.
    """

    CASES = (
        ("nominal", {}, False),
        ("disturbed", {}, False),
        ("disturbed", {"d1_freq": 997.0, "d2_freq": 1013.0}, False),
        ("nominal", {"trigger_both": 1.0, "m1": 0.5}, False),
        ("disturbed", {"x2c0": 0.37, "b_rise": 6.5, "beta": 0.45}, False),
        ("regulate", {"setpoint_kelvin": 400.0, "t_end": 2.0}, False),
        ("nominal", {}, True),
    )

    @staticmethod
    def config(scenario, values):
        return resolve_regulation(replace(
            build_config({"mu": 0.5, "t_end": 0.5, **values}),
            scenario=scenario))

    def test_matches_public_operations_bitwise(self, run_flipped):
        for scenario, values, flip in self.CASES:
            cfg = self.config(scenario, values)
            case = (scenario, values, flip)
            run = run_flipped if flip else run_event_triggered
            traj, log, _ = run(cfg)
            if scenario == "regulate":
                assert traj.x2.max() > LIPSCHITZ_BOX[1][1], case
            assert_matches_public_operations(traj, cfg, case,
                                             sgn=-1.0 if flip else 1.0)
            assert_records_consistent(traj, log, cfg)

    def test_time_triggered_matches_public_operations_bitwise(self):
        # a sparse run, and a copy of its config, so that the loop runs
        # with every_step set instead of the slot serving a dense run
        cfg = self.config("disturbed", {})
        assert not run_event_triggered(cfg)[0].event.all()
        traj, metrics = run_time_triggered(replace(cfg))
        assert_matches_public_operations(traj, cfg, "time-triggered",
                                         every_step=True)
        assert metrics.event_count == len(traj.t)


def test_loop_calls_drift_only_at_x0(monkeypatch):
    # the kernel evaluates every later drift in line: a Python call per
    # RK4 stage costs more than the arithmetic it does
    calls = []

    def counted(x1, x2, p):
        calls.append((x1, x2))
        return drift(x1, x2, p)

    monkeypatch.setattr(sim, "drift", counted)
    cfg = small_cfg(t_end=0.1)
    for run in (run_event_triggered, run_time_triggered):
        calls.clear()
        traj = run(replace(cfg))[0]
        assert cfg.step_count() == 100 and traj.event.all()
        assert calls == [(cfg.x0.x1, cfg.x0.x2)], run


def test_loop_rejects_a_short_stage_series(monkeypatch):
    # the loop iterates its series together; one a step short must fail
    # the run, not end it a step early
    grid = sim._disturbance_grid

    def short(d, ts, h):
        d1_at, d2_at, d1_0, *rest = grid(d, ts, h)
        return [d1_at, d2_at, d1_0[:-1], *rest]

    monkeypatch.setattr(sim, "_disturbance_grid", short)
    cfg = small_cfg(scenario="disturbed", t_end=0.02)
    with pytest.raises(ValueError, match="shorter"):
        sim._run_loop(cfg, every_step=False)


#: SHA-256 of the sign-flipped falsification run at t_end = 2 (1,994 of
#: 2,001 steps fire): a change to how the flip is made keeps this string.
FLIPPED_DIGEST = (
    "4c1fa5e84d411ac9130972bd759112c2b3d19663be90eef6f4b36f4a6e68bd18")


def test_flipped_run_digest(run_flipped):
    traj, log, metrics = run_flipped(build_config({"t_end": 2.0}))
    digest = hashlib.sha256()
    # the order of the benchmark's sweep digest, then the metrics
    for f in fields(Trajectory):
        digest.update(np.ascontiguousarray(getattr(traj, f.name)).tobytes())
    for f in fields(EventLog):
        digest.update(np.asarray(getattr(log, f.name), dtype=float).tobytes())
    digest.update(json.dumps(asdict(metrics)).encode())
    assert digest.hexdigest() == FLIPPED_DIGEST


def test_every_dataclass_is_frozen():
    # a record, once made, is a value: no field of it is ever reassigned
    found = []
    for info in pkgutil.iter_modules(etsmc.__path__):
        module = importlib.import_module(f"etsmc.{info.name}")
        for obj in vars(module).values():
            if (isinstance(obj, type) and is_dataclass(obj)
                    and obj.__module__ == module.__name__):
                found.append(obj.__qualname__)
                assert obj.__dataclass_params__.frozen, obj.__qualname__
    assert {"EventLog", "Trajectory", "RunManifest"} <= set(found)


class TestRunOutputs:
    def test_series_shapes_and_flags(self):
        cfg = small_cfg(t_end=1.0)
        traj, log, metrics = run_event_triggered(cfg)
        n = cfg.step_count() + 1
        for name in ("t", "x1", "x2", "x1ref", "x2ref", "u", "sigma",
                     "sigma_dot", "delta", "event", "v", "band", "eps"):
            assert len(getattr(traj, name)) == n
        assert traj.event[0]
        assert log.instants[0] == 0.0
        assert len(log.bound_at_event) == len(log.instants)
        assert all(b > 0.0 for b in log.bound_at_event)
        assert np.all(traj.v == 0.5 * traj.sigma ** 2)

    def test_event_log_holds_python_floats(self):
        # the event CSV writes repr(x), which for np.float64 is not a number
        cfg = small_cfg(t_end=1.0)
        _, log, _ = run_event_triggered(cfg)
        for name in ("instants", "gaps", "delta_at_event", "bound_at_event"):
            assert all(type(x) is float for x in getattr(log, name)), name

    def test_eps_is_distance_to_the_previous_snapshot(self):
        # eps is taken before the update at an event step, so it is the
        # distance to the previous snapshot there, not 0
        cfg = build_config({"mu": 0.5, "t_end": 2.0})
        traj, _, _ = run_event_triggered(cfg)
        assert traj.eps[0] == 0.0
        k = 0
        for i in range(1, len(traj.t)):
            assert traj.eps[i] == math.hypot(traj.x1[i] - traj.x1[k],
                                             traj.x2[i] - traj.x2[k]), i
            if traj.event[i]:
                k = i
        events = np.flatnonzero(traj.event)[1:]
        assert events.size and np.all(traj.eps[events] > 0.0)

    def test_records_are_separate_float64_buffers(self):
        traj, _, _ = run_event_triggered(
            small_cfg(scenario="disturbed", t_end=1.0))
        arrays = {f.name: getattr(traj, f.name) for f in fields(traj)}
        for name, a in arrays.items():
            assert a.dtype == (bool if name == "event" else np.float64), name
            # x1ref is one value, broadcast over the grid
            assert a.flags.c_contiguous or name == "x1ref", name
        for (na, a), (nb, b) in itertools.combinations(arrays.items(), 2):
            assert not np.shares_memory(a, b), (na, nb)

    def test_dense_log_views_the_trajectory(self, short_run):
        cfg, traj, log = short_run
        assert traj.event.all()
        for name, rec in (("instants", traj.t), ("delta_at_event", traj.delta)):
            view = np.asarray(getattr(log, name))
            assert np.shares_memory(view, rec), name
            assert getattr(log, name).readonly and not view.flags.writeable
        # every gap is 1*h = h: one value broadcast over the gaps
        gaps = np.asarray(log.gaps)
        assert log.gaps.readonly and not gaps.flags.writeable
        assert gaps.strides == (0,)
        assert gaps.tobytes() == np.full(cfg.step_count(), cfg.h).tobytes()

    def test_sparse_log_owns_its_values(self, sparse_run):
        _, traj, log = sparse_run
        for name in ("instants", "gaps", "delta_at_event"):
            assert getattr(log, name).readonly, name
            assert getattr(log, name).c_contiguous, name
            for rec in (traj.t, traj.delta):
                assert not np.shares_memory(np.asarray(getattr(log, name)),
                                            rec), name
        assert np.array_equal(log.instants, traj.t[traj.event])
        assert np.array_equal(log.delta_at_event, traj.delta[traj.event])

    def test_x1ref_is_a_read_only_view_of_one_value(self, short_run):
        cfg, traj, _ = short_run
        assert traj.x1ref.strides == (0,) and not traj.x1ref.flags.writeable
        assert (traj.x1ref.tobytes() == np.full(
            cfg.step_count() + 1, cfg.reference.x1_const).tobytes())

    def test_peak_memory_per_step(self, traced_peak):
        # the loop writes float64 buffers in place: about 145 B per step at
        # peak, 122 of them kept by the Trajectory and the EventLog (a
        # dense run keeps no gaps); 150 leaves a 3% margin, below the 153 a
        # dense run took while it kept its gaps
        cfg = small_cfg(t_end=5.0)
        _, _, peak = traced_peak(run_event_triggered, cfg,
                                 warm=(small_cfg(t_end=0.02),))
        assert peak / cfg.step_count() <= 150

    def test_physical_range_warning(self):
        # one warning, at the first step past 1 + X1_PHYSICAL_TOL, and
        # attributed to the caller of the run (stacklevel); a copy of the
        # config makes the baseline run its own loop
        cfg = small_cfg(x0=DimlessState(1.2, 0.0), t_end=0.1)
        for run, arg in ((run_event_triggered, cfg),
                         (run_time_triggered, replace(cfg))):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                run(arg)
            assert [(str(w.message), w.category, w.filename)
                    for w in caught] == [
                ("x1=1.1988 exceeds feed conversion at t=0.0010",
                 RuntimeWarning, __file__)], run


def test_run_api_takes_only_the_config():
    # a parameter that only tests set would give the loop a second law
    for run in (run_event_triggered, run_time_triggered):
        assert list(inspect.signature(run).parameters) == ["cfg"], run


def assert_same_bits(a, b):
    for f in fields(Trajectory):
        x, y = getattr(a, f.name), getattr(b, f.name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), f.name


class TestBaselineReuse:
    """A dense event-triggered run serves its own time-triggered baseline."""

    def test_dense_run_is_its_own_baseline(self):
        cfg = small_cfg(t_end=0.5)
        et_traj, _, et_metrics = run_event_triggered(cfg)
        assert et_traj.event.all()
        traj, metrics = run_time_triggered(cfg)
        assert traj is et_traj and metrics is et_metrics
        # a copy of the config is another object, so it runs the loop
        loop_traj, loop_metrics = run_time_triggered(replace(cfg))
        assert loop_traj is not et_traj
        assert_same_bits(traj, loop_traj)
        assert metrics == loop_metrics

    def test_sparse_run_is_not_reused(self):
        cfg = build_config({"t_end": 0.5, "mu": 1.0, "m1": 1.0})
        et_traj = run_event_triggered(cfg)[0]
        assert not et_traj.event.all()
        traj, metrics = run_time_triggered(cfg)
        assert traj.event.all()
        assert metrics.event_count == cfg.step_count() + 1
        assert not np.array_equal(traj.u, et_traj.u)

    def test_config_matches_by_identity(self):
        cfg = small_cfg(t_end=0.5)
        signed = replace(cfg, x0=DimlessState(0.0, -0.0))
        assert signed == cfg
        et_traj = run_event_triggered(cfg)[0]
        assert not np.signbit(et_traj.x2[0])
        assert np.signbit(run_time_triggered(signed)[0].x2[0])
        assert not np.signbit(run_time_triggered(cfg)[0].x2[0])

    def test_slot_holds_the_trajectory_weakly(self):
        cfg = small_cfg(t_end=0.5)
        expected, expected_metrics = run_time_triggered(replace(cfg))
        result = run_event_triggered(cfg)
        ref = weakref.ref(result[0])
        del result
        gc.collect()
        assert ref() is None
        traj, metrics = run_time_triggered(cfg)
        assert_same_bits(traj, expected)
        assert metrics == expected_metrics

    def test_trajectory_arrays_are_read_only(self):
        cfg = small_cfg(t_end=0.1)
        for traj in (run_event_triggered(cfg)[0],
                     run_time_triggered(replace(cfg))[0]):
            for f in fields(Trajectory):
                assert not getattr(traj, f.name).flags.writeable, f.name
            with pytest.raises(ValueError, match="read-only"):
                traj.u[0] = 1.0


def synthetic_traj(sigma, sigma_dot, band=0.01):
    n = len(sigma)
    sigma = np.asarray(sigma, dtype=float)
    sigma_dot = np.asarray(sigma_dot, dtype=float)
    event = np.zeros(n, dtype=bool)
    event[0] = True
    return Trajectory(
        t=np.linspace(0.0, n - 1.0, n), x1=np.zeros(n), x2=np.zeros(n),
        x1ref=np.zeros(n), x2ref=np.zeros(n), u=np.zeros(n),
        sigma=sigma, sigma_dot=sigma_dot, delta=np.full(n, -1.0),
        event=event, v=0.5 * sigma * sigma, band=np.full(n, band),
        eps=np.zeros(n))


class TestReachability:
    def test_decay_rate(self):
        traj = synthetic_traj([2.0, 1.0, 0.5], [-1.0, -0.6, -0.25])
        res = verify_reachability(traj)
        assert res.applicable
        # rates are (1.0, 0.6, 0.25); the slowest is 0.25
        assert res.eta_hat == pytest.approx(0.25)
        assert res.violations == []

    def test_flags_violations(self):
        traj = synthetic_traj([2.0, 1.0, 0.5], [-1.0, 0.3, -0.25])
        res = verify_reachability(traj)
        assert res.violations == [1]
        assert res.eta_hat < 0.0

    def test_overflowing_product_keeps_its_sign(self):
        # sigma*sigma_dot = +-1e350 overflows to +-inf, which still decides
        res = verify_reachability(
            synthetic_traj([1e150, 1e150], [1e200, -1e200]))
        assert res.violations == [0]

    def test_not_applicable_inside_band(self):
        traj = synthetic_traj([0.001, -0.002], [1.0, 1.0], band=0.01)
        res = verify_reachability(traj)
        assert res == ReachabilityResult(applicable=False, eta_hat=None,
                                         violations=[])


class TestMetrics:
    def test_hand_check_on_short_run(self):
        cfg = small_cfg(t_end=1.0)
        traj, log, metrics = run_event_triggered(cfg)
        assert metrics.step_count == 1000
        assert metrics.event_count == len(log.instants)
        assert metrics.event_ratio == metrics.event_count / 1000
        tail = traj.t >= 0.8
        assert metrics.steady_band_x1_min == traj.x1[tail].min()
        assert metrics.steady_band_x1_max == traj.x1[tail].max()
        e2 = traj.x2 - traj.x2ref
        assert metrics.tracking_rmse == pytest.approx(
            math.sqrt(float(np.mean(e2 * e2))))
        assert metrics.max_discretization_error == traj.eps.max()

    def test_mean_gap_sums_left_to_right(self):
        # ten gaps of 0.1 sum to 0.9999999999999999 left to right, and to
        # 1.0 in the compensated sum() of Python 3.12 and later
        traj = synthetic_traj([1.0] * 11, [-1.0] * 11)
        metrics = sim.compute_metrics(traj, [0.1] * 10)
        assert metrics.mean_gap == 0.09999999999999999

    def test_overflowing_tracking_error_reads_inf(self):
        # e2 = -1e300 while sigma = 2*e1 + 2*e2 cancels to 0
        cfg = build_config({"x1ref": -1e300, "lambda1": 2.0, "x2ss": 1e300,
                            "k1": 0.0, "t_end": 0.02})
        assert run_event_triggered(cfg)[2].tracking_rmse == math.inf


@pytest.fixture(scope="module")
def short_run():
    cfg = small_cfg(t_end=1.0)
    traj, log, _ = run_event_triggered(cfg)
    return cfg, traj, log


@pytest.fixture(scope="module")
def sparse_run():
    """Smaller switching gain: the trigger then skips most grid points."""
    cfg = small_cfg(sliding=SlidingParams(1.0, 2.0, 0.5), t_end=1.0)
    traj, log, _ = run_event_triggered(cfg)
    assert not traj.event.all()
    return cfg, traj, log


class TestInvariants:
    def test_clean_short_run_passes(self, short_run):
        cfg, traj, log = short_run
        assert check_invariants(traj, log, cfg) == []

    def test_detects_nonpositive_zeno_bound(self, short_run):
        cfg, traj, log = short_run
        for value in (0.0, math.nan):
            bounds = list(log.bound_at_event)
            bounds[3] = value
            bad = replace(log, bound_at_event=bounds)
            assert check_invariants(traj, bad, cfg) == ["zeno-bound-positive"]


def _rowwise_trajectory_csv(traj):
    """The per-row trajectory formatter the block writer replaced."""
    lines = ["t,x1,x2,x1ref,x2ref,u,sigma,delta,event"]
    cols = (traj.t, traj.x1, traj.x2, traj.x1ref, traj.x2ref,
            traj.u, traj.sigma, traj.delta)
    for i in range(len(traj.t)):
        vals = ",".join(repr(float(c[i])) for c in cols)
        lines.append(f"{vals},{int(traj.event[i])}")
    return "\n".join(lines) + "\n"


class TestTrajectoryCsv:
    def test_writer_text_is_bounded_by_the_block(self, tmp_path,
                                                 traced_peak):
        # an event at every row: the writer holds one CSV_BLOCK of eight
        # formatted columns at a time, about 0.56 MB at 512 rows, most of
        # it the scratch of the block's one kernel pass; 750,000 B leaves
        # a 33% margin, below the 0.79 MB it took while the writer read
        # whole columns
        traj, _, _ = run_event_triggered(small_cfg(t_end=10.0))
        assert len(traj.t) == 10_001 and traj.event.all()
        _, kept, peak = traced_peak(write_trajectory_csv, traj,
                                    tmp_path / "trajectory.csv")
        assert peak - kept <= 750_000

    @pytest.mark.parametrize("name,rows", [("sigma", -1), ("event", 1)],
                             ids=["short-sigma", "long-event"])
    def test_columns_must_match_t(self, tmp_path, name, rows):
        # checked before the file is opened, so a refused call leaves a
        # good trajectory.csv as it was
        traj, _, _ = run_event_triggered(small_cfg(t_end=2.0))
        n = len(traj.t)
        path = tmp_path / "trajectory.csv"
        write_trajectory_csv(traj, path)
        written = path.read_bytes()
        col = getattr(traj, name)
        col = col[:rows] if rows < 0 else np.append(col, col[:rows])
        lengths = tuple(n + rows * (c == name) for c in (
            "t", "x1", "x2", "x1ref", "x2ref", "u", "sigma", "delta", "event"))
        with pytest.raises(ValueError, match=re.escape(
                f"hold {lengths} rows, not {n} each")):
            write_trajectory_csv(replace(traj, **{name: col}), path)
        assert path.read_bytes() == written

    def test_blocks_match_rowwise_formatter(self, tmp_path):
        n = 2 * CSV_BLOCK + 3
        rng = np.random.default_rng(4)
        special = [-0.0, math.nan, math.inf, 5e-324, 1e16, 1e-5]
        traj = synthetic_traj(rng.standard_normal(n), rng.standard_normal(n))
        traj.event[:] = rng.random(n) < 0.5
        for j, name in enumerate(("t", "x1", "x2", "x1ref", "x2ref", "u",
                                  "sigma", "delta")):
            col = getattr(traj, name)
            col[:] = rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, n)
            # the special values at the block edges and inside a block
            for k, v in enumerate(special):
                col[[CSV_BLOCK - 1 + k + j, 2 * CSV_BLOCK + j % 3,
                     17 * k + j]] = v
        path = tmp_path / "trajectory.csv"
        write_trajectory_csv(traj, path)
        assert path.read_bytes() == _rowwise_trajectory_csv(traj).encode()
        assert len(path.read_text().splitlines()) == n + 1
