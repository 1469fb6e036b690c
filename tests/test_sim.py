import itertools
import math
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from etsmc.config import build_config
from etsmc.controller import SlidingParams, event_control_update
from etsmc.plant import (DimlessParams, DimlessState, Disturbance,
                         InvalidParameterError, drift)
from etsmc.sim import (ReachabilityResult, Trajectory, check_invariants,
                       resolve_regulation, rk4, rk4_step, run_event_triggered,
                       run_time_triggered, verify_reachability,
                       write_trajectory_csv)
from etsmc.trigger import CSV_BLOCK, margin, thresholds

NOMINAL = DimlessParams(da=0.078, gamma=20.0, b_rise=8.0, beta=0.3, x2c0=0.0)
LINEAR = DimlessParams(da=1e-300, gamma=20.0, b_rise=8.0, beta=0.3, x2c0=0.0)


def small_cfg(**overrides):
    cfg = build_config({})
    return replace(cfg, **overrides)


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            small_cfg(h=0.0)
        with pytest.raises(InvalidParameterError):
            small_cfg(t_end=0.005)  # below 10*h
        with pytest.raises(InvalidParameterError):
            small_cfg(scenario="warp")
        with pytest.raises(InvalidParameterError):
            small_cfg(scenario="regulate")  # setpoint missing
        # lambda2*beta, the divisor of the Zeno bound's M, underflows to
        # -0.0: caught with the config, before a run divides by it
        with pytest.raises(InvalidParameterError, match=r"lambda2\*beta"):
            small_cfg(sliding=SlidingParams(1.0, -5e-324, 25.0))
        # a zero lambda1, or one so small that the division overflows,
        # makes the band tols/min(|lambda1|, |lambda2|) infinite
        for lam1 in (0.0, 5e-324, -5e-324):
            with pytest.raises(InvalidParameterError, match="trigger band"):
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

    def test_fourth_order_convergence(self):
        def integrate(n):
            h = 1.0 / n
            x = DimlessState(1.0, 0.0)
            for i in range(n):
                x = rk4_step(x, 0.0, i * h, h, LINEAR, Disturbance.zero())
            return abs(x.x1 - math.exp(-1.0))

        order = math.log2(integrate(16) / integrate(32))
        assert order >= 3.9

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
        with pytest.raises(InvalidParameterError):
            rk4_step(DimlessState(0.0, 0.0), 0.0, 0.0, 0.0, NOMINAL,
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


class TestLoopEquivalence:
    # moderate gain so that the trigger skips grid points (the flipped
    # control fires everywhere); the disturbed cases guard the loop's reuse
    # of the drift between steps, since the disturbance must still be read
    # at t - h, t - h/2 and t.  At ~1000 rad per time unit an ulp in the
    # stage time moves the sine, so the fast case also pins that the start
    # of a step is t - h, not the previous grid time
    CASES = (
        ("nominal", {}, False),
        ("disturbed", {}, False),
        ("disturbed", {"d1_freq": 997.0, "d2_freq": 1013.0}, False),
        ("nominal", {"trigger_both": 1.0, "m1": 0.5}, False),
        ("nominal", {}, True),
    )

    def test_matches_public_operations_bitwise(self):
        for scenario, values, flip in self.CASES:
            cfg = build_config({"mu": 0.5, "t_end": 0.5, **values},
                               scenario=scenario)
            case = (scenario, values, flip)
            traj, log, _ = run_event_triggered(cfg, flip_control_sign=flip)
            sgn = -1.0 if flip else 1.0
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
                fired = dlt >= 0.0
                if fired:
                    u = sgn * event_control_update(x, t, p, d, r, sp).u
                assert traj.x1[i] == x.x1, (case, i)
                assert traj.x2[i] == x.x2, (case, i)
                assert traj.u[i] == u, (case, i)
                assert traj.delta[i] == dlt, (case, i)
                assert bool(traj.event[i]) == fired, (case, i)
            assert list(log.instants) == [
                i * h for i in np.flatnonzero(traj.event)]

    def test_time_triggered_fires_everywhere(self):
        cfg = small_cfg(t_end=0.2)
        traj, metrics = run_time_triggered(cfg)
        assert traj.event.all()
        assert metrics.event_count == cfg.step_count() + 1
        assert metrics.min_gap == pytest.approx(cfg.h)


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

    def test_determinism(self):
        cfg = small_cfg(t_end=1.0)
        a = run_event_triggered(cfg)[0]
        b = run_event_triggered(cfg)[0]
        for name in ("x1", "x2", "u", "sigma", "delta"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

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
            assert a.flags.c_contiguous, name
        for (na, a), (nb, b) in itertools.combinations(arrays.items(), 2):
            assert not np.shares_memory(a, b), (na, nb)

    def test_peak_memory_per_step(self):
        # the loop writes float64 buffers in place: about 186 B per step at
        # peak, 155 of them kept by the Trajectory and the EventLog; the
        # warm-up fills the Lipschitz cache, whose samples would count here
        cfg = small_cfg(t_end=5.0)
        run_event_triggered(small_cfg(t_end=0.02))
        tracemalloc.start()
        try:
            run_event_triggered(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / cfg.step_count() <= 220

    def test_physical_range_warning(self):
        cfg = small_cfg(x0=DimlessState(1.2, 0.0), t_end=0.1)
        with pytest.warns(RuntimeWarning, match="exceeds feed conversion"):
            run_event_triggered(cfg)


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

    def test_detects_mid_interval_control_change(self, sparse_run):
        cfg, traj, log = sparse_run
        bad = replace_field(traj, "u")
        idx = int(np.flatnonzero(~traj.event)[0])
        bad.u[idx] += 1.0
        assert "control-piecewise-constant" in check_invariants(bad, log, cfg)

    def test_detects_lyapunov_mismatch(self, short_run):
        cfg, traj, log = short_run
        bad = replace_field(traj, "v")
        bad.v[5] += 1e-9
        assert "lyapunov-consistency" in check_invariants(bad, log, cfg)

    def test_detects_event_log_drift(self, short_run):
        cfg, traj, log = short_run
        from etsmc.trigger import EventLog
        clipped = EventLog(instants=log.instants[:-1],
                           gaps=log.gaps[:-1],
                           bound_at_event=log.bound_at_event[:-1],
                           delta_at_event=log.delta_at_event[:-1])
        assert "event-cross-consistency" in check_invariants(
            traj, clipped, cfg)

    def test_detects_nonpositive_zeno_bound(self, short_run):
        cfg, traj, log = short_run
        bounds = list(log.bound_at_event)
        bounds[3] = 0.0
        bad = replace(log, bound_at_event=bounds)
        assert check_invariants(traj, bad, cfg) == ["zeno-bound-positive"]

    def test_detects_unordered_instants(self, short_run):
        cfg, traj, log = short_run
        instants = list(log.instants)
        instants[3], instants[4] = instants[4], instants[3]
        bad = replace(log, instants=instants)
        assert check_invariants(traj, bad, cfg) == ["instants-increasing"]
        instants[4] = instants[3]
        assert "instants-increasing" in check_invariants(traj, bad, cfg)

    def test_detects_subgrid_gap(self, short_run):
        cfg, traj, log = short_run
        gaps = list(log.gaps)
        gaps[2] = 0.5 * cfg.h
        bad = replace(log, gaps=gaps)
        assert check_invariants(traj, bad, cfg) == ["gaps-ge-step"]

    def test_detects_missed_fire(self, sparse_run):
        cfg, traj, log = sparse_run
        bad = replace_field(traj, "delta")
        idx = int(np.flatnonzero(~traj.event)[0])
        bad.delta[idx] = 0.5
        assert "delta-log-consistency" in check_invariants(bad, log, cfg)


def replace_field(traj, name):
    kwargs = {f: getattr(traj, f).copy() for f in (
        "t", "x1", "x2", "x1ref", "x2ref", "u", "sigma", "sigma_dot",
        "delta", "event", "v", "band", "eps")}
    return Trajectory(**kwargs)


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
    def test_writer_text_is_bounded_by_the_block(self, tmp_path):
        # an event at every row: the writer holds one CSV_BLOCK of eight
        # formatted columns at a time, about 1.5 MB at 1,024 rows (5.8 MB
        # at 4,096), on top of the event-row text it returns
        traj, _, _ = run_event_triggered(small_cfg(t_end=10.0))
        assert len(traj.t) == 10_001 and traj.event.all()
        tracemalloc.start()
        try:
            text = write_trajectory_csv(traj, tmp_path / "trajectory.csv")
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(t.count("\n") + 1 for t, _ in text) == 10_001
        assert peak - kept <= 2_000_000

    def test_roundtrip_exact(self, tmp_path):
        cfg = small_cfg(t_end=0.05)
        traj, _, _ = run_event_triggered(cfg)
        path = tmp_path / "trajectory.csv"
        write_trajectory_csv(traj, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,x1,x2,x1ref,x2ref,u,sigma,delta,event"
        assert len(lines) == len(traj.t) + 1
        cols = list(zip(*(ln.split(",") for ln in lines[1:])))
        for j, name in enumerate(("t", "x1", "x2", "x1ref", "x2ref", "u",
                                  "sigma", "delta")):
            back = np.array([float(v) for v in cols[j]])
            assert np.array_equal(back, getattr(traj, name))
        assert [int(v) for v in cols[8]] == list(traj.event.astype(int))

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
