"""Closed-loop fixed-step integration, metrics and Lyapunov verification.

One run is one sequential loop over a uniform time grid.  Per grid point:
evaluate the tracking errors and the trigger margin with the currently held
control, recompute the held control if the margin is nonnegative (the first
computation at t = 0 is an event by definition), integrate one RK4 step with
the control frozen across stages, and record.  Identical configurations give
bit-identical outputs.

The per-step body is one fused kernel.  It evaluates plant.drift (at the
three later RK4 stages and at the new state), the rest of rk4 and
trigger.margin in line, with their constants hoisted into locals and every
operation in its operand order, so each float equals what those functions
give bit for bit and the step makes no Python call.  Where plant.drift
would raise on a singular denominator, the loop calls it at that point;
where an exp overflows, the loop replays the step through rk4 and
plant.drift from its recorded start.  So every error and its text still
come from plant.drift.  tests/test_sim.py::TestLoopEquivalence
replays runs through plant.drift, rk4 and trigger.margin as the bitwise
oracle of the kernel.
"""

from __future__ import annotations

import math
import weakref
from collections.abc import Sequence
from dataclasses import dataclass, replace
from itertools import compress
from typing import Optional

import numpy as np

from .controller import ReferenceSignal, SlidingParams, switching_law
from .plant import (SINGULAR_TOL, ConfigError, DimlessParams, DimlessState,
                    Disturbance, PlantError, composition_nullcline, drift,
                    kelvin_to_x2)
from .trigger import (EventLog, TriggerParams, estimate_lipschitz, thresholds,
                      zeno_bound, zeno_bounds)

SCENARIOS = ("nominal", "disturbed", "regulate")

#: Ceiling on the steps of one run, checked before any array is allocated
#: (20x the default horizon).  A run_event_triggered step peaks at about
#: 145 bytes (tracemalloc) when every step fires, 122 of them kept in the
#: returned records; a sparse run keeps up to 144 and peaks at about 161.
MAX_STEPS = 1_000_000

#: The tails of a trajectory row's eight value cells, by its event flag.
_ROW_TAILS = np.array([[b","] * 7 + [b",0\n"], [b","] * 7 + [b",1\n"]])


@dataclass(frozen=True)
class SimConfig:
    """Fully resolved inputs of one closed-loop run."""

    plant: DimlessParams
    sliding: SlidingParams
    trigger: TriggerParams
    reference: ReferenceSignal
    h: float
    t_end: float
    x0: DimlessState
    scenario: str
    d1_amp: float
    d1_freq: float
    d2_amp: float
    d2_freq: float
    setpoint_kelvin: Optional[float]
    tf0_kelvin: float

    def __post_init__(self) -> None:
        if not 0.0 < self.h < math.inf:
            raise ConfigError("h must be positive and finite")
        if not 10.0 * self.h <= self.t_end < math.inf:
            raise ConfigError("t_end must be finite and at least 10*h")
        if not self.t_end / self.h <= MAX_STEPS:
            raise ConfigError(
                f"t_end/h = {self.t_end / self.h:.6g} steps exceeds the "
                f"ceiling of {MAX_STEPS}")
        # ts[n] of _run_loop, the grid's last time
        n = self.step_count()
        if not math.isfinite(n * self.h):
            raise ConfigError(f"the last grid time {n}*h = {n * self.h} is "
                              "not finite")
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}")
        # the divisor of controller.switching_law; it can underflow
        den = self.sliding.lambda2 * self.plant.beta
        if not (den != 0.0 and math.isfinite(den)):
            raise ConfigError(f"lambda2*beta = {den} is zero or not finite")
        # the band tols/min(|lambda1|, |lambda2|) is widest at t = 0; an
        # infinite band would make the reaching checks pass vacuously
        tp = self.trigger
        lam = min(abs(self.sliding.lambda1), abs(self.sliding.lambda2))
        band0 = tp.psi * (tp.m1 + tp.m2) / lam if lam > 0.0 else math.inf
        if not math.isfinite(band0):
            raise ConfigError(
                f"trigger band tols/min(|lambda1|, |lambda2|) = {band0} at "
                "t = 0 is not finite")
        if self.scenario == "regulate":
            if self.setpoint_kelvin is None:
                raise ConfigError("regulate scenario requires setpoint_kelvin")
            if not 0.0 < self.tf0_kelvin < math.inf:
                raise ConfigError("tf0_kelvin must be positive and finite")

    def disturbance(self) -> Disturbance:
        if self.scenario == "disturbed":
            return Disturbance(self.d1_amp, self.d1_freq,
                               self.d2_amp, self.d2_freq)
        return Disturbance.zero()

    def step_count(self) -> int:
        return math.ceil(self.t_end / self.h - 1e-9)


def resolve_regulation(cfg: SimConfig) -> SimConfig:
    """Rebuild the reference for a regulate run from the kelvin setpoint.

    The temperature asymptote comes from the setpoint conversion; the
    composition reference is placed on the reaction nullcline at that
    temperature so that sliding (sigma = 0) does not trade temperature
    accuracy against an unreachable composition target.
    """
    if cfg.scenario != "regulate":
        return cfg
    x2ss = kelvin_to_x2(cfg.setpoint_kelvin, cfg.tf0_kelvin, cfg.plant.gamma)
    if not math.isfinite(x2ss):
        raise ConfigError(
            f"the setpoint {cfg.setpoint_kelvin} K, tf0_kelvin = "
            f"{cfg.tf0_kelvin} and gamma = {cfg.plant.gamma} give an x2 "
            f"reference of {x2ss}")
    x1ref = composition_nullcline(x2ss, cfg.plant)
    ref = replace(cfg.reference, x1_const=x1ref, x2ss=x2ss)
    return replace(cfg, reference=ref)


@dataclass(frozen=True)
class Trajectory:
    """Time-indexed records of one run; all series share one length.

    The arrays of a run's trajectory are read-only: one may be handed out
    again as the run's time-triggered baseline (see run_time_triggered).
    x1ref, a constant, is its one value broadcast over the grid (stride 0).
    """

    t: np.ndarray
    x1: np.ndarray
    x2: np.ndarray
    x1ref: np.ndarray
    x2ref: np.ndarray
    u: np.ndarray
    sigma: np.ndarray
    sigma_dot: np.ndarray
    delta: np.ndarray
    event: np.ndarray
    v: np.ndarray
    band: np.ndarray
    eps: np.ndarray  # ||x(t) - x(t_k)||, t_k the last event before t


@dataclass(frozen=True)
class ReachabilityResult:
    """Outcome of the empirical reaching-inequality check."""

    applicable: bool
    eta_hat: Optional[float]
    violations: list[int]


@dataclass(frozen=True)
class Metrics:
    """Flat per-run summary."""

    event_count: int
    step_count: int
    event_ratio: float
    min_gap: Optional[float]
    mean_gap: Optional[float]
    max_gap: Optional[float]
    eta_hat: Optional[float]
    eta_violations: int
    steady_band_x1_min: float
    steady_band_x1_max: float
    tracking_rmse: float
    max_discretization_error: float


def rk4(x1: float, x2: float, f1: float, f2: float, u: float,
        t_next: float, h: float, p: DimlessParams,
        d1_0: float, d2_0: float, d1_mid: float, d2_mid: float,
        d1_end: float, d2_end: float) -> tuple[float, float]:
    """One classical RK4 step of length h from (x1, x2), u held (ZOH).

    (f1, f2) is drift(x1, x2, p), taken from the caller because the loop
    has already evaluated it at this state.  The disturbance pair (d1, d2)
    is given at the start, the middle and the end of the step; t_next, the
    end time, only names the step in an error.
    """
    bu = p.beta * u
    half = 0.5 * h
    a1 = f1 - d2_0
    a2 = f2 + bu + d1_0
    b1, b2 = drift(x1 + half * a1, x2 + half * a2, p)
    b1 = b1 - d2_mid
    b2 = b2 + bu + d1_mid
    c1, c2 = drift(x1 + half * b1, x2 + half * b2, p)
    c1 = c1 - d2_mid
    c2 = c2 + bu + d1_mid
    e1, e2 = drift(x1 + h * c1, x2 + h * c2, p)
    e1 = e1 - d2_end
    e2 = e2 + bu + d1_end
    x1 += h / 6.0 * (a1 + 2.0 * b1 + 2.0 * c1 + e1)
    x2 += h / 6.0 * (a2 + 2.0 * b2 + 2.0 * c2 + e2)
    if not (math.isfinite(x1) and math.isfinite(x2)):
        raise PlantError(f"state became nonfinite at t={t_next}: ({x1}, {x2})")
    return x1, x2


def rk4_step(x: DimlessState, u: float, t: float, h: float,
             p: DimlessParams, d: Disturbance) -> DimlessState:
    """Classical 4-stage step with u held constant across stages (ZOH)."""
    if not h > 0.0:
        raise ConfigError("h must be positive")
    f1, f2 = drift(x.x1, x.x2, p)
    t_next = t + h
    return DimlessState(*rk4(x.x1, x.x2, f1, f2, u, t_next, h, p,
                             *d.eval(t), *d.eval(t + 0.5 * h),
                             *d.eval(t_next)))


def _disturbance_grid(d: Disturbance, ts: np.ndarray, h: float
                      ) -> list[memoryview]:
    """(d1, d2) at the grid ts, then at the start and the middle of the
    step from t - h to t = ts[i], at index i; t - h need not equal the
    previous grid time.  Index 0 of the stage series, before any step, is
    a placeholder."""
    if d.amp1 == 0.0 and d.amp2 == 0.0:
        # no sin to take, and one shared buffer serves every stage
        return [memoryview(np.zeros(len(ts)))] * 6
    t0s = ts - h
    return list(map(memoryview, (*d.series(ts), *d.series(t0s),
                                 *d.series(t0s + 0.5 * h))))


def _run_loop(cfg: SimConfig, every_step: bool
              ) -> tuple[Trajectory, memoryview, memoryview, memoryview]:
    """traj and, as read-only views, its event instants, gaps and margins."""
    p, sp, tp, r = cfg.plant, cfg.sliding, cfg.trigger, cfg.reference
    d = cfg.disturbance()
    n = cfg.step_count()
    h = cfg.h
    lam1, lam2 = sp.lambda1, sp.lambda2
    x1ref = r.x1_const
    # the constants of plant.drift, rk4 and trigger.margin (see the module
    # docstring); b_rise*da*(1-x1)*ex associates left, so hoisting its
    # first product is exact
    gamma, da, beta, x2c0 = p.gamma, p.da, p.beta, p.x2c0
    bda = p.b_rise * p.da
    half, h6 = 0.5 * h, h / 6.0
    zeta, xi, both = tp.zeta, tp.xi, tp.trigger_both
    exp, hypot, isfinite, inf = math.exp, math.hypot, math.isfinite, math.inf

    # the time-only series come from their array homes; i*h here equals
    # the scalar i * h bit for bit.  The loop reads every series by
    # iteration, and writes every record in place, through memoryviews.
    ts = np.arange(n + 1) * h
    x2rs, x2rds = r.x2ref_series(ts)
    tols = thresholds(ts, tp)
    t_at, x2ref_at, x2ref_dot_at, tol_at = map(memoryview,
                                               (ts, x2rs, x2rds, tols))
    d1_at, d2_at, d1_0, d2_0, d1_mid, d2_mid = _disturbance_grid(d, ts, h)

    x1s, x2s, us, sigds, dlts, epss = (np.zeros(n + 1) for _ in range(6))
    evts = np.zeros(n + 1, dtype=bool)
    x1_to, x2_to, u_to, sigd_to, dlt_to, eps_to, evt_to = map(
        memoryview, (x1s, x2s, us, sigds, dlts, epss, evts))

    x1, x2 = cfg.x0.x1, cfg.x0.x2
    u = 0.0
    bu = beta * u
    xk1, xk2 = x1, x2
    f1, f2 = drift(x1, x2, p)

    # Each drift below is plant.drift in line.  Where 1 + x2/gamma lies
    # within SINGULAR_TOL of zero, the loop calls plant.drift at that point
    # instead, so the error is its own; an overflowing exp is replayed.
    # strict: a short series fails here rather than dropping the last steps
    for i, d1v, d2v, d1s, d2s, d1m, d2m, x2ref, x2ref_dot, tol in zip(
            range(n + 1), d1_at, d2_at, d1_0, d2_0, d1_mid, d2_mid,
            x2ref_at, x2ref_dot_at, tol_at, strict=True):
        if i > 0:
            # rk4 from (x1, x2), whose drift (f1, f2) is stage 1
            try:
                a1 = f1 - d2s
                a2 = f2 + bu + d1s
                y1 = x1 + half * a1
                y2 = x2 + half * a2
                den = 1.0 + y2 / gamma
                if -SINGULAR_TOL < den < SINGULAR_TOL:
                    drift(y1, y2, p)
                ex = exp(y2 / den)
                rem = 1.0 - y1
                b1 = -y1 + da * rem * ex - d2m
                b2 = -y2 + bda * rem * ex - beta * (y2 - x2c0) + bu + d1m
                y1 = x1 + half * b1
                y2 = x2 + half * b2
                den = 1.0 + y2 / gamma
                if -SINGULAR_TOL < den < SINGULAR_TOL:
                    drift(y1, y2, p)
                ex = exp(y2 / den)
                rem = 1.0 - y1
                c1 = -y1 + da * rem * ex - d2m
                c2 = -y2 + bda * rem * ex - beta * (y2 - x2c0) + bu + d1m
                y1 = x1 + h * c1
                y2 = x2 + h * c2
                den = 1.0 + y2 / gamma
                if -SINGULAR_TOL < den < SINGULAR_TOL:
                    drift(y1, y2, p)
                ex = exp(y2 / den)
                rem = 1.0 - y1
                w1 = -y1 + da * rem * ex - d2v
                w2 = -y2 + bda * rem * ex - beta * (y2 - x2c0) + bu + d1v
                x1 += h6 * (a1 + 2.0 * b1 + 2.0 * c1 + w1)
                x2 += h6 * (a2 + 2.0 * b2 + 2.0 * c2 + w2)
                if not (isfinite(x1) and isfinite(x2)):
                    raise PlantError(
                        f"state became nonfinite at t={t_at[i]}: ({x1}, {x2})")
                # also stage 1 of the next step: same state, same drift
                den = 1.0 + x2 / gamma
                if -SINGULAR_TOL < den < SINGULAR_TOL:
                    drift(x1, x2, p)
                ex = exp(x2 / den)
                rem = 1.0 - x1
                f1 = -x1 + da * rem * ex
                f2 = -x2 + bda * rem * ex - beta * (x2 - x2c0)
            except OverflowError:
                # an exp overflowed: replay the step from its recorded
                # start through rk4 and plant.drift, which raise there
                drift(*rk4(x1_to[i - 1], x2_to[i - 1], f1, f2, u, t_at[i],
                           h, p, d1s, d2s, d1m, d2m, d1v, d2v), p)
                raise

        e1 = x1 - x1ref
        e2 = x2 - x2ref
        e1dot = f1 - d2v
        e2dot = f2 + bu + d1v - x2ref_dot
        # trigger.margin
        val = abs(zeta * e1 + xi * e1dot * e1dot) if both else -inf
        v2 = abs(zeta * e2 + xi * e2dot * e2dot)
        if v2 > val:
            val = v2
        dlt_to[i] = delta = val - tol
        # discretization error relative to the snapshot held until now,
        # taken before any update at this instant: 0 at t = 0, and at any
        # later event step the distance to the previous snapshot
        eps_to[i] = hypot(x1 - xk1, x2 - xk2)

        if i == 0 or delta >= 0.0 or every_step:
            u = switching_law(e1, e2, e1dot, f2 + d1v - x2ref_dot, sp, beta)
            bu = beta * u
            xk1, xk2 = x1, x2
            e2dot = f2 + bu + d1v - x2ref_dot
            evt_to[i] = True

        x1_to[i] = x1
        x2_to[i] = x2
        u_to[i] = u
        sigd_to[i] = lam1 * e1dot + lam2 * e2dot

    # the inputs go before the post-pass allocates; tols becomes the band
    del x2rds, x2ref_dot_at, d1_at, d2_at, d1_0, d2_0, d1_mid, d2_mid
    # sigma = lam1*(x1 - x1ref) + lam2*(x2 - x2ref) and V = 0.5*sigma*sigma
    # in place: the same products and sums, so the same bits
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        sig = np.subtract(x1s, x1ref)
        sig *= lam1
        v = np.subtract(x2s, x2rs)
        v *= lam2
        sig += v
        np.multiply(sig, 0.5, out=v)
        v *= sig
    # a nonfinite V would make the Lyapunov checks pass vacuously
    bad = np.flatnonzero(~np.isfinite(v))
    if bad.size:
        raise PlantError(
            f"sigma or V = sigma^2/2 is not finite at t={ts[bad[0]]}")
    # a nonfinite u makes the next state nan, so only the last step holds one
    bad = np.flatnonzero(~np.isfinite(us))
    if bad.size:
        raise PlantError(f"control u is not finite at t={ts[bad[0]]}")
    tols /= min(abs(lam1), abs(lam2))
    traj = Trajectory(
        t=ts, x1=x1s, x2=x2s, x1ref=np.broadcast_to(x1ref, n + 1),
        x2ref=x2rs, u=us, sigma=sig, sigma_dot=sigds, delta=dlts,
        event=evts, v=v, band=tols, eps=epss,
    )
    for a in vars(traj).values():
        a.flags.writeable = False

    if evts.all():
        # the columns view the records themselves; each gap is 1*h = h, one
        # value broadcast over the n gaps (stride 0)
        instants, gaps, deltas = ts, np.broadcast_to(h, n), dlts
    else:
        steps = np.flatnonzero(evts)
        # gaps are exact step multiples; differencing the rounded instants
        # instead would lose an ulp
        instants, gaps, deltas = ts[steps], np.diff(steps) * h, dlts[steps]
    return traj, *(memoryview(c).toreadonly()
                   for c in (instants, gaps, deltas))


#: (config, weak reference to the Trajectory, Metrics) of the last
#: run_event_triggered run in which every step fired.  That run is its own
#: time-triggered baseline: both loops do the same float operations in the
#: same order, and compute_metrics reads only the gaps, equal in both runs.
#: The config matches by identity, since x0_2 = -0.0 equals 0.0 yet writes
#: other bytes; the trajectory is held weakly, so the slot never keeps one
#: alive.
_dense_run: Optional[tuple[SimConfig, weakref.ref, Metrics]] = None


def run_event_triggered(cfg: SimConfig
                        ) -> tuple[Trajectory, EventLog, Metrics]:
    """Event-triggered closed-loop run (the default operating mode)."""
    global _dense_run
    lip = estimate_lipschitz(cfg.plant)
    # the t = 0 event is at x0, so a zero Zeno denominator there would fail
    # the post-pass for certain; the denominator does not depend on eps_max.
    # Only a zero denominator raises: a bound of 0.0 or nan is returned,
    # and check_invariants reports it
    zeno_bound(cfg.x0, 1.0, lip, cfg.plant, cfg.sliding)
    traj, instants, gaps, deltas = _run_loop(cfg, every_step=False)
    eps_max = max(float(traj.eps.max()), 1e-300)
    fired = memoryview(traj.event)
    bounds = zeno_bounds(compress(memoryview(traj.x1), fired),
                         compress(memoryview(traj.x2), fired), eps_max, lip,
                         cfg.plant, cfg.sliding)
    log = EventLog(instants=instants, gaps=gaps, bound_at_event=bounds,
                   delta_at_event=deltas)
    metrics = compute_metrics(traj, gaps)
    if len(instants) == len(traj.t):
        _dense_run = (cfg, weakref.ref(traj), metrics)
    return traj, log, metrics


def run_time_triggered(cfg: SimConfig) -> tuple[Trajectory, Metrics]:
    """Baseline run with the control recomputed at every grid point.

    Its gaps feed the metrics only, so it keeps no event log.
    When cfg is the very config object of the last dense event-triggered
    run (see _dense_run) and that run's Trajectory is still alive, returns
    that run's own Trajectory and Metrics instead of running the loop.
    """
    if _dense_run is not None and _dense_run[0] is cfg:
        traj = _dense_run[1]()
        if traj is not None:
            return traj, _dense_run[2]
    traj, _, gaps, _ = _run_loop(cfg, every_step=True)
    return traj, compute_metrics(traj, gaps)


def verify_reachability(traj: Trajectory) -> ReachabilityResult:
    """Empirical reaching check over samples with |sigma| above traj.band.

    Returns the minimum of -sigma*sigma_dot/|sigma| and the indices where
    the reaching inequality sigma*sigma_dot < 0 fails.
    """
    mask = np.abs(traj.sigma) > traj.band
    if not mask.any():
        return ReachabilityResult(applicable=False, eta_hat=None, violations=[])
    s = traj.sigma[mask]
    sd = traj.sigma_dot[mask]
    # an overflowing product keeps its sign, and so its verdict
    with np.errstate(over="ignore"):
        rates = -s * sd / np.abs(s)
        violations = np.flatnonzero(mask)[s * sd >= 0.0]
    return ReachabilityResult(applicable=True, eta_hat=float(rates.min()),
                              violations=violations.tolist())


def compute_metrics(traj: Trajectory, gaps: Sequence[float]) -> Metrics:
    """Metrics of a run from traj and its gaps between len(gaps) + 1 events."""
    steps = len(traj.t) - 1
    events = len(gaps) + 1
    reach = verify_reachability(traj)
    tail = traj.t >= traj.t[-1] - 0.2 * (traj.t[-1] - traj.t[0])
    # an overflowing square reads inf, over every bound a gate compares with
    with np.errstate(over="ignore"):
        rmse = float(np.sqrt(np.mean((traj.x2 - traj.x2ref) ** 2)))
    g = np.asarray(gaps, dtype=np.float64)
    return Metrics(
        event_count=events,
        step_count=steps,
        event_ratio=events / steps if steps else float("nan"),
        min_gap=float(np.min(g)) if g.size else None,
        # cumsum adds left to right, as sum() did up to Python 3.11: from
        # 3.12 on sum() compensates, and np.sum adds pairwise; either moves
        # the last digits of the pinned artifacts
        mean_gap=float(np.cumsum(g)[-1]) / g.size if g.size else None,
        max_gap=float(np.max(g)) if g.size else None,
        eta_hat=reach.eta_hat,
        eta_violations=len(reach.violations),
        steady_band_x1_min=float(traj.x1[tail].min()),
        steady_band_x1_max=float(traj.x1[tail].max()),
        tracking_rmse=rmse,
        max_discretization_error=float(traj.eps.max()),
    )


def check_invariants(traj: Trajectory, log: EventLog, cfg: SimConfig
                     ) -> list[str]:
    """Names of the run invariants that traj and log violate.

    Each is a claim of the closed loop that a run can fail:
    lyapunov-decrease-outside-band, V does not rise over a step that
    starts with |sigma| above the band; zeno-bound-positive, every
    logged inter-event bound is positive, not 0.0 or nan (see
    trigger.zeno_bounds).  What _run_loop builds into the records holds
    by construction and is asserted on real runs by
    tests/test_sim.py::assert_records_consistent.  cfg is not read; it
    stays for the callers, the benchmark's worker among them.
    """
    bad: list[str] = []
    outside = np.abs(traj.sigma[:-1]) > traj.band[:-1]
    if np.any(outside & (np.diff(traj.v) > 0.0)):
        bad.append("lyapunov-decrease-outside-band")
    if not np.all(np.asarray(log.bound_at_event) > 0.0):
        bad.append("zeno-bound-positive")
    return bad


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Trajectory CSV with the documented column set.

    Rows are formatted floattext.CSV_BLOCK at a time, by one pass of the
    kernel a block.  Raises ValueError, before path is opened, unless
    every column holds len(t) rows.
    """
    cols = (traj.t, traj.x1, traj.x2, traj.x1ref, traj.x2ref,
            traj.u, traj.sigma, traj.delta)
    lengths = tuple(map(len, (*cols, traj.event)))
    if lengths.count(len(traj.t)) != len(lengths):
        raise ValueError("the trajectory columns (t, x1, x2, x1ref, x2ref, "
                         f"u, sigma, delta, event) hold {lengths} rows, "
                         f"not {len(traj.t)} each")
    from . import floattext  # built on the first write, not at import
    with open(path, "wb") as fh:
        fh.write(b"t,x1,x2,x1ref,x2ref,u,sigma,delta,event\n")
        for a in range(0, len(traj.t), floattext.CSV_BLOCK):
            b = a + floattext.CSV_BLOCK
            # no name holds a block's words while the next is formatted
            fired = traj.event[a:b].astype(np.intp)
            fh.write(floattext.join(floattext.cells(
                [c[a:b] for c in cols]), _ROW_TAILS[fired]))
