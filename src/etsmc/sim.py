"""Closed-loop fixed-step integration, metrics and Lyapunov verification.

One run is one sequential loop over a uniform time grid.  Per grid point:
evaluate the tracking errors and the trigger margin with the currently held
control, recompute the held control if the margin is nonnegative (the first
computation at t = 0 is an event by definition), integrate one RK4 step with
the control frozen across stages, and record.  Identical configurations give
bit-identical outputs.
"""

from __future__ import annotations

import math
import warnings
from array import array
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .controller import ReferenceSignal, SlidingParams, switching_law
from .plant import (DimlessParams, DimlessState, Disturbance,
                    InvalidParameterError, composition_nullcline, drift,
                    kelvin_to_x2)
from .trigger import (CSV_BLOCK, EventLog, EventText, TriggerParams,
                      estimate_lipschitz, format_blocks, margin, thresholds,
                      zeno_bound, zeno_bounds)

SCENARIOS = ("nominal", "disturbed", "regulate")

X1_PHYSICAL_TOL = 0.1

#: Ceiling on the steps of one run, checked before any array is allocated
#: (20x the default horizon).  A run_event_triggered step peaks at about
#: 186-204 bytes (tracemalloc), of which 155 stay in the returned records.
MAX_STEPS = 1_000_000


class SimulationDivergedError(RuntimeError):
    """Raised when an accepted state stops being finite."""


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
            raise InvalidParameterError("h must be positive and finite")
        if not 10.0 * self.h <= self.t_end < math.inf:
            raise InvalidParameterError(
                "t_end must be finite and at least 10*h")
        if not self.t_end / self.h <= MAX_STEPS:
            raise InvalidParameterError(
                f"t_end/h = {self.t_end / self.h:.6g} steps exceeds the "
                f"ceiling of {MAX_STEPS}")
        if self.scenario not in SCENARIOS:
            raise InvalidParameterError(f"unknown scenario {self.scenario!r}")
        # the divisor of the Zeno bound's gain matrix M; it can underflow
        den = self.sliding.lambda2 * self.plant.beta
        if not (den != 0.0 and math.isfinite(den)):
            raise InvalidParameterError(
                f"lambda2*beta = {den} is zero or not finite")
        # the band tols/min(|lambda1|, |lambda2|) is widest at t = 0; an
        # infinite band would make the reaching checks pass vacuously
        tp = self.trigger
        lam = min(abs(self.sliding.lambda1), abs(self.sliding.lambda2))
        band0 = tp.psi * (tp.m1 + tp.m2) / lam if lam > 0.0 else math.inf
        if not math.isfinite(band0):
            raise InvalidParameterError(
                f"trigger band tols/min(|lambda1|, |lambda2|) = {band0} at "
                "t = 0 is not finite")
        if self.scenario == "regulate":
            if self.setpoint_kelvin is None:
                raise InvalidParameterError(
                    "regulate scenario requires setpoint_kelvin")
            if not 0.0 < self.tf0_kelvin < math.inf:
                raise InvalidParameterError(
                    "tf0_kelvin must be positive and finite")

    def disturbance(self) -> Disturbance:
        if self.scenario == "disturbed":
            return Disturbance.sinusoidal(self.d1_amp, self.d1_freq,
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
    x1ref = composition_nullcline(x2ss, cfg.plant)
    ref = replace(cfg.reference, x1_const=x1ref, x2ss=x2ss)
    return replace(cfg, reference=ref)


@dataclass
class Trajectory:
    """Time-indexed records of one run; all series share one length."""

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
        raise SimulationDivergedError(
            f"state became nonfinite at t={t_next}: ({x1}, {x2})")
    return x1, x2


def rk4_step(x: DimlessState, u: float, t: float, h: float,
             p: DimlessParams, d: Disturbance) -> DimlessState:
    """Classical 4-stage step with u held constant across stages (ZOH)."""
    if not h > 0.0:
        raise InvalidParameterError("h must be positive")
    f1, f2 = drift(x.x1, x.x2, p)
    t_next = t + h
    return DimlessState(*rk4(x.x1, x.x2, f1, f2, u, t_next, h, p,
                             *d.eval(t), *d.eval(t + 0.5 * h),
                             *d.eval(t_next)))


def _run_loop(cfg: SimConfig, every_step: bool,
              flip_control_sign: bool) -> tuple[Trajectory, EventLog]:
    p, sp, tp, r = cfg.plant, cfg.sliding, cfg.trigger, cfg.reference
    d = cfg.disturbance()
    n = cfg.step_count()
    h = cfg.h
    beta = p.beta
    lam1, lam2 = sp.lambda1, sp.lambda2
    x1ref = r.x1_const
    flip = -1.0 if flip_control_sign else 1.0

    # the time-only series come from their array homes; i*h here equals
    # the scalar i * h bit for bit.  The loop reads every series, and
    # writes every record, in place through memoryviews.
    ts = np.arange(n + 1) * h
    x2rs, x2rds = r.x2ref_series(ts)
    tols = thresholds(ts, tp)
    t_at, x2ref_at, x2ref_dot_at, tol_at = map(memoryview,
                                               (ts, x2rs, x2rds, tols))
    # the disturbance at the grid, and at the start and middle of step j
    # (from t - h to t = ts[j + 1]); t - h need not equal the previous
    # grid time
    if d.amp1 == 0.0 and d.amp2 == 0.0:
        # no sin to take, and one shared buffer serves every stage
        zeros = memoryview(np.zeros(n + 1))
        d1_at = d2_at = d1_0 = d2_0 = d1_mid = d2_mid = zeros
    else:
        t0s = ts[1:] - h
        d1_at, d2_at, d1_0, d2_0, d1_mid, d2_mid = map(
            memoryview, (*d.series(ts), *d.series(t0s),
                         *d.series(t0s + 0.5 * h)))

    x1s, x2s, us, sigds, dlts, epss = (np.zeros(n + 1) for _ in range(6))
    evts = np.zeros(n + 1, dtype=bool)
    x1_to, x2_to, u_to, sigd_to, dlt_to, eps_to, evt_to = map(
        memoryview, (x1s, x2s, us, sigds, dlts, epss, evts))

    warned_x1 = False
    x1, x2 = cfg.x0.x1, cfg.x0.x2
    u = 0.0
    xk1, xk2 = x1, x2
    f1, f2 = drift(x1, x2, p)

    for i in range(n + 1):
        t = t_at[i]
        d1v, d2v = d1_at[i], d2_at[i]
        if i > 0:
            j = i - 1
            x1, x2 = rk4(x1, x2, f1, f2, u, t, h, p, d1_0[j], d2_0[j],
                         d1_mid[j], d2_mid[j], d1v, d2v)
            if x1 >= 1.0 + X1_PHYSICAL_TOL and not warned_x1:
                warnings.warn(
                    f"x1={x1:.4f} exceeds feed conversion at t={t:.4f}",
                    RuntimeWarning, stacklevel=3)
                warned_x1 = True
            # also stage 1 of the next step: same state, same drift
            f1, f2 = drift(x1, x2, p)

        x2ref_dot = x2ref_dot_at[i]
        e1 = x1 - x1ref
        e2 = x2 - x2ref_at[i]
        e1dot = f1 - d2v
        e2dot = f2 + beta * u + d1v - x2ref_dot
        dlt_to[i] = delta = margin(e1, e2, e1dot, e2dot, tol_at[i], tp)
        # discretization error relative to the snapshot held until now,
        # taken before any update at this instant: 0 at t = 0, and at any
        # later event step the distance to the previous snapshot
        eps_to[i] = math.hypot(x1 - xk1, x2 - xk2)

        fire = i == 0 or delta >= 0.0 or every_step
        if fire:
            u = flip * switching_law(e1, e2, f1 - d2v, f2 + d1v - x2ref_dot,
                                     sp, beta)
            xk1, xk2 = x1, x2
            e2dot = f2 + beta * u + d1v - x2ref_dot
            evt_to[i] = True

        x1_to[i] = x1
        x2_to[i] = x2
        u_to[i] = u
        sigd_to[i] = lam1 * e1dot + lam2 * e2dot

    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        sig = lam1 * (x1s - x1ref) + lam2 * (x2s - x2rs)
        v = 0.5 * sig * sig
    # a nonfinite V would make the Lyapunov checks pass vacuously
    bad = np.flatnonzero(~np.isfinite(v))
    if bad.size:
        raise SimulationDivergedError(
            f"sigma or V = sigma^2/2 is not finite at t={ts[bad[0]]}")
    traj = Trajectory(
        t=ts, x1=x1s, x2=x2s, x1ref=np.full(n + 1, x1ref), x2ref=x2rs,
        u=us, sigma=sig, sigma_dot=sigds, delta=dlts, event=evts,
        v=v, band=tols / min(abs(lam1), abs(lam2)), eps=epss,
    )

    steps = np.flatnonzero(evts)
    # gaps are exact step multiples; differencing the rounded instants
    # instead would lose an ulp
    log = EventLog(instants=array("d", ts[steps].tobytes()),
                   gaps=array("d", (np.diff(steps) * h).tobytes()),
                   delta_at_event=array("d", dlts[steps].tobytes()))
    return traj, log


def run_event_triggered(cfg: SimConfig, *, flip_control_sign: bool = False
                        ) -> tuple[Trajectory, EventLog, Metrics]:
    """Event-triggered closed-loop run (the default operating mode)."""
    lip = estimate_lipschitz(cfg.plant)
    # the t = 0 event is at x0, so a zero Zeno denominator there would fail
    # the post-pass for certain; the denominator does not depend on eps_max
    zeno_bound(cfg.x0, 1.0, lip, cfg.plant, cfg.sliding)
    traj, log = _run_loop(cfg, every_step=False,
                          flip_control_sign=flip_control_sign)
    steps = np.flatnonzero(traj.event)
    eps_max = max(float(traj.eps.max()), 1e-300)
    log.bound_at_event = zeno_bounds(
        memoryview(traj.x1[steps]), memoryview(traj.x2[steps]), eps_max, lip,
        cfg.plant, cfg.sliding)
    return traj, log, compute_metrics(traj, log)


def run_time_triggered(cfg: SimConfig) -> tuple[Trajectory, Metrics]:
    """Baseline run with the control recomputed at every grid point.

    Its event log feeds the metrics only, so it carries no Zeno bounds.
    """
    traj, log = _run_loop(cfg, every_step=True, flip_control_sign=False)
    return traj, compute_metrics(traj, log)


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
    return ReachabilityResult(
        applicable=True,
        eta_hat=float(rates.min()),
        violations=[int(i) for i in violations],
    )


def compute_metrics(traj: Trajectory, log: EventLog) -> Metrics:
    steps = len(traj.t) - 1
    gaps = log.gaps
    reach = verify_reachability(traj)
    tail = traj.t >= traj.t[-1] - 0.2 * (traj.t[-1] - traj.t[0])
    # an overflowing square reads inf, over every bound a gate compares with
    with np.errstate(over="ignore"):
        rmse = float(np.sqrt(np.mean((traj.x2 - traj.x2ref) ** 2)))
    return Metrics(
        event_count=len(log.instants),
        step_count=steps,
        event_ratio=len(log.instants) / steps if steps else float("nan"),
        min_gap=min(gaps) if gaps else None,
        mean_gap=sum(gaps) / len(gaps) if gaps else None,
        max_gap=max(gaps) if gaps else None,
        eta_hat=reach.eta_hat,
        eta_violations=len(reach.violations),
        steady_band_x1_min=float(traj.x1[tail].min()),
        steady_band_x1_max=float(traj.x1[tail].max()),
        tracking_rmse=rmse,
        max_discretization_error=float(traj.eps.max()),
    )


def check_invariants(traj: Trajectory, log: EventLog, cfg: SimConfig
                     ) -> list[str]:
    """Runtime invariant checks; returns the names of violated invariants."""
    bad: list[str] = []
    ev = traj.event
    du = np.diff(traj.u)
    if np.any((du != 0.0) & ~ev[1:]):
        bad.append("control-piecewise-constant")
    if np.any(traj.v != 0.5 * traj.sigma * traj.sigma):
        bad.append("lyapunov-consistency")
    outside = np.abs(traj.sigma[:-1]) > traj.band[:-1]
    if np.any(outside & (np.diff(traj.v) > 0.0)):
        bad.append("lyapunov-decrease-outside-band")
    # the logged steps as a set: sorted, repeats dropped (np.unique would
    # import numpy.ma on its first call, 15 ms of a short run)
    logged = np.sort(np.rint(np.asarray(log.instants) / cfg.h))
    logged = logged[np.diff(logged, prepend=np.nan) != 0.0]
    if not np.array_equal(logged, np.flatnonzero(ev)):
        bad.append("event-cross-consistency")
    if np.any(traj.delta[~ev] >= 0.0):
        bad.append("delta-log-consistency")
    elif np.any(traj.delta[ev][1:] < 0.0) and not np.all(ev):
        # t=0 fires unconditionally; an all-events run has no conditional fire
        bad.append("delta-log-consistency")
    if log.gaps and min(log.gaps) < cfg.h - 1e-12:
        bad.append("gaps-ge-step")
    if np.any(np.asarray(log.bound_at_event) <= 0.0):
        bad.append("zeno-bound-positive")
    instants = np.asarray(log.instants)
    if np.any(instants[1:] <= instants[:-1]):
        bad.append("instants-increasing")
    return list(dict.fromkeys(bad))


def write_trajectory_csv(traj: Trajectory, path) -> EventText:
    """Trajectory CSV with the documented column set.

    Rows are formatted CSV_BLOCK at a time.  Returns the text of t and
    delta at the event rows, per block, for trigger.write_event_csv.
    """
    cols = (traj.t, traj.x1, traj.x2, traj.x1ref, traj.x2ref,
            traj.u, traj.sigma, traj.delta)
    event_text = []
    with open(path, "w", newline="\n") as fh:
        fh.write("t,x1,x2,x1ref,x2ref,u,sigma,delta,event\n")
        blocks = zip(*map(format_blocks, cols), strict=True)
        for a, block in zip(range(0, len(traj.t), CSV_BLOCK), blocks,
                            strict=True):
            event = traj.event[a:a + CSV_BLOCK]
            flags = map(("0", "1").__getitem__, event.tolist())
            fh.write("\n".join(map(",".join, zip(*block, flags, strict=True))))
            fh.write("\n")
            ts, deltas = block[0], block[-1]
            if not event.all():
                rows = np.flatnonzero(event).tolist()
                ts, deltas = ([c[i] for i in rows] for c in (ts, deltas))
            event_text.append(("\n".join(ts), "\n".join(deltas)))
    return event_text
