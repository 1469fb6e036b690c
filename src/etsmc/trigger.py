"""Dynamic event-triggering rule, inter-event bookkeeping and the Zeno bound."""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import product

import numpy as np

from .controller import SlidingParams
from .plant import (ConfigError, DimlessParams, DimlessState, PlantError,
                    jacobian_stack, pointwise)

#: The state box ((x1 lo, hi), (x2 lo, hi)) the Lipschitz estimate covers.
LIPSCHITZ_BOX = ((0.0, 1.0), (0.0, 5.0))
#: Factor on the certified bound: it covers rounding, and keeps l_bar's bits.
LIPSCHITZ_SAFETY = 1.1

#: The tails of an events.csv row's five cells.
_EVENT_TAILS = np.array([b","] * 4 + [b"\n"])


@dataclass(frozen=True, slots=True)
class TriggerParams:
    """Weights and threshold shape of the triggering rule.

    The temperature error (x2), the controlled output, always drives
    triggering; trigger_both = 1.0 adds the composition error (x1).
    """

    zeta: float
    xi: float
    psi: float
    m1: float
    m2: float
    varsigma: float
    trigger_both: float

    def __post_init__(self) -> None:
        if not self.zeta > 0.0:
            raise ConfigError("zeta must be positive")
        if not self.xi > 0.0:
            raise ConfigError("xi must be positive")
        if not 0.0 < self.psi < 1.0:
            raise ConfigError("psi must lie in (0,1)")
        if self.m1 < 0.0:
            raise ConfigError("m1 must be nonnegative")
        if self.m2 < 0.0:
            raise ConfigError("m2 must be nonnegative")
        if not self.m1 + self.m2 > 0.0:
            raise ConfigError("m1 + m2 must be positive")
        if not 0.0 < self.varsigma < 1.0:
            raise ConfigError("varsigma must lie in (0,1)")
        if self.trigger_both not in (0.0, 1.0):
            raise ConfigError("trigger_both must be 0 or 1")


@dataclass(frozen=True)
class EventLog:
    """Time-ordered record of triggering instants and derived quantities.

    sim.run_event_triggered makes it once, bounds included.  instants,
    gaps and delta_at_event are read-only float64 memoryviews of the loop's
    records: 8 B per value, read by np.asarray without a copy, and Python
    floats when indexed or iterated.  When every grid point fired, they
    view the trajectory's t and delta and, for gaps, its one value h with
    stride 0: all three cost nothing, and write_event_csv formats that
    one gap once a block.  bound_at_event is the list zeno_bounds
    returns, which the benchmark's Zeno probe compares with a list.
    """

    instants: Sequence[float]
    gaps: Sequence[float]
    bound_at_event: Sequence[float]
    delta_at_event: Sequence[float]


@dataclass(frozen=True)
class LipschitzEstimate:
    """Bound l_bar on ||J|| over LIPSCHITZ_BOX, from sample_count Jacobians."""

    l_bar: float
    sample_count: int

    def __post_init__(self) -> None:
        if not self.l_bar > 0.0:
            raise PlantError("l_bar must be positive")


def thresholds(ts: np.ndarray, tp: TriggerParams) -> np.ndarray:
    """Time-varying tolerance psi*(m1 + m2*exp(-varsigma*t)) at the times ts.

    Decays to psi*m1.  Every element equals the Python-float evaluation
    at that time.
    """
    ex = pointwise(math.exp, -tp.varsigma * ts)
    return tp.psi * (tp.m1 + tp.m2 * ex)


def margin(e1: float, e2: float, e1dot: float, e2dot: float, tol: float,
           tp: TriggerParams) -> float:
    """Trigger margin: max_i |zeta*e_i + xi*e_i_dot^2| minus tol.

    The max runs over i = 2, and also i = 1 when tp.trigger_both is set;
    tol is the thresholds value at the evaluation time.  The printed norm
    wraps a scalar and is implemented as absolute value.  A nan term loses
    the comparison: with i = 2 alone, a nan term gives -inf - tol.
    """
    val = (abs(tp.zeta * e1 + tp.xi * e1dot * e1dot) if tp.trigger_both
           else -math.inf)
    v2 = abs(tp.zeta * e2 + tp.xi * e2dot * e2dot)
    if v2 > val:
        val = v2
    return val - tol


def zeno_bounds(x1: Iterable[float], x2: Iterable[float], eps_max: float,
                lip: LipschitzEstimate, p: DimlessParams, sp: SlidingParams
                ) -> list[float]:
    """Theoretical lower bound on the next inter-event time at each state.

    T_min = (1/L) ln(1 + L*eps_max / (L*(1 + ||M||)*||x_k|| + ||Bbar||*mu))
    with Bbar = (0, beta)^T and M = Bbar lambda2^-1 beta^-1 lambda^T;
    matrix norm spectral, vector norm Euclidean.  As beta > 0, ||Bbar|| =
    beta, and M has rank one, so ||M|| = ||Bbar|| ||lambda||/|lambda2*beta|
    = ||lambda||/|lambda2|.  x1 and x2 yield the state components at the
    events; itertools.compress over memoryviews reads the trajectory in
    place.  Raises PlantError when ||M|| overflows or a denominator is
    zero.  A bound is not always positive: it reads 0.0 where the
    denominator overflows (||Bbar||*mu, say) or num/den underflows, and
    nan where L(1 + ||M||) overflows at x_k = 0, which is why
    zeno-bound-positive is a run invariant (sim.check_invariants).
    """
    if not eps_max > 0.0:
        raise PlantError("eps_max must be positive")
    m_norm = math.hypot(sp.lambda1, sp.lambda2) / abs(sp.lambda2)
    if not math.isfinite(m_norm):
        raise PlantError(f"gain matrix M is not finite "
                         f"(lambda1={sp.lambda1}, lambda2={sp.lambda2})")
    l_bar = lip.l_bar
    gain = l_bar * (1.0 + m_norm)
    ctrl = p.beta * sp.mu
    num = l_bar * eps_max
    # every denominator is at least ||Bbar||*mu >= 0, or nan where an
    # infinite gain meets x_k = 0; it is zero only when that product
    # underflows to 0 and x_k is the origin
    try:
        return [math.log1p(num / (gain * math.hypot(a, b) + ctrl)) / l_bar
                for a, b in zip(x1, x2)]
    except ZeroDivisionError:
        raise PlantError("Zeno bound denominator L(1 + ||M||)||x_k|| + "
                         f"||Bbar||*mu is not positive (mu={sp.mu})") from None


def zeno_bound(x_k: DimlessState, eps_max: float, lip: LipschitzEstimate,
               p: DimlessParams, sp: SlidingParams) -> float:
    """zeno_bounds at the single state x_k."""
    return zeno_bounds([x_k.x1], [x_k.x2], eps_max, lip, p, sp)[0]


def _spectral_norm_2x2(a: float, b: float, c: float, d: float) -> float:
    """Largest singular value of [[a, b], [c, d]], in closed form."""
    # a power-of-two scale is exact and keeps F^2 from overflowing
    scale = 2.0 ** (math.frexp(max(abs(a), abs(b), abs(c), abs(d)))[1] - 1)
    a, b, c, d = a / scale, b / scale, c / scale, d / scale
    fro2 = a * a + b * b + c * c + d * d
    det = a * d - b * c
    inner = max(fro2 * fro2 - 4.0 * det * det, 0.0)  # >= 0 but for rounding
    return scale * math.sqrt((fro2 + math.sqrt(inner)) / 2.0)


@functools.lru_cache(maxsize=16)
def estimate_lipschitz(p: DimlessParams) -> LipschitzEstimate:
    """Certified Lipschitz constant of the drift over LIPSCHITZ_BOX.

    As 1 + x2lo/gamma > 0, den = 1 + x2/gamma > 0 in the box, so ex =
    exp(x2/den) rises with x2 and -1 - Da*ex, -B*Da*ex peak in magnitude
    at an x2 bound.  The other entries are affine in (1 - x1)*ex/den^2,
    whose x2 factor peaks once, at x2* = gamma(gamma - 2)/2, so they peak
    at an x1 bound and at an x2 bound or x2*.  Then the entrywise max B of
    |J| over those points bounds |J|, and ||B||_2 bounds ||J||_2, in the
    box.  Raises PlantError where a Jacobian entry is not finite.
    """
    (x1lo, x1hi), (x2lo, x2hi) = LIPSCHITZ_BOX
    peak = p.gamma * (p.gamma - 2.0) / 2.0  # x2*
    x2s = [x2lo, x2hi, peak] if x2lo < peak < x2hi else [x2lo, x2hi]
    x1, x2 = (np.array(c) for c in zip(*product((x1lo, x1hi), x2s)))
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        jac = jacobian_stack(x1, x2, p)
    bad = np.flatnonzero(~np.isfinite(jac).all(axis=(1, 2)))
    if bad.size:
        i = bad[0]
        raise PlantError(f"drift Jacobian is not finite at (x1, x2) = "
                         f"({x1[i]}, {x2[i]}): {jac[i].tolist()}")
    bound = np.abs(jac).max(axis=0).ravel().tolist()
    return LipschitzEstimate(
        l_bar=LIPSCHITZ_SAFETY * _spectral_norm_2x2(*bound),
        sample_count=len(x1))


def write_event_csv(log: EventLog, path) -> None:
    """Event log CSV with columns k, t_k, T_k, delta_fired, zeno_bound.

    The last event has no successor; its interval T_k is written as nan.
    Each block of floattext.CSV_BLOCK events is formatted by one pass
    over its t_k, T_k, delta_fired and zeno_bound values (a dense run's
    zero-stride T_k once, but in the last block, which ends in the nan),
    k is spelled into the same words, and the block is joined and written
    at once.  Raises ValueError, before path is opened, unless the log
    holds n - 1 gaps and n of its other values, for n instants.
    """
    n = len(log.instants)
    lengths = (len(log.gaps), len(log.delta_at_event),
               len(log.bound_at_event))
    if lengths != (n - 1, n, n):
        raise ValueError(f"the event log holds {n} instants and "
                         "(gaps, delta_at_event, bound_at_event) = "
                         f"{lengths}, not {(n - 1, n, n)}")
    from . import floattext  # built on the first write, not at import
    with open(path, "wb") as fh:
        fh.write(b"k,t_k,T_k,delta_fired,zeno_bound\n")
        for a in range(0, n, floattext.CSV_BLOCK):
            b = min(a + floattext.CSV_BLOCK, n)
            gap = (log.gaps[a:b] if b < n
                   else np.append(log.gaps[a:], math.nan))
            # k's column is a zero-stride placeholder until ints spells it
            words = floattext.cells([
                np.broadcast_to(0.0, b - a), log.instants[a:b], gap,
                log.delta_at_event[a:b], log.bound_at_event[a:b]])
            floattext.ints(np.arange(a, b), words[:, 0])
            fh.write(floattext.join(words, _EVENT_TAILS))
            del words  # freed before the next block is formatted
