"""Dynamic event-triggering rule, inter-event bookkeeping and the Zeno bound."""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import chain, islice, product
from typing import Optional

import numpy as np

from .controller import SlidingParams
from .plant import (ConfigError, DimlessParams, DimlessState, PlantError,
                    jacobian_stack, pointwise)

#: The state box ((x1 lo, hi), (x2 lo, hi)) the Lipschitz estimate covers.
LIPSCHITZ_BOX = ((0.0, 1.0), (0.0, 5.0))
#: Factor on the certified bound: it covers rounding, and keeps l_bar's bits.
LIPSCHITZ_SAFETY = 1.1

#: Rows formatted per write by the CSV writers: bounds the text held at
#: once.  On a dense run the trajectory writer holds about 0.57 MB at 512
#: rows, against 0.86 MB at 1,024 and 3.4 MB at 4,096.  On a 50k-step
#: dense run both writers took as long at 512 rows as at 1,024 (best of 7
#: on a 2-vCPU VM: 0.169 against 0.171 s), and longer at 256 (0.187 s).
CSV_BLOCK = 512

#: Text of the t_k and delta_fired columns of events.csv, as the trajectory
#: writer's floattext kernel call formatted it: one pair of newline-joined
#: strings per trajectory block of CSV_BLOCK rows, holding the values at
#: that block's event rows, and empty for a block with no events.  The
#: event writer reuses it rather than format those columns again; a writer
#: that formatted every events.csv column through the kernel held more
#: memory at once (0.67 MB at 10,001 events).
EventText = list[tuple[str, str]]


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
    trigger_both: float = 0.0

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
    one gap once.  bound_at_event is the list zeno_bounds returns, which
    the benchmark's Zeno probe compares with a list.
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
    = ||lambda||/|lambda2|.  Strictly positive.  x1 and x2 yield the state
    components at the events; itertools.compress over memoryviews reads
    the trajectory in place.  Raises PlantError when ||M|| overflows.
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
    # every denominator is at least ||Bbar||*mu >= 0; it is zero only when
    # that product underflows to 0 and x_k is the origin
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


def _repr_blocks(col) -> Iterator[list[str]]:
    """floattext.reprs of the float sequence col, CSV_BLOCK at a time."""
    from . import floattext  # compiled on the first write, not at import
    for a in range(0, len(col), CSV_BLOCK):
        yield floattext.reprs(col[a:a + CSV_BLOCK])


def write_event_csv(log: EventLog, path,
                    event_text: Optional[EventText] = None) -> None:
    """Event log CSV with columns k, t_k, T_k, delta_fired, zeno_bound.

    The last event has no successor; its interval T_k is written as nan.
    One loop writes the rows a block of t_k and delta_fired text at a
    time: CSV_BLOCK events formatted here or, given event_text as returned
    by sim.write_trajectory_csv for the run that made log, each non-empty
    block of that text.  T_k and zeno_bound are formatted by the
    floattext kernel a block at a time, and drawn as the rows need them.
    Raises ValueError, before path is opened, unless the log holds n - 1
    gaps and n of its other values, and event_text n rows, for n
    instants.
    """
    n = len(log.instants)
    lengths = (len(log.gaps), len(log.delta_at_event),
               len(log.bound_at_event))
    if lengths != (n - 1, n, n):
        raise ValueError(f"the event log holds {n} instants and "
                         "(gaps, delta_at_event, bound_at_event) = "
                         f"{lengths}, not {(n - 1, n, n)}")
    if event_text is None:
        texts = zip(_repr_blocks(log.instants),
                    _repr_blocks(log.delta_at_event))
    else:
        rows = sum(t.count("\n") + 1 for t, _ in event_text if t)
        if rows != n:
            raise ValueError(f"event_text holds {rows} event rows, "
                             f"the log {n}")
        texts = ((t.split("\n"), d.split("\n")) for t, d in event_text if t)
    gaps = chain(chain.from_iterable(_repr_blocks(log.gaps)), ["nan"])
    bounds = chain.from_iterable(_repr_blocks(log.bound_at_event))
    k = 0
    with open(path, "w", newline="\n") as fh:
        fh.write("k,t_k,T_k,delta_fired,zeno_bound\n")
        for times, deltas in texts:
            m = len(times)
            cols = (map(str, range(k, k + m)), times, islice(gaps, m),
                    deltas, islice(bounds, m))
            fh.write("\n".join(map(",".join, zip(*cols, strict=True))))
            fh.write("\n")
            k += m
