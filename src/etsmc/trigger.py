"""Dynamic event-triggering rule, inter-event bookkeeping and the Zeno bound."""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from itertools import chain, islice, repeat
from typing import Optional

import numpy as np

from .controller import SlidingParams
from .plant import (DimlessParams, DimlessState, InvalidParameterError,
                    PlantError, jacobian_stack, pointwise)

#: The state box ((x1 lo, hi), (x2 lo, hi)) the Lipschitz estimate covers.
LIPSCHITZ_BOX = ((0.0, 1.0), (0.0, 5.0))
LIPSCHITZ_SAFETY = 1.1

#: Rows formatted per write by the CSV writers: bounds the text held at
#: once.  On a dense run the trajectory writer holds about 1.5 MB of text
#: at 1024 rows, against 5.8 MB at 4096, which wrote no faster.
CSV_BLOCK = 1024

#: Text of the t_k and delta_fired columns of events.csv, as the trajectory
#: writer formatted it: one pair of newline-joined strings per CSV_BLOCK
#: trajectory rows, holding the values at that block's event rows.
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
            raise InvalidParameterError("zeta must be positive")
        if not self.xi > 0.0:
            raise InvalidParameterError("xi must be positive")
        if not 0.0 < self.psi < 1.0:
            raise InvalidParameterError("psi must lie in (0,1)")
        if self.m1 < 0.0:
            raise InvalidParameterError("m1 must be nonnegative")
        if self.m2 < 0.0:
            raise InvalidParameterError("m2 must be nonnegative")
        if not self.m1 + self.m2 > 0.0:
            raise InvalidParameterError("m1 + m2 must be positive")
        if not 0.0 < self.varsigma < 1.0:
            raise InvalidParameterError("varsigma must lie in (0,1)")
        if self.trigger_both not in (0.0, 1.0):
            raise InvalidParameterError("trigger_both must be 0 or 1")


@dataclass
class EventLog:
    """Time-ordered record of triggering instants and derived quantities.

    The loop fills instants, gaps and delta_at_event as array('d'): 8 B
    per value, read by np.asarray without a copy, and Python floats when
    indexed or iterated.  bound_at_event stays the list zeno_bounds
    returns, which the benchmark's Zeno probe compares with a list.
    """

    instants: Sequence[float] = field(default_factory=list)
    gaps: Sequence[float] = field(default_factory=list)
    bound_at_event: Sequence[float] = field(default_factory=list)
    delta_at_event: Sequence[float] = field(default_factory=list)


@dataclass(frozen=True)
class LipschitzEstimate:
    """Max sampled Jacobian spectral norm over LIPSCHITZ_BOX, with safety factor."""

    l_bar: float
    sample_count: int

    def __post_init__(self) -> None:
        if not self.l_bar > 0.0:
            raise InvalidParameterError("l_bar must be positive")


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


@functools.lru_cache(maxsize=64)
def _gain_norms(beta: float, lambda1: float, lambda2: float
                ) -> tuple[float, float]:
    """(spectral norm of M, Euclidean norm of Bbar); constant per design.

    Raises PlantError when lambda2*beta, the divisor of M, is zero (it can
    underflow) or not finite, or when M or ||Bbar|| overflows.
    """
    den = lambda2 * beta
    if not (den != 0.0 and math.isfinite(den)):
        raise PlantError(f"lambda2*beta = {den} is zero or not finite "
                         f"(lambda2={lambda2}, beta={beta})")
    bbar = np.array([0.0, beta])
    lam = np.array([lambda1, lambda2])
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        m = np.outer(bbar, lam) / den
        bbar_norm = float(np.linalg.norm(bbar))
    if not (np.isfinite(m).all() and math.isfinite(bbar_norm)):
        raise PlantError(f"gain matrix M or ||Bbar|| is not finite "
                         f"(lambda1={lambda1}, lambda2={lambda2}, beta={beta})")
    return float(np.linalg.norm(m, 2)), bbar_norm


def zeno_bounds(x1: Sequence[float], x2: Sequence[float], eps_max: float,
                lip: LipschitzEstimate, p: DimlessParams, sp: SlidingParams
                ) -> list[float]:
    """Theoretical lower bound on the next inter-event time at each state.

    T_min = (1/L) ln(1 + L*eps_max / (L*(1 + ||M||)*||x_k|| + ||Bbar||*mu))
    with Bbar = (0, beta)^T and M = Bbar lambda2^-1 beta^-1 lambda^T;
    matrix norm spectral, vector norm Euclidean.  Strictly positive.
    x1 and x2 hold the state components at the events; a memoryview of
    a float64 array reads the array in place.
    """
    if not lip.l_bar > 0.0:
        raise InvalidParameterError("Lipschitz constant must be positive")
    if not eps_max > 0.0:
        raise InvalidParameterError("eps_max must be positive")
    m_norm, bbar_norm = _gain_norms(p.beta, sp.lambda1, sp.lambda2)
    l_bar = lip.l_bar
    gain = l_bar * (1.0 + m_norm)
    ctrl = bbar_norm * sp.mu
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


def _sobol_2d(m: int) -> np.ndarray:
    """First 2^m points of the unscrambled 2-D Sobol sequence, (2^m, 2).

    Gray-code order.  Dimension 1 is van der Corput base 2; dimension 2
    has the primitive polynomial x + 1, so its direction numbers obey
    v_k = v_(k-1) xor (v_(k-1) >> 1) (Joe & Kuo, SIAM J. Sci. Comput.
    30(5), 2008).  Direction numbers are 32-bit integers scaled by 2^-32.
    """
    v = np.empty((m, 2), dtype=np.int64)
    v[0] = 1 << 31
    for k in range(1, m):
        v[k] = v[k - 1, 0] >> 1, v[k - 1, 1] ^ (v[k - 1, 1] >> 1)
    i = np.arange(1 << m)
    gray = i ^ (i >> 1)
    out = np.zeros((1 << m, 2), dtype=np.int64)
    for k in range(m):
        out ^= ((gray >> k) & 1)[:, None] * v[k]
    return out * 2.0 ** -32


@functools.lru_cache(maxsize=16)
def estimate_lipschitz(p: DimlessParams) -> LipschitzEstimate:
    """Lipschitz constant of the drift over LIPSCHITZ_BOX.

    Max Jacobian spectral norm over the first 2^14 Sobol points of the
    box and its four corners, inflated by a 1.1 safety factor.
    Deterministic.  Raises PlantError where a Jacobian entry is not finite.
    """
    (x1lo, x1hi), (x2lo, x2hi) = LIPSCHITZ_BOX
    unit = _sobol_2d(14)
    # the Sobol points, then the four corners of the box
    x1 = np.append(x1lo + unit[:, 0] * (x1hi - x1lo), [x1lo, x1lo, x1hi, x1hi])
    x2 = np.append(x2lo + unit[:, 1] * (x2hi - x2lo), [x2lo, x2hi, x2lo, x2hi])
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        jac = jacobian_stack(x1, x2, p)
    bad = np.flatnonzero(~np.isfinite(jac).all(axis=(1, 2)))
    if bad.size:
        i = bad[0]
        raise PlantError(f"drift Jacobian is not finite at (x1, x2) = "
                         f"({x1[i]}, {x2[i]}): {jac[i].tolist()}")
    norms = np.linalg.norm(jac, 2, axis=(1, 2))
    return LipschitzEstimate(l_bar=LIPSCHITZ_SAFETY * float(norms.max()),
                             sample_count=len(x1))


def format_blocks(col) -> Iterator[list[str]]:
    """repr of each element of the float column col, CSV_BLOCK at a time.

    A run of bitwise-equal elements is formatted once, also where it
    crosses into the next block.  Runs are found on the int64 view, so
    -0.0 and 0.0 stay apart and nan still prints nan.
    """
    col = np.asarray(col, dtype=np.float64)
    bits = col.view(np.int64)
    head = np.ones(len(col), dtype=bool)  # where a run starts
    np.not_equal(bits[1:], bits[:-1], out=head[1:])
    last = ""
    for a in range(0, len(col), CSV_BLOCK):
        block = col[a:a + CSV_BLOCK]
        starts = np.flatnonzero(head[a:a + CSV_BLOCK])
        if len(starts) == len(block):
            text = list(map(repr, block.tolist()))
        else:
            heads = list(map(repr, block[starts].tolist()))
            if not head[a]:
                # the block opens inside the previous block's last run
                starts = np.insert(starts, 0, 0)
                heads.insert(0, last)
            counts = np.diff(starts, append=len(block)).tolist()
            text = list(chain.from_iterable(map(repeat, heads, counts)))
        last = text[-1]
        yield text


def _shared_blocks(texts: list[str], n: int) -> Iterator[list[str]]:
    """The lines of texts, regrouped CSV_BLOCK at a time over n rows."""
    lines = chain.from_iterable(map(str.splitlines, texts))
    for _ in range(0, n, CSV_BLOCK):
        yield list(islice(lines, CSV_BLOCK))


def write_event_csv(log: EventLog, path,
                    event_text: Optional[EventText] = None) -> None:
    """Event log CSV with columns k, t_k, T_k, delta_fired, zeno_bound.

    The last event has no successor; its interval T_k is written as nan.
    Rows are formatted CSV_BLOCK at a time.  event_text, as returned by
    sim.write_trajectory_csv for the run that made log, supplies the t_k
    and delta_fired text instead of formatting those values again.
    """
    n = len(log.instants)
    gaps = np.full(n, math.nan)
    gaps[:len(log.gaps[:n])] = log.gaps[:n]
    if event_text is None:
        times, deltas = (format_blocks(log.instants),
                         format_blocks(log.delta_at_event))
    else:
        t_texts = [t for t, _ in event_text]
        d_texts = [d for _, d in event_text]
        rows = sum(text.count("\n") + 1 for text in t_texts if text)
        if rows != n:
            raise ValueError(f"event_text holds {rows} event rows, "
                             f"the log {n}")
        times, deltas = _shared_blocks(t_texts, n), _shared_blocks(d_texts, n)
    blocks = zip(times, format_blocks(gaps), deltas,
                 format_blocks(log.bound_at_event), strict=True)
    with open(path, "w", newline="\n") as fh:
        fh.write("k,t_k,T_k,delta_fired,zeno_bound\n")
        for a, cols in zip(range(0, n, CSV_BLOCK), blocks, strict=True):
            ks = map(str, range(a, a + len(cols[0])))
            fh.write("\n".join(map(",".join, zip(ks, *cols, strict=True))))
            fh.write("\n")
