"""Dynamic event-triggering rule, inter-event bookkeeping and the Zeno bound."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import qmc

from .controller import ErrorState, SlidingParams
from .plant import DimlessParams, DimlessState, InvalidParameterError, jacobian

Box = tuple[tuple[float, float], tuple[float, float]]

DEFAULT_LIPSCHITZ_BOX: Box = ((0.0, 1.0), (0.0, 5.0))
LIPSCHITZ_SAFETY = 1.1


@dataclass(frozen=True, slots=True)
class TriggerParams:
    """Weights and threshold shape of the triggering rule.

    indices selects which error components drive triggering; temperature
    (index 2) is the controlled output and the default.
    """

    zeta: float
    xi: float
    psi: float
    m1: float
    m2: float
    varsigma: float
    indices: tuple[int, ...] = (2,)

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
        if not self.indices or not set(self.indices) <= {1, 2}:
            raise InvalidParameterError("indices must be a nonempty subset of {1,2}")


@dataclass
class EventLog:
    """Time-ordered record of triggering instants and derived quantities."""

    instants: list[float] = field(default_factory=list)
    gaps: list[float] = field(default_factory=list)
    bound_at_event: list[float] = field(default_factory=list)
    delta_at_event: list[float] = field(default_factory=list)

    def check(self, h: float) -> None:
        if any(b <= a for a, b in zip(self.instants, self.instants[1:])):
            raise ValueError("event instants must be strictly increasing")
        if self.gaps and min(self.gaps) < h - 1e-12:
            raise ValueError("inter-event gap below the integration step")


@dataclass(frozen=True)
class LipschitzEstimate:
    """Max sampled Jacobian spectral norm over a state box, with safety factor."""

    l_bar: float
    box: Box
    sample_count: int

    def __post_init__(self) -> None:
        if not self.l_bar > 0.0:
            raise InvalidParameterError("l_bar must be positive")


def threshold(t: float, tp: TriggerParams) -> float:
    """Time-varying tolerance psi*(m1 + m2*exp(-varsigma*t)); decays to psi*m1."""
    return tp.psi * (tp.m1 + tp.m2 * math.exp(-tp.varsigma * t))


def margin(e1: float, e2: float, e1dot: float, e2dot: float, tol: float,
           tp: TriggerParams) -> float:
    """Trigger margin: max_i |zeta*e_i + xi*e_i_dot^2| minus tol.

    The max runs over tp.indices; tol is threshold(t, tp).  The printed
    norm wraps a scalar and is implemented as absolute value.
    """
    val = -math.inf
    if 1 in tp.indices:
        val = abs(tp.zeta * e1 + tp.xi * e1dot * e1dot)
    if 2 in tp.indices:
        v2 = abs(tp.zeta * e2 + tp.xi * e2dot * e2dot)
        if v2 > val:
            val = v2
    return val - tol


def delta(e: ErrorState, t: float, tp: TriggerParams) -> float:
    """The trigger margin of an error state at time t."""
    return margin(e.e1, e.e2, e.e1dot, e.e2dot, threshold(t, tp), tp)


def should_trigger(e: ErrorState, t: float, tp: TriggerParams) -> bool:
    """True iff the margin is nonnegative (fires exactly at delta >= 0)."""
    return delta(e, t, tp) >= 0.0


@functools.lru_cache(maxsize=64)
def _gain_norms(beta: float, lambda1: float, lambda2: float
                ) -> tuple[float, float]:
    """(spectral norm of M, Euclidean norm of Bbar); constant per design."""
    bbar = np.array([0.0, beta])
    lam = np.array([lambda1, lambda2])
    m = np.outer(bbar, lam) / (lambda2 * beta)
    return float(np.linalg.norm(m, 2)), float(np.linalg.norm(bbar))


def zeno_bound(x_k: DimlessState, eps_max: float, lip: LipschitzEstimate,
               p: DimlessParams, sp: SlidingParams) -> float:
    """Theoretical lower bound on the next inter-event time.

    T_min = (1/L) ln(1 + L*eps_max / (L*(1 + ||M||)*||x_k|| + ||Bbar||*mu))
    with Bbar = (0, beta)^T and M = Bbar lambda2^-1 beta^-1 lambda^T;
    matrix norm spectral, vector norm Euclidean.  Strictly positive.
    """
    if not lip.l_bar > 0.0:
        raise InvalidParameterError("Lipschitz constant must be positive")
    if not eps_max > 0.0:
        raise InvalidParameterError("eps_max must be positive")
    m_norm, bbar_norm = _gain_norms(p.beta, sp.lambda1, sp.lambda2)
    x_norm = math.hypot(x_k.x1, x_k.x2)
    denom = lip.l_bar * (1.0 + m_norm) * x_norm + bbar_norm * sp.mu
    return math.log1p(lip.l_bar * eps_max / denom) / lip.l_bar


@functools.lru_cache(maxsize=16)
def estimate_lipschitz(p: DimlessParams,
                       box: Box = DEFAULT_LIPSCHITZ_BOX,
                       n: int = 10_000) -> LipschitzEstimate:
    """Lipschitz constant of the drift over box.

    Max Jacobian spectral norm over an n-point Sobol sampling of box
    (corners included), inflated by a 1.1 safety factor.  Deterministic.
    """
    if n < 100:
        raise InvalidParameterError("at least 100 samples required")
    (x1lo, x1hi), (x2lo, x2hi) = box
    sampler = qmc.Sobol(d=2, scramble=False)
    unit = sampler.random_base2(max(7, math.ceil(math.log2(n))))
    pts = np.column_stack([
        x1lo + unit[:, 0] * (x1hi - x1lo),
        x2lo + unit[:, 1] * (x2hi - x2lo),
    ])
    corners = np.array([[a, b] for a in (x1lo, x1hi) for b in (x2lo, x2hi)])
    pts = np.vstack([pts, corners])
    worst = 0.0
    for x1v, x2v in pts:
        jac = jacobian(DimlessState(float(x1v), float(x2v)), p)
        worst = max(worst, float(np.linalg.norm(jac, 2)))
    return LipschitzEstimate(l_bar=LIPSCHITZ_SAFETY * worst,
                             box=box, sample_count=len(pts))


def write_event_csv(log: EventLog, path) -> None:
    """Event log CSV with columns k, t_k, T_k, delta_fired, zeno_bound."""
    lines = ["k,t_k,T_k,delta_fired,zeno_bound"]
    for k, t_k in enumerate(log.instants):
        gap = repr(log.gaps[k]) if k < len(log.gaps) else "nan"
        lines.append(
            f"{k},{t_k!r},{gap},{log.delta_at_event[k]!r},{log.bound_at_event[k]!r}")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
