"""Sliding surface, continuous SMC law and its zero-order-hold event form.

The continuous law and the event-triggered law share one formula; the event
form simply freezes the state snapshot at the triggering instant, so the two
laws coincide exactly at every update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .plant import DimlessParams, DimlessState, Disturbance, state_derivative
from .plant import InvalidParameterError, eval_f1, eval_f2, pointwise


@dataclass(frozen=True, slots=True)
class SlidingParams:
    """Manifold weights (lambda1, lambda2) and switching gain mu."""

    lambda1: float
    lambda2: float
    mu: float

    def __post_init__(self) -> None:
        if self.lambda2 == 0.0:
            raise InvalidParameterError("lambda2 must be nonzero")
        if not self.mu > 0.0:
            raise InvalidParameterError("mu must be positive")


@dataclass(frozen=True, slots=True)
class ReferenceSignal:
    """Reference pair with exact analytic derivatives.

    x1 reference is a constant; x2 reference is the startup shape
    x2ss * (1 - k1 * exp(-k2 * t)) with k2 >= 0.
    """

    x1_const: float
    x2ss: float
    k1: float
    k2: float

    def __post_init__(self) -> None:
        for name in ("x1_const", "x2ss", "k1", "k2"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidParameterError(f"{name} must be finite")
        # exp(-k2*t) stays in [0, 1] on t >= 0 instead of overflowing
        if not self.k2 >= 0.0:
            raise InvalidParameterError("k2 must be nonnegative")

    def x1ref(self, t: float) -> float:
        return self.x1_const

    def x1ref_dot(self, t: float) -> float:
        return 0.0

    def x2ref_series(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """x2 reference and its rate at the times ts, one exp per point.

        Every element equals the Python-float evaluation at that time.
        """
        ex = pointwise(math.exp, -self.k2 * ts)
        return (self.x2ss * (1.0 - self.k1 * ex),
                self.x2ss * self.k1 * self.k2 * ex)

    def x2ref(self, t: float) -> float:
        return float(self.x2ref_series(np.array([t]))[0][0])

    def x2ref_dot(self, t: float) -> float:
        return float(self.x2ref_series(np.array([t]))[1][0])


@dataclass(frozen=True, slots=True)
class ErrorState:
    """Tracking errors and their analytic rates (never finite-differenced)."""

    e1: float
    e2: float
    e1dot: float
    e2dot: float


@dataclass(frozen=True, slots=True)
class HeldControl:
    """Control value frozen on [t_k, t_{k+1}) together with its snapshot."""

    u: float
    t_k: float
    x_k: DimlessState
    sigma_k: float


def sigma(e: ErrorState, sp: SlidingParams) -> float:
    """Sliding surface value lambda1*e1 + lambda2*e2."""
    return sp.lambda1 * e.e1 + sp.lambda2 * e.e2


def sign(s: float) -> float:
    """Strict sign with sign(0) = 0, so no actuation is injected on the manifold."""
    if s > 0.0:
        return 1.0
    if s < 0.0:
        return -1.0
    return 0.0


def error_state(x: DimlessState, u: float, t: float, p: DimlessParams,
                d: Disturbance, r: ReferenceSignal) -> ErrorState:
    """Errors at time t with rates induced by the currently applied control."""
    rate = state_derivative(x, u, t, p, d)
    return ErrorState(
        e1=x.x1 - r.x1ref(t),
        e2=x.x2 - r.x2ref(t),
        e1dot=rate.x1 - r.x1ref_dot(t),
        e2dot=rate.x2 - r.x2ref_dot(t),
    )


def drift_vector(x: DimlessState, t: float, p: DimlessParams,
                 d: Disturbance, r: ReferenceSignal) -> np.ndarray:
    """Control-free drift (f1 - d2 - x1ref_dot, f2 + d1 - x2ref_dot).

    Disturbances are measurable, so the controller reads them at the
    evaluation instant.
    """
    d1v, d2v = d.eval(t)
    return np.array([
        eval_f1(x, p) - d2v - r.x1ref_dot(t),
        eval_f2(x, p) + d1v - r.x2ref_dot(t),
    ])


def switching_law(e1: float, e2: float, g1: float, g2: float,
                  sp: SlidingParams, beta: float) -> float:
    """Sliding-mode law -(lambda2*beta)^-1 (lambda.g + mu*sign(sigma)).

    (e1, e2) are the tracking errors and (g1, g2) the control-free error
    drift, as returned by drift_vector.
    """
    s = sp.lambda1 * e1 + sp.lambda2 * e2
    return -(sp.lambda1 * g1 + sp.lambda2 * g2 + sp.mu * sign(s)) / (
        sp.lambda2 * beta)


def continuous_control(x: DimlessState, t: float, p: DimlessParams,
                       d: Disturbance, r: ReferenceSignal,
                       sp: SlidingParams) -> float:
    """Continuous sliding-mode law evaluated at state x and time t."""
    g = drift_vector(x, t, p, d, r)
    return switching_law(x.x1 - r.x1ref(t), x.x2 - r.x2ref(t), g[0], g[1],
                         sp, p.beta)


def event_control_update(x: DimlessState, t_k: float, p: DimlessParams,
                         d: Disturbance, r: ReferenceSignal,
                         sp: SlidingParams) -> HeldControl:
    """Compute the held control from the snapshot at a triggering instant."""
    e = ErrorState(x.x1 - r.x1ref(t_k), x.x2 - r.x2ref(t_k), 0.0, 0.0)
    s = sigma(e, sp)
    return HeldControl(
        u=continuous_control(x, t_k, p, d, r, sp),
        t_k=t_k,
        x_k=x,
        sigma_k=s,
    )
