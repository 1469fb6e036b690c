"""Sliding surface, continuous SMC law and its zero-order-hold event form.

The continuous law and the event-triggered law share one formula; the event
form evaluates it at the triggering instant and holds the value, so the two
laws coincide exactly at every update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .plant import DimlessParams, DimlessState, Disturbance
from .plant import ConfigError, PlantError, drift, pointwise


@dataclass(frozen=True, slots=True)
class SlidingParams:
    """Manifold weights (lambda1, lambda2) and switching gain mu."""

    lambda1: float
    lambda2: float
    mu: float

    def __post_init__(self) -> None:
        if self.lambda2 == 0.0:
            raise ConfigError("lambda2 must be nonzero")
        if not 0.0 < self.mu < math.inf:
            raise ConfigError("mu must be positive and finite")


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
                raise ConfigError(f"{name} must be finite")
        # exp(-k2*t) stays in [0, 1] on t >= 0 instead of overflowing
        if not self.k2 >= 0.0:
            raise ConfigError("k2 must be nonnegative")

    def x2ref_series(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """x2 reference and its rate at the times ts, one exp per point.

        Every element equals the Python-float evaluation at that time.
        Raises PlantError where either is not finite.
        """
        with np.errstate(over="ignore", invalid="ignore"):  # reported below
            ex = pointwise(math.exp, -self.k2 * ts)
            x2ref = self.x2ss * (1.0 - self.k1 * ex)
            x2ref_dot = self.x2ss * self.k1 * self.k2 * ex
        bad = np.flatnonzero(~(np.isfinite(x2ref) & np.isfinite(x2ref_dot)))
        if bad.size:
            raise PlantError(
                f"x2 reference or its rate is not finite at t={ts[bad[0]]}")
        return x2ref, x2ref_dot

    def x2ref(self, t: float) -> float:
        return float(self.x2ref_series(np.array([t]))[0][0])

    def x2ref_dot(self, t: float) -> float:
        return float(self.x2ref_series(np.array([t]))[1][0])


@dataclass(frozen=True, slots=True)
class HeldControl:
    """Control value held on [t_k, t_{k+1})."""

    u: float


def switching_law(e1: float, e2: float, g1: float, g2: float,
                  sp: SlidingParams, beta: float) -> float:
    """Sliding-mode law -(lambda2*beta)^-1 (lambda.g + mu*sign(sigma)).

    (e1, e2) are the tracking errors and (g1, g2) the control-free error
    drift (f1 - d2, f2 + d1 - x2ref_dot).  sign(0) = 0, so no actuation is
    injected on the manifold; mu*sign(sigma) is taken as mu, -mu or 0.0,
    the products it equals for the positive finite mu of SlidingParams.
    """
    s = sp.lambda1 * e1 + sp.lambda2 * e2
    mu = sp.mu if s > 0.0 else -sp.mu if s < 0.0 else 0.0
    return -(sp.lambda1 * g1 + sp.lambda2 * g2 + mu) / (sp.lambda2 * beta)


def continuous_control(x: DimlessState, t: float, p: DimlessParams,
                       d: Disturbance, r: ReferenceSignal,
                       sp: SlidingParams) -> float:
    """Continuous sliding-mode law evaluated at state x and time t.

    The composition reference is constant, so its rate drops out of the
    error drift.  Disturbances are measurable, so the law reads them at t.
    """
    d1v, d2v = d.eval(t)
    f1, f2 = drift(x.x1, x.x2, p)
    return switching_law(x.x1 - r.x1_const, x.x2 - r.x2ref(t), f1 - d2v,
                         f2 + d1v - r.x2ref_dot(t), sp, p.beta)


def event_control_update(x: DimlessState, t_k: float, p: DimlessParams,
                         d: Disturbance, r: ReferenceSignal,
                         sp: SlidingParams) -> HeldControl:
    """The control held from the triggering instant t_k at state x."""
    return HeldControl(u=continuous_control(x, t_k, p, d, r, sp))
