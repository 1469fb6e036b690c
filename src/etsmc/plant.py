"""Dimensionless CSTR dynamics and disturbance signals.

The simulated model is the two-state dimensionless form of an ideal,
non-isothermal CSTR with an irreversible exothermic first-order reaction
A -> B, actuated through the coolant temperature channel.  The one
physical input, a regulate run's kelvin setpoint, maps through kelvin_to_x2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

SINGULAR_TOL = 1e-12


class ConfigError(ValueError):
    """Malformed or invalid configuration input, from a file or a caller."""


class PlantError(ValueError):
    """A run the model cannot carry: a singular or overflowing exponent; a
    nonfinite state, control, disturbance, reference, gain or Jacobian; a
    computed bound that is not positive."""


@dataclass(frozen=True, slots=True)
class DimlessState:
    """Pair (x1 composition, x2 temperature), both dimensionless."""

    x1: float
    x2: float


@dataclass(frozen=True, slots=True)
class DimlessParams:
    """Plant constants of the dimensionless state model.

    da       Damkohler number
    gamma    activation-to-kinetic-energy ratio
    b_rise   adiabatic temperature rise
    beta     heat transfer coefficient
    x2c0     nominal dimensionless coolant temperature
    """

    da: float
    gamma: float
    b_rise: float
    beta: float
    x2c0: float

    def __post_init__(self) -> None:
        for name in ("da", "gamma", "b_rise", "beta"):
            if not getattr(self, name) > 0.0:
                raise ConfigError(f"{name} must be positive")


@dataclass(frozen=True, slots=True)
class Disturbance:
    """Bounded, measurable sinusoidal disturbance pair.

    d1 = amp1 sin(freq1 t) enters the temperature equation, d2 = amp2
    sin(freq2 t) the composition equation; |d_i| <= |amp_i| everywhere.
    """

    amp1: float
    freq1: float
    amp2: float
    freq2: float

    def series(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(d1, d2) at the times ts, one sin per point.

        Every element equals the Python-float amp * math.sin(freq * t).
        Raises PlantError on a nonfinite phase.
        """
        out = []
        for amp, freq in ((self.amp1, self.freq1), (self.amp2, self.freq2)):
            with np.errstate(over="ignore"):  # reported below instead
                phase = freq * ts
            bad = np.flatnonzero(~np.isfinite(phase))
            if bad.size:
                raise PlantError(f"disturbance phase {freq}*t is not finite "
                                 f"at t={ts[bad[0]]}")
            out.append(amp * pointwise(math.sin, phase))
        return out[0], out[1]

    def eval(self, t: float) -> tuple[float, float]:
        """series at the single time t."""
        d1, d2 = self.series(np.array([t]))
        return float(d1[0]), float(d2[0])

    @classmethod
    def zero(cls) -> "Disturbance":
        return cls(amp1=0.0, freq1=0.0, amp2=0.0, freq2=0.0)


def drift(x1: float, x2: float, p: DimlessParams) -> tuple[float, float]:
    """Undisturbed drift pair (f1, f2) at (x1, x2).

    f1 = -x1 + Da(1-x1)exp(x2/(1+x2/gamma)) and
    f2 = -x2 + B Da(1-x1)exp(x2/(1+x2/gamma)) - beta(x2 - x2c0);
    control and disturbances are added by the caller.
    """
    den = 1.0 + x2 / p.gamma
    if abs(den) < SINGULAR_TOL:
        raise PlantError(f"1 + x2/gamma vanishes (x2={x2}, gamma={p.gamma})")
    try:
        ex = math.exp(x2 / den)
    except OverflowError:
        raise PlantError(f"exp(x2/(1+x2/gamma)) overflows "
                         f"(x2={x2}, gamma={p.gamma})") from None
    return (-x1 + p.da * (1.0 - x1) * ex,
            -x2 + p.b_rise * p.da * (1.0 - x1) * ex - p.beta * (x2 - p.x2c0))


def eval_f1(x: DimlessState, p: DimlessParams) -> float:
    """Undisturbed composition drift f1 at x."""
    return drift(x.x1, x.x2, p)[0]


def eval_f2(x: DimlessState, p: DimlessParams) -> float:
    """Undisturbed temperature drift f2 at x."""
    return drift(x.x1, x.x2, p)[1]


def pointwise(fn: Callable[[float], float], a: np.ndarray) -> np.ndarray:
    """fn of each element, with fn a math function such as math.exp.

    A SIMD np.exp or np.sin may differ from math.exp or math.sin in the
    last ulp, so array homes use this to equal their scalar evaluations
    bit for bit.  The elements are read through a memoryview and written
    straight into the result, so no Python list is built on either side.
    """
    return np.fromiter(map(fn, memoryview(a)), np.float64, len(a))


def jacobian_stack(x1: np.ndarray, x2: np.ndarray,
                   p: DimlessParams) -> np.ndarray:
    """Analytic Jacobians of (f1, f2) at the points (x1[i], x2[i]), (N, 2, 2).

    d/dx2 of x2/(1+x2/gamma) is 1/(1+x2/gamma)^2.  The exponential is
    pointwise, so every entry equals its scalar evaluation bit for bit.
    """
    den = 1.0 + x2 / p.gamma
    bad = np.flatnonzero(np.abs(den) < SINGULAR_TOL)
    if bad.size:
        raise PlantError(
            f"1 + x2/gamma vanishes (x2={x2[bad[0]]}, gamma={p.gamma})")
    ex = pointwise(math.exp, x2 / den)
    dex = ex / (den * den)  # derivative of the exponential w.r.t. x2
    rem = 1.0 - x1
    return np.stack([
        -1.0 - p.da * ex, p.da * rem * dex,
        -p.b_rise * p.da * ex, -1.0 + p.b_rise * p.da * rem * dex - p.beta,
    ], axis=-1).reshape(-1, 2, 2)


def jacobian(x: DimlessState, p: DimlessParams) -> np.ndarray:
    """Analytic 2x2 Jacobian of (f1, f2) at x."""
    return jacobian_stack(np.array([x.x1]), np.array([x.x2]), p)[0]


def kelvin_to_x2(temp: float, tf0: float, gamma: float) -> float:
    """Dimensionless temperature gamma*(T - Tf0)/Tf0; SimConfig checks Tf0."""
    return gamma * (temp - tf0) / tf0


def composition_nullcline(x2: float, p: DimlessParams) -> float:
    """The x1 solving f1(x1, x2) = 0 for a given x2."""
    rex = drift(0.0, x2, p)[0]  # f1(0, x2) is the reaction term Da*exp(.)
    return rex / (1.0 + rex)
