"""Dimensionless CSTR dynamics, disturbance signals and parameter conversion.

The simulated model is the two-state dimensionless form of an ideal,
non-isothermal CSTR with an irreversible exothermic first-order reaction
A -> B, actuated through the coolant temperature channel.  The physical
(kelvin / kmol) layer exists only for parameter conversion and reporting;
the integrator always runs on the dimensionless equations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

SINGULAR_TOL = 1e-12


class PlantError(ValueError):
    """Base class for plant-level errors."""


class SingularExponentError(PlantError):
    """Raised when 1 + x2/gamma is numerically zero (nonphysical temperature)."""


class InvalidParameterError(PlantError):
    """Raised when a parameter record violates its positivity invariants."""


class DriftOverflowError(PlantError):
    """Raised when exp(x2/(1+x2/gamma)) overflows a float."""


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
                raise InvalidParameterError(f"{name} must be positive")


@dataclass(frozen=True, slots=True)
class PhysicalParams:
    """Physical CSTR constants (kelvin / kmol / m^3 / min units)."""

    k0: float      # rate constant, 1/min
    caf0: float    # nominal feed concentration, kmol/m^3
    f0: float      # nominal flow, m^3/min
    rho: float     # density, g/m^3
    cp: float      # specific heat, cal/(degC g)
    dh: float      # heat of reaction, cal/kmol, negative for exothermic
    rhoc: float    # coolant density, g/m^3
    cpc: float     # coolant specific heat, cal/(degC g)
    v: float       # volume, m^3
    fc: float      # coolant flow, m^3/min
    e: float       # activation energy, J/mol
    r: float       # gas constant, J/(mol K)
    tf0: float     # nominal feed temperature, K
    tc0: float     # nominal coolant temperature, K
    a: float       # heat-transfer model parameter
    b: float       # heat-transfer model exponent, sign unrestricted

    def __post_init__(self) -> None:
        positive = ("k0", "caf0", "f0", "rho", "cp", "rhoc", "cpc",
                    "v", "fc", "e", "r", "tf0", "tc0", "a")
        for name in positive:
            if not getattr(self, name) > 0.0:
                raise InvalidParameterError(f"{name} must be positive")
        if not self.dh < 0.0:
            raise InvalidParameterError("dh must be negative (exothermic)")
        if not math.isfinite(self.e / (self.r * self.tf0)):
            raise InvalidParameterError("derived gamma is not finite")


@dataclass(frozen=True, slots=True)
class Disturbance:
    """Bounded, measurable sinusoidal disturbance pair.

    d1 = amp1 sin(freq1 t) enters the temperature equation, d2 = amp2
    sin(freq2 t) the composition equation.  Evaluation asserts the declared
    sup bound.
    """

    amp1: float
    freq1: float
    amp2: float
    freq2: float
    bound: float

    def series(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(d1, d2) at the times ts, one sin per point.

        Every element equals the Python-float amp * math.sin(freq * t).
        Raises PlantError on a nonfinite phase or a value over the bound.
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
        bad = np.flatnonzero(np.maximum(np.abs(out[0]), np.abs(out[1]))
                             > self.bound + 1e-15)
        if bad.size:
            raise PlantError(
                f"disturbance exceeds declared bound at t={ts[bad[0]]}")
        return out[0], out[1]

    def eval(self, t: float) -> tuple[float, float]:
        """series at the single time t."""
        d1, d2 = self.series(np.array([t]))
        return float(d1[0]), float(d2[0])

    @classmethod
    def zero(cls) -> "Disturbance":
        return cls(amp1=0.0, freq1=0.0, amp2=0.0, freq2=0.0, bound=0.0)

    @classmethod
    def sinusoidal(cls, amp1: float, freq1: float,
                   amp2: float, freq2: float) -> "Disturbance":
        return cls(amp1=amp1, freq1=freq1, amp2=amp2, freq2=freq2,
                   bound=max(abs(amp1), abs(amp2)))


def drift(x1: float, x2: float, p: DimlessParams) -> tuple[float, float]:
    """Undisturbed drift pair (f1, f2) at (x1, x2).

    f1 = -x1 + Da(1-x1)exp(x2/(1+x2/gamma)) and
    f2 = -x2 + B Da(1-x1)exp(x2/(1+x2/gamma)) - beta(x2 - x2c0);
    control and disturbances are added by the caller.
    """
    den = 1.0 + x2 / p.gamma
    if abs(den) < SINGULAR_TOL:
        raise SingularExponentError(
            f"1 + x2/gamma vanishes (x2={x2}, gamma={p.gamma})")
    try:
        ex = math.exp(x2 / den)
    except OverflowError:
        raise DriftOverflowError(
            f"exp(x2/(1+x2/gamma)) overflows (x2={x2}, gamma={p.gamma})"
        ) from None
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
        raise SingularExponentError(
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


def heat_transfer_term(pp: PhysicalParams) -> float:
    """hA = a Fc^(b+1) / (Fc + a Fc^b / (2 rho_c Cp_c))."""
    den = pp.fc + pp.a * pp.fc ** pp.b / (2.0 * pp.rhoc * pp.cpc)
    if abs(den) < SINGULAR_TOL:
        raise InvalidParameterError("heat-transfer denominator vanishes")
    return pp.a * pp.fc ** (pp.b + 1.0) / den


def physical_to_dimensionless(pp: PhysicalParams) -> DimlessParams:
    """Convert physical constants to the dimensionless parameter record."""
    gamma = pp.e / (pp.r * pp.tf0)
    b_rise = (-pp.dh) * pp.caf0 * gamma / (pp.rho * pp.cp * pp.tf0)
    da = pp.k0 * math.exp(-gamma) * pp.v / pp.f0
    beta = heat_transfer_term(pp) / (pp.rho * pp.cp * pp.f0)
    x2c0 = gamma * (pp.tc0 - pp.tf0) / pp.tf0
    return DimlessParams(da=da, gamma=gamma, b_rise=b_rise,
                         beta=beta, x2c0=x2c0)


def kelvin_to_x2(temp: float, tf0: float, gamma: float) -> float:
    """Dimensionless temperature gamma*(T - Tf0)/Tf0."""
    if not tf0 > 0.0:
        raise InvalidParameterError("tf0 must be positive")
    return gamma * (temp - tf0) / tf0


def composition_nullcline(x2: float, p: DimlessParams) -> float:
    """The x1 solving f1(x1, x2) = 0 for a given x2."""
    rex = drift(0.0, x2, p)[0]  # f1(0, x2) is the reaction term Da*exp(.)
    return rex / (1.0 + rex)
