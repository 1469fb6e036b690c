"""Key-value configuration ingestion with documented defaults.

The file format is flat ``key = value`` lines, ``#`` comments, decimal dot.
Keys are ASCII, any case.  A value is ASCII decimal text, as ``repr`` writes
a float; ``float()`` would also take digit-group underscores and non-ASCII
digits.  Only ASCII spaces are stripped.  Missing keys fall back to the
documented default experiment parameterization; unknown keys and non-finite
values are hard errors.
"""

from __future__ import annotations

import math
import re
import string
from typing import Mapping, Optional

from .controller import ReferenceSignal, SlidingParams
from .plant import ConfigError, DimlessParams, DimlessState
from .sim import SimConfig
from .trigger import TriggerParams

#: The record type behind each record name of KEYS.  "run" keys are
#: SimConfig fields themselves.
RECORDS = {"plant": DimlessParams, "sliding": SlidingParams,
           "trigger": TriggerParams, "reference": ReferenceSignal,
           "x0": DimlessState}

#: Every accepted key: key -> (record, field, default).  A default of None
#: marks an optional key.
KEYS: dict[str, tuple[str, str, Optional[float]]] = {
    # plant.  E = 49,884 J/mol, R = 8.314 J/(mol K), Tf0 = 300 K, k0 =
    # 3.784e7 /min and V/F0 = 1 min give gamma = E/(R Tf0) = 20.0 and da =
    # k0 exp(-gamma) V/F0 = 0.07799; Tc0 = Tf0 gives x2c0 = 0.  They give
    # b_rise = 0.0133 and beta = 1.0e-6, so those two are not derived.
    "da": ("plant", "da", 0.078),
    "gamma": ("plant", "gamma", 20.0),
    "b_rise": ("plant", "b_rise", 8.0),
    "beta": ("plant", "beta", 0.3),
    "x2c0": ("plant", "x2c0", 0.0),
    # disturbance signals
    "d1_amp": ("run", "d1_amp", 0.026),
    "d1_freq": ("run", "d1_freq", 0.1),
    "d2_amp": ("run", "d2_amp", 0.037),
    "d2_freq": ("run", "d2_freq", 0.1),
    # sliding manifold and switching gain
    "lambda1": ("sliding", "lambda1", 1.0),
    "lambda2": ("sliding", "lambda2", 2.0),
    "mu": ("sliding", "mu", 25.0),
    # triggering rule
    "zeta": ("trigger", "zeta", 0.8),
    "xi": ("trigger", "xi", 0.8),
    "psi": ("trigger", "psi", 0.5),
    "m1": ("trigger", "m1", 1e-4),
    "m2": ("trigger", "m2", 0.2025),
    "varsigma": ("trigger", "varsigma", 0.97),
    "trigger_both": ("trigger", "trigger_both", 0.0),
    # reference trajectory
    "x1ref": ("reference", "x1_const", 0.4472),
    "x2ss": ("reference", "x2ss", 2.6516),
    "k1": ("reference", "k1", 1.0),
    "k2": ("reference", "k2", 1.0),
    # integration
    "h": ("run", "h", 1e-3),
    "t_end": ("run", "t_end", 50.0),
    "x0_1": ("x0", "x1", 0.0),
    "x0_2": ("x0", "x2", 0.0),
    # regulation setpoint conversion
    "tf0_kelvin": ("run", "tf0_kelvin", 300.0),
    "setpoint_kelvin": ("run", "setpoint_kelvin", None),
}

_DISTURBANCE_KEYS = ("d1_amp", "d1_freq", "d2_amp", "d2_freq")

#: The keys each scenario kind does not read: only a regulate run converts
#: a kelvin setpoint, which then sets both references, and only a
#: disturbed run has a disturbance.
UNREAD_KEYS: dict[str, tuple[str, ...]] = {
    "nominal": ("tf0_kelvin", "setpoint_kelvin") + _DISTURBANCE_KEYS,
    "disturbed": ("tf0_kelvin", "setpoint_kelvin"),
    "regulate": ("x1ref", "x2ss") + _DISTURBANCE_KEYS,
}


#: The value text of a config file and of --duration.  inf and nan are
#: taken, so that build_config and SimConfig reject them as not finite.
_DECIMAL = re.compile(r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:e[+-]?[0-9]+)?"
                      r"|inf|infinity|nan)", re.ASCII | re.IGNORECASE)


def decimal(text: str, name: str) -> float:
    """float(text) if, stripped of ASCII spaces, _DECIMAL matches it;
    otherwise raises ConfigError, which names the value as name."""
    if not _DECIMAL.fullmatch(text.strip(string.whitespace)):
        raise ConfigError(f"{name} is not a decimal number")
    return float(text)


def _parse_lines(text: str) -> dict[str, float]:
    values: dict[str, float] = {}
    # text mode reads \r and \r\n as \n; splitlines() also splits at \x0c
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip(string.whitespace)
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key = key.strip(string.whitespace)
        key = key.lower() if key.isascii() else key  # U+212A would fold to k
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if key not in KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        values[key] = decimal(val, f"line {lineno}: value for {key!r}")
    return values


def build_config(values: Mapping[str, float],
                 scenario: str = "nominal") -> SimConfig:
    """Assemble a validated SimConfig from resolved key-value pairs."""
    for key, val in values.items():
        if key not in KEYS:
            raise ConfigError(f"unknown key {key!r}")
        if not math.isfinite(val):
            raise ConfigError(f"value for {key!r} must be finite, got {val}")
    v = {k: default for k, (_, _, default) in KEYS.items()} | dict(values)

    fields: dict[str, dict] = {}
    for key, (record, field, _) in KEYS.items():
        fields.setdefault(record, {})[field] = v[key]
    records = {rec: cls(**fields[rec]) for rec, cls in RECORDS.items()}
    return SimConfig(**fields["run"], **records, scenario=scenario)


def parse_config(path, scenario: str = "nominal") -> SimConfig:
    """Read, validate and resolve a UTF-8 configuration file."""
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} "
                              f"at byte {exc.start})") from exc
    return build_config(_parse_lines(text), scenario=scenario)


def config_values(cfg: SimConfig) -> dict[str, float]:
    """The resolved key-value view of a SimConfig (inverse of build_config)."""
    out = {}
    for key, (record, field, _) in KEYS.items():
        val = getattr(cfg if record == "run" else getattr(cfg, record), field)
        if val is not None:
            out[key] = val
    return out

