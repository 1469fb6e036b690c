"""Event-triggered sliding-mode control of a nonlinear CSTR, at desk scale."""

__version__ = "0.1.0"
