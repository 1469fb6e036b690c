"""Event-triggered sliding-mode control of a nonlinear CSTR, at desk scale."""

from .controller import (HeldControl, ReferenceSignal, SlidingParams,
                         continuous_control, drift_vector,
                         event_control_update, sign, switching_law)
from .plant import (DimlessParams, DimlessState, Disturbance,
                    InvalidParameterError, PhysicalParams, PlantError,
                    SingularExponentError, composition_nullcline, drift,
                    eval_f1, eval_f2, jacobian, jacobian_stack,
                    kelvin_to_x2, physical_to_dimensionless)
from .sim import (Metrics, ReachabilityResult, SimConfig,
                  SimulationDivergedError, Trajectory, check_invariants,
                  compute_metrics, resolve_regulation, rk4, rk4_step,
                  run_event_triggered, run_time_triggered,
                  verify_reachability)
from .trigger import (EventLog, LipschitzEstimate, TriggerParams,
                      estimate_lipschitz, margin, thresholds, zeno_bound,
                      zeno_bounds)

__version__ = "0.1.0"
