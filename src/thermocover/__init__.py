"""Simulation and control toolkit for a water-circulating thermal cover."""

from .detect import DetectionReport, detect_contacts
from .errors import (ConfigError, ConvergenceError, IllConditionedFitError,
                     NumericError, ThermocoverError)
from .fopdt import DiscreteFOPDT, discretize_fopdt, fopdt_step_response
from .mpc import (MpcConfig, MpcSolution, PenaltyForm, PumpHysteresis,
                  ThermalController, build_prediction, pump_step, solve_mpc)
from .observer import ObserverState, build_observer, observer_step
from .params import AmbientConfig, Mode, PlantParams, Target, preset_params
from .plant import (ContactEvent, ContactKind, PlantState, contact_heat_flow,
                    estimate_q_aw, step_plant)
from .scenario import (DetectionConfig, ScenarioSpec, builtin_scenarios,
                       load_scenario, save_scenario)
from .simulate import simulate
from .sysid import FitReport, StepTrace, fit_fopdt, fit_two_node
from .trace import SimTrace

__all__ = [
    "AmbientConfig", "ConfigError", "ContactEvent", "ContactKind",
    "ConvergenceError", "DetectionConfig", "DetectionReport", "DiscreteFOPDT",
    "FitReport", "IllConditionedFitError", "Mode", "MpcConfig", "MpcSolution",
    "NumericError", "ObserverState", "PenaltyForm", "PlantParams",
    "PlantState", "PumpHysteresis", "ScenarioSpec", "SimTrace", "StepTrace",
    "Target", "ThermalController", "ThermocoverError",
    "build_observer", "build_prediction", "builtin_scenarios",
    "contact_heat_flow", "detect_contacts", "discretize_fopdt",
    "estimate_q_aw", "fit_fopdt", "fit_two_node", "fopdt_step_response",
    "load_scenario", "observer_step", "preset_params", "pump_step",
    "save_scenario", "simulate", "solve_mpc", "step_plant",
]

__version__ = "0.1.0"
