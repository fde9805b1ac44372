"""Coupled behaviour-epidemic model: exact agent-based simulation, mean-field
ODE reductions, closed-form equilibrium and regime analysis, and limit-cycle
detection."""

from .core import (
    AssumptionError,
    ConfigError,
    InvalidParameterError,
    MacroState,
    ModelParams,
    NumericalError,
)
from .network import GraphError, InfluenceGraph
from .meanfield import (
    HeteroTrajectory,
    ProbabilityState,
    Trajectory,
    hetero_rhs,
    integrate_hetero,
    integrate_planar,
    planar_rhs_xy,
)
from .equilibria import (
    Condition,
    EquilibriumKind,
    RegimeLabel,
    Stability,
    TrappingRegion,
    beta_pm,
    classify_regime,
    eigenvalues_2x2,
    find_equilibria,
    interior_point,
    jacobian,
    thresholds,
    trapping_region,
)
from .cycles import CycleReport, Verdict, detect_cycle
from .abm import (
    AbmConfig,
    EnsembleResult,
    EventLog,
    ensemble,
    simulate,
)
from .phase import render_phase_portrait

__version__ = "0.1.0"

__all__ = [
    "AbmConfig", "AssumptionError", "Condition", "ConfigError", "CycleReport",
    "EnsembleResult", "EquilibriumKind", "EventLog", "GraphError",
    "HeteroTrajectory", "InfluenceGraph", "InvalidParameterError",
    "MacroState", "ModelParams", "NumericalError", "ProbabilityState",
    "RegimeLabel", "Stability", "Trajectory", "TrappingRegion", "Verdict",
    "beta_pm", "classify_regime", "detect_cycle", "eigenvalues_2x2", "ensemble",
    "find_equilibria", "hetero_rhs", "integrate_hetero", "integrate_planar",
    "interior_point", "jacobian", "planar_rhs_xy", "render_phase_portrait", "simulate",
    "thresholds", "trapping_region",
]
