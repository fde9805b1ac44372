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
    beta_pm,
    classify_regime,
    cost_window,
    eigenvalues_2x2,
    endemic_zeta_threshold,
    find_equilibria,
    interior_band_zetas,
    interior_focus_zeta,
    interior_point,
    interior_real_zeta,
    jacobian,
)
from .cycles import CycleReport, TrappingRegion, Verdict, detect_cycle, trapping_region
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
    "beta_pm", "classify_regime", "cost_window", "detect_cycle", "eigenvalues_2x2",
    "endemic_zeta_threshold", "ensemble", "find_equilibria", "hetero_rhs",
    "integrate_hetero", "integrate_planar", "interior_band_zetas", "interior_focus_zeta",
    "interior_point", "interior_real_zeta", "jacobian", "planar_rhs_xy",
    "render_phase_portrait", "simulate", "trapping_region",
]
