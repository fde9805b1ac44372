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
    PayoffPair,
    global_payoffs,
    validate_params,
)
from .network import GraphError, InfluenceGraph
from .meanfield import (
    HeteroTrajectory,
    ProbabilityState,
    Trajectory,
    hetero_rhs,
    integrate_hetero,
    integrate_planar,
    planar_rhs,
    planar_rhs_xy,
)
from .equilibria import (
    BetaRoots,
    Condition,
    EquilibriumKind,
    EquilibriumReport,
    RegimeLabel,
    RegimeReport,
    Stability,
    beta_pm,
    classify_regime,
    classify_stability,
    cost_window,
    eigenvalues_2x2,
    endemic_zeta_threshold,
    find_equilibria,
    interior_band_zetas,
    interior_focus_zeta,
    interior_point,
    interior_real_zeta,
    jacobian,
    regime_conditions,
)
from .cycles import CycleReport, TrappingRegion, Verdict, detect_cycle, trapping_region
from .abm import (
    AbmConfig,
    EnsembleResult,
    EventLog,
    Population,
    ensemble,
    infection_rate,
    node_payoffs,
    simulate,
    switch_rates,
)
from .phase import render_phase_portrait

__version__ = "0.1.0"

__all__ = [
    "AbmConfig", "AssumptionError", "BetaRoots", "Condition", "ConfigError",
    "CycleReport", "EnsembleResult", "EquilibriumKind", "EquilibriumReport",
    "EventLog", "GraphError", "HeteroTrajectory", "InfluenceGraph",
    "InvalidParameterError", "MacroState", "ModelParams", "NumericalError",
    "PayoffPair", "Population", "ProbabilityState", "RegimeLabel",
    "RegimeReport", "Stability", "Trajectory", "TrappingRegion", "Verdict",
    "beta_pm", "classify_regime", "classify_stability", "cost_window",
    "detect_cycle", "eigenvalues_2x2", "endemic_zeta_threshold", "ensemble",
    "find_equilibria", "global_payoffs", "hetero_rhs", "infection_rate",
    "integrate_hetero", "integrate_planar", "interior_band_zetas",
    "interior_focus_zeta", "interior_point", "interior_real_zeta", "jacobian",
    "node_payoffs", "planar_rhs", "planar_rhs_xy",
    "regime_conditions", "render_phase_portrait", "simulate", "switch_rates",
    "trapping_region", "validate_params",
]
