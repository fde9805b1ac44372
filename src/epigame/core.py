"""Core parameter and state types for the coupled protection/SIS model.

Every other module (mean-field ODEs, equilibrium analysis, cycle detection,
agent-based simulation, CLI) shares the five scalar model parameters, the
planar macroscopic state and the error types defined here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass


class InvalidParameterError(ValueError):
    """A model parameter or state coordinate is outside its admissible range."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field} {message}")


class AssumptionError(RuntimeError):
    """An analytical routine was called outside its validity assumptions."""


class NumericalError(RuntimeError):
    """A numerical routine failed (step-size underflow, invariant violation)."""


class ConfigError(ValueError):
    """An experiment configuration is malformed or incomplete."""


# the keys of a params object, in the order of ModelParams.to_dict
PARAM_KEYS = ("alpha", "lambda", "mu", "c", "zeta")


def config_value(name: str, value, cast):
    """`value` read by `cast` (float, int, str). A value it cannot read
    exactly is a ConfigError naming the setting: null, a bool read as a
    number, a float that is not finite, and an int that is not integral."""
    try:
        if value is None:
            raise TypeError("null")  # str() would read it as "None"
        if cast in (int, float) and isinstance(value, bool):
            raise TypeError("a bool is not a number")
        if cast is int and isinstance(value, float) and not value.is_integer():
            raise ValueError("not integral")  # int() would truncate it
        read = cast(value)
        if cast is float and not math.isfinite(read):
            raise ValueError("not finite")
        return read
    except (TypeError, ValueError, OverflowError) as exc:
        what = {float: "a finite number", int: "an integer"}.get(cast, cast.__name__)
        raise ConfigError(f"{name} must be {what}, not {value!r}") from exc


@dataclass(frozen=True)
class ModelParams:
    """The five scalar parameters of the coupled model.

    alpha: per-individual activation rate of the contact process (> 0)
    lam:   per-contact infection probability, in (0, 1]
    mu:    recovery rate (> 0)
    c:     per-unit-time cost of adopting protective measures (>= 0)
    zeta:  risk-perception gain converting prevalence into protection payoff (>= 0)

    Construction fails on out-of-range values; nothing is ever clamped.
    """

    alpha: float
    lam: float
    mu: float
    c: float
    zeta: float

    def __post_init__(self):
        for name in ("alpha", "lam", "mu", "c", "zeta"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise InvalidParameterError(name, "must be a real number")
            if not math.isfinite(v):
                raise InvalidParameterError(name, "must be finite")
            object.__setattr__(self, name, float(v))
        if self.alpha <= 0.0:
            raise InvalidParameterError("alpha", "must be > 0")
        if self.mu <= 0.0:
            raise InvalidParameterError("mu", "must be > 0")
        if not 0.0 < self.lam <= 1.0:
            raise InvalidParameterError("lambda", "out of (0,1]")
        if self.c < 0.0:
            raise InvalidParameterError("c", "must be >= 0")
        if self.zeta < 0.0:
            raise InvalidParameterError("zeta", "must be >= 0")

    @property
    def payoff_assumption_holds(self) -> bool:
        """True when c > 1 and zeta > c + 1.

        Under this ordering, protection is disfavoured at zero prevalence and
        favoured at full prevalence. The analytical modules (equilibria,
        cycles) require it; the simulators merely warn without it.
        """
        return self.c > 1.0 and self.zeta > self.c + 1.0

    def to_dict(self) -> dict:
        """Flat JSON object embedded in every config and output file."""
        return {
            "alpha": self.alpha,
            "lambda": self.lam,
            "mu": self.mu,
            "c": self.c,
            "zeta": self.zeta,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModelParams":
        missing = [k for k in PARAM_KEYS if k not in d]
        if missing:
            raise ConfigError(f"missing model parameters: {', '.join(missing)}")
        return cls(alpha=d["alpha"], lam=d["lambda"], mu=d["mu"], c=d["c"], zeta=d["zeta"])


@dataclass(frozen=True)
class MacroState:
    """Planar macroscopic state: protection adoption x and prevalence y, both in [0,1]."""

    x: float
    y: float

    def __post_init__(self):
        for name in ("x", "y"):
            v = float(getattr(self, name))
            if not math.isfinite(v) or not 0.0 <= v <= 1.0:
                raise InvalidParameterError(name, "out of [0,1]")
            object.__setattr__(self, name, v)

    def as_tuple(self) -> tuple[float, float]:
        return (self.x, self.y)
