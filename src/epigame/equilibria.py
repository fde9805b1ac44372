"""Closed-form equilibria of the planar system, local stability via the
analytic Jacobian, and the parameter-regime classifier.

The planar system has at most five equilibria: the two disease-free states
(0,0) and (1,0), the protection-free endemic state (0, 1 - mu/(2*alpha*lam)),
and up to two interior endemic states whose x-coordinates are the roots

    beta_pm = 1/4 [ c + 3 - zeta +- sqrt((c+3-zeta)^2
              + 8 (zeta (1 - mu/(2 alpha lam)) - 1 - c)) ],

with y = 1 - mu / (2 alpha lam (1 - beta)).

All eigenvalues are computed in closed form from the 2x2 trace/determinant;
no general eigensolver is involved.

`thresholds(p)` gives the seven closed-form thresholds in zeta and c of a
point as one record; `regime_ledger` reads the same record over arrays.

The regime classifier is array-valued. `regime_ledger` evaluates the nine
conditions of REGIME_CONDITIONS elementwise over numpy arrays of parameter
points, giving (9, n) arrays of left-hand sides, right-hand sides and
verdicts, and runs the decision ladder as boolean masks, marginal tests
included. `sweep` makes one ledger call for its whole grid;
`classify_regime` is its one-point case and adds `find_equilibria` for the
report. The ledger uses the scalar formulas' operations in the same order,
so its values are bit-identical to evaluating each point on its own.
"""
from __future__ import annotations

import cmath
import enum
import math
import operator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import AssumptionError, MacroState, ModelParams, NumericalError
from .meanfield import planar_rhs_xy

# comparisons closer to equality than this (relative) are treated as marginal
_MARGIN_RTOL = 1e-12
# eigenvalue real parts within this of zero defeat a strict classification
_EIG_ZERO_TOL = 1e-12


_OPS = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le}


def _near(lhs, rhs):
    """Elementwise: equal within relative _MARGIN_RTOL, and neither side infinite."""
    with np.errstate(invalid="ignore"):
        scale = np.maximum(np.maximum(1.0, np.abs(lhs)), np.abs(rhs))
        close = np.abs(lhs - rhs) <= _MARGIN_RTOL * scale
    return close & ~(np.isinf(lhs) | np.isinf(rhs))


@dataclass(frozen=True)
class Condition:
    """One evaluated inequality: lhs <op> rhs, with its originating result tag."""

    name: str
    lhs: float
    rhs: float
    op: str  # one of > >= < <=
    source: str

    @property
    def satisfied(self) -> bool:
        if self.op not in _OPS:
            raise ValueError(f"unknown operator {self.op!r}")
        return _OPS[self.op](self.lhs, self.rhs)

    @property
    def marginal(self) -> bool:
        return bool(_near(self.lhs, self.rhs))

    def to_dict(self) -> dict:
        def _f(v):
            return None if math.isinf(v) else v

        return {
            "name": self.name,
            "lhs": _f(self.lhs),
            "rhs": _f(self.rhs),
            "op": self.op,
            "satisfied": bool(self.satisfied),
            "source": self.source,
        }


class EquilibriumKind(str, enum.Enum):
    DFE_ORIGIN = "dfe-origin"
    DFE_ONE = "dfe-one"
    PROTECTION_FREE_EE = "protection-free-ee"
    INTERIOR_PLUS = "interior-plus"
    INTERIOR_MINUS = "interior-minus"


class Stability(str, enum.Enum):
    LES = "locally-exponentially-stable"
    MARGINAL = "asymptotically-stable-marginal"
    SADDLE = "saddle"
    UNSTABLE = "unstable"
    INDETERMINATE = "indeterminate"


class RegimeLabel(str, enum.Enum):
    INVALID_ASSUMPTIONS = "invalid-assumptions"
    GLOBAL_DFE = "global-dfe"
    PROTECTION_FREE_ENDEMIC = "protection-free-endemic"
    INTERIOR_ENDEMIC = "interior-endemic"
    LIMIT_CYCLE = "limit-cycle"
    LOCAL_ONLY = "local-only"
    MARGINAL = "marginal"


@dataclass
class EquilibriumReport:
    kind: EquilibriumKind
    point: tuple[float, float] | None
    exists: bool
    conditions: list[Condition]
    eigenvalues: tuple[complex, complex] | None = None
    stability: Stability | None = None
    meta: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "point": list(self.point) if self.point is not None else None,
            "exists": self.exists,
            "conditions": [c.to_dict() for c in self.conditions],
            "eigenvalues": (
                [[e.real, e.imag] for e in self.eigenvalues]
                if self.eigenvalues is not None
                else None
            ),
            "stability": self.stability.value if self.stability else None,
            "meta": self.meta,
        }


@dataclass
class RegimeReport:
    label: RegimeLabel
    conditions: list[Condition]
    equilibria: list[EquilibriumReport]
    params: ModelParams

    def to_dict(self) -> dict:
        return {
            "params": self.params.to_dict(),
            "label": self.label.value,
            "conditions": [c.to_dict() for c in self.conditions],
            "equilibria": [e.to_dict() for e in self.equilibria],
        }


# ---------------------------------------------------------------------------
# closed-form threshold quantities


class Thresholds(NamedTuple):
    """The closed-form zeta and cost thresholds: floats from `thresholds`.

    endemic: 2*alpha*lam*(1+c) / (2*alpha*lam - mu), the risk perception
        above which the protection-free endemic state destabilises; infinite
        below the epidemic threshold.
    real: the smallest zeta for which the interior x-roots are real. When
        the defining quadratic has no real roots in zeta (possible only for
        c < 1) the discriminant is positive everywhere and the bound is
        vacuous (-inf).
    focus: the lower zeta bound for local stability of the upper interior state.
    band_lo, band_hi: the zeta roots of the trace condition at the upper
        interior state. Above band_hi that state is fully repelling and a
        periodic orbit attracts all interior trajectories. Below the epidemic
        threshold the band is (-inf, inf).
    window_lo, window_hi: the cost window [4*alpha*lam/mu - 3,
        32*alpha*lam/(5*mu) - 3) where a unique interior endemic state exists
        only above a zeta threshold.
    """

    endemic: float | np.ndarray
    real: float | np.ndarray
    focus: float | np.ndarray
    band_lo: float | np.ndarray
    band_hi: float | np.ndarray
    window_lo: float | np.ndarray
    window_hi: float | np.ndarray


def _thresholds(al, mu, c) -> Thresholds:
    """The closed-form thresholds, elementwise over alpha*lam, mu and c.

    Branches that do not apply (below the epidemic threshold, a negative
    square-root argument) are computed and then masked out, so their
    floating-point warnings are silenced.
    """
    al, mu, c = (np.asarray(v, dtype=float) for v in (al, mu, c))
    k = 2.0 * al
    above = k > mu
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        endemic = np.where(above, k * (1.0 + c) / (k - mu), np.inf)
        arg = 4.0 * mu / al * (c - 1.0 + mu / al)
        real = np.where(arg < 0.0, -np.inf, c - 1.0 + 2.0 * mu / al + np.sqrt(arg))
        # arg < 0 only for c < 1, where the bound is vacuous
        arg = mu / al * (c - 1.0 + 25.0 * mu / (16.0 * al))
        focus = np.where(arg < 0.0, -np.inf, c - 1.0 + 25.0 * mu / (8.0 * al) + 2.5 * np.sqrt(arg))
        # libm pow, as Python's (al - 1.0) ** 2 computes it: the correctly
        # rounded product x * x differs from it in about 1 case in 1 000
        s = np.sqrt(np.float_power(al - 1.0, 2.0) + 2.0 * mu)
        pref = al / (k - mu)
        band_lo = np.where(above, pref * ((c + 1.0) * (1.0 - s) + al * (c - 3.0) + 2.0 * mu),
                           -np.inf)
        band_hi = np.where(above, pref * ((c + 1.0) * (1.0 + s) + al * (c - 3.0) + 2.0 * mu),
                           np.inf)
    return Thresholds(endemic, real, focus, band_lo, band_hi,
                      4.0 * al / mu - 3.0, 32.0 * al / (5.0 * mu) - 3.0)


def thresholds(p: ModelParams) -> Thresholds:
    """The closed-form thresholds of one parameter point, as floats."""
    return Thresholds(*map(float, _thresholds(p.alpha * p.lam, p.mu, p.c)))


@dataclass(frozen=True)
class BetaRoots:
    """Interior x-coordinates (real roots only) and the quadratic discriminant."""

    discriminant: float
    beta_plus: float | None
    beta_minus: float | None


def beta_pm(p: ModelParams) -> BetaRoots:
    """Closed-form x-coordinates of the interior endemic candidates."""
    k = 2.0 * p.alpha * p.lam
    b = p.c + 3.0 - p.zeta
    disc = b * b + 8.0 * (p.zeta * (1.0 - p.mu / k) - 1.0 - p.c)
    if disc < 0.0:
        return BetaRoots(discriminant=disc, beta_plus=None, beta_minus=None)
    root = math.sqrt(disc)
    return BetaRoots(
        discriminant=disc,
        beta_plus=0.25 * (b + root),
        beta_minus=0.25 * (b - root),
    )


def interior_point(beta: float, p: ModelParams) -> tuple[float, float]:
    """Interior equilibrium (beta, 1 - mu/(2 alpha lam (1-beta)))."""
    return (beta, 1.0 - p.mu / (2.0 * p.alpha * p.lam * (1.0 - beta)))


# ---------------------------------------------------------------------------
# Jacobian and stability


def jacobian(s: MacroState, p: ModelParams) -> np.ndarray:
    """Analytic Jacobian of the planar vector field at a state."""
    return _jacobian_xy(s.x, s.y, p)


def _jacobian_xy(x: float, y: float, p: ModelParams) -> np.ndarray:
    k = 2.0 * p.alpha * p.lam
    j11 = (1.0 - 2.0 * x) * (2.0 * x + p.zeta * y - 1.0 - p.c) + 2.0 * x * (1.0 - x)
    j12 = p.zeta * x * (1.0 - x)
    j21 = -k * y * (1.0 - y)
    j22 = k * (1.0 - x) * (1.0 - 2.0 * y) - p.mu
    return np.array([[j11, j12], [j21, j22]], dtype=float)


def eigenvalues_2x2(j: np.ndarray) -> tuple[complex, complex]:
    """Eigenvalues of a real 2x2 matrix via trace/determinant."""
    tr = float(j[0, 0] + j[1, 1])
    det = float(j[0, 0] * j[1, 1] - j[0, 1] * j[1, 0])
    disc = tr * tr - 4.0 * det
    root = cmath.sqrt(disc)
    return ((tr + root) / 2.0, (tr - root) / 2.0)


def _stability(kind: EquilibriumKind, point: tuple[float, float],
               p: ModelParams) -> tuple[tuple[complex, complex], Stability]:
    """Eigenvalues and local stability class of an existing equilibrium.

    A zero real part is resolved to asymptotic (non-exponential) stability
    only where a direct analysis settles it: the origin at 2*alpha*lam = mu,
    and the protection-free endemic state at the zeta threshold. Anywhere
    else it is indeterminate.
    """
    eigs = eigenvalues_2x2(_jacobian_xy(point[0], point[1], p))
    re1, re2 = eigs[0].real, eigs[1].real
    scale = max(1.0, abs(re1), abs(re2))
    if min(abs(re1), abs(re2)) <= _EIG_ZERO_TOL * scale:
        resolved = kind in (EquilibriumKind.DFE_ORIGIN, EquilibriumKind.PROTECTION_FREE_EE)
        return eigs, Stability.MARGINAL if resolved else Stability.INDETERMINATE
    if re1 < 0.0 and re2 < 0.0:
        return eigs, Stability.LES
    if re1 > 0.0 and re2 > 0.0:
        return eigs, Stability.UNSTABLE
    return eigs, Stability.SADDLE


# ---------------------------------------------------------------------------
# equilibrium enumeration


def _interior_report(kind: EquilibriumKind, beta: float | None, roots: BetaRoots,
                     p: ModelParams, t: Thresholds) -> EquilibriumReport:
    conds = [
        Condition("roots-real", roots.discriminant, 0.0, ">=", "interior-existence"),
    ]
    if beta is None:
        return EquilibriumReport(kind=kind, point=None, exists=False, conditions=conds)
    point = interior_point(beta, p)
    # y > 0 at the equilibrium, i.e. lam > mu / (2 alpha (1 - beta))
    y_cond = Condition(
        "prevalence-positive", p.lam, p.mu / (2.0 * p.alpha * (1.0 - beta)) if beta < 1.0 else math.inf,
        ">", "interior-existence",
    )
    conds.append(y_cond)
    meta: dict = {}
    if kind is EquilibriumKind.INTERIOR_PLUS:
        clause_a = (
            Condition("zeta-at-least-real-bound", p.zeta, t.real, ">=", "interior-existence"),
            Condition("zeta-below-cost-plus-3", p.zeta, p.c + 3.0, "<", "interior-existence"),
        )
        clause_b = (
            Condition("zeta-at-least-cost-plus-3", p.zeta, p.c + 3.0, ">=", "interior-existence"),
            Condition("zeta-above-endemic-threshold", p.zeta, t.endemic, ">", "interior-existence"),
        )
        conds.extend(clause_a)
        conds.extend(clause_b)
        a_ok = all(c.satisfied for c in clause_a)
        b_ok = all(c.satisfied for c in clause_b)
        exists = y_cond.satisfied and (a_ok or b_ok)
        meta["clause"] = "a" if a_ok else ("b" if b_ok else None)
    else:
        window = [
            Condition("zeta-at-least-real-bound", p.zeta, t.real, ">=", "interior-existence"),
            Condition("zeta-below-min-cost3-threshold", p.zeta, min(p.c + 3.0, t.endemic), "<",
                      "interior-existence"),
        ]
        conds.extend(window)
        exists = y_cond.satisfied and all(c.satisfied for c in window)
    if not exists:
        return EquilibriumReport(kind=kind, point=point, exists=False, conditions=conds, meta=meta)
    # determinant/trace stability window of the interior state
    lower = 4.0 * p.alpha * p.lam / p.zeta * (1.0 - beta) ** 2 if p.zeta > 0 else math.inf
    upper = 2.0 * (1.0 - beta) * (p.alpha * p.lam - beta)
    conds.append(Condition("recovery-above-spiral-bound", p.mu, lower, ">", "interior-stability"))
    conds.append(Condition("recovery-below-trace-bound", p.mu, upper, "<", "interior-stability"))
    return EquilibriumReport(kind=kind, point=point, exists=True, conditions=conds, meta=meta)


def find_equilibria(p: ModelParams) -> list[EquilibriumReport]:
    """All five equilibrium candidates with existence flags and stability classes."""
    if not p.payoff_assumption_holds:
        raise AssumptionError(
            "equilibrium analysis requires c > 1 and zeta > c + 1 "
            f"(got c={p.c}, zeta={p.zeta})"
        )
    pf_cond = Condition("above-epidemic-threshold", p.lam, p.mu / (2.0 * p.alpha), ">",
                        "epidemic-threshold")
    pf_point = (0.0, 1.0 - p.mu / (2.0 * p.alpha * p.lam)) if pf_cond.satisfied else None
    roots = beta_pm(p)
    t = thresholds(p)
    reports = [
        EquilibriumReport(kind=EquilibriumKind.DFE_ORIGIN, point=(0.0, 0.0), exists=True,
                          conditions=[]),
        EquilibriumReport(kind=EquilibriumKind.DFE_ONE, point=(1.0, 0.0), exists=True,
                          conditions=[]),
        EquilibriumReport(kind=EquilibriumKind.PROTECTION_FREE_EE, point=pf_point,
                          exists=pf_cond.satisfied, conditions=[pf_cond]),
        _interior_report(EquilibriumKind.INTERIOR_PLUS, roots.beta_plus, roots, p, t),
        _interior_report(EquilibriumKind.INTERIOR_MINUS, roots.beta_minus, roots, p, t),
    ]
    for r in reports:
        if r.exists:
            dx, dy = planar_rhs_xy(r.point[0], r.point[1], p)
            if math.hypot(dx, dy) >= 1e-9:
                raise NumericalError(
                    f"{r.kind.value} flagged as existing but the vector field "
                    f"does not vanish there (|f| = {math.hypot(dx, dy):.3e})"
                )
            r.eigenvalues, r.stability = _stability(r.kind, r.point, p)
    return reports


# ---------------------------------------------------------------------------
# regime classifier

# (name, operator, source) of each regime condition, in ledger row order
REGIME_CONDITIONS = (
    ("cost-exceeds-one", ">", "payoff-ordering"),
    ("risk-gain-exceeds-cost-plus-one", ">", "payoff-ordering"),
    ("above-epidemic-threshold", ">", "epidemic-threshold"),
    ("cost-window-lower", ">=", "regime-window"),
    ("cost-window-upper", "<", "regime-window"),
    ("zeta-above-endemic-threshold", ">", "endemic-switch"),
    ("zeta-above-spiral-bound", ">", "interior-stability"),
    ("zeta-above-band-lower", ">", "interior-stability"),
    ("zeta-below-band-upper", "<", "interior-stability"),
)


@dataclass(frozen=True)
class RegimeLedger:
    """Regime conditions and labels of n parameter points.

    Row i of ``lhs``, ``rhs`` and ``satisfied`` is condition i of
    REGIME_CONDITIONS; column j is point j, whose label value is ``labels[j]``.
    """

    lhs: np.ndarray
    rhs: np.ndarray
    satisfied: np.ndarray
    labels: np.ndarray

    def conditions(self, j: int) -> list[Condition]:
        return [
            Condition(name, float(self.lhs[i, j]), float(self.rhs[i, j]), op, source)
            for i, (name, op, source) in enumerate(REGIME_CONDITIONS)
        ]


def regime_ledger(alpha, lam, mu, c, zeta) -> RegimeLedger:
    """Evaluate the regime conditions and the decision ladder elementwise.

    The five arguments are scalars or arrays of admissible parameter values
    that broadcast to one shape; the points are taken in its row order.

    Decision ladder: payoff-ordering assumption, epidemic threshold, cost
    window, then the zeta thresholds separating the protection-free endemic,
    interior endemic, and limit-cycle regimes. Strict-inequality boundaries
    hit within relative 1e-12 are routed to the marginal label instead of
    silently picking a side; weak inequalities keep the side the theory
    covers. Each rung is a mask, and a point takes the label of the first
    mask that holds for it, else local-only.
    """
    points = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (alpha, lam, mu, c, zeta)))
    alpha, lam, mu, c, zeta = (v.reshape(-1) for v in points)
    t = _thresholds(alpha * lam, mu, c)
    lhs = np.array([c, zeta, lam, c, c, zeta, zeta, zeta, zeta])
    rhs = np.array([np.ones_like(c), c + 1.0, mu / (2.0 * alpha), t.window_lo, t.window_hi,
                    t.endemic, t.focus, t.band_lo, t.band_hi])
    satisfied = np.array([_OPS[op](l, r)
                          for l, r, (_, op, _) in zip(lhs, rhs, REGIME_CONDITIONS)])
    ordered, gain, epidemic, win_lo, win_hi, switch, spiral, band_lo, band_hi = satisfied
    _, _, epidemic_m, win_lo_m, win_hi_m, switch_m, spiral_m, band_lo_m, band_hi_m = _near(lhs, rhs)
    ladder = (
        (~(ordered & gain), RegimeLabel.INVALID_ASSUMPTIONS),
        # the global-extinction result covers equality
        (epidemic_m | ~epidemic, RegimeLabel.GLOBAL_DFE),
        (win_hi_m, RegimeLabel.MARGINAL),
        (~(win_lo | win_lo_m) | ~win_hi, RegimeLabel.LOCAL_ONLY),
        (switch_m, RegimeLabel.MARGINAL),
        (~switch, RegimeLabel.PROTECTION_FREE_ENDEMIC),
        (spiral_m | band_lo_m | band_hi_m, RegimeLabel.MARGINAL),
        (spiral & band_lo & band_hi, RegimeLabel.INTERIOR_ENDEMIC),
        (spiral & ~band_hi, RegimeLabel.LIMIT_CYCLE),
    )
    labels = np.full(lhs.shape[1], RegimeLabel.LOCAL_ONLY.value, dtype=object)
    for mask, label in reversed(ladder):
        labels[mask] = label.value
    return RegimeLedger(lhs=lhs, rhs=rhs, satisfied=satisfied, labels=labels)


def classify_regime(p: ModelParams) -> RegimeReport:
    """Label the parameter point with its qualitative long-run behaviour.

    The one-point case of `regime_ledger`, which holds the decision ladder,
    with the equilibria attached where the payoff-ordering assumption holds.
    """
    ledger = regime_ledger(p.alpha, p.lam, p.mu, p.c, p.zeta)
    eqs = find_equilibria(p) if p.payoff_assumption_holds else []
    return RegimeReport(label=RegimeLabel(str(ledger.labels[0])), conditions=ledger.conditions(0),
                        equilibria=eqs, params=p)
