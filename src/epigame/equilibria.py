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
"""
from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .core import AssumptionError, MacroState, ModelParams
from .meanfield import planar_rhs_xy

# comparisons closer to equality than this (relative) are treated as marginal
_MARGIN_RTOL = 1e-12
# eigenvalue real parts within this of zero defeat a strict classification
_EIG_ZERO_TOL = 1e-12


def _near(lhs: float, rhs: float) -> bool:
    if math.isinf(lhs) or math.isinf(rhs):
        return False
    return abs(lhs - rhs) <= _MARGIN_RTOL * max(1.0, abs(lhs), abs(rhs))


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
        if self.op == ">":
            return self.lhs > self.rhs
        if self.op == ">=":
            return self.lhs >= self.rhs
        if self.op == "<":
            return self.lhs < self.rhs
        if self.op == "<=":
            return self.lhs <= self.rhs
        raise ValueError(f"unknown operator {self.op!r}")

    @property
    def marginal(self) -> bool:
        return _near(self.lhs, self.rhs)

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


def endemic_zeta_threshold(p: ModelParams) -> float:
    """Risk-perception level above which the protection-free endemic state destabilises.

    2*alpha*lam*(1+c) / (2*alpha*lam - mu); infinite below the epidemic threshold.
    """
    k = 2.0 * p.alpha * p.lam
    if k <= p.mu:
        return math.inf
    return k * (1.0 + p.c) / (k - p.mu)


def interior_real_zeta(p: ModelParams) -> float:
    """Smallest zeta for which the interior x-roots are real.

    When the defining quadratic has no real roots in zeta (possible only for
    c < 1) the discriminant is positive everywhere and the bound is vacuous.
    """
    al = p.alpha * p.lam
    arg = 4.0 * p.mu / al * (p.c - 1.0 + p.mu / al)
    if arg < 0.0:
        return -math.inf
    return p.c - 1.0 + 2.0 * p.mu / al + math.sqrt(arg)

def interior_focus_zeta(p: ModelParams) -> float:
    """Lower zeta bound for local stability of the upper interior state."""
    al = p.alpha * p.lam
    arg = p.mu / al * (p.c - 1.0 + 25.0 * p.mu / (16.0 * al))
    if arg < 0.0:  # only reachable for c < 1, where the bound is vacuous
        return -math.inf
    return p.c - 1.0 + 25.0 * p.mu / (8.0 * al) + 2.5 * math.sqrt(arg)


def interior_band_zetas(p: ModelParams) -> tuple[float, float]:
    """(lower, upper) zeta roots of the trace condition at the upper interior state.

    Above the upper root the interior state is fully repelling and a periodic
    orbit attracts all interior trajectories.
    """
    al = p.alpha * p.lam
    k = 2.0 * al
    if k <= p.mu:
        return (-math.inf, math.inf)
    s = math.sqrt((al - 1.0) ** 2 + 2.0 * p.mu)
    pref = al / (k - p.mu)
    lo = pref * ((p.c + 1.0) * (1.0 - s) + al * (p.c - 3.0) + 2.0 * p.mu)
    hi = pref * ((p.c + 1.0) * (1.0 + s) + al * (p.c - 3.0) + 2.0 * p.mu)
    return (lo, hi)


def cost_window(p: ModelParams) -> tuple[float, float]:
    """Cost window [4*alpha*lam/mu - 3, 32*alpha*lam/(5*mu) - 3) where a unique
    interior endemic state exists only above a zeta threshold."""
    al = p.alpha * p.lam
    return (4.0 * al / p.mu - 3.0, 32.0 * al / (5.0 * p.mu) - 3.0)


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
    return jacobian_xy(s.x, s.y, p)


def jacobian_xy(x: float, y: float, p: ModelParams) -> np.ndarray:
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


def _classify_from_eigs(eigs: tuple[complex, complex], marginal_resolved: bool) -> Stability:
    re1, re2 = eigs[0].real, eigs[1].real
    scale = max(1.0, abs(re1), abs(re2))
    if min(abs(re1), abs(re2)) <= _EIG_ZERO_TOL * scale:
        return Stability.MARGINAL if marginal_resolved else Stability.INDETERMINATE
    if re1 < 0.0 and re2 < 0.0:
        return Stability.LES
    if re1 > 0.0 and re2 > 0.0:
        return Stability.UNSTABLE
    return Stability.SADDLE


def classify_stability(e: EquilibriumReport, p: ModelParams) -> Stability:
    """Local stability class of an existing equilibrium.

    Boundary-of-inequality cases are resolved to asymptotic (non-exponential)
    stability only where a direct analysis settles them: the origin at
    2*alpha*lam = mu, and the protection-free endemic state at the zeta
    threshold. Marginal interior cases are reported as indeterminate.
    """
    if not e.exists:
        raise AssumptionError(f"{e.kind.value} does not exist for these parameters")
    eigs = eigenvalues_2x2(jacobian_xy(e.point[0], e.point[1], p))
    resolved = e.kind in (EquilibriumKind.DFE_ORIGIN, EquilibriumKind.PROTECTION_FREE_EE)
    return _classify_from_eigs(eigs, marginal_resolved=resolved)


# ---------------------------------------------------------------------------
# equilibrium enumeration


def _interior_report(kind: EquilibriumKind, beta: float | None, roots: BetaRoots,
                     p: ModelParams) -> EquilibriumReport:
    k = 2.0 * p.alpha * p.lam
    thr = endemic_zeta_threshold(p)
    z_real = interior_real_zeta(p)
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
            Condition("zeta-at-least-real-bound", p.zeta, z_real, ">=", "interior-existence"),
            Condition("zeta-below-cost-plus-3", p.zeta, p.c + 3.0, "<", "interior-existence"),
        )
        clause_b = (
            Condition("zeta-at-least-cost-plus-3", p.zeta, p.c + 3.0, ">=", "interior-existence"),
            Condition("zeta-above-endemic-threshold", p.zeta, thr, ">", "interior-existence"),
        )
        conds.extend(clause_a)
        conds.extend(clause_b)
        a_ok = all(c.satisfied for c in clause_a)
        b_ok = all(c.satisfied for c in clause_b)
        exists = y_cond.satisfied and (a_ok or b_ok)
        meta["clause"] = "a" if a_ok else ("b" if b_ok else None)
    else:
        window = [
            Condition("zeta-at-least-real-bound", p.zeta, z_real, ">=", "interior-existence"),
            Condition(
                "zeta-below-min-cost3-threshold",
                p.zeta,
                min(p.c + 3.0, thr),
                "<",
                "interior-existence",
            ),
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
    eigs = eigenvalues_2x2(jacobian_xy(point[0], point[1], p))
    stab = _classify_from_eigs(eigs, marginal_resolved=False)
    return EquilibriumReport(
        kind=kind, point=point, exists=True, conditions=conds,
        eigenvalues=eigs, stability=stab, meta=meta,
    )


def find_equilibria(p: ModelParams) -> list[EquilibriumReport]:
    """All five equilibrium candidates with existence flags and stability classes."""
    if not p.payoff_assumption_holds:
        raise AssumptionError(
            "equilibrium analysis requires c > 1 and zeta > c + 1 "
            f"(got c={p.c}, zeta={p.zeta})"
        )
    k = 2.0 * p.alpha * p.lam
    reports: list[EquilibriumReport] = []

    origin_eigs = eigenvalues_2x2(jacobian_xy(0.0, 0.0, p))
    reports.append(
        EquilibriumReport(
            kind=EquilibriumKind.DFE_ORIGIN,
            point=(0.0, 0.0),
            exists=True,
            conditions=[],
            eigenvalues=origin_eigs,
            stability=_classify_from_eigs(origin_eigs, marginal_resolved=True),
        )
    )
    one_eigs = eigenvalues_2x2(jacobian_xy(1.0, 0.0, p))
    reports.append(
        EquilibriumReport(
            kind=EquilibriumKind.DFE_ONE,
            point=(1.0, 0.0),
            exists=True,
            conditions=[],
            eigenvalues=one_eigs,
            stability=_classify_from_eigs(one_eigs, marginal_resolved=False),
        )
    )

    pf_cond = Condition("above-epidemic-threshold", p.lam, p.mu / (2.0 * p.alpha), ">",
                        "epidemic-threshold")
    if pf_cond.satisfied:
        pf_point = (0.0, 1.0 - p.mu / k)
        pf_eigs = eigenvalues_2x2(jacobian_xy(*pf_point, p))
        reports.append(
            EquilibriumReport(
                kind=EquilibriumKind.PROTECTION_FREE_EE,
                point=pf_point,
                exists=True,
                conditions=[pf_cond],
                eigenvalues=pf_eigs,
                stability=_classify_from_eigs(pf_eigs, marginal_resolved=True),
            )
        )
    else:
        reports.append(
            EquilibriumReport(
                kind=EquilibriumKind.PROTECTION_FREE_EE,
                point=None,
                exists=False,
                conditions=[pf_cond],
            )
        )

    roots = beta_pm(p)
    reports.append(_interior_report(EquilibriumKind.INTERIOR_PLUS, roots.beta_plus, roots, p))
    reports.append(_interior_report(EquilibriumKind.INTERIOR_MINUS, roots.beta_minus, roots, p))

    for r in reports:
        if r.exists:
            dx, dy = planar_rhs_xy(r.point[0], r.point[1], p)
            if math.hypot(dx, dy) >= 1e-9:
                raise AssertionError(
                    f"{r.kind.value} flagged as existing but the vector field "
                    f"does not vanish there (|f| = {math.hypot(dx, dy):.3e})"
                )
    return reports


# ---------------------------------------------------------------------------
# regime classifier


def regime_conditions(p: ModelParams) -> list[Condition]:
    """The fixed inequality ledger evaluated for every parameter point."""
    thr = endemic_zeta_threshold(p)
    c_lo, c_hi = cost_window(p)
    band_lo, band_hi = interior_band_zetas(p)
    return [
        Condition("cost-exceeds-one", p.c, 1.0, ">", "payoff-ordering"),
        Condition("risk-gain-exceeds-cost-plus-one", p.zeta, p.c + 1.0, ">", "payoff-ordering"),
        Condition("above-epidemic-threshold", p.lam, p.mu / (2.0 * p.alpha), ">",
                  "epidemic-threshold"),
        Condition("cost-window-lower", p.c, c_lo, ">=", "regime-window"),
        Condition("cost-window-upper", p.c, c_hi, "<", "regime-window"),
        Condition("zeta-above-endemic-threshold", p.zeta, thr, ">", "endemic-switch"),
        Condition("zeta-above-spiral-bound", p.zeta, interior_focus_zeta(p), ">",
                  "interior-stability"),
        Condition("zeta-above-band-lower", p.zeta, band_lo, ">", "interior-stability"),
        Condition("zeta-below-band-upper", p.zeta, band_hi, "<", "interior-stability"),
    ]


def classify_regime(p: ModelParams) -> RegimeReport:
    """Label the parameter point with its qualitative long-run behaviour.

    Decision ladder: payoff-ordering assumption, epidemic threshold, cost
    window, then the zeta thresholds separating the protection-free endemic,
    interior endemic, and limit-cycle regimes. Strict-inequality boundaries
    hit within relative 1e-12 are routed to the marginal label instead of
    silently picking a side; weak inequalities keep the side the theory
    covers.
    """
    conds = regime_conditions(p)
    by_name = {c.name: c for c in conds}

    def report(label: RegimeLabel) -> RegimeReport:
        eqs = find_equilibria(p) if p.payoff_assumption_holds else []
        return RegimeReport(label=label, conditions=conds, equilibria=eqs, params=p)

    if not p.payoff_assumption_holds:
        return report(RegimeLabel.INVALID_ASSUMPTIONS)

    thr_cond = by_name["above-epidemic-threshold"]
    if thr_cond.marginal or not thr_cond.satisfied:
        # the global-extinction result covers equality
        return report(RegimeLabel.GLOBAL_DFE)

    lo_cond = by_name["cost-window-lower"]
    hi_cond = by_name["cost-window-upper"]
    if hi_cond.marginal:
        return report(RegimeLabel.MARGINAL)
    if not (lo_cond.satisfied or lo_cond.marginal) or not hi_cond.satisfied:
        return report(RegimeLabel.LOCAL_ONLY)

    switch = by_name["zeta-above-endemic-threshold"]
    if switch.marginal:
        return report(RegimeLabel.MARGINAL)
    if not switch.satisfied:
        return report(RegimeLabel.PROTECTION_FREE_ENDEMIC)

    spiral = by_name["zeta-above-spiral-bound"]
    band_lo = by_name["zeta-above-band-lower"]
    band_hi = by_name["zeta-below-band-upper"]
    if spiral.marginal or band_hi.marginal or band_lo.marginal:
        return report(RegimeLabel.MARGINAL)
    if spiral.satisfied and band_lo.satisfied and band_hi.satisfied:
        return report(RegimeLabel.INTERIOR_ENDEMIC)
    if spiral.satisfied and not band_hi.satisfied:
        return report(RegimeLabel.LIMIT_CYCLE)
    return report(RegimeLabel.LOCAL_ONLY)
