"""Detection of periodic orbits in planar trajectories via a Poincare section,
plus the attracting rectangle that confines the oscillatory regime.

Section-based detection is preferred over spectral peak-finding because the
orbit is strongly non-sinusoidal near the saddle points; crossing times of a
vertical section x = x_sec are robust and refine linearly between samples.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .artifacts import write_csv
from .core import AssumptionError, MacroState, ModelParams
from .equilibria import beta_pm
from .meanfield import Trajectory, planar_rhs_xy

DEFAULT_TOL_CYCLE = 1e-4
DEFAULT_TRANSIENT_FRAC = 0.3
DEFAULT_MIN_CROSSINGS = 5
_PERIOD_RTOL = 1e-3


class Verdict(str, enum.Enum):
    CONVERGED_TO_POINT = "converged-to-point"
    LIMIT_CYCLE = "limit-cycle"
    UNDECIDED = "undecided"


@dataclass
class Crossing:
    k: int
    t: float
    y: float
    period: float | None  # time since the previous crossing


@dataclass
class CycleReport:
    verdict: Verdict
    point: tuple[float, float] | None = None
    period: float | None = None
    amplitude_x: float | None = None
    amplitude_y: float | None = None
    crossings: list[Crossing] = field(default_factory=list)
    transient_discarded: float = 0.0
    section_x: float | None = None
    direction: str = "up"

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "point": list(self.point) if self.point else None,
            "period": self.period,
            "amplitude_x": self.amplitude_x,
            "amplitude_y": self.amplitude_y,
            "n_crossings": len(self.crossings),
            "transient_discarded": self.transient_discarded,
            "section_x": self.section_x,
            "direction": self.direction,
        }

    def crossings_to_csv(self, path) -> None:
        rows = (
            (c.k, c.t, c.y, "" if c.period is None else format(c.period, ".17g"))
            for c in self.crossings
        )
        write_csv(path, "k,t_k,y_k,period_k", "%s,%.17g,%.17g,%s\n", rows)


def _upward_crossings(times, xs, ys, x_sec):
    """Linearly interpolated upward crossings of the section x = x_sec."""
    crossings = []
    below = xs[:-1] < x_sec
    above = xs[1:] >= x_sec
    idx = np.nonzero(below & above)[0]
    for i in idx:
        dx = xs[i + 1] - xs[i]
        theta = (x_sec - xs[i]) / dx if dx > 0 else 0.0
        t_k = times[i] + theta * (times[i + 1] - times[i])
        y_k = ys[i] + theta * (ys[i + 1] - ys[i])
        crossings.append((t_k, y_k))
    return crossings


def detect_cycle(
    traj: Trajectory,
    p: ModelParams,
    tol_cycle: float = DEFAULT_TOL_CYCLE,
    transient_frac: float = DEFAULT_TRANSIENT_FRAC,
    min_crossings: int = DEFAULT_MIN_CROSSINGS,
) -> CycleReport:
    """Decide whether a trajectory settled onto a point or a periodic orbit.

    The first `transient_frac` of the horizon is discarded. Convergence to a
    point requires a terminal vector-field norm below 1e-8 and a state
    displacement below 1e-6 over the last 10% of the horizon. A limit cycle
    requires at least `min_crossings` successive upward section crossings
    whose y-values differ by less than tol_cycle and whose inter-crossing
    times change by less than 1e-3 relative.
    """
    horizon = traj.horizon
    t_cut = transient_frac * horizon
    mask = traj.times >= t_cut
    times, xs, ys = traj.times[mask], traj.xs[mask], traj.ys[mask]

    # fixed-point verdict first: vanished velocity and no residual drift
    xf, yf = float(traj.xs[-1]), float(traj.ys[-1])
    dx, dy = planar_rhs_xy(xf, yf, p)
    tail = traj.times >= 0.9 * horizon
    tail_disp = float(
        np.hypot(traj.xs[tail] - xf, traj.ys[tail] - yf).max(initial=0.0)
    )
    if math.hypot(dx, dy) < 1e-8 and tail_disp < 1e-6:
        return CycleReport(
            verdict=Verdict.CONVERGED_TO_POINT,
            point=(xf, yf),
            transient_discarded=t_cut,
        )

    roots = beta_pm(p)
    if roots.beta_plus is not None and 0.0 < roots.beta_plus < 1.0:
        x_sec = float(roots.beta_plus)
    else:
        x_sec = float((xs.min() + xs.max()) / 2.0)

    raw = _upward_crossings(times, xs, ys, x_sec)
    crossings = []
    prev_t = None
    for k, (t_k, y_k) in enumerate(raw):
        crossings.append(Crossing(k=k, t=t_k, y=y_k, period=None if prev_t is None else t_k - prev_t))
        prev_t = t_k

    report = CycleReport(
        verdict=Verdict.UNDECIDED,
        crossings=crossings,
        transient_discarded=t_cut,
        section_x=x_sec,
    )
    if len(crossings) < min_crossings:
        return report

    last = crossings[-min_crossings:]
    ys_last = [c.y for c in last]
    periods = [c.period for c in last if c.period is not None]
    y_ok = all(abs(b - a) < tol_cycle for a, b in zip(ys_last, ys_last[1:]))
    p_ok = len(periods) >= min_crossings - 1 and all(
        abs(b - a) / a < _PERIOD_RTOL for a, b in zip(periods, periods[1:])
    )
    if not (y_ok and p_ok):
        return report

    period = float(np.mean(periods))
    # amplitudes over the last full cycle
    t_last = last[-1].t
    window = (times >= t_last - period) & (times <= t_last)
    report.verdict = Verdict.LIMIT_CYCLE
    report.period = period
    report.amplitude_x = float(xs[window].max() - xs[window].min())
    report.amplitude_y = float(ys[window].max() - ys[window].min())
    return report


@dataclass(frozen=True)
class TrappingRegion:
    """Attracting, forward-invariant rectangle [0,1] x [0, 1 - mu/(2 alpha lam)]."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def contains(self, x, y, tol: float = 0.0) -> bool:
        return (
            self.x_min - tol <= x <= self.x_max + tol
            and self.y_min - tol <= y <= self.y_max + tol
        )

    def entered_and_stayed(self, traj: Trajectory, tol: float = 1e-9) -> tuple[bool, float | None]:
        """First entry time, and whether the trajectory never leaves afterwards."""
        inside = (
            (traj.xs >= self.x_min - tol)
            & (traj.xs <= self.x_max + tol)
            & (traj.ys >= self.y_min - tol)
            & (traj.ys <= self.y_max + tol)
        )
        idx = np.nonzero(inside)[0]
        if idx.size == 0:
            return (False, None)
        first = idx[0]
        return (bool(inside[first:].all()), float(traj.times[first]))


def trapping_region(p: ModelParams) -> TrappingRegion:
    """The rectangle confining all long-run behaviour above the epidemic threshold."""
    k = 2.0 * p.alpha * p.lam
    if p.lam <= p.mu / (2.0 * p.alpha):
        raise AssumptionError(
            "trapping region degenerates at or below the epidemic threshold "
            "(lam <= mu/(2*alpha)); the system converges to a disease-free state instead"
        )
    return TrappingRegion(x_min=0.0, x_max=1.0, y_min=0.0, y_max=1.0 - p.mu / k)
