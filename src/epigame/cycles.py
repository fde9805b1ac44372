"""Detection of periodic orbits in planar trajectories via a Poincare section.

Section-based detection is preferred over spectral peak-finding because the
orbit is strongly non-sinusoidal near the saddle points; crossing times of a
vertical section x = beta_plus, through the interior equilibrium, are robust.
Detection reads the planar solve, not its samples: a crossing, like an
extremum of x or y, is a sign change of a function of the state between two
accepted steps, refined by a root find on that step's dense interpolant, so
no sample spacing enters any result. Every threshold of a verdict comes from
the tolerances of that solve, so detection takes no settings of its own.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .artifacts import text, write_csv
from .equilibria import beta_pm
from .meanfield import Trajectory, planar_rhs_xy

# the share of the horizon discarded as transient, the settled crossings a
# cycle needs, and how far their successive periods may differ, relatively
TRANSIENT_FRAC = 0.3
MIN_CROSSINGS = 5
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
    """What `detect_cycle` found; it crosses the section only with x rising."""

    verdict: Verdict
    point: tuple[float, float] | None = None
    period: float | None = None
    amplitude_x: float | None = None
    amplitude_y: float | None = None
    crossings: list[Crossing] = field(default_factory=list)
    transient_discarded: float = 0.0
    section_x: float | None = None
    direction: ClassVar[str] = "up"

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
        cs = self.crossings
        write_csv(path, "k,t_k,y_k,period_k", [text("%d", [c.k for c in cs]),
                                               np.array([c.t for c in cs], dtype=float),
                                               np.array([c.y for c in cs], dtype=float),
                                               text("%.17g", [c.period for c in cs])])


# the tolerance with which solve_ivp locates its events, so that a crossing
# is where an event of the same solve would be
_ROOT_TOL = 4 * math.ulp(1.0)  # scipy's 4 * machine epsilon
_BRENTQ_MAXITER = 100


def _brentq(f, xa: float, xb: float, xtol: float, rtol: float) -> float:
    """A root of f in [xa, xb], where f changes sign: a line-for-line port of
    scipy's brentq (scipy/optimize/Zeros/brentq.c, Brent 1973) on Python
    floats, so it returns scipy's root to the bit. Like scipy, it raises
    ValueError when f is nan or has the same sign at both ends, and
    RuntimeError when 100 iterations do not converge."""

    def fun(x):
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = fun(xpre), fun(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_BRENTQ_MAXITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                # bisect
                spre = scur = sbis
        else:
            # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = fun(xcur)
    raise RuntimeError(f"Failed to converge after {_BRENTQ_MAXITER} iterations.")


def _roots(sol, g, t0: float, t1: float, upward: bool = False) -> list[tuple[float, np.ndarray]]:
    """Times in [t0, t1], with the states there, where g(x, y) changes sign
    between two accepted steps of the solve `sol` (from negative to
    non-negative only, if `upward`), each refined by `_brentq` on the step's
    own float interpolant."""
    below = g(*sol.y) < 0
    changes = below[:-1] & ~below[1:] if upward else below[:-1] != below[1:]
    idx = np.flatnonzero(changes)
    idx = idx[(sol.t[idx + 1] >= t0) & (sol.t[idx] <= t1)]
    roots = []
    for i in idx.tolist():
        step = sol.interpolant(i)
        a, b = sol.t[i].item(), sol.t[i + 1].item()

        def f(t):
            return g(*step(t))

        # the interpolant ends within rounding of the next step's state: when
        # that rounding flips the sign, the root is the step's end
        t = b if (f(b) < 0) == below[i] else _brentq(f, a, b, _ROOT_TOL, _ROOT_TOL)
        if t0 <= t <= t1:
            roots.append((t, step(t)))
    return roots


def detect_cycle(traj: Trajectory) -> CycleReport:
    """Decide whether a planar solve settled onto a point or a periodic orbit.

    Every figure comes from the solve behind `traj` (its accepted steps and
    dense interpolant) and its parameters `traj.params`, none from its
    samples; a trajectory without that solve raises ValueError. Every
    threshold comes from tol = rtol + atol of that solve, whose error bounds
    how still its end can be and how well two of its crossings can agree.
    Convergence to a point requires a terminal vector-field norm below
    100*tol and a state displacement below 1e4*tol over the steps of the last
    10% of the horizon (1e-8 and 1e-6 at rtol 1e-10, atol 1e-12). Otherwise
    the first TRANSIENT_FRAC of the horizon is discarded, and a limit cycle
    requires at least MIN_CROSSINGS successive upward crossings of the
    section x = beta_plus whose y-values differ by less than 1e4*tol and
    whose inter-crossing times change by less than 1e-3 relative, and x and
    y amplitudes of at least 1e4*tol; its amplitudes are the ranges of x and
    y over the last period, from their exact extrema. With no beta_plus in
    (0, 1) there is no interior equilibrium for an orbit to wind around (the
    square's edges are invariant), and the verdict is `undecided`.
    """
    sol = traj.solution
    if sol is None:
        raise ValueError("detect_cycle needs the planar solve behind the trajectory "
                         "(integrate_planar keeps it)")
    p = traj.params
    horizon = traj.horizon
    t_cut = TRANSIENT_FRAC * horizon
    xs, ys = np.clip(sol.y, 0.0, 1.0)

    # fixed-point verdict first: vanished velocity and no residual drift
    xf, yf = float(xs[-1]), float(ys[-1])
    dx, dy = planar_rhs_xy(xf, yf, p)
    tail = sol.t >= 0.9 * horizon
    tail_disp = float(np.hypot(xs[tail] - xf, ys[tail] - yf).max(initial=0.0))
    tol = traj.meta["rtol"] + traj.meta["atol"]
    floor = 1e4 * tol
    if math.hypot(dx, dy) < 100 * tol and tail_disp < floor:
        return CycleReport(verdict=Verdict.CONVERGED_TO_POINT, point=(xf, yf),
                           transient_discarded=t_cut)

    x_sec = beta_pm(p).beta_plus
    if x_sec is None or not 0.0 < x_sec < 1.0:
        return CycleReport(verdict=Verdict.UNDECIDED, transient_discarded=t_cut)

    found = _roots(sol, lambda x, y: x - x_sec, t_cut, horizon, upward=True)
    crossings = [Crossing(k=k, t=t, y=float(state[1]), period=t - found[k - 1][0] if k else None)
                 for k, (t, state) in enumerate(found)]

    report = CycleReport(verdict=Verdict.UNDECIDED, crossings=crossings,
                         transient_discarded=t_cut, section_x=x_sec)
    if len(crossings) < MIN_CROSSINGS:
        return report

    last = crossings[-MIN_CROSSINGS:]
    ys_last = [c.y for c in last]
    periods = [c.period for c in last if c.period is not None]
    y_ok = all(abs(b - a) < floor for a, b in zip(ys_last, ys_last[1:]))
    p_ok = len(periods) >= MIN_CROSSINGS - 1 and all(
        abs(b - a) / a < _PERIOD_RTOL for a, b in zip(periods, periods[1:])
    )
    if not (y_ok and p_ok):
        return report

    period = float(np.mean(periods))
    # amplitudes over the last full cycle: the range of a coordinate over
    # [t0, t1] is spanned by its values at the ends and at its extrema
    t1 = last[-1].t
    t0 = t1 - period
    ends = sol.sol([t0, t1])

    def amplitude(axis):
        extrema = _roots(sol, lambda x, y: planar_rhs_xy(x, y, p)[axis], t0, t1)
        values = [*ends[axis], *(state[axis] for _, state in extrema)]
        return float(max(values) - min(values))

    # a spiral that still winds in can repeat within the floor: a cycle must
    # also swing wider than it
    amplitude_x, amplitude_y = amplitude(0), amplitude(1)
    if amplitude_x < floor or amplitude_y < floor:
        return report
    report.verdict = Verdict.LIMIT_CYCLE
    report.period = period
    report.amplitude_x, report.amplitude_y = amplitude_x, amplitude_y
    return report
