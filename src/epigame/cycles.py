"""Detection of periodic orbits in planar trajectories via a Poincare section.

Section-based detection is preferred over spectral peak-finding because the
orbit is strongly non-sinusoidal near the saddle points; crossing times of a
vertical section x = x_sec are robust. Detection reads the planar solve, not
its samples: a crossing, like an extremum of x or y, is a sign change of a
function of the state between two accepted steps, refined by a root find on
that step's dense interpolant, so no sample spacing enters any result.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np

from .artifacts import text, write_csv
from .core import ConfigError, ModelParams
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


def check_cycle_settings(tol_cycle: float, transient_frac: float, min_crossings: int) -> None:
    """Raise ConfigError for a `transient_frac` outside [0, 1), a `tol_cycle`
    that is not > 0 (nan included) or a `min_crossings` below 2 (one crossing
    has nothing to compare)."""
    if not 0.0 <= transient_frac < 1.0:
        raise ConfigError(f"cycle.transient_frac must lie in [0, 1), not {transient_frac!r}")
    if not tol_cycle > 0.0:
        raise ConfigError(f"cycle.tol_cycle must be > 0, not {tol_cycle!r}")
    if min_crossings < 2:
        raise ConfigError(f"cycle.min_crossings must be >= 2, not {min_crossings!r}")


def detect_cycle(
    traj: Trajectory,
    p: ModelParams,
    tol_cycle: float = DEFAULT_TOL_CYCLE,
    transient_frac: float = DEFAULT_TRANSIENT_FRAC,
    min_crossings: int = DEFAULT_MIN_CROSSINGS,
) -> CycleReport:
    """Decide whether a planar solve settled onto a point or a periodic orbit.

    Every figure comes from the solve behind `traj` (its accepted steps and
    dense interpolant), none from its samples; a trajectory without that
    solve raises ValueError. The first `transient_frac` of the horizon is
    discarded. Convergence to a point requires a terminal vector-field norm
    below 100*tol and a state displacement below 1e4*tol over the steps of
    the last 10% of the horizon, where tol = rtol + atol of the solve: the
    error of a solve bounds how still its end can be (1e-8 and 1e-6 at rtol
    1e-10, atol 1e-12). A limit cycle requires at least `min_crossings`
    successive upward section crossings whose y-values differ by less than
    tol_cycle and whose inter-crossing times change by less than 1e-3
    relative; its amplitudes are the ranges of x and y over the last period,
    from their exact extrema. Settings out of range raise ConfigError
    (`check_cycle_settings`).
    """
    check_cycle_settings(tol_cycle, transient_frac, min_crossings)
    sol = traj.solution
    if sol is None:
        raise ValueError("detect_cycle needs the planar solve behind the trajectory "
                         "(integrate_planar keeps it)")
    bidirectional = traj.meta["bidirectional"]
    horizon = traj.horizon
    t_cut = transient_frac * horizon
    xs, ys = np.clip(sol.y, 0.0, 1.0)

    # fixed-point verdict first: vanished velocity and no residual drift
    xf, yf = float(xs[-1]), float(ys[-1])
    dx, dy = planar_rhs_xy(xf, yf, p, bidirectional)
    tail = sol.t >= 0.9 * horizon
    tail_disp = float(np.hypot(xs[tail] - xf, ys[tail] - yf).max(initial=0.0))
    tol = traj.meta["rtol"] + traj.meta["atol"]
    if math.hypot(dx, dy) < 100 * tol and tail_disp < 1e4 * tol:
        return CycleReport(verdict=Verdict.CONVERGED_TO_POINT, point=(xf, yf),
                           transient_discarded=t_cut)

    # k = alpha*lam when only the activator infects: the bidirectional 2*alpha*lam
    # at alpha/2, to the bit
    roots = beta_pm(p if bidirectional else replace(p, alpha=p.alpha / 2.0))
    if roots.beta_plus is not None and 0.0 < roots.beta_plus < 1.0:
        x_sec = float(roots.beta_plus)
    else:
        settled = xs[sol.t >= t_cut]
        x_sec = float((settled.min() + settled.max()) / 2.0)

    found = _roots(sol, lambda x, y: x - x_sec, t_cut, horizon, upward=True)
    crossings = [Crossing(k=k, t=t, y=float(state[1]), period=t - found[k - 1][0] if k else None)
                 for k, (t, state) in enumerate(found)]

    report = CycleReport(verdict=Verdict.UNDECIDED, crossings=crossings,
                         transient_discarded=t_cut, section_x=x_sec)
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
    # amplitudes over the last full cycle: the range of a coordinate over
    # [t0, t1] is spanned by its values at the ends and at its extrema
    t1 = last[-1].t
    t0 = t1 - period
    ends = sol.sol([t0, t1])

    def amplitude(axis):
        extrema = _roots(sol, lambda x, y: planar_rhs_xy(x, y, p, bidirectional)[axis], t0, t1)
        values = [*ends[axis], *(state[axis] for _, state in extrema)]
        return float(max(values) - min(values))

    report.verdict = Verdict.LIMIT_CYCLE
    report.period = period
    report.amplitude_x, report.amplitude_y = amplitude(0), amplitude(1)
    return report
