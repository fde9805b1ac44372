"""Mean-field dynamics: the planar macroscopic system and the per-node
(heterogeneous) probability system, with adaptive Runge-Kutta integration.

Planar vector field:

    dx/dt = x (1 - x) (2x + zeta*y - 1 - c)
    dy/dt = 2*alpha*lambda * y (1 - x)(1 - y) - mu*y

The factor 2*alpha*lambda reflects bidirectional transmission (both the
contact initiated by the susceptible and the one initiated by the infected
count); with one-directional transmission the factor halves to alpha*lambda.
`planar_rhs_xy(x, y, p, bidirectional)` gives this velocity, and
`hetero_rhs(px, py, g, a, p, bidirectional)` that of the per-node system,
on the per-node probability vectors px, py and the activities a.

Both systems are solved with the Dormand-Prince 5(4) pair and the step-size
control of scipy's RK45, written out here (`_StepControl` and the module
tableau), so epigame needs neither scipy.integrate nor scipy.optimize.
`_StepControl` also holds the contract around each solve, the same for both
kernels: a horizon and tolerances > 0, scipy's floor of 100 * machine
epsilon on rtol, the failure once a step underflows, and the report of nfev,
steps and tolerances in the solve's meta. Each system has its own kernel.
The planar system is stepped on Python floats (`_solve_planar`), skipping
the per-step numpy work on 2-element arrays that dominates a scipy solve of
it. The per-node system is stepped on arrays (`_solve`) with the same array
operations as scipy's `solve_ivp`, so its samples equal a
`solve_ivp(method="RK45", t_eval=...)` solve to the bit.
`_solve` keeps no samples: it hands each step's samples to its caller as
soon as the step is accepted. `HeteroSolve` clamps each such block and takes
its node means; `integrate_hetero` gathers the blocks into one array, while
`HeteroSolve.to_csv`, which the CLI's mf-hetero runs, writes them to disk as
they arrive, so its memory does not grow with the number of samples.

The unit square is positively invariant for the planar system; the
integrators enforce this numerically: overshoot below 10*atol is projected
back onto [0,1], anything larger raises NumericalError.
"""
from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .artifacts import csv_file, rows_per_write, text, write_csv
from .core import MacroState, ModelParams, NumericalError, checked_activities
from .network import GraphError, InfluenceGraph

DEFAULT_RTOL = 1e-8
DEFAULT_ATOL = 1e-10
_FIRST_STEP = 1e-3
_RTOL_FLOOR = 100 * sys.float_info.epsilon  # scipy's least rtol

# RK45's Dormand-Prince tableau (C, A, B, E) and dense-output matrix P,
# written with the same literal expressions as scipy.integrate.RK45
_RK45_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_RK45_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]
])
_RK45_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_RK45_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525,
                    1/40])
_RK45_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608,
     -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933,
     87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304,
     -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408,
     701980252875 / 199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])
# the float solver's copies of A, B and E
_DP_A, _DP_B, _DP_E = _RK45_A.tolist(), _RK45_B.tolist(), _RK45_E.tolist()
# RK45's step-size control: SAFETY, the step factor's bounds and the error
# exponent -1/(error estimator order + 1)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERROR_EXPONENT = -1 / (4 + 1)
_SQRT2 = 2 ** 0.5


@dataclass
class Trajectory:
    """Time-stamped macroscopic states from an ODE solve or ABM sampling."""

    times: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    params: ModelParams
    meta: dict = field(default_factory=dict)
    # the planar solve behind the samples (a PlanarSolution: the accepted
    # steps and their interpolants); None for ABM and per-node trajectories
    solution: PlanarSolution | None = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.xs = np.asarray(self.xs, dtype=float)
        self.ys = np.asarray(self.ys, dtype=float)
        if not (self.times.shape == self.xs.shape == self.ys.shape):
            raise ValueError("times/xs/ys must have identical shapes")
        if self.times.size == 0:
            raise ValueError("empty trajectory")
        if self.times[0] != 0.0 or np.any(np.diff(self.times) <= 0):
            raise ValueError("times must start at 0 and be strictly increasing")

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    def final_state(self) -> MacroState:
        return MacroState(float(self.xs[-1]), float(self.ys[-1]))

    def to_csv(self, path) -> None:
        write_csv(path, "t,x,y", [text("%.12g", self.times), self.xs, self.ys])


def planar_rhs_xy(x, y, p: ModelParams, bidirectional: bool = True):
    """Velocity (dx, dy) of the planar system at (x, y); accepts scalars or numpy arrays."""
    k = (2.0 if bidirectional else 1.0) * p.alpha * p.lam
    dx = x * (1.0 - x) * (2.0 * x + p.zeta * y - 1.0 - p.c)
    dy = k * y * (1.0 - x) * (1.0 - y) - p.mu * y
    return dx, dy


def _clamp_unit(values: np.ndarray, atol: float, what: str) -> float:
    """Project `values` onto [0,1] in place and return the overshoot; reject
    overshoot larger than 10*atol."""
    overshoot = float(max(0.0, -values.min(initial=0.0), values.max(initial=1.0) - 1.0))
    if overshoot > 10.0 * atol:
        raise NumericalError(
            f"{what} left [0,1] by {overshoot:.3e} (> 10*atol = {10 * atol:.3e})"
        )
    np.clip(values, 0.0, 1.0, out=values)
    return overshoot


def sample_grid(horizon: float, sample_dt: float | None, default_samples: int = 2000) -> np.ndarray:
    """Times 0, dt, 2*dt, ... ending exactly at the horizon: a last multiple
    equal to it up to rounding (73 * 0.1 = 7.300000000000001) is replaced.
    A None sample_dt gives `default_samples` equal intervals; any other
    sample_dt must be > 0 and finite (ValueError)."""
    if sample_dt is None:
        return np.linspace(0.0, horizon, default_samples + 1)
    if not 0 < sample_dt < math.inf:  # false for nan too
        raise ValueError(f"sample_dt must be > 0 and finite, not {sample_dt!r}")
    n = int(np.floor(horizon / sample_dt + 1e-9))
    grid = np.arange(n + 1) * sample_dt
    if grid[-1] < horizon - 1e-12 * max(1.0, horizon):
        grid = np.append(grid, horizon)
    else:
        grid[-1] = horizon
    return grid


class PlanarSolution:
    """A planar RK45 solve: the accepted step times `t`, the states `y`
    (2 x len(t)) there, and RK45's quartic interpolant on each step, over
    arrays of times (`sol`) or over floats on one step (`interpolant`). Both
    evaluate y0 + h*(q1*s + q2*s^2 + q3*s^3 + q4*s^4) at s = (t - t0)/h with
    the same operations, so they agree to the bit."""

    def __init__(self, t: np.ndarray, y: np.ndarray, q: np.ndarray):
        self.t, self.y = t, y
        self._q = q  # 4 x 2 x steps: the coefficients of s, s^2, s^3, s^4

    def sol(self, times) -> np.ndarray:
        """States at `times` (2 x len(times)); a time on a step boundary is
        read on the step that ends there, as scipy's OdeSolution does."""
        times = np.asarray(times, dtype=float)
        i = np.clip(np.searchsorted(self.t, times) - 1, 0, self.t.size - 2)
        t0 = self.t[i]
        h = self.t[i + 1] - t0
        s = (times - t0) / h
        s2 = s * s
        s3 = s2 * s
        q1, q2, q3, q4 = (q[:, i] for q in self._q)
        return self.y[:, i] + h * (q1 * s + q2 * s2 + q3 * s3 + q4 * (s3 * s))

    def interpolant(self, i: int):
        """The interpolant of step i as a function of one float time, giving
        the state (x, y) as floats."""
        t0 = self.t[i].item()
        h = self.t[i + 1].item() - t0
        x0, y0 = self.y[:, i].tolist()
        (qx1, qy1), (qx2, qy2), (qx3, qy3), (qx4, qy4) = self._q[:, :, i].tolist()

        def state(t):
            s = (t - t0) / h
            s2 = s * s
            s3 = s2 * s
            s4 = s3 * s
            return (x0 + h * (qx1 * s + qx2 * s2 + qx3 * s3 + qx4 * s4),
                    y0 + h * (qy1 * s + qy2 * s2 + qy3 * s3 + qy4 * s4))

        return state


class _StepControl:
    """One RK45 solve from t = 0 to the horizon, as both the float and the
    array kernel run it.

    The contract: the horizon must be > 0 and finite, and rtol and atol > 0
    (ValueError), and an rtol below 100 * machine epsilon is raised to it
    with a UserWarning, as scipy does; `rtol` and `atol` are the values the
    solve uses. The public entry points apply `tolerances` themselves, so
    the warning names their caller. The step rule: the first step
    min(1e-3, horizon/2) and the last one clipped to the horizon; an attempt
    accepted when the RMS norm of its error, relative to
    atol + rtol*max(|u|, |u_new|), is below 1; the next attempt rescaled by
    SAFETY*error^(-1/5) within [0.2, 10], with no growth after a rejection of
    the same step; and a NumericalError once a rejected step falls below ten
    float spacings of t. `report` gives the solve's meta."""

    def __init__(self, horizon: float, rtol: float, atol: float):
        self.rtol, self.atol = self.tolerances(horizon, rtol, atol)
        self.horizon = horizon
        self.t = 0.0
        self.accepted_steps = self.rejected_steps = 0
        self._h_abs = min(_FIRST_STEP, horizon / 2)
        self._rejected = False

    @staticmethod
    def tolerances(horizon: float, rtol: float, atol: float) -> tuple[float, float]:
        """The (rtol, atol) that a solve to the horizon uses, or ValueError.
        The rtol-floor warning names the caller's caller: the code that
        called the public entry point which called this."""
        if not horizon > 0:  # false for nan too
            raise ValueError("horizon must be > 0")
        if horizon == math.inf:  # the solve would never end
            raise ValueError("horizon must be finite")
        if not (rtol > 0 and atol > 0):
            raise ValueError("tolerances must be > 0")
        if rtol < _RTOL_FLOOR:
            warnings.warn(f"rtol {rtol!r} is below 100 * machine epsilon; "
                          f"the solve uses {_RTOL_FLOOR!r}", stacklevel=3)
            rtol = _RTOL_FLOOR
        return rtol, atol

    def attempt(self) -> float:
        """The size h of the next attempt from t."""
        min_step = 10 * math.ulp(self.t)  # scipy's 10 * (nextafter(t, inf) - t)
        if not self._rejected:
            self._h_abs = max(self._h_abs, min_step)
        elif self._h_abs < min_step:
            raise NumericalError(f"integration failed at t = {self.t:.6g}: required "
                                 "step size is less than spacing between numbers")
        self._t_new = min(self.t + self._h_abs, self.horizon)
        return self._t_new - self.t

    def accepts(self, h, error) -> bool:
        """Judge the attempt of size h by its error norm, moving t to its end
        if it is accepted, and size the next attempt."""
        if error < 1.0:
            factor = (_MAX_FACTOR if error == 0.0
                      else min(_MAX_FACTOR, _SAFETY * error ** _ERROR_EXPONENT))
            self._h_abs = h * (min(1.0, factor) if self._rejected else factor)
            self._rejected = False
            self.t = self._t_new
            self.accepted_steps += 1
            return True
        # a nan error is rejected too, and shrinks the step by the least factor
        self._h_abs = h * max(_MIN_FACTOR, _SAFETY * error ** _ERROR_EXPONENT)
        self._rejected = True
        self.rejected_steps += 1
        return False

    def report(self) -> dict:
        """The solve's meta; every attempt costs six evaluations after the first."""
        accepted, rejected = self.accepted_steps, self.rejected_steps
        return {"nfev": 1 + 6 * (accepted + rejected),
                "steps": {"accepted": accepted, "rejected": rejected},
                "rtol": self.rtol, "atol": self.atol}


def _solve_planar(field, x, y, horizon, rtol, atol) -> tuple[PlanarSolution, dict]:
    """RK45 from (x, y) at t = 0 to the horizon for a planar field given as a
    function of two floats, on Python floats, with `_StepControl`'s contract
    and step decisions; returns the solution and `_StepControl.report`.
    """
    control = _StepControl(horizon, rtol, atol)
    rtol, atol = control.rtol, control.atol
    (_, (a21, *_), (a31, a32, *_), (a41, a42, a43, *_), (a51, a52, a53, a54, _),
     (a61, a62, a63, a64, a65)) = _DP_A
    b1, b2, b3, b4, b5, b6 = _DP_B
    e1, e2, e3, e4, e5, e6, e7 = _DP_E
    fx, fy = field(x, y)
    attempt, accepts = control.attempt, control.accepts
    times, states, stages = [control.t], [x, y], []
    while control.t < horizon:
        while True:
            h = attempt()
            k2x, k2y = field(x + (a21 * fx) * h, y + (a21 * fy) * h)
            k3x, k3y = field(x + (a31 * fx + a32 * k2x) * h, y + (a31 * fy + a32 * k2y) * h)
            k4x, k4y = field(x + (a41 * fx + a42 * k2x + a43 * k3x) * h,
                             y + (a41 * fy + a42 * k2y + a43 * k3y) * h)
            k5x, k5y = field(x + (a51 * fx + a52 * k2x + a53 * k3x + a54 * k4x) * h,
                             y + (a51 * fy + a52 * k2y + a53 * k3y + a54 * k4y) * h)
            k6x, k6y = field(x + (a61 * fx + a62 * k2x + a63 * k3x + a64 * k4x + a65 * k5x) * h,
                             y + (a61 * fy + a62 * k2y + a63 * k3y + a64 * k4y + a65 * k5y) * h)
            xn = x + h * (b1 * fx + b2 * k2x + b3 * k3x + b4 * k4x + b5 * k5x + b6 * k6x)
            yn = y + h * (b1 * fy + b2 * k2y + b3 * k3y + b4 * k4y + b5 * k5y + b6 * k6y)
            k7x, k7y = field(xn, yn)
            ex = ((e1 * fx + e2 * k2x + e3 * k3x + e4 * k4x + e5 * k5x + e6 * k6x + e7 * k7x)
                  * h / (atol + max(abs(x), abs(xn)) * rtol))
            ey = ((e1 * fy + e2 * k2y + e3 * k3y + e4 * k4y + e5 * k5y + e6 * k6y + e7 * k7y)
                  * h / (atol + max(abs(y), abs(yn)) * rtol))
            if accepts(h, math.sqrt(ex * ex + ey * ey) / _SQRT2):
                break
        times.append(control.t)
        states += (xn, yn)
        stages += (fx, k2x, k3x, k4x, k5x, k6x, k7x, fy, k2y, k3y, k4y, k5y, k6y, k7y)
        x, y, fx, fy = xn, yn, k7x, k7y
    # the dense-output coefficients K^T P of every step, summed stage by stage
    # rather than by a BLAS product, whose rounding varies with the kernel
    k = np.array(stages).reshape(control.accepted_steps, 2, 7).T
    q = np.array([sum(p * kj for p, kj in zip(column, k)) for column in _RK45_P.T.tolist()])
    solution = PlanarSolution(np.array(times), np.array(states).reshape(-1, 2).T, q)
    return solution, control.report()


def _solve(fun, u0, horizon, rtol, atol, t_eval, keep) -> dict:
    """RK45 from u0 at t = 0 to the horizon for a field fun(t, u) on arrays,
    sampled at the ascending times `t_eval` in [0, horizon]; returns
    `_StepControl.report`.

    After each accepted step that passes sample times, keep(first, states)
    is called with the index in `t_eval` of the first of them and a new
    array of the states there, one column per sample, which keep may change.

    With `_StepControl`'s contract and step decisions and the array
    operations of scipy's RK45, the samples equal
    solve_ivp(method="RK45", t_eval=t_eval) to the bit: the same BLAS calls
    give the same rounding. So, with K the stages of a step, one per row,
    the stage increments are
    np.dot(K[:s].T, A[s, :s]) * h, the error norm is the RMS of
    np.dot(K.T, E) * h / scale, and a step's samples come from its dense
    output K.T.dot(P) at the cumulative products of the tiled offsets.
    """
    control = _StepControl(horizon, rtol, atol)
    rtol, atol = control.rtol, control.atol
    u = np.asarray(u0, dtype=float)
    n = u.size
    t_eval = np.asarray(t_eval, dtype=float)
    stages = np.empty((_RK45_P.shape[0], n))
    f = fun(0.0, u)
    sampled = 0  # the samples taken so far
    while control.t < horizon:
        t = control.t
        while True:
            h = control.attempt()
            stages[0] = f
            for s in range(1, 6):
                stages[s] = fun(t + _RK45_C[s] * h,
                                u + np.dot(stages[:s].T, _RK45_A[s, :s]) * h)
            u_new = u + h * np.dot(stages[:-1].T, _RK45_B)
            f_new = fun(t + h, u_new)
            stages[-1] = f_new
            scale = atol + np.maximum(np.abs(u), np.abs(u_new)) * rtol
            error = np.linalg.norm(np.dot(stages.T, _RK45_E) * h / scale) / n ** 0.5
            if control.accepts(h, error):
                break
        end = np.searchsorted(t_eval, control.t, side="right")
        if end > sampled:
            offsets = (t_eval[sampled:end] - t) / h
            powers = np.cumprod(np.tile(offsets, (_RK45_P.shape[1], 1)), axis=0)
            y = h * np.dot(stages.T.dot(_RK45_P), powers)
            y += u[:, None]
            keep(sampled, y)
            sampled = end
        u, f = u_new, f_new
    return control.report()


def integrate_planar(
    s0: MacroState,
    p: ModelParams,
    horizon: float,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
    sample_dt: float | None = None,
    bidirectional: bool = True,
) -> Trajectory:
    """Integrate the planar system with RK45's adaptive embedded 5(4) scheme
    (`_solve_planar`), sampled on the grid of `sample_grid`. The arguments
    are checked before the solve."""
    rtol, atol = _StepControl.tolerances(horizon, rtol, atol)
    grid = sample_grid(horizon, sample_dt)

    def field(x, y):
        return planar_rhs_xy(x, y, p, bidirectional)

    sol, meta = _solve_planar(field, s0.x, s0.y, horizon, rtol, atol)
    states = sol.sol(grid)
    meta["max_overshoot"] = _clamp_unit(states, atol, "planar trajectory")
    meta["bidirectional"] = bidirectional
    return Trajectory(times=grid, xs=states[0], ys=states[1], params=p, meta=meta,
                      solution=sol)


@dataclass
class ProbabilityState:
    """Per-node marginal probabilities of protecting (p_x) and being infected (p_y)."""

    p_x: np.ndarray
    p_y: np.ndarray

    def __post_init__(self):
        self.p_x = np.asarray(self.p_x, dtype=float)
        self.p_y = np.asarray(self.p_y, dtype=float)
        if self.p_x.shape != self.p_y.shape or self.p_x.ndim != 1:
            raise ValueError("p_x and p_y must be 1-d vectors of equal length")
        for name, v in (("p_x", self.p_x), ("p_y", self.p_y)):
            # false for nan and +-inf too
            if not ((v >= 0.0) & (v <= 1.0)).all():
                raise ValueError(f"{name} entries must be finite and lie in [0,1]")

    @property
    def n(self) -> int:
        return self.p_x.size


def imitation_rates(g: InfluenceGraph, px: np.ndarray, ybar: float, p: ModelParams):
    """Per-node payoffs (pi1, pi0) and imitation rates (q01, q10).

    pi1 is the neighbourhood adoption share plus the risk perception
    zeta*ybar, pi0 the complementary share plus the protection cost c;
    q01 and q10 average the adopters' pi1 and the non-adopters' pi0 over
    each node's out-neighbours. The agent model passes behaviour bits as
    ``px``, the mean-field model adoption probabilities.
    """
    nbr_px = g.neighbor_mean(px)
    pi1 = nbr_px + p.zeta * ybar
    pi0 = 1.0 - nbr_px + p.c
    q01 = g.neighbor_mean(px * pi1)
    q10 = g.neighbor_mean((1.0 - px) * pi0)
    return pi1, pi0, q01, q10


def hetero_rhs(px: np.ndarray, py: np.ndarray, g: InfluenceGraph, a: np.ndarray,
               p: ModelParams, bidirectional: bool = True,
               out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Velocity (dpx, dpy) of the per-node probability system at the per-node
    adoption and infection probabilities px, py, with activities a; all three
    are vectors of length g.n. `out`, a vector of length 2*g.n, receives
    dpx and then dpy when given; the pair returned are views of it.

    The imitation and infection rates are closed by replacing each
    neighbour's random behaviour with its marginal probability and the
    realized prevalence with the mean of p_y (independence closure).
    """
    n = g.n
    ybar = py.mean()
    _, _, q01, q10 = imitation_rates(g, px, ybar, p)
    infected_activity = float(a @ py)
    if bidirectional:
        pressure = n * a * ybar + infected_activity
    else:
        pressure = np.full(n, infected_activity)
    free = 1.0 - px
    q_si = p.lam * free / (n - 1) * pressure
    if out is None:
        out = np.empty(2 * n)
    dpx, dpy = out[:n], out[n:]
    np.subtract(free * q01, px * q10, out=dpx)
    np.subtract((1.0 - py) * q_si, p.mu * py, out=dpy)
    return dpx, dpy


_NODES_HEADER = "t,node,p_x,p_y"


@dataclass
class HeteroTrajectory:
    """Per-node probability trajectories (rows: times, columns: nodes)."""

    times: np.ndarray
    p_x: np.ndarray
    p_y: np.ndarray
    params: ModelParams
    meta: dict = field(default_factory=dict)

    def to_csv(self, path) -> None:
        """Long format: t,node,p_x,p_y, one line per time and node; the times
        and node ids are formatted once each."""
        nodes = text("%d", range(self.p_x.shape[1]))
        write_csv(path, _NODES_HEADER,
                  [text("%.12g", self.times)[:, None], nodes, self.p_x, self.p_y])


def _node_means(states: np.ndarray, n: int) -> np.ndarray:
    """The node means of p_x and of p_y (2 x samples) of per-node samples
    (2n x samples), each summed over the nodes in order. numpy sums a
    contiguous run of values pairwise, which rounds differently, so the
    order is fixed by a cumulative sum."""
    return np.cumsum(states.reshape(2, n, -1), axis=1)[:, -1] / n


class HeteroSolve:
    """The per-node solve of `integrate_hetero`, handing its samples out as
    the solver passes them instead of keeping them. `times` are the sample
    times, those of `sample_grid` with 500 intervals by default."""

    def __init__(
        self,
        ps0: ProbabilityState,
        g: InfluenceGraph,
        activities: np.ndarray,
        p: ModelParams,
        horizon: float,
        rtol: float = DEFAULT_RTOL,
        atol: float = DEFAULT_ATOL,
        sample_dt: float | None = None,
        bidirectional: bool = True,
    ):
        rtol, atol = _StepControl.tolerances(horizon, rtol, atol)
        n = ps0.n
        if g.n != n:
            raise GraphError("graph order must equal probability vector length")
        a = checked_activities(activities, n)
        if n < 2:
            raise GraphError("need at least two nodes for the contact process")
        self.n, self.ps0, self.g, self.a, self.p = n, ps0, g, a, p
        self.horizon, self.rtol, self.atol = horizon, rtol, atol
        self.bidirectional = bidirectional
        self.times = sample_grid(horizon, sample_dt, default_samples=500)

    def run(self, keep) -> Trajectory:
        """Solve, calling keep(first, states) after each step that passes
        sample times: `first` is the index in `times` of the first of them
        and `states` their samples (2n x samples: p_x of each node, then p_y),
        projected onto [0,1]. Returns the node-average macro trajectory,
        whose meta holds `_StepControl.report` and the largest overshoot of
        any sample."""
        n, g, a, p, bidirectional = self.n, self.g, self.a, self.p, self.bidirectional

        def fun(_t, u):
            # a new output per call: the solver keeps the last velocity it was given
            v = np.clip(u, 0.0, 1.0)
            out = np.empty_like(v)
            hetero_rhs(v[:n], v[n:], g, a, p, bidirectional, out)
            return out

        means = np.empty((2, self.times.size))
        overshoot = 0.0

        def clamped(first, states):
            nonlocal overshoot
            overshoot = max(overshoot, _clamp_unit(states, self.atol, "per-node trajectory"))
            means[:, first:first + states.shape[1]] = _node_means(states, n)
            keep(first, states)

        u0 = np.concatenate([self.ps0.p_x, self.ps0.p_y])
        meta = _solve(fun, u0, self.horizon, self.rtol, self.atol, self.times, clamped)
        meta["max_overshoot"] = overshoot
        return Trajectory(times=self.times, xs=means[0], ys=means[1], params=p, meta=meta)

    def to_csv(self, path) -> Trajectory:
        """Solve, writing the samples to `path` as `HeteroTrajectory.to_csv`
        would, and return the node-average macro trajectory. The samples are
        written some 2**16 rows at a time, and only those not yet written are
        held, so memory does not grow with the number of samples. A failed
        solve leaves no file."""
        n = self.n
        nodes = text("%d", range(n))
        # the samples not yet written, by time
        held = np.empty((min(rows_per_write(n), self.times.size), 2 * n))
        count = written = 0

        with csv_file(path, _NODES_HEADER) as write_rows:
            def flush():
                nonlocal count, written
                block = held[:count]
                write_rows([text("%.12g", self.times[written:written + count])[:, None], nodes,
                            block[:, :n], block[:, n:]])
                written += count
                count = 0

            def keep(_first, states):
                nonlocal count
                for sample in states.T:
                    held[count] = sample
                    count += 1
                    if count == len(held):
                        flush()

            macro = self.run(keep)
            if count:
                flush()
        return macro


def integrate_hetero(
    ps0: ProbabilityState,
    g: InfluenceGraph,
    activities: np.ndarray,
    p: ModelParams,
    horizon: float,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
    sample_dt: float | None = None,
    bidirectional: bool = True,
) -> tuple[HeteroTrajectory, Trajectory]:
    """Integrate the 2n-dimensional per-node system; also return the node-average macro trajectory."""
    rtol, atol = _StepControl.tolerances(horizon, rtol, atol)
    solve = HeteroSolve(ps0, g, activities, p, horizon, rtol, atol, sample_dt, bidirectional)
    n, times = solve.n, solve.times
    states = np.empty((2 * n, times.size))

    def keep(first, block):
        states[:, first:first + block.shape[1]] = block

    macro = solve.run(keep)
    hetero = HeteroTrajectory(times=times, p_x=states[:n].T, p_y=states[n:].T, params=p,
                              meta=dict(macro.meta))
    return hetero, macro
