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

Both systems are solved with the Dormand-Prince 5(4) pair of scipy's RK45.
The per-node system goes through scipy's `solve_ivp`. The planar system has
its own solver on Python floats (`_solve_planar`): it reads the tableau from
`scipy.integrate.RK45` and takes exactly RK45's step decisions, but skips the
per-step numpy work on 2-element arrays that dominates a scipy solve of it.

The unit square is positively invariant for the planar system; the
integrators enforce this numerically: overshoot below 10*atol is projected
back onto [0,1], anything larger raises NumericalError.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import RK45, solve_ivp

from .artifacts import text, write_csv
from .core import MacroState, ModelParams, NumericalError
from .network import GraphError, InfluenceGraph

DEFAULT_RTOL = 1e-8
DEFAULT_ATOL = 1e-10
_FIRST_STEP = 1e-3

# RK45's Dormand-Prince tableau and dense-output matrix, and its step-size
# control: SAFETY, the step factor's bounds and the error exponent
_DP_A, _DP_B, _DP_E, _DP_P = RK45.A.tolist(), RK45.B.tolist(), RK45.E.tolist(), RK45.P
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERROR_EXPONENT = -1 / (RK45.error_estimator_order + 1)
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


def _clamp_unit(values: np.ndarray, atol: float, what: str) -> tuple[np.ndarray, float]:
    """Project onto [0,1]; reject overshoot larger than 10*atol."""
    overshoot = float(max(0.0, -values.min(initial=0.0), values.max(initial=1.0) - 1.0))
    if overshoot > 10.0 * atol:
        raise NumericalError(
            f"{what} left [0,1] by {overshoot:.3e} (> 10*atol = {10 * atol:.3e})"
        )
    return np.clip(values, 0.0, 1.0), overshoot


def sample_grid(horizon: float, sample_dt: float | None, default_samples: int = 2000) -> np.ndarray:
    """Times 0, dt, 2*dt, ... ending exactly at the horizon: a last multiple
    equal to it up to rounding (73 * 0.1 = 7.300000000000001) is replaced."""
    if sample_dt is None:
        return np.linspace(0.0, horizon, default_samples + 1)
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


def _solve_planar(field, x, y, horizon, rtol, atol) -> tuple[PlanarSolution, dict]:
    """RK45 from (x, y) at t = 0 to the horizon for a planar field given as a
    function of two floats, on Python floats.

    It makes scipy's step decisions: the first step min(1e-3, horizon/2),
    the RMS norm of the error relative to atol + rtol*max(|u|, |u_new|), a
    step accepted below 1 and rescaled by SAFETY*error^(-1/5) within
    [0.2, 10], no growth after a rejection of the same step, the last step
    clipped to the horizon and a failure below ten float spacings of t.
    Every step attempt costs six evaluations after the first, so
    nfev = 1 + 6*(accepted + rejected).
    """
    (_, (a21, *_), (a31, a32, *_), (a41, a42, a43, *_), (a51, a52, a53, a54, _),
     (a61, a62, a63, a64, a65)) = _DP_A
    b1, b2, b3, b4, b5, b6 = _DP_B
    e1, e2, e3, e4, e5, e6, e7 = _DP_E
    fx, fy = field(x, y)
    t = 0.0
    times, states, stages = [t], [x, y], []
    h_abs = min(_FIRST_STEP, horizon / 2)
    rejected_steps = 0
    while t < horizon:
        min_step = 10 * math.ulp(t)  # scipy's 10 * (nextafter(t, inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise NumericalError(f"integration failed at t = {t:.6g}: required step "
                                     "size is less than spacing between numbers")
            t_new = min(t + h_abs, horizon)
            h = t_new - t
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
            error = math.sqrt(ex * ex + ey * ey) / _SQRT2
            if error < 1.0:
                factor = (_MAX_FACTOR if error == 0.0
                          else min(_MAX_FACTOR, _SAFETY * error ** _ERROR_EXPONENT))
                h_abs = h * (min(1.0, factor) if rejected else factor)
                break
            # a nan error is rejected too, and shrinks the step by the least factor
            h_abs = h * max(_MIN_FACTOR, _SAFETY * error ** _ERROR_EXPONENT)
            rejected = True
            rejected_steps += 1
        t = t_new
        times.append(t)
        states += (xn, yn)
        stages += (fx, k2x, k3x, k4x, k5x, k6x, k7x, fy, k2y, k3y, k4y, k5y, k6y, k7y)
        x, y, fx, fy = xn, yn, k7x, k7y
    accepted = len(times) - 1
    # the dense-output coefficients K^T P of every step, summed stage by stage
    # rather than by a BLAS product, whose rounding varies with the kernel
    k = np.array(stages).reshape(accepted, 2, 7).T
    q = np.array([sum(p * kj for p, kj in zip(column, k)) for column in _DP_P.T.tolist()])
    solution = PlanarSolution(np.array(times), np.array(states).reshape(-1, 2).T, q)
    meta = {"nfev": 1 + 6 * (accepted + rejected_steps),
            "steps": {"accepted": accepted, "rejected": rejected_steps}}
    return solution, meta


def _solve(fun, u0, horizon, rtol, atol, t_eval):
    """scipy's RK45 from t = 0 to the horizon, kept at the times `t_eval`."""
    sol = solve_ivp(
        fun,
        (0.0, horizon),
        u0,
        method="RK45",
        t_eval=t_eval,
        rtol=rtol,
        atol=atol,
        first_step=min(_FIRST_STEP, horizon / 2),
    )
    if not sol.success:
        # scipy may leave sol.t a list when the first step fails
        reached = float(sol.t[-1]) if len(sol.t) else 0.0
        raise NumericalError(f"integration failed at t = {reached:.6g}: {sol.message}")
    return sol, {"nfev": int(sol.nfev)}


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
    (`_solve_planar`), sampled on the grid of `sample_grid`."""
    if horizon <= 0:
        raise ValueError("horizon must be > 0")
    if rtol <= 0 or atol <= 0:
        raise ValueError("tolerances must be > 0")

    def field(x, y):
        return planar_rhs_xy(x, y, p, bidirectional)

    sol, meta = _solve_planar(field, s0.x, s0.y, horizon, rtol, atol)
    grid = sample_grid(horizon, sample_dt)
    states, overshoot = _clamp_unit(sol.sol(grid), atol, "planar trajectory")
    meta["max_overshoot"] = overshoot
    meta["rtol"], meta["atol"] = rtol, atol
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
            if np.any(v < 0.0) or np.any(v > 1.0):
                raise ValueError(f"{name} entries must lie in [0,1]")

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
        write_csv(path, "t,node,p_x,p_y",
                  [text("%.12g", self.times)[:, None], nodes, self.p_x, self.p_y])


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
    if horizon <= 0:
        raise ValueError("horizon must be > 0")
    n = ps0.n
    if g.n != n:
        raise GraphError("graph order must equal probability vector length")
    a = np.asarray(activities, dtype=float)
    if a.shape != (n,):
        raise ValueError("activities length must equal graph order")
    if n < 2:
        raise GraphError("need at least two nodes for the contact process")

    def fun(_t, u):
        # a new output per call: the solver keeps the last velocity it was given
        v = np.clip(u, 0.0, 1.0)
        out = np.empty_like(v)
        hetero_rhs(v[:n], v[n:], g, a, p, bidirectional, out)
        return out

    grid = sample_grid(horizon, sample_dt, default_samples=500)
    u0 = np.concatenate([ps0.p_x, ps0.p_y])
    sol, meta = _solve(fun, u0, horizon, rtol, atol, grid)
    states, overshoot = _clamp_unit(sol.y, atol, "per-node trajectory")
    meta["max_overshoot"] = overshoot
    meta["rtol"], meta["atol"] = rtol, atol
    px = states[:n].T
    py = states[n:].T
    hetero = HeteroTrajectory(times=sol.t, p_x=px, p_y=py, params=p, meta=dict(meta))
    macro = Trajectory(
        times=sol.t,
        xs=px.mean(axis=1),
        ys=py.mean(axis=1),
        params=p,
        meta=dict(meta),
    )
    return hetero, macro
