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

The unit square is positively invariant for the planar system; the
integrators enforce this numerically: overshoot below 10*atol is projected
back onto [0,1], anything larger raises NumericalError.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from .artifacts import text, write_csv
from .core import MacroState, ModelParams, NumericalError
from .network import GraphError, InfluenceGraph

DEFAULT_RTOL = 1e-8
DEFAULT_ATOL = 1e-10
_FIRST_STEP = 1e-3


@dataclass
class Trajectory:
    """Time-stamped macroscopic states from an ODE solve or ABM sampling."""

    times: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    params: ModelParams
    meta: dict = field(default_factory=dict)
    # the planar solve behind the samples (scipy's result with its dense
    # interpolant `sol`); None for ABM and per-node trajectories
    solution: object | None = None

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


def _solve(fun, u0, horizon, rtol, atol, t_eval=None):
    """RK45 from t = 0 to the horizon, kept at the times `t_eval` if given,
    else at its accepted steps with the dense interpolant. Each step attempt
    costs six evaluations after the first, so nfev = 1 + 6*(accepted + rejected)."""
    sol = solve_ivp(
        fun,
        (0.0, horizon),
        u0,
        method="RK45",
        t_eval=t_eval,
        rtol=rtol,
        atol=atol,
        first_step=min(_FIRST_STEP, horizon / 2),
        dense_output=t_eval is None,
    )
    if not sol.success:
        # scipy may leave sol.t a list when the first step fails
        reached = float(sol.t[-1]) if len(sol.t) else 0.0
        raise NumericalError(f"integration failed at t = {reached:.6g}: {sol.message}")
    meta = {"nfev": int(sol.nfev)}
    if t_eval is None:
        accepted = sol.t.size - 1
        meta["steps"] = {"accepted": accepted, "rejected": (sol.nfev - 1) // 6 - accepted}
    return sol, meta


def integrate_planar(
    s0: MacroState,
    p: ModelParams,
    horizon: float,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
    sample_dt: float | None = None,
    bidirectional: bool = True,
) -> Trajectory:
    """Integrate the planar system with an adaptive embedded RK 5(4) scheme."""
    if horizon <= 0:
        raise ValueError("horizon must be > 0")
    if rtol <= 0 or atol <= 0:
        raise ValueError("tolerances must be > 0")

    def fun(_t, u):
        dx, dy = planar_rhs_xy(u[0], u[1], p, bidirectional)
        return (dx, dy)

    sol, meta = _solve(fun, [s0.x, s0.y], horizon, rtol, atol)
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
               p: ModelParams, bidirectional: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Velocity (dpx, dpy) of the per-node probability system at the per-node
    adoption and infection probabilities px, py, with activities a; all three
    are vectors of length g.n.

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
    q_si = p.lam * (1.0 - px) / (n - 1) * pressure
    dpx = (1.0 - px) * q01 - px * q10
    dpy = (1.0 - py) * q_si - p.mu * py
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
        dpx, dpy = hetero_rhs(np.clip(u[:n], 0.0, 1.0), np.clip(u[n:], 0.0, 1.0),
                              g, a, p, bidirectional)
        return np.concatenate([dpx, dpy])

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
