"""Phase-portrait data export: vector field on a grid, equilibria with their
stability classes, and a bundle of trajectories. CSV only; plot with any tool.
"""
from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .artifacts import columns, write_csv
from .core import MacroState, ModelParams
from .equilibria import find_equilibria
from .meanfield import DEFAULT_ATOL, DEFAULT_RTOL, integrate_planar, planar_rhs_xy


def default_initial_circle(n_traj: int = 8, center=(0.5, 0.5), radius: float = 0.35):
    """Ring of initial conditions around the centre of the unit square."""
    states = []
    for k in range(n_traj):
        ang = 2.0 * math.pi * k / n_traj
        x = min(max(center[0] + radius * math.cos(ang), 1e-3), 1.0 - 1e-3)
        y = min(max(center[1] + radius * math.sin(ang), 1e-3), 1.0 - 1e-3)
        states.append(MacroState(x, y))
    return states


def render_phase_portrait(
    p: ModelParams,
    outdir,
    grid_nx: int = 20,
    grid_ny: int = 20,
    initial_states=None,
    horizon: float = 200.0,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
    sample_dt: float | None = None,
) -> list[Path]:
    """Write field.csv (x,y,dx,dy), equilibria.csv, and one CSV per trajectory."""
    if grid_nx < 2 or grid_ny < 2:
        raise ValueError("grid must be at least 2x2")
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []

    # x-major order: y varies fastest
    x, y = (a.ravel() for a in np.meshgrid(
        np.linspace(0.0, 1.0, grid_nx), np.linspace(0.0, 1.0, grid_ny), indexing="ij"))
    dx, dy = planar_rhs_xy(x, y, p)
    field_path = outdir / "field.csv"
    write_csv(field_path, "x,y,dx,dy", "%.17g,%.17g,%.17g,%.17g\n", columns(x, y, dx, dy))
    written.append(field_path)

    eq_path = outdir / "equilibria.csv"
    rows = (
        (rep.kind.value, rep.point[0], rep.point[1], rep.stability.value)
        for rep in find_equilibria(p)
        if rep.exists
    )
    write_csv(eq_path, "kind,x,y,stability", "%s,%.17g,%.17g,%s\n", rows)
    written.append(eq_path)

    if initial_states is None:
        initial_states = default_initial_circle()
    for k, s0 in enumerate(initial_states):
        traj = integrate_planar(s0, p, horizon, rtol=rtol, atol=atol, sample_dt=sample_dt)
        path = outdir / f"traj_{k:02d}.csv"
        traj.to_csv(path)
        written.append(path)
    return written
