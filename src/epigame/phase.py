"""Phase-portrait data export: vector field on a grid, equilibria with their
stability classes, and a bundle of trajectories. CSV only; plot with any tool.
"""
from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .artifacts import text, write_csv
from .core import MacroState, ModelParams
from .equilibria import find_equilibria
from .meanfield import integrate_planar, planar_rhs_xy


def default_initial_circle() -> list[MacroState]:
    """Eight initial conditions evenly spaced on the circle of radius 0.35
    about the centre of the unit square, starting at (0.85, 0.5)."""
    angles = (2.0 * math.pi * k / 8 for k in range(8))
    return [MacroState(0.5 + 0.35 * math.cos(a), 0.5 + 0.35 * math.sin(a)) for a in angles]


def render_phase_portrait(
    p: ModelParams,
    outdir,
    grid_nx: int = 20,
    grid_ny: int = 20,
    initial_states=None,
    horizon: float = 200.0,
    sample_dt: float | None = None,
) -> list[Path]:
    """Write field.csv (x,y,dx,dy), equilibria.csv, and one CSV per trajectory
    from `initial_states` (default: `default_initial_circle()`), solved at
    integrate_planar's default tolerances."""
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
    write_csv(field_path, "x,y,dx,dy", [x, y, dx, dy])
    written.append(field_path)

    eq_path = outdir / "equilibria.csv"
    found = [rep for rep in find_equilibria(p) if rep.exists]
    points = np.array([rep.point for rep in found], dtype=float).reshape(-1, 2)
    write_csv(eq_path, "kind,x,y,stability",
              [text("%s", [rep.kind.value for rep in found]), points[:, 0], points[:, 1],
               text("%s", [rep.stability.value for rep in found])])
    written.append(eq_path)

    if initial_states is None:
        initial_states = default_initial_circle()
    for k, s0 in enumerate(initial_states):
        traj = integrate_planar(s0, p, horizon, sample_dt=sample_dt)
        path = outdir / f"traj_{k:02d}.csv"
        traj.to_csv(path)
        written.append(path)
    return written
