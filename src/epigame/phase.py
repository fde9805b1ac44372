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


# the vector field's grid: GRID_N x GRID_N points spanning the unit square
GRID_N = 20
# the trajectories' initial states: eight points evenly spaced on the circle
# of radius 0.35 about the centre of the unit square, from (0.85, 0.5) on
INITIAL_CIRCLE = tuple(MacroState(0.5 + 0.35 * math.cos(a), 0.5 + 0.35 * math.sin(a))
                       for a in (2.0 * math.pi * k / 8 for k in range(8)))


def render_phase_portrait(
    p: ModelParams,
    outdir,
    horizon: float = 200.0,
    sample_dt: float | None = None,
) -> list[Path]:
    """Write field.csv (x,y,dx,dy) on the GRID_N x GRID_N grid,
    equilibria.csv, and one CSV per trajectory from INITIAL_CIRCLE, solved
    at integrate_planar's default tolerances."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []

    # x-major order: y varies fastest
    axis = np.linspace(0.0, 1.0, GRID_N)
    x, y = (a.ravel() for a in np.meshgrid(axis, axis, indexing="ij"))
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

    for k, s0 in enumerate(INITIAL_CIRCLE):
        traj = integrate_planar(s0, p, horizon, sample_dt=sample_dt)
        path = outdir / f"traj_{k:02d}.csv"
        traj.to_csv(path)
        written.append(path)
    return written
