"""The three benchmark workloads: seeded inputs, CLI argument lists, checks.

`prepare(name, seed, workdir, traced)` writes every config the workload
needs under `workdir` and returns its steps. All inputs derive from `seed`:
the same seed gives byte-identical configs.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import checks

# the paper's reference point; each workload sets zeta (and c where swept)
PARAMS = {"alpha": 3.0, "lambda": 0.5, "mu": 1.0, "c": 3.0}

# abm-complete: acceptance 6's shape with a 2-run ensemble
COMPLETE_N, COMPLETE_RUNS = 10_000, 2
# abm-network: general-graph engine, contact mode, event log on
NETWORK_N, NETWORK_DEGREE, NETWORK_HORIZON, PARETO_SHAPE = 1000, 10, 10.0, 2.5
# meanfield-analysis: (zeta, c) grid holding zeta = 5, 8, 9.5 at c = 3
SWEEP_GRID = {
    "zeta": {"min": 4.0, "max": 11.0, "steps": 141},
    "c": {"min": 1.5, "max": 4.5, "steps": 141},
}
HETERO_N, HETERO_DEGREE = 2000, 10


@dataclass
class Step:
    command: str
    argv: list[str]
    outdir: Path
    check: Callable[[Path], list[str]]


def random_out_graph(rng: np.random.Generator, n: int, degree: int) -> list[list[int]]:
    """Directed influence graph: `degree` distinct out-neighbours per node, no self-loops."""
    lists = []
    for i in range(n):
        nbrs = rng.choice(n - 1, size=degree, replace=False)
        nbrs[nbrs >= i] += 1
        lists.append(sorted(nbrs.tolist()))
    return lists


def _write(path: Path, cfg: dict) -> Path:
    path.write_text(json.dumps(cfg))
    return path


def _step(workdir: Path, command: str, cfg: dict, check) -> Step:
    outdir = workdir / command
    config = _write(workdir / f"{command}.json", cfg)
    return Step(command, [command, "--config", str(config), "--outdir", str(outdir)], outdir, check)


def _abm_complete(seed: int, workdir: Path, traced: bool) -> list[Step]:
    cfg = {
        "params": {**PARAMS, "zeta": 5.0},
        "initial": {"x": 0.3, "y": 0.2},
        "horizon": 30.0,
        "sample_dt": 0.1,
        "seed": seed,
        # the log is only needed to count events, so only the traced run keeps it
        "abm": {"n": COMPLETE_N, "infection_mode": "aggregated", "record_events": traced},
        "compare": {"n_runs": COMPLETE_RUNS, "n_jobs": 1},
    }
    return [_step(workdir, "compare", cfg, checks.check_compare)]


def _abm_network(seed: int, workdir: Path, traced: bool) -> list[Step]:
    rng = np.random.default_rng(seed)
    graph = random_out_graph(rng, NETWORK_N, NETWORK_DEGREE)
    acts = rng.pareto(PARETO_SHAPE, NETWORK_N) + 1.0
    acts *= PARAMS["alpha"] / acts.mean()
    cfg = {
        "params": {**PARAMS, "zeta": 8.0},
        "initial": {"x": 0.3, "y": 0.2},
        "horizon": NETWORK_HORIZON,
        "sample_dt": 0.1,
        "seed": seed,
        "abm": {
            "graph": {"type": "adjacency", "lists": graph},
            "activities": acts.tolist(),
            "infection_mode": "contact",
        },
    }
    check = partial(checks.check_abm_sim, n=NETWORK_N, horizon=NETWORK_HORIZON)
    return [_step(workdir, "abm-sim", cfg, check)]


def _meanfield_analysis(seed: int, workdir: Path, traced: bool) -> list[Step]:
    rng = np.random.default_rng(seed)
    grid_size = SWEEP_GRID["zeta"]["steps"] * SWEEP_GRID["c"]["steps"]
    sweep = {"params": {**PARAMS, "zeta": 8.0}, "sweep": {"grid": SWEEP_GRID}}
    cycle = {
        "params": {**PARAMS, "zeta": 9.5},
        "initial": {"x": 0.5, "y": 0.1},
        "horizon": 500.0,
    }
    hetero = {
        "params": {**PARAMS, "zeta": 8.0},
        "horizon": 100.0,
        "sample_dt": 0.2,
        "hetero": {
            "graph": {"type": "adjacency", "lists": random_out_graph(rng, HETERO_N, HETERO_DEGREE)},
            "activities": "uniform",
            "p_x0": rng.uniform(0.3, 0.7, HETERO_N).tolist(),
            "p_y0": rng.uniform(0.05, 0.15, HETERO_N).tolist(),
        },
    }
    return [
        _step(workdir, "sweep", sweep, partial(checks.check_sweep, grid_size=grid_size)),
        _step(workdir, "cycle", cycle, checks.check_cycle),
        _step(workdir, "mf-hetero", hetero, checks.check_mf_hetero),
    ]


WORKLOADS = {
    "abm-complete": _abm_complete,
    "abm-network": _abm_network,
    "meanfield-analysis": _meanfield_analysis,
}


def prepare(name: str, seed: int, workdir: Path, traced: bool) -> list[Step]:
    return WORKLOADS[name](seed, workdir, traced)
