"""Output checks on the artifacts each CLI command writes.

Every check takes the command's output directory and returns a list of
failure messages; an empty list means the artifacts are correct.
"""
from __future__ import annotations

import csv
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np

# acceptance 6's own bound on the ensemble-to-ODE sup-norm gap
COMPARE_GAP_BOUND = 0.05
# regime labels the paper's reference points must get at c = 3
REFERENCE_LABELS = {5.0: "protection-free-endemic", 8.0: "interior-endemic", 9.5: "limit-cycle"}


def check_compare(outdir: Path) -> list[str]:
    gap = np.loadtxt(outdir / "compare_gap.csv", delimiter=",", skiprows=1, ndmin=2)
    sup = float(np.abs(gap[:, 1:]).max())
    if not sup <= COMPARE_GAP_BOUND:  # also catches NaN
        return [f"compare: sup-norm gap {sup:.5f} exceeds {COMPARE_GAP_BOUND}"]
    return []


def check_abm_sim(outdir: Path, n: int, horizon: float) -> list[str]:
    errors = []
    traj = np.loadtxt(outdir / "abm_traj.csv", delimiter=",", skiprows=1, ndmin=2)
    states = traj[:, 1:]
    if not ((states >= 0.0) & (states <= 1.0)).all():
        errors.append("abm-sim: a sampled state left [0,1]")
    if traj[0, 0] != 0.0 or traj[-1, 0] != horizon:
        errors.append("abm-sim: trajectory does not span [0, horizon]")

    with open(outdir / "abm_events.csv", newline="") as f:
        rows = [r for r in csv.reader(f) if r and not r[0].startswith("#")][1:]
    times = np.array([float(r[0]) for r in rows])
    if times.size and (np.any(np.diff(times) < 0.0) or times[0] < 0.0 or times[-1] >= horizon):
        errors.append("abm-sim: event times are not non-decreasing within [0, horizon)")

    kinds = Counter(r[1] for r in rows)
    (x0, y0), (x1, y1) = states[0], states[-1]
    d_inf = round(n * y1) - round(n * y0)
    d_adopt = round(n * x1) - round(n * x0)
    if d_inf != kinds["infection"] - kinds["recovery"]:
        errors.append(
            f"abm-sim: n*dy = {d_inf} but #infection - #recovery = "
            f"{kinds['infection'] - kinds['recovery']}"
        )
    if d_adopt != kinds["adopt"] - kinds["drop"]:
        errors.append(
            f"abm-sim: n*dx = {d_adopt} but #adopt - #drop = {kinds['adopt'] - kinds['drop']}"
        )
    return errors


def check_sweep(outdir: Path, grid_size: int) -> list[str]:
    with open(outdir / "sweep.csv", newline="") as f:
        reader = csv.reader(f)
        header = next(reader)
        rows = list(reader)
    errors = []
    if len(rows) != grid_size:
        errors.append(f"sweep: {len(rows)} rows for a grid of {grid_size} points")
    iz, ic, il = header.index("zeta"), header.index("c"), header.index("label")
    for zeta, want in REFERENCE_LABELS.items():
        got = [
            r[il]
            for r in rows
            if math.isclose(float(r[iz]), zeta, abs_tol=1e-9)
            and math.isclose(float(r[ic]), 3.0, abs_tol=1e-9)
        ]
        if got != [want]:
            errors.append(f"sweep: zeta={zeta}, c=3 labelled {got}, expected [{want!r}]")
    return errors


def check_cycle(outdir: Path) -> list[str]:
    report = json.loads((outdir / "cycle.json").read_text())
    period = report.get("period")
    if report.get("verdict") != "limit-cycle" or not (
        isinstance(period, float) and math.isfinite(period) and period > 0.0
    ):
        return [f"cycle: verdict {report.get('verdict')!r} with period {period!r}"]
    return []


def check_mf_hetero(outdir: Path) -> list[str]:
    nodes = np.loadtxt(outdir / "hetero_nodes.csv", delimiter=",", skiprows=1, ndmin=2)
    macro = np.loadtxt(outdir / "hetero_macro.csv", delimiter=",", skiprows=1, ndmin=2)
    n_times = macro.shape[0]
    if nodes.shape[0] % n_times:
        return ["mf-hetero: node rows are not a whole number per sample time"]
    per_time = nodes.reshape(n_times, -1, 4)
    if not (per_time[:, :, 0] == macro[:, :1]).all():
        return ["mf-hetero: node and macro sample times differ"]
    means = per_time[:, :, 2:].mean(axis=1)
    if not np.allclose(means, macro[:, 1:], rtol=1e-12, atol=1e-15):
        worst = float(np.abs(means - macro[:, 1:]).max())
        return [f"mf-hetero: macro CSV differs from the per-time node mean by {worst:.3e}"]
    return []
