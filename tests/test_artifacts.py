"""CSV writer format: every artifact writer against the per-row f-string loop
that defines its format, on inputs with edge values (signed zero, the
smallest subnormal, inexact sums, 1e22, integer-valued floats, absent
counterparts and periods, and the 7.3 / 0.1 sample grid)."""

import json

import numpy as np

from epigame import (
    EnsembleResult,
    EventLog,
    HeteroTrajectory,
    ModelParams,
    Trajectory,
    classify_regime,
    find_equilibria,
    planar_rhs_xy,
    render_phase_portrait,
)
from epigame.cli import main
from epigame.cycles import CycleReport, Crossing, Verdict
from .conftest import example_params

EDGE = [-0.0, 5e-324, 0.1 + 0.2, 1 / 3, 1e22, 2.0, 0.0, 1.0, 7.3, 1e-300]
TIMES = np.arange(74) * 0.1  # 73 * 0.1 = 7.300000000000001


def edge_column(n, shift=0):
    return np.array([EDGE[(k + shift) % len(EDGE)] for k in range(n)])


def test_trajectory(tmp_path):
    traj = Trajectory(TIMES, edge_column(74), edge_column(74, 3), example_params(8.0))
    ref = "t,x,y\n"
    for t, x, y in zip(traj.times, traj.xs, traj.ys):
        ref += f"{t:.12g},{x:.17g},{y:.17g}\n"
    traj.to_csv(tmp_path / "traj.csv")
    assert (tmp_path / "traj.csv").read_text() == ref


def test_hetero_trajectory(tmp_path):
    n = 7
    p_x = np.stack([edge_column(n, k) for k in range(TIMES.size)])
    p_y = np.stack([edge_column(n, k + 5) for k in range(TIMES.size)])
    hetero = HeteroTrajectory(TIMES, p_x, p_y, example_params(8.0))
    ref = "t,node,p_x,p_y\n"
    for k, t in enumerate(hetero.times):
        for i in range(n):
            ref += f"{t:.12g},{i},{p_x[k, i]:.17g},{p_y[k, i]:.17g}\n"
    hetero.to_csv(tmp_path / "nodes.csv")
    assert (tmp_path / "nodes.csv").read_text() == ref


def test_ensemble(tmp_path):
    m = TIMES.size
    res = EnsembleResult(TIMES, edge_column(m), edge_column(m, 1), edge_column(m, 2),
                         edge_column(m, 3), np.zeros((2, 2)), [1, 2], example_params(8.0))
    ref = "t,x_mean,y_mean,x_std,y_std\n"
    for row in zip(res.times, res.x_mean, res.y_mean, res.x_std, res.y_std):
        ref += ",".join(f"{v:.17g}" for v in row) + "\n"
    res.to_csv(tmp_path / "ens.csv")
    assert (tmp_path / "ens.csv").read_text() == ref


def test_event_log(tmp_path):
    log = EventLog(seed=42)
    kinds = ["infection", "recovery", "adopt", "drop", "contact"]
    # more events than one write block, with and without counterparts
    for k in range(10_000):
        cp = None if k % 3 else (k * 7) % 1000
        log.append(EDGE[k % len(EDGE)] * (1 + k // len(EDGE)), kinds[k % 5], k % 1000, cp)
    ref = f"# rng={log.rng_name} seed={log.seed}\n" + "t,kind,actor,counterpart\n"
    for t, kind, actor, cp in log.events:
        ref += f"{t:.17g},{kind},{actor},{'' if cp is None else cp}\n"
    log.to_csv(tmp_path / "events.csv")
    assert (tmp_path / "events.csv").read_text() == ref


def test_crossings(tmp_path):
    crossings = [Crossing(k=0, t=0.1 + 0.2, y=-0.0, period=None)]
    crossings += [Crossing(k=k, t=EDGE[k] + k, y=EDGE[-k], period=EDGE[k]) for k in range(1, 10)]
    report = CycleReport(verdict=Verdict.UNDECIDED, crossings=crossings)
    ref = "k,t_k,y_k,period_k\n"
    for c in report.crossings:
        period = f"{c.period:.17g}" if c.period is not None else ""
        ref += f"{c.k},{c.t:.17g},{c.y:.17g},{period}\n"
    report.crossings_to_csv(tmp_path / "crossings.csv")
    assert (tmp_path / "crossings.csv").read_text() == ref


def test_phase_portrait_field_and_equilibria(tmp_path):
    p = example_params(8.0)
    # 40 x 30 rows span several write blocks
    render_phase_portrait(p, tmp_path, grid_nx=40, grid_ny=30, initial_states=[], horizon=1.0)
    ref = "x,y,dx,dy\n"
    for x in np.linspace(0.0, 1.0, 40):
        for y in np.linspace(0.0, 1.0, 30):
            dx, dy = planar_rhs_xy(float(x), float(y), p)
            ref += f"{x:.17g},{y:.17g},{dx:.17g},{dy:.17g}\n"
    assert (tmp_path / "field.csv").read_text() == ref
    assert "-0," in ref  # the unit square's edges give signed zeros
    ref = "kind,x,y,stability\n"
    for rep in find_equilibria(p):
        if rep.exists:
            ref += f"{rep.kind.value},{rep.point[0]:.17g},{rep.point[1]:.17g},{rep.stability.value}\n"
    assert (tmp_path / "equilibria.csv").read_text() == ref


def read_floats(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def test_compare_gap(tmp_path, capsys):
    args = ["compare", "--alpha", "3", "--lambda", "0.5", "--mu", "1", "--c", "3",
            "--zeta", "5", "--n", "60", "--seed", "3", "--n-runs", "2", "--horizon", "7.3",
            "--sample-dt", "0.1", "--x0", "0.3", "--y0", "0.2", "--outdir", str(tmp_path)]
    assert main(args) == 0
    capsys.readouterr()
    # both inputs are written at .17g, so they read back exactly
    abm = read_floats(tmp_path / "compare_abm.csv")
    ode = read_floats(tmp_path / "compare_ode.csv")
    ref = "t,gap_x,gap_y\n"
    for t, gx, gy in zip(abm[:, 0], abm[:, 1] - ode[:, 1], abm[:, 2] - ode[:, 2]):
        ref += f"{t:.12g},{gx:.17g},{gy:.17g}\n"
    assert (tmp_path / "compare_gap.csv").read_text() == ref


def test_sweep(tmp_path, capsys):
    grid = {"zeta": {"min": 4, "max": 11, "steps": 8}, "c": {"min": 1.5, "max": 4.5, "steps": 3}}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": {"alpha": 3, "lambda": 0.5, "mu": 1},
                               "sweep": {"grid": grid}}))
    assert main(["sweep", "--config", str(cfg), "--outdir", str(tmp_path)]) == 0
    capsys.readouterr()
    header = None
    ref = ""
    for zeta in np.linspace(4, 11, 8):
        for c in np.linspace(1.5, 4.5, 3):
            report = classify_regime(ModelParams(alpha=3.0, lam=0.5, mu=1.0, c=float(c),
                                                 zeta=float(zeta)))
            if header is None:
                cond_cols = []
                for cond in report.conditions:
                    cond_cols += [f"{cond.name}_lhs", f"{cond.name}_rhs", f"{cond.name}_sat"]
                header = ",".join(["zeta", "c", "label"] + cond_cols)
                ref += header + "\n"
            row = [f"{v:.17g}" for v in (zeta, c)] + [report.label.value]
            for cond in report.conditions:
                row += [f"{cond.lhs:.17g}", f"{cond.rhs:.17g}", str(int(cond.satisfied))]
            ref += ",".join(row) + "\n"
    assert (tmp_path / "sweep.csv").read_text() == ref
