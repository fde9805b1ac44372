#!/usr/bin/env python3
"""Reproduce the three qualitative regimes of the reference parameter set.

For alpha=3, lambda=0.5, mu=1, c=3 and zeta in {5, 8, 9.5} this writes, per
regime, the phase-portrait bundle (vector field, equilibria, trajectories)
plus a cycle-detection report, and prints a one-line summary each.

Usage: python scripts/reproduce_regimes.py [--outdir OUT]
"""
import argparse
from pathlib import Path

from epigame import (
    MacroState,
    ModelParams,
    classify_regime,
    detect_cycle,
    integrate_planar,
    render_phase_portrait,
)
from epigame.artifacts import write_json

ZETAS = (5.0, 8.0, 9.5)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="out/regimes", help="output root directory")
    ap.add_argument("--horizon", type=float, default=500.0)
    args = ap.parse_args()

    for zeta in ZETAS:
        p = ModelParams(alpha=3.0, lam=0.5, mu=1.0, c=3.0, zeta=zeta)
        label = classify_regime(p).label.value
        outdir = Path(args.outdir) / f"zeta_{zeta:g}"
        written = render_phase_portrait(p, outdir, horizon=args.horizon, sample_dt=0.05)

        # tight tolerances so that, in converging regimes, the terminal
        # velocity reflects the dynamics and not the integrator error floor
        traj = integrate_planar(
            MacroState(0.5, 0.1), p, horizon=args.horizon, rtol=1e-10, atol=1e-12,
        )
        report = detect_cycle(traj, p)
        write_json(outdir / "cycle.json", report.to_dict())
        report.crossings_to_csv(outdir / "crossings.csv")

        if report.period is not None:
            extra = f"period {report.period:.4f}"
        elif report.point is not None:
            extra = f"settles at ({report.point[0]:.4f}, {report.point[1]:.4f})"
        else:
            extra = "undecided"
        print(f"zeta={zeta:<4g} regime={label:<24s} cycle-verdict={report.verdict.value} ({extra})")
        print(f"  wrote {len(written) + 2} files under {outdir}")


if __name__ == "__main__":
    main()
