"""Smoke tests: both scripts run end to end on small inputs."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_reproduce_regimes(tmp_path):
    out = run_script("reproduce_regimes.py", "--horizon", "20", "--outdir", str(tmp_path))
    assert out.count("regime=") == 3
    for zeta in ("5", "8", "9.5"):
        d = tmp_path / f"zeta_{zeta}"
        expected = {"field.csv", "equilibria.csv", "cycle.json", "crossings.csv"}
        expected |= {f"traj_{k:02d}.csv" for k in range(8)}
        assert {p.name for p in d.iterdir()} == expected
        with open(d / "field.csv", newline="") as f:
            assert len(list(csv.reader(f))) == 1 + 20 * 20
        assert json.loads((d / "cycle.json").read_text())["verdict"]


def test_abm_vs_ode(tmp_path):
    out = run_script("abm_vs_ode.py", "--sizes", "50", "--runs", "2", "--horizon", "2",
                     "--outdir", str(tmp_path))
    assert "n=50" in out
    assert {p.name for p in tmp_path.iterdir()} == {"ode.csv", "ensemble_n50.csv"}
    with open(tmp_path / "ensemble_n50.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["t", "x_mean", "y_mean", "x_std", "y_std"]
    assert len(rows) == 1 + 21 and float(rows[-1][0]) == 2.0
