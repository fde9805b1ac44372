"""Self-test of the output checks: each passes on genuine artifacts and
fails on a deliberately corrupted copy.

    python3 perfbench/selftest.py

Run from the root of a source checkout. Small genuine artifacts are made
with the CLI; every corruption below must be caught. Exits 0 when all are.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
from functools import partial
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

import checks  # noqa: E402
from epigame.cli import main as cli_main  # noqa: E402
from workloads import random_out_graph  # noqa: E402

PARAM_FLAGS = ["--alpha", "3", "--lambda", "0.5", "--mu", "1", "--c", "3"]


def cli(workdir: Path, command: str, cfg: dict | None, *flags: str) -> Path:
    outdir = workdir / command
    argv = [command, *PARAM_FLAGS, *flags, "--outdir", str(outdir)]
    if cfg is not None:
        (workdir / f"{command}.json").write_text(json.dumps(cfg))
        argv += ["--config", str(workdir / f"{command}.json")]
    with contextlib.redirect_stdout(io.StringIO()):
        if cli_main(argv) != 0:
            raise RuntimeError(f"{command} failed")
    return outdir


def edit_lines(path: Path, fn) -> None:
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(fn(lines)))


def set_field(line: str, col: int, value: str) -> str:
    fields = line.rstrip("\n").split(",")
    fields[col] = value
    return ",".join(fields) + "\n"


def first_event(lines, kind):
    return next(k for k, line in enumerate(lines) if f",{kind}," in line)


def make_artifacts(workdir: Path) -> dict:
    rng = np.random.default_rng(0)
    n, horizon = 60, 5.0
    net = {"abm": {"graph": {"type": "adjacency", "lists": random_out_graph(rng, n, 4)},
                   "infection_mode": "contact"}}
    hetero = {"hetero": {"graph": {"type": "adjacency", "lists": random_out_graph(rng, 40, 4)},
                         "p_x0": 0.5, "p_y0": 0.1}}
    grid = {"zeta": {"min": 4, "max": 11, "steps": 15}, "c": {"min": 2, "max": 4, "steps": 3}}
    return {
        "compare": (cli(workdir, "compare", None, "--zeta", "5", "--n", "2000", "--seed", "1",
                        "--n-runs", "1", "--x0", "0.3", "--y0", "0.2", "--horizon", "10"),
                    checks.check_compare),
        "abm-sim": (cli(workdir, "abm-sim", net, "--zeta", "8", "--seed", "3", "--x0", "0.3",
                        "--y0", "0.2", "--horizon", str(horizon)),
                    partial(checks.check_abm_sim, n=n, horizon=horizon)),
        "sweep": (cli(workdir, "sweep", {"sweep": {"grid": grid}}, "--zeta", "8"),
                  partial(checks.check_sweep, grid_size=45)),
        "cycle": (cli(workdir, "cycle", None, "--zeta", "9.5", "--x0", "0.5", "--y0", "0.1",
                      "--horizon", "500"),
                  checks.check_cycle),
        "mf-hetero": (cli(workdir, "mf-hetero", hetero, "--zeta", "8", "--horizon", "5",
                          "--sample-dt", "0.5"),
                      checks.check_mf_hetero),
    }


def cycle_json(**changes):
    def corrupt(lines):
        report = json.loads("".join(lines))
        report.update(changes)
        return [json.dumps(report)]
    return corrupt


# (artifact, file, corruption); every one of them must make the check fail
CORRUPTIONS = {
    "compare gap above 0.05": ("compare", "compare_gap.csv",
                               lambda ls: ls[:5] + [set_field(ls[5], 2, "0.06")] + ls[6:]),
    "abm state outside [0,1]": ("abm-sim", "abm_traj.csv",
                                lambda ls: ls[:3] + [set_field(ls[3], 2, "1.5")] + ls[4:]),
    "abm event times out of order": ("abm-sim", "abm_events.csv",
                                     lambda ls: ls[:2] + [ls[3], ls[2]] + ls[4:]),
    "abm event after the horizon": ("abm-sim", "abm_events.csv",
                                    lambda ls: ls[:-1] + [set_field(ls[-1], 0, "5.5")]),
    "abm infection missing from log": ("abm-sim", "abm_events.csv",
                                       lambda ls: ls[:(k := first_event(ls, "infection"))] + ls[k + 1:]),
    "abm adopt missing from log": ("abm-sim", "abm_events.csv",
                                   lambda ls: ls[:(k := first_event(ls, "adopt"))] + ls[k + 1:]),
    "sweep row missing": ("sweep", "sweep.csv", lambda ls: ls[:-1]),
    "sweep reference label wrong": ("sweep", "sweep.csv",
                                    lambda ls: [ln.replace("interior-endemic", "limit-cycle") for ln in ls]),
    "cycle verdict not limit-cycle": ("cycle", "cycle.json", cycle_json(verdict="undecided")),
    "cycle without a period": ("cycle", "cycle.json", cycle_json(period=None)),
    "hetero node value changed": ("mf-hetero", "hetero_nodes.csv",
                                  lambda ls: ls[:7] + [set_field(ls[7], 2, "0.999")] + ls[8:]),
}


def main() -> int:
    workdir = ROOT / ".perfbench_work" / f"selftest-{os.getpid()}"
    workdir.mkdir(parents=True)
    failures = 0
    try:
        artifacts = make_artifacts(workdir)
        for name, (outdir, check) in artifacts.items():
            errors = check(outdir)
            print(f"{'ok  ' if not errors else 'FAIL'} genuine {name} passes {errors or ''}")
            failures += bool(errors)
        for label, (name, filename, corrupt) in CORRUPTIONS.items():
            outdir, check = artifacts[name]
            bad = workdir / f"corrupt-{name}"
            shutil.copytree(outdir, bad, dirs_exist_ok=True)
            edit_lines(bad / filename, corrupt)
            errors = check(bad)
            print(f"{'ok  ' if errors else 'FAIL'} {label}: {errors or 'not caught'}")
            failures += not errors
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    print(f"{failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
