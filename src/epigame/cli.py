"""Command-line front end.

Subcommands: regime, equilibria, mf-sim, mf-hetero, abm-sim, cycle, sweep,
compare. Every command accepts an optional JSON config (``--config``).

Each setting is resolved by one rule: its flag if given, else its entry in
the config, else the command's default. ``SETTINGS`` says where each setting
lives in a config (the top level or one block) and how it is read; the model
parameters live in the ``params`` block. A value that cannot be read is a
configuration error, and so is a null, except where the command's default is
null too. The settings a run used are written next to its artifacts as
``<command>.config.json``, so any run can be reproduced from that sidecar
alone.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import abm as abm_mod
from .artifacts import text, write_csv, write_json
from .core import (
    PARAM_KEYS,
    AssumptionError,
    ConfigError,
    InvalidParameterError,
    MacroState,
    ModelParams,
    NumericalError,
    config_value,
)
from .cycles import (
    DEFAULT_MIN_CROSSINGS,
    DEFAULT_TOL_CYCLE,
    DEFAULT_TRANSIENT_FRAC,
    check_cycle_settings,
    detect_cycle,
)
from .equilibria import REGIME_CONDITIONS, classify_regime, find_equilibria, regime_ledger
from .meanfield import (
    DEFAULT_ATOL,
    DEFAULT_RTOL,
    ProbabilityState,
    integrate_hetero,
    integrate_planar,
)
from .network import GraphError, InfluenceGraph

OUTDIR_ENV = "EPIGAME_OUTDIR"

# the initial state (x0, y0) of every integrating command when neither a
# flag nor the config's "initial" block gives one
DEFAULT_INITIAL = {"x": 0.5, "y": 0.1}

# each setting by the name of its flag, or of its key for the config-only
# ones: (config block, None for the top level; key in it; how it is read)
SETTINGS = {
    "outdir": (None, "outdir", str),
    "horizon": (None, "horizon", float),
    "rtol": (None, "rtol", float),
    "atol": (None, "atol", float),
    "sample_dt": (None, "sample_dt", float),
    "seed": (None, "seed", int),
    "x0": ("initial", "x", float),
    "y0": ("initial", "y", float),
    "n": ("abm", "n", int),
    "mode": ("abm", "infection_mode", str),
    "tol_cycle": ("cycle", "tol_cycle", float),
    "transient_frac": ("cycle", "transient_frac", float),
    "min_crossings": ("cycle", "min_crossings", int),
    "n_runs": ("compare", "n_runs", int),
    "n_jobs": ("compare", "n_jobs", int),
}

# the settings that must be > 0 when given
POSITIVE = ("horizon", "rtol", "atol", "sample_dt")

# the abm block's keys that go into the run spec as they are
ABM_SPEC_KEYS = ("activities", "directionality", "record_events", "behaviours0", "healths0")

# the keys each config block may hold: those the commands read and those
# their sidecars write. Any other key in a block is a configuration error;
# top-level keys are left alone, since one config may serve several commands.
BLOCK_KEYS = {
    "params": PARAM_KEYS,
    "initial": ("x", "y"),
    "abm": ("n", *abm_mod.AbmConfig.SPEC_KEYS),
    "hetero": ("graph", "activities", "p_x0", "p_y0"),
    "cycle": ("tol_cycle", "transient_frac", "min_crossings"),
    "compare": ("n_runs", "n_jobs"),
    "sweep": ("grid",),
}

# the keys of one sweep axis, and how each is read
AXIS_KEYS = {"min": float, "max": float, "steps": int}


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as f:
            cfg = json.load(f)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed config JSON in {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    for name, keys in BLOCK_KEYS.items():
        _check_keys(f"config block {name!r}", _block(cfg, name), keys)
    return cfg


def _check_keys(what: str, block: dict, keys) -> None:
    unknown = [k for k in block if k not in keys]
    if unknown:
        raise ConfigError(f"unknown key(s) in {what}: {', '.join(map(repr, unknown))}")


def _block(cfg: dict, name: str) -> dict:
    block = cfg.get(name, {})
    if not isinstance(block, dict):
        raise ConfigError(f"config block {name!r} must be a JSON object")
    return block


def _resolve(cfg: dict, args, **defaults) -> dict:
    """Each named setting: its flag if given, else its config entry (see
    SETTINGS), else the default given here. A null stays null only where
    that default is null too; any other value is read by the setting's cast
    (`config_value`), and a setting in POSITIVE must be > 0."""
    resolved = {}
    for name, default in defaults.items():
        block, key, cast = SETTINGS[name]
        value = getattr(args, name, None)
        if value is None:
            value = (_block(cfg, block) if block else cfg).get(key, default)
        if value is None and default is None:
            resolved[name] = None
        else:
            what = f"{block}.{key}" if block else key
            resolved[name] = config_value(what, value, cast)
            if name in POSITIVE and resolved[name] <= 0:
                raise ConfigError(f"{what} must be > 0, not {value!r}")
    return resolved


def _params(cfg: dict, args) -> dict:
    """The config's params block with each given parameter flag in place of its value."""
    d = dict(_block(cfg, "params"))
    for key in PARAM_KEYS:
        v = getattr(args, "lambda_" if key == "lambda" else key)
        if v is not None:
            d[key] = v
    return d


def _initial(cfg: dict, args) -> dict:
    s = _resolve(cfg, args, x0=DEFAULT_INITIAL["x"], y0=DEFAULT_INITIAL["y"])
    state = MacroState(s["x0"], s["y0"])  # rejects values outside [0, 1]
    return {"x": state.x, "y": state.y}


def _outdir(cfg: dict, args) -> Path:
    path = Path(_resolve(cfg, args, outdir=os.environ.get(OUTDIR_ENV, "."))["outdir"])
    try:
        path.mkdir(parents=True, exist_ok=True)
        probe = path / ".write-probe"
        probe.touch()
        probe.unlink()
    except OSError as exc:
        raise ConfigError(f"output directory not writable: {path} ({exc})") from exc
    return path


def _write_sidecar(outdir: Path, command: str, settings: dict) -> None:
    """The settings a run used, which rerun the command through --config."""
    write_json(outdir / f"{command}.config.json",
               {"command": command, **settings, "outdir": str(outdir)})


def _ode_settings(cfg: dict, args, sampled: bool = True) -> tuple[ModelParams, dict]:
    """The model and the settings of mf-sim and mf-hetero, or of cycle, which
    reads the solve itself and so has no sample spacing (`sampled` false)."""
    p = ModelParams.from_dict(_params(cfg, args))
    spacing = {"sample_dt": None} if sampled else {}
    s = _resolve(cfg, args, horizon=200.0, rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL, **spacing)
    return p, {"params": p.to_dict(), "initial": _initial(cfg, args), **s}


def _abm_settings(cfg: dict, args) -> tuple[abm_mod.AbmConfig, dict]:
    """The run spec of abm-sim and compare, and the settings that rebuild it."""
    p = ModelParams.from_dict(_params(cfg, args))
    s = _resolve(cfg, args, horizon=30.0, sample_dt=0.1, seed=None, n=None, mode="aggregated")
    if s["seed"] is None:
        if getattr(args, "strict", False):
            raise ConfigError("--seed is mandatory in strict mode")
        s["seed"] = 0
    block = _block(cfg, "abm")
    graph = block.get("graph")
    if (graph is None) == (s["n"] is None):
        raise ConfigError("abm needs either --n (complete graph) or an abm.graph block")
    settings = {"params": p.to_dict(), "horizon": s["horizon"], "sample_dt": s["sample_dt"],
                "seed": s["seed"]}
    spec = {**settings, **{k: block[k] for k in ABM_SPEC_KEYS if k in block},
            "graph": {"type": "complete", "n": s["n"]} if graph is None else graph,
            "infection_mode": s["mode"]}
    if "behaviours0" in block or "healths0" in block:
        if args.x0 is not None or args.y0 is not None or "initial" in cfg:
            raise ConfigError("give either abm.behaviours0 and abm.healths0 or an initial "
                              "state (--x0/--y0 or the initial block), not both")
    else:
        settings["initial"] = _initial(cfg, args)
        spec["x0"], spec["y0"] = settings["initial"]["x"], settings["initial"]["y"]
    acfg = abm_mod.AbmConfig.from_dict(spec)
    return acfg, {**settings, "abm": acfg.to_dict()}


# ---------------------------------------------------------------------------
# commands


def _cmd_regime(cfg: dict, args) -> int:
    p = ModelParams.from_dict(_params(cfg, args))
    outdir = _outdir(cfg, args)
    report = classify_regime(p)
    out = outdir / "regime.json"
    write_json(out, report.to_dict())
    _write_sidecar(outdir, "regime", {"params": p.to_dict()})
    print(f"regime: {report.label.value}")
    for c in report.conditions:
        mark = "ok " if c.satisfied else "NOT"
        print(f"  [{mark}] {c.name}: {c.lhs:.10g} {c.op} {c.rhs:.10g}  ({c.source})")
    print(f"wrote {out}")
    return 0


def _cmd_equilibria(cfg: dict, args) -> int:
    p = ModelParams.from_dict(_params(cfg, args))
    outdir = _outdir(cfg, args)
    reports = find_equilibria(p)
    out = outdir / "equilibria.json"
    write_json(out, {"params": p.to_dict(), "equilibria": [r.to_dict() for r in reports]})
    _write_sidecar(outdir, "equilibria", {"params": p.to_dict()})
    for r in reports:
        if r.exists:
            print(
                f"{r.kind.value}: ({r.point[0]:.6f}, {r.point[1]:.6f}) {r.stability.value}"
            )
        else:
            print(f"{r.kind.value}: does not exist")
    print(f"wrote {out}")
    return 0


def _cmd_mf_sim(cfg: dict, args) -> int:
    p, s = _ode_settings(cfg, args)
    outdir = _outdir(cfg, args)
    traj = integrate_planar(MacroState(**s["initial"]), p, s["horizon"], s["rtol"], s["atol"],
                            s["sample_dt"])
    out = outdir / "mf_sim.csv"
    traj.to_csv(out)
    _write_sidecar(outdir, "mf-sim", s)
    xf, yf = traj.final_state().as_tuple()
    print(f"final state: ({xf:.6f}, {yf:.6f}); wrote {out}")
    return 0


def _cmd_mf_hetero(cfg: dict, args) -> int:
    p, s = _ode_settings(cfg, args)
    block = _block(cfg, "hetero")
    if "graph" not in block:
        raise ConfigError("mf-hetero needs a 'hetero' config block with a 'graph'")
    graph = InfluenceGraph.from_dict(block["graph"])
    activities = abm_mod.activities_from(block.get("activities", "uniform"), graph.n, p.alpha)

    def start(v):  # hetero.p_x0 or p_y0: one probability for every node, or one per node
        value = block.get(f"p_{v}0", s["initial"][v])
        return np.full(graph.n, value, float) if np.isscalar(value) else np.asarray(value, float)

    try:
        ps0 = ProbabilityState(start("x"), start("y"))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"hetero.p_x0, p_y0: {exc}") from exc
    s["hetero"] = {**block, "graph": graph.to_dict()}
    outdir = _outdir(cfg, args)
    hetero, macro = integrate_hetero(ps0, graph, activities, p, s["horizon"], s["rtol"],
                                     s["atol"], s["sample_dt"])
    nodes_out = outdir / "hetero_nodes.csv"
    macro_out = outdir / "hetero_macro.csv"
    hetero.to_csv(nodes_out)
    macro.to_csv(macro_out)
    _write_sidecar(outdir, "mf-hetero", s)
    print(f"wrote {nodes_out} and {macro_out}")
    return 0


def _cmd_abm_sim(cfg: dict, args) -> int:
    acfg, settings = _abm_settings(cfg, args)
    outdir = _outdir(cfg, args)
    traj, log = abm_mod.simulate(acfg)
    traj_out = outdir / "abm_traj.csv"
    traj.to_csv(traj_out)
    written = [traj_out]
    if acfg.record_events:
        ev_out = outdir / "abm_events.csv"
        log.to_csv(ev_out)
        written.append(ev_out)
    _write_sidecar(outdir, "abm-sim", settings)
    xf, yf = traj.final_state().as_tuple()
    print(
        f"n={acfg.graph.n} seed={acfg.seed} events={len(log) if acfg.record_events else 'off'} "
        f"final=({xf:.4f}, {yf:.4f}); wrote {', '.join(map(str, written))}"
    )
    return 0


def _cmd_cycle(cfg: dict, args) -> int:
    p, s = _ode_settings(cfg, args, sampled=False)
    s["cycle"] = _resolve(cfg, args, tol_cycle=DEFAULT_TOL_CYCLE,
                          transient_frac=DEFAULT_TRANSIENT_FRAC,
                          min_crossings=DEFAULT_MIN_CROSSINGS)
    check_cycle_settings(**s["cycle"])  # before the solve and the output directory
    outdir = _outdir(cfg, args)
    traj = integrate_planar(MacroState(**s["initial"]), p, s["horizon"], s["rtol"], s["atol"])
    report = detect_cycle(traj, p, **s["cycle"])
    out = outdir / "cycle.json"
    write_json(out, report.to_dict())
    report.crossings_to_csv(outdir / "crossings.csv")
    _write_sidecar(outdir, "cycle", s)
    if report.verdict.value == "limit-cycle":
        print(f"verdict: limit-cycle, period {report.period:.6f}")
    elif report.point is not None:
        print(f"verdict: {report.verdict.value} at ({report.point[0]:.6f}, {report.point[1]:.6f})")
    else:
        print(f"verdict: {report.verdict.value}")
    print(f"wrote {out}")
    return 0


def _cmd_sweep(cfg: dict, args) -> int:
    block = _block(cfg, "sweep")
    if "grid" not in block:
        raise ConfigError("sweep needs a 'sweep' config block with a 'grid'")
    grid = _block(block, "grid")
    if not 1 <= len(grid) <= 2:
        raise ConfigError("sweep grid must vary one or two parameters")
    for name in grid:
        if name not in PARAM_KEYS:
            raise ConfigError(f"cannot sweep {name!r}; choose from {PARAM_KEYS}")
    base = _params(cfg, args)
    names = list(grid.keys())
    axes = []
    for name in names:
        spec = grid[name]
        missing = [k for k in AXIS_KEYS if not isinstance(spec, dict) or k not in spec]
        if missing:
            raise ConfigError(f"sweep axis {name!r} needs {', '.join(missing)}")
        _check_keys(f"sweep axis {name!r}", spec, AXIS_KEYS)
        lo, hi, steps = (config_value(f"sweep axis {name!r} {k}", spec[k], cast)
                         for k, cast in AXIS_KEYS.items())
        if steps < 1:
            raise ConfigError(f"sweep axis {name!r} needs steps >= 1")
        axes.append(np.linspace(lo, hi, steps))
    outdir = _outdir(cfg, args)
    # a point is valid when each of its values is, so one check per axis
    # value suffices; taking the last axis first, with every other axis at
    # its first value, raises for the first invalid point in row order
    first = {name: float(axis[0]) for name, axis in zip(names, axes)}
    for name, axis in reversed(list(zip(names, axes))):
        for value in axis.tolist():
            ModelParams.from_dict({**base, **first, name: value})
    fixed = ModelParams.from_dict({**base, **first}).to_dict()
    mesh = [a.ravel() for a in np.meshgrid(*axes, indexing="ij")]
    values = {**fixed, **dict(zip(names, mesh))}
    ledger = regime_ledger(*(values[k] for k in PARAM_KEYS))

    conds = [name for name, _, _ in REGIME_CONDITIONS]
    header = ",".join(
        names + ["label"] + [f"{c}_{col}" for c in conds for col in ("lhs", "rhs", "sat")]
    )
    # labels and flags formatted once per distinct value
    labels, label = np.unique(ledger.labels, return_inverse=True)
    flags = text("%d", (0, 1))
    ledger_columns = [col for lhs, rhs, sat in zip(ledger.lhs, ledger.rhs, ledger.satisfied)
                      for col in (lhs, rhs, flags[sat.astype(np.intp)])]
    out = outdir / "sweep.csv"
    write_csv(out, header, [*mesh, text("%s", labels)[label], *ledger_columns])
    _write_sidecar(outdir, "sweep", {"params": base, "sweep": block})
    print(f"wrote {out} ({mesh[0].size} rows)")
    return 0


def _cmd_compare(cfg: dict, args) -> int:
    acfg, settings = _abm_settings(cfg, args)
    settings["compare"] = _resolve(cfg, args, n_runs=20, n_jobs=1)
    abm_mod.check_ensemble_size(**settings["compare"])  # before the output directory
    outdir = _outdir(cfg, args)
    ens = abm_mod.ensemble(acfg, **settings["compare"])
    x0 = acfg.x0 if acfg.x0 is not None else float(acfg.behaviours0.mean())
    y0 = acfg.y0 if acfg.y0 is not None else float((acfg.healths0 == 1).mean())
    ode = integrate_planar(
        MacroState(x0, y0), acfg.params, acfg.horizon, sample_dt=acfg.sample_dt,
        bidirectional=acfg.bidirectional,
    )
    ode_out = outdir / "compare_ode.csv"
    abm_out = outdir / "compare_abm.csv"
    gap_out = outdir / "compare_gap.csv"
    ode.to_csv(ode_out)
    ens.to_csv(abm_out)
    gap_x = ens.x_mean - ode.xs
    gap_y = ens.y_mean - ode.ys
    write_csv(gap_out, "t,gap_x,gap_y", [text("%.12g", ens.times), gap_x, gap_y])
    _write_sidecar(outdir, "compare", settings)
    sup = float(np.maximum(np.abs(gap_x), np.abs(gap_y)).max())
    print(f"sup-norm gap over horizon: {sup:.5f}")
    print(f"wrote {ode_out}, {abm_out}, {gap_out}")
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_param_flags(sp):
    sp.add_argument("--alpha", type=float)
    sp.add_argument("--lambda", dest="lambda_", type=float)
    sp.add_argument("--mu", type=float)
    sp.add_argument("--c", type=float)
    sp.add_argument("--zeta", type=float)
    sp.add_argument("--config", help="JSON config file (flags override it)")
    sp.add_argument("--outdir", help=f"output directory (default ${OUTDIR_ENV} or .)")


def _add_initial_flags(sp):
    sp.add_argument("--x0", type=float,
                    help=f"initial adoption share (default {DEFAULT_INITIAL['x']})")
    sp.add_argument("--y0", type=float,
                    help=f"initial prevalence (default {DEFAULT_INITIAL['y']})")


def _add_horizon_flags(sp, sampled: bool = True):
    sp.add_argument("--horizon", type=float)
    if sampled:
        sp.add_argument("--sample-dt", dest="sample_dt", type=float)


def _add_tolerance_flags(sp):
    sp.add_argument("--rtol", type=float)
    sp.add_argument("--atol", type=float)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epigame",
        description="Coupled behaviour-epidemic model: simulation and analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("regime", help="classify the parameter regime")
    _add_param_flags(sp)
    sp.set_defaults(func=_cmd_regime)

    sp = sub.add_parser("equilibria", help="enumerate equilibria with stability")
    _add_param_flags(sp)
    sp.set_defaults(func=_cmd_equilibria)

    sp = sub.add_parser("mf-sim", help="integrate the planar mean-field system")
    _add_param_flags(sp)
    _add_initial_flags(sp)
    _add_horizon_flags(sp)
    _add_tolerance_flags(sp)
    sp.set_defaults(func=_cmd_mf_sim)

    sp = sub.add_parser("mf-hetero", help="integrate the per-node mean-field system")
    _add_param_flags(sp)
    _add_horizon_flags(sp)
    _add_tolerance_flags(sp)
    sp.set_defaults(func=_cmd_mf_hetero)

    sp = sub.add_parser("abm-sim", help="run one stochastic agent-based realization")
    _add_param_flags(sp)
    _add_initial_flags(sp)
    _add_horizon_flags(sp)
    sp.add_argument("--n", type=int, help="population size (complete influence graph)")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--mode", choices=("aggregated", "contact"))
    sp.add_argument("--strict", action="store_true", help="require an explicit --seed")
    sp.set_defaults(func=_cmd_abm_sim)

    sp = sub.add_parser("cycle", help="integrate then detect a limit cycle")
    _add_param_flags(sp)
    _add_initial_flags(sp)
    _add_horizon_flags(sp, sampled=False)
    _add_tolerance_flags(sp)
    sp.add_argument("--tol-cycle", dest="tol_cycle", type=float)
    sp.add_argument("--transient-frac", dest="transient_frac", type=float)
    sp.set_defaults(func=_cmd_cycle)

    sp = sub.add_parser("sweep", help="classify regimes over a parameter grid")
    _add_param_flags(sp)
    sp.set_defaults(func=_cmd_sweep)

    sp = sub.add_parser("compare", help="ABM ensemble vs planar mean-field")
    _add_param_flags(sp)
    _add_initial_flags(sp)
    _add_horizon_flags(sp)
    sp.add_argument("--n", type=int)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--mode", choices=("aggregated", "contact"))
    sp.add_argument("--n-runs", dest="n_runs", type=int)
    sp.set_defaults(func=_cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(_load_config(args.config), args)
    except (AssumptionError, ConfigError, InvalidParameterError, GraphError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
