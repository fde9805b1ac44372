"""Command-line front end.

Subcommands: regime, equilibria, mf-sim, mf-hetero, abm-sim, cycle, sweep,
compare. Every command accepts an optional JSON config (``--config``).

One table, ``COMMANDS``, declares each command: its handler, its help line
and the settings it reads, each with its default. ``SETTINGS`` says where
each setting lives in a config (the top level or one block) and how it is
read, and ``build_parser`` gives each setting one flag (``sample_dt`` is
``--sample-dt``) of that type. Every command also takes the five model
parameters (the ``params`` block), ``--config`` and ``--outdir``.

Each setting is resolved by one rule: its flag if given, else its entry in
the config, else the command's default. A value that cannot be read is a
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
from dataclasses import replace
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
    activities_from,
    config_value,
    config_vector,
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
    HeteroSolve,
    ProbabilityState,
    integrate_hetero,  # noqa: F401 (mf-hetero streams instead; perfbench traces this name)
    integrate_planar,
)
from .network import GraphError, InfluenceGraph

OUTDIR_ENV = "EPIGAME_OUTDIR"

# the initial state (x0, y0) of every integrating command when neither a
# flag nor the config's "initial" block gives one
DEFAULT_INITIAL = {"x": 0.5, "y": 0.1}

# each setting by the name of its flag: (config block, None for the top
# level; key in it; how it is read)
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

# the abm block's keys that a sidecar writes but the run resolves elsewhere,
# each with where: a block that holds one must agree with the run
ABM_ECHOED_KEYS = {"params": "params", "horizon": "horizon", "sample_dt": "sample_dt",
                   "seed": "seed", "x0": "initial.x", "y0": "initial.y",
                   "rng": "the simulator's rng"}

# the abm block's keys that go into the run spec as they are: all the rest,
# except the graph and the infection mode, which are settings of their own
ABM_SPEC_KEYS = tuple(k for k in abm_mod.AbmConfig.SPEC_KEYS
                      if k not in ABM_ECHOED_KEYS and k not in ("graph", "infection_mode"))

# the keys each config block may hold: those the commands read and those
# their sidecars write. Any other key in a block is a configuration error;
# top-level keys are left alone, since one config may serve several commands.
BLOCK_KEYS = {
    "params": PARAM_KEYS,
    "abm": ("n", *abm_mod.AbmConfig.SPEC_KEYS),
    "hetero": ("graph", "activities", "p_x0", "p_y0"),
    "sweep": ("grid",),
    **{name: tuple(key for block, key, _ in SETTINGS.values() if block == name)
       for name in ("initial", "cycle", "compare")},
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


def _where(name: str) -> str:
    """Where a config holds the setting `name`: its key, after its block."""
    block, key, _ = SETTINGS[name]
    return f"{block}.{key}" if block else key


def _resolve(cfg: dict, args, defaults: dict) -> dict:
    """Each setting named in `defaults`: its flag if given, else its config
    entry (see SETTINGS), else its default there, nested as a config holds
    it, so the settings of one block come back as one dict. A null stays null
    only where the default is null too; any other value is read by the
    setting's cast (`config_value`), and a setting in POSITIVE must be > 0."""
    resolved = {}
    for name, default in defaults.items():
        block, key, cast = SETTINGS[name]
        value = getattr(args, name)
        if value is None:
            value = (_block(cfg, block) if block else cfg).get(key, default)
        if value is not None or default is not None:
            read = config_value(_where(name), value, cast)
            if name in POSITIVE and read <= 0:
                raise ConfigError(f"{_where(name)} must be > 0, not {value!r}")
            value = read
        (resolved.setdefault(block, {}) if block else resolved)[key] = value
    return resolved


def _param_dest(key: str) -> str:
    """The attribute of the parsed arguments that holds a parameter's flag."""
    return "lambda_" if key == "lambda" else key  # lambda is a Python keyword


def _params(cfg: dict, args) -> dict:
    """The config's params block with each given parameter flag in place of its value."""
    d = dict(_block(cfg, "params"))
    for key in PARAM_KEYS:
        v = getattr(args, _param_dest(key))
        if v is not None:
            d[key] = v
    return d


def _model(cfg: dict, args, s: dict) -> tuple[ModelParams, dict]:
    """The model, and the resolved settings `s` as a sidecar lists them,
    after the model's parameters. An initial state among them must lie in
    [0, 1]."""
    p = ModelParams.from_dict(_params(cfg, args))
    if "initial" in s:
        MacroState(**s["initial"])  # raises for a value outside [0, 1]
    return p, {"params": p.to_dict(), **s}


def _outdir(cfg: dict, args) -> Path:
    path = Path(_resolve(cfg, args, {"outdir": os.environ.get(OUTDIR_ENV, ".")})["outdir"])
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


def _abm_settings(cfg: dict, args, s: dict) -> tuple[abm_mod.AbmConfig, dict]:
    """The run spec of abm-sim and compare, and the settings that rebuild it.
    An ABM_ECHOED_KEYS entry of the abm block that differs from the run's
    value is a ConfigError naming both."""
    p, s = _model(cfg, args, s)
    if s["seed"] is None:
        if getattr(args, "strict", False):
            raise ConfigError("--seed is mandatory in strict mode")
        s["seed"] = 0
    block = _block(cfg, "abm")
    graph, n = block.get("graph"), s["abm"]["n"]
    if (graph is None) == (n is None):
        raise ConfigError("abm needs either --n (complete graph) or an abm.graph block")
    spec = {**{k: s[k] for k in ("params", "horizon", "sample_dt", "seed")},
            **{k: block[k] for k in ABM_SPEC_KEYS if k in block},
            "graph": {"type": "complete", "n": n} if graph is None else graph,
            "infection_mode": s["abm"]["infection_mode"]}
    if "behaviours0" in block or "healths0" in block:
        if args.x0 is not None or args.y0 is not None or "initial" in cfg:
            raise ConfigError("give either abm.behaviours0 and abm.healths0 or an initial "
                              "state (--x0/--y0 or the initial block), not both")
        del s["initial"]
    else:
        spec["x0"], spec["y0"] = s["initial"]["x"], s["initial"]["y"]
    acfg = abm_mod.AbmConfig.from_dict(spec)
    spec = s["abm"] = acfg.to_dict()
    clashes = [f"abm.{key} is {block[key]!r}, but the run resolved {where} to {spec.get(key)!r}"
               for key, where in ABM_ECHOED_KEYS.items()
               if key in block and block[key] != spec.get(key)]
    if clashes:
        raise ConfigError("; ".join(clashes))
    return acfg, s


# ---------------------------------------------------------------------------
# commands


def _cmd_regime(cfg: dict, args, s: dict) -> int:
    p, s = _model(cfg, args, s)
    outdir = _outdir(cfg, args)
    report = classify_regime(p)
    out = outdir / "regime.json"
    write_json(out, report.to_dict())
    _write_sidecar(outdir, "regime", s)
    print(f"regime: {report.label.value}")
    for c in report.conditions:
        mark = "ok " if c.satisfied else "NOT"
        print(f"  [{mark}] {c.name}: {c.lhs:.10g} {c.op} {c.rhs:.10g}  ({c.source})")
    print(f"wrote {out}")
    return 0


def _cmd_equilibria(cfg: dict, args, s: dict) -> int:
    p, s = _model(cfg, args, s)
    reports = find_equilibria(p)  # raises outside the payoff ordering
    outdir = _outdir(cfg, args)
    out = outdir / "equilibria.json"
    write_json(out, {"params": p.to_dict(), "equilibria": [r.to_dict() for r in reports]})
    _write_sidecar(outdir, "equilibria", s)
    for r in reports:
        if r.exists:
            print(
                f"{r.kind.value}: ({r.point[0]:.6f}, {r.point[1]:.6f}) {r.stability.value}"
            )
        else:
            print(f"{r.kind.value}: does not exist")
    print(f"wrote {out}")
    return 0


def _cmd_mf_sim(cfg: dict, args, s: dict) -> int:
    p, s = _model(cfg, args, s)
    outdir = _outdir(cfg, args)
    traj = integrate_planar(MacroState(**s["initial"]), p, s["horizon"], s["rtol"], s["atol"],
                            s["sample_dt"])
    out = outdir / "mf_sim.csv"
    traj.to_csv(out)
    _write_sidecar(outdir, "mf-sim", s)
    xf, yf = traj.final_state().as_tuple()
    print(f"final state: ({xf:.6f}, {yf:.6f}); wrote {out}")
    return 0


def _cmd_mf_hetero(cfg: dict, args, s: dict) -> int:
    p, s = _model(cfg, args, s)
    block = _block(cfg, "hetero")
    if "graph" not in block:
        raise ConfigError("mf-hetero needs a 'hetero' config block with a 'graph'")
    graph = InfluenceGraph.from_dict(block["graph"])
    activities = activities_from(block.get("activities", "uniform"), graph.n, p.alpha)

    def start(v):  # hetero.p_x0 or p_y0: one probability for every node, or one per node
        name, value = f"hetero.p_{v}0", block.get(f"p_{v}0", s["initial"][v])
        if isinstance(value, list):
            return config_vector(name, value)
        return np.full(graph.n, config_value(name, value, float))

    try:
        ps0 = ProbabilityState(start("x"), start("y"))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"hetero.p_x0, p_y0: {exc}") from exc
    s["hetero"] = {**block, "graph": graph.to_dict()}
    solve = HeteroSolve(ps0, graph, activities, p, s["horizon"], s["rtol"], s["atol"],
                        s["sample_dt"])  # checks the inputs, solves nothing yet
    outdir = _outdir(cfg, args)
    nodes_out = outdir / "hetero_nodes.csv"
    macro_out = outdir / "hetero_macro.csv"
    # the per-node rows go to disk as the solver passes their times, so no
    # full per-node array is held; a failed solve leaves neither file
    macro = solve.to_csv(nodes_out)
    macro.to_csv(macro_out)
    _write_sidecar(outdir, "mf-hetero", s)
    print(f"wrote {nodes_out} and {macro_out}")
    return 0


def _cmd_abm_sim(cfg: dict, args, s: dict) -> int:
    acfg, s = _abm_settings(cfg, args, s)
    outdir = _outdir(cfg, args)
    traj, log = abm_mod.simulate(acfg)
    traj_out = outdir / "abm_traj.csv"
    traj.to_csv(traj_out)
    written = [traj_out]
    if acfg.record_events:
        ev_out = outdir / "abm_events.csv"
        log.to_csv(ev_out)
        written.append(ev_out)
    _write_sidecar(outdir, "abm-sim", s)
    xf, yf = traj.final_state().as_tuple()
    print(
        f"n={acfg.graph.n} seed={acfg.seed} events={len(log) if acfg.record_events else 'off'} "
        f"final=({xf:.4f}, {yf:.4f}); wrote {', '.join(map(str, written))}"
    )
    return 0


def _cmd_cycle(cfg: dict, args, s: dict) -> int:
    p, s = _model(cfg, args, s)
    check_cycle_settings(**s["cycle"])  # before the solve and the output directory
    outdir = _outdir(cfg, args)
    traj = integrate_planar(MacroState(**s["initial"]), p, s["horizon"], s["rtol"], s["atol"])
    report = detect_cycle(traj, **s["cycle"])
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


def _cmd_sweep(cfg: dict, args, s: dict) -> int:
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
    # a point is valid when each of its values is, so one check per axis
    # value suffices; taking the last axis first, with every other axis at
    # its first value, raises for the first invalid point in row order
    first = {name: float(axis[0]) for name, axis in zip(names, axes)}
    for name, axis in reversed(list(zip(names, axes))):
        for value in axis.tolist():
            ModelParams.from_dict({**base, **first, name: value})
    outdir = _outdir(cfg, args)  # only once every point is valid
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


def _cmd_compare(cfg: dict, args, s: dict) -> int:
    acfg, s = _abm_settings(cfg, args, s)
    abm_mod.check_ensemble_size(**s["compare"])  # before the output directory
    outdir = _outdir(cfg, args)
    ens = abm_mod.ensemble(acfg, **s["compare"])
    x0 = acfg.x0 if acfg.x0 is not None else float(acfg.behaviours0.mean())
    y0 = acfg.y0 if acfg.y0 is not None else float((acfg.healths0 == 1).mean())
    # k = alpha*lam when only the activator infects: the planar field's
    # 2*alpha*lam at alpha/2, to the bit
    p = acfg.params if acfg.bidirectional else replace(acfg.params, alpha=acfg.params.alpha / 2)
    ode = integrate_planar(MacroState(x0, y0), p, acfg.horizon, sample_dt=acfg.sample_dt)
    ode_out = outdir / "compare_ode.csv"
    abm_out = outdir / "compare_abm.csv"
    gap_out = outdir / "compare_gap.csv"
    ode.to_csv(ode_out)
    ens.to_csv(abm_out)
    gap_x = ens.x_mean - ode.xs
    gap_y = ens.y_mean - ode.ys
    write_csv(gap_out, "t,gap_x,gap_y", [text("%.12g", ens.times), gap_x, gap_y])
    _write_sidecar(outdir, "compare", s)
    sup = float(np.maximum(np.abs(gap_x), np.abs(gap_y)).max())
    print(f"sup-norm gap over horizon: {sup:.5f}")
    print(f"wrote {ode_out}, {abm_out}, {gap_out}")
    return 0


# ---------------------------------------------------------------------------
# the command table and the parser built from it

# the settings of the commands that integrate the mean-field ODE, and of
# those that run the agent-based model
_ODE = {"x0": DEFAULT_INITIAL["x"], "y0": DEFAULT_INITIAL["y"], "horizon": 200.0,
        "rtol": DEFAULT_RTOL, "atol": DEFAULT_ATOL}
_AGENTS = {"horizon": 30.0, "sample_dt": 0.1, "seed": None, "x0": DEFAULT_INITIAL["x"],
           "y0": DEFAULT_INITIAL["y"], "n": None, "mode": "aggregated"}

# each command: its handler, its help line and the SETTINGS it reads, each
# with the default it takes when neither its flag nor the config gives it.
# The order of the settings is the order of the sidecar's keys. A null
# sample_dt leaves the spacing to the solver; cycle has none, since it reads
# the solve itself.
COMMANDS = {
    "regime": (_cmd_regime, "classify the parameter regime", {}),
    "equilibria": (_cmd_equilibria, "enumerate equilibria with stability", {}),
    "mf-sim": (_cmd_mf_sim, "integrate the planar mean-field system",
               {**_ODE, "sample_dt": None}),
    "mf-hetero": (_cmd_mf_hetero, "integrate the per-node mean-field system",
                  {**_ODE, "sample_dt": None}),
    "abm-sim": (_cmd_abm_sim, "run one stochastic agent-based realization", _AGENTS),
    "cycle": (_cmd_cycle, "integrate then detect a limit cycle",
              {**_ODE, "tol_cycle": DEFAULT_TOL_CYCLE, "transient_frac": DEFAULT_TRANSIENT_FRAC,
               "min_crossings": DEFAULT_MIN_CROSSINGS}),
    "sweep": (_cmd_sweep, "classify regimes over a parameter grid", {}),
    "compare": (_cmd_compare, "ABM ensemble vs planar mean-field",
                {**_AGENTS, "n_runs": 20, "n_jobs": 1}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epigame",
        description="Coupled behaviour-epidemic model: simulation and analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, summary, defaults) in COMMANDS.items():
        sp = sub.add_parser(command, help=summary)
        for key in PARAM_KEYS:
            sp.add_argument(f"--{key}", dest=_param_dest(key), type=float,
                            help=f"config entry params.{key}")
        sp.add_argument("--config", help="JSON config file (flags override it)")
        for name, default in {"outdir": f"${OUTDIR_ENV}, else .", **defaults}.items():
            shown = "" if default is None else f"; default {default}"
            sp.add_argument(f"--{name.replace('_', '-')}", type=SETTINGS[name][2],
                            help=f"config entry {_where(name)}{shown}")
        if command == "abm-sim":
            sp.add_argument("--strict", action="store_true", help="require an explicit --seed")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    run, _, defaults = COMMANDS[args.command]
    try:
        cfg = _load_config(args.config)
        return run(cfg, args, _resolve(cfg, args, defaults))
    except (AssumptionError, ConfigError, InvalidParameterError, GraphError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
