"""Command-line front end.

Subcommands: regime, equilibria, mf-sim, mf-hetero, abm-sim, cycle, sweep,
compare. Every command accepts an optional JSON config (``--config``); flags
override config values, and the effective merged configuration is written
next to each artifact as ``<command>.config.json`` so any run can be
reproduced from its sidecar alone.

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
from .artifacts import columns, write_csv, write_json
from .core import (
    AssumptionError,
    ConfigError,
    InvalidParameterError,
    MacroState,
    ModelParams,
    NumericalError,
)
from .cycles import (
    DEFAULT_MIN_CROSSINGS,
    DEFAULT_TOL_CYCLE,
    DEFAULT_TRANSIENT_FRAC,
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

PARAM_KEYS = ("alpha", "lambda", "mu", "c", "zeta")

# the initial state (x0, y0) of mf-sim, cycle, abm-sim and compare when
# neither a flag nor the config's "initial" block gives one
DEFAULT_INITIAL = {"x": 0.5, "y": 0.1}


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed config JSON in {path}: {exc}") from exc


def _param_dict(cfg: dict, args) -> dict:
    """The config's params block with the parameter flags applied on top."""
    d = dict(cfg.get("params", {}))
    for key in PARAM_KEYS:
        v = getattr(args, "lambda_" if key == "lambda" else key, None)
        if v is not None:
            d[key] = v
    return d


def _params_from(d: dict) -> ModelParams:
    missing = [k for k in PARAM_KEYS if k not in d]
    if missing:
        raise ConfigError(f"missing model parameters: {', '.join(missing)}")
    return ModelParams.from_dict(d)


def _merge_params(cfg: dict, args) -> ModelParams:
    return _params_from(_param_dict(cfg, args))


def _outdir(cfg: dict, args) -> Path:
    out = getattr(args, "outdir", None) or cfg.get("outdir") or os.environ.get(OUTDIR_ENV, ".")
    path = Path(out)
    try:
        path.mkdir(parents=True, exist_ok=True)
        probe = path / ".write-probe"
        probe.touch()
        probe.unlink()
    except OSError as exc:
        raise ConfigError(f"output directory not writable: {path} ({exc})") from exc
    return path


def _write_sidecar(outdir: Path, command: str, **effective) -> None:
    """The effective configuration, which reruns the command through --config."""
    write_json(outdir / f"{command}.config.json",
               {"command": command, **effective, "outdir": str(outdir)})


def _scalar(cfg: dict, args, name: str, default, cast=float):
    v = getattr(args, name.replace("-", "_"), None)
    if v is None:
        v = cfg.get(name, default)
    return cast(v) if v is not None else None


# ---------------------------------------------------------------------------
# commands


def _cmd_regime(args) -> int:
    cfg = _load_config(args.config)
    p = _merge_params(cfg, args)
    outdir = _outdir(cfg, args)
    report = classify_regime(p)
    out = outdir / "regime.json"
    write_json(out, report.to_dict())
    _write_sidecar(outdir, "regime", params=p.to_dict())
    print(f"regime: {report.label.value}")
    for c in report.conditions:
        mark = "ok " if c.satisfied else "NOT"
        print(f"  [{mark}] {c.name}: {c.lhs:.10g} {c.op} {c.rhs:.10g}  ({c.source})")
    print(f"wrote {out}")
    return 0


def _cmd_equilibria(args) -> int:
    cfg = _load_config(args.config)
    p = _merge_params(cfg, args)
    outdir = _outdir(cfg, args)
    reports = find_equilibria(p)
    out = outdir / "equilibria.json"
    write_json(out, {"params": p.to_dict(), "equilibria": [r.to_dict() for r in reports]})
    _write_sidecar(outdir, "equilibria", params=p.to_dict())
    for r in reports:
        if r.exists:
            print(
                f"{r.kind.value}: ({r.point[0]:.6f}, {r.point[1]:.6f}) {r.stability.value}"
            )
        else:
            print(f"{r.kind.value}: does not exist")
    print(f"wrote {out}")
    return 0


def _initial_state(cfg: dict, args) -> tuple[float, float]:
    initial = {**DEFAULT_INITIAL, **cfg.get("initial", {})}
    return _scalar(cfg, args, "x0", initial["x"]), _scalar(cfg, args, "y0", initial["y"])


def _integration_block(cfg: dict, args):
    x0, y0 = _initial_state(cfg, args)
    horizon = _scalar(cfg, args, "horizon", cfg.get("horizon", 200.0))
    if horizon is None or horizon <= 0:
        raise ConfigError("horizon must be > 0")
    rtol = _scalar(cfg, args, "rtol", cfg.get("rtol", DEFAULT_RTOL))
    atol = _scalar(cfg, args, "atol", cfg.get("atol", DEFAULT_ATOL))
    sample_dt = _scalar(cfg, args, "sample_dt", cfg.get("sample_dt"))
    return x0, y0, horizon, rtol, atol, sample_dt


def _cmd_mf_sim(args) -> int:
    cfg = _load_config(args.config)
    p = _merge_params(cfg, args)
    outdir = _outdir(cfg, args)
    x0, y0, horizon, rtol, atol, sample_dt = _integration_block(cfg, args)
    traj = integrate_planar(MacroState(x0, y0), p, horizon, rtol, atol, sample_dt)
    out = outdir / "mf_sim.csv"
    traj.to_csv(out)
    _write_sidecar(outdir, "mf-sim", params=p.to_dict(), initial={"x": x0, "y": y0},
                   horizon=horizon, rtol=rtol, atol=atol, sample_dt=sample_dt)
    xf, yf = traj.final_state().as_tuple()
    print(f"final state: ({xf:.6f}, {yf:.6f}); wrote {out}")
    return 0


def _hetero_block(cfg: dict, p: ModelParams):
    block = cfg.get("hetero")
    if not block:
        raise ConfigError("mf-hetero needs a 'hetero' config block (graph, initial vectors)")
    if "graph" not in block:
        raise ConfigError("the 'hetero' config block needs a 'graph'")
    graph = InfluenceGraph.from_dict(block["graph"])
    acts = block.get("activities", "uniform")
    if acts == "uniform":
        activities = np.full(graph.n, p.alpha)
    else:
        activities = np.asarray(acts, dtype=float)
    px0 = block.get("p_x0", 0.5)
    py0 = block.get("p_y0", 0.5)
    p_x = np.full(graph.n, float(px0)) if np.isscalar(px0) else np.asarray(px0, dtype=float)
    p_y = np.full(graph.n, float(py0)) if np.isscalar(py0) else np.asarray(py0, dtype=float)
    return graph, activities, ProbabilityState(p_x=p_x, p_y=p_y), block


def _cmd_mf_hetero(args) -> int:
    cfg = _load_config(args.config)
    p = _merge_params(cfg, args)
    outdir = _outdir(cfg, args)
    _, _, horizon, rtol, atol, sample_dt = _integration_block(cfg, args)
    graph, activities, ps0, block = _hetero_block(cfg, p)
    hetero, macro = integrate_hetero(ps0, graph, activities, p, horizon, rtol, atol, sample_dt)
    nodes_out = outdir / "hetero_nodes.csv"
    macro_out = outdir / "hetero_macro.csv"
    hetero.to_csv(nodes_out)
    macro.to_csv(macro_out)
    _write_sidecar(outdir, "mf-hetero", params=p.to_dict(),
                   hetero={**block, "graph": graph.to_dict()},
                   horizon=horizon, rtol=rtol, atol=atol, sample_dt=sample_dt)
    print(f"wrote {nodes_out} and {macro_out}")
    return 0


def _abm_config(cfg: dict, args, p: ModelParams) -> abm_mod.AbmConfig:
    block = dict(cfg.get("abm", {}))
    n = int(getattr(args, "n", None) or block.get("n", 0) or 0)
    graph_spec = block.get("graph")
    if graph_spec:
        graph = InfluenceGraph.from_dict(graph_spec)
    elif n >= 2:
        graph = InfluenceGraph.complete(n)
    else:
        raise ConfigError("abm needs either --n (complete graph) or an abm.graph block")
    acts = block.get("activities", "uniform")
    activities = (
        np.full(graph.n, p.alpha) if acts == "uniform" else np.asarray(acts, dtype=float)
    )
    seed = getattr(args, "seed", None)
    if seed is None:
        seed = cfg.get("seed", block.get("seed"))
    if getattr(args, "strict", False) and seed is None:
        raise ConfigError("--seed is mandatory in strict mode")
    if seed is None:
        seed = 0
    x0, y0 = _initial_state(cfg, args)
    kwargs = {}
    if "behaviours0" in block:
        kwargs["behaviours0"] = np.asarray(block["behaviours0"])
        kwargs["healths0"] = np.asarray(block["healths0"])
    else:
        kwargs["x0"], kwargs["y0"] = x0, y0
    mode = getattr(args, "mode", None) or block.get("infection_mode", "aggregated")
    return abm_mod.AbmConfig(
        params=p,
        graph=graph,
        activities=activities,
        horizon=_scalar(cfg, args, "horizon", cfg.get("horizon", 30.0)),
        sample_dt=_scalar(cfg, args, "sample_dt", cfg.get("sample_dt", 0.1)),
        seed=int(seed),
        infection_mode=mode,
        directionality=block.get("directionality", "bidirectional"),
        record_events=block.get("record_events"),
        **kwargs,
    )


def _abm_sidecar(acfg: abm_mod.AbmConfig) -> dict:
    """The keys `_abm_config` reads from the top level, then the full run spec."""
    top = {"params": acfg.params.to_dict(), "horizon": acfg.horizon,
           "sample_dt": acfg.sample_dt, "seed": acfg.seed}
    if acfg.x0 is not None:
        top["initial"] = {"x": acfg.x0, "y": acfg.y0}
    return {**top, "abm": acfg.to_dict()}


def _cmd_abm_sim(args) -> int:
    cfg = _load_config(args.config)
    p = _merge_params(cfg, args)
    outdir = _outdir(cfg, args)
    acfg = _abm_config(cfg, args, p)
    traj, log = abm_mod.simulate(acfg)
    traj_out = outdir / "abm_traj.csv"
    traj.to_csv(traj_out)
    written = [traj_out]
    if acfg.record_events:
        ev_out = outdir / "abm_events.csv"
        log.to_csv(ev_out)
        written.append(ev_out)
    _write_sidecar(outdir, "abm-sim", **_abm_sidecar(acfg))
    xf, yf = traj.final_state().as_tuple()
    print(
        f"n={acfg.graph.n} seed={acfg.seed} events={len(log) if acfg.record_events else 'off'} "
        f"final=({xf:.4f}, {yf:.4f}); wrote {', '.join(map(str, written))}"
    )
    return 0


def _cmd_cycle(args) -> int:
    cfg = _load_config(args.config)
    p = _merge_params(cfg, args)
    outdir = _outdir(cfg, args)
    x0, y0, horizon, rtol, atol, sample_dt = _integration_block(cfg, args)
    if sample_dt is None:
        sample_dt = horizon / 50000  # dense enough for stable period estimates
    block = cfg.get("cycle", {})
    tol_cycle = _scalar(cfg, args, "tol_cycle", block.get("tol_cycle", DEFAULT_TOL_CYCLE))
    transient = _scalar(cfg, args, "transient_frac",
                        block.get("transient_frac", DEFAULT_TRANSIENT_FRAC))
    min_cross = int(block.get("min_crossings", DEFAULT_MIN_CROSSINGS))
    traj = integrate_planar(MacroState(x0, y0), p, horizon, rtol, atol, sample_dt)
    report = detect_cycle(traj, p, tol_cycle=tol_cycle, transient_frac=transient,
                          min_crossings=min_cross)
    out = outdir / "cycle.json"
    write_json(out, report.to_dict())
    report.crossings_to_csv(outdir / "crossings.csv")
    _write_sidecar(outdir, "cycle", params=p.to_dict(), initial={"x": x0, "y": y0},
                   horizon=horizon, rtol=rtol, atol=atol, sample_dt=sample_dt,
                   cycle={"tol_cycle": tol_cycle, "transient_frac": transient,
                          "min_crossings": min_cross})
    if report.verdict.value == "limit-cycle":
        print(f"verdict: limit-cycle, period {report.period:.6f}")
    elif report.point is not None:
        print(f"verdict: {report.verdict.value} at ({report.point[0]:.6f}, {report.point[1]:.6f})")
    else:
        print(f"verdict: {report.verdict.value}")
    print(f"wrote {out}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    outdir = _outdir(cfg, args)
    block = cfg.get("sweep")
    if not block or "grid" not in block:
        raise ConfigError("sweep needs a 'sweep' config block with a 'grid'")
    grid = block["grid"]
    if not 1 <= len(grid) <= 2:
        raise ConfigError("sweep grid must vary one or two parameters")
    for name in grid:
        if name not in PARAM_KEYS:
            raise ConfigError(f"cannot sweep {name!r}; choose from {PARAM_KEYS}")
    base = _param_dict(cfg, args)
    names = list(grid.keys())
    axes = []
    for name in names:
        spec = grid[name]
        keys = ("min", "max", "steps")
        missing = [k for k in keys if not isinstance(spec, dict) or k not in spec]
        if missing:
            raise ConfigError(f"sweep axis {name!r} needs {', '.join(missing)}")
        steps = int(spec["steps"])
        if steps < 1:
            raise ConfigError(f"sweep axis {name!r} needs steps >= 1")
        axes.append(np.linspace(float(spec["min"]), float(spec["max"]), steps))
    # a point is valid when each of its values is, so one check per axis
    # value suffices; taking the last axis first, with every other axis at
    # its first value, raises for the first invalid point in row order
    first = {name: float(axis[0]) for name, axis in zip(names, axes)}
    for name, axis in reversed(list(zip(names, axes))):
        for value in axis.tolist():
            _params_from({**base, **first, name: value})
    fixed = _params_from({**base, **first}).to_dict()
    mesh = [a.ravel() for a in np.meshgrid(*axes, indexing="ij")]
    values = {**fixed, **dict(zip(names, mesh))}
    ledger = regime_ledger(*(values[k] for k in PARAM_KEYS))

    conds = [name for name, _, _ in REGIME_CONDITIONS]
    header = ",".join(
        names + ["label"] + [f"{c}_{col}" for c in conds for col in ("lhs", "rhs", "sat")]
    )
    row = ",".join(["%.17g"] * len(names) + ["%s"] + ["%.17g,%.17g,%d"] * len(conds)) + "\n"
    ledger_columns = [v for cond in zip(ledger.lhs, ledger.rhs, ledger.satisfied) for v in cond]
    out = outdir / "sweep.csv"
    write_csv(out, header, row, columns(*mesh, ledger.labels, *ledger_columns))
    _write_sidecar(outdir, "sweep", params=base, sweep=block)
    print(f"wrote {out} ({mesh[0].size} rows)")
    return 0


def _cmd_compare(args) -> int:
    cfg = _load_config(args.config)
    p = _merge_params(cfg, args)
    outdir = _outdir(cfg, args)
    acfg = _abm_config(cfg, args, p)
    block = cfg.get("compare", {})
    n_runs = int(getattr(args, "n_runs", None) or block.get("n_runs", 20))
    n_jobs = int(block.get("n_jobs", 1))
    ens = abm_mod.ensemble(acfg, n_runs, n_jobs=n_jobs)
    x0 = acfg.x0 if acfg.x0 is not None else float(acfg.behaviours0.mean())
    y0 = acfg.y0 if acfg.y0 is not None else float((acfg.healths0 == 1).mean())
    ode = integrate_planar(
        MacroState(x0, y0), p, acfg.horizon, sample_dt=acfg.sample_dt,
        bidirectional=acfg.bidirectional,
    )
    ode_out = outdir / "compare_ode.csv"
    abm_out = outdir / "compare_abm.csv"
    gap_out = outdir / "compare_gap.csv"
    ode.to_csv(ode_out)
    ens.to_csv(abm_out)
    gap_x = ens.x_mean - ode.xs
    gap_y = ens.y_mean - ode.ys
    write_csv(gap_out, "t,gap_x,gap_y", "%.12g,%.17g,%.17g\n", columns(ens.times, gap_x, gap_y))
    _write_sidecar(outdir, "compare", **_abm_sidecar(acfg),
                   compare={"n_runs": n_runs, "n_jobs": n_jobs})
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


def _add_integration_flags(sp):
    sp.add_argument("--horizon", type=float)
    sp.add_argument("--rtol", type=float)
    sp.add_argument("--atol", type=float)
    sp.add_argument("--sample-dt", dest="sample_dt", type=float)


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
    _add_integration_flags(sp)
    sp.set_defaults(func=_cmd_mf_sim)

    sp = sub.add_parser("mf-hetero", help="integrate the per-node mean-field system")
    _add_param_flags(sp)
    _add_integration_flags(sp)
    sp.set_defaults(func=_cmd_mf_hetero)

    sp = sub.add_parser("abm-sim", help="run one stochastic agent-based realization")
    _add_param_flags(sp)
    _add_initial_flags(sp)
    _add_integration_flags(sp)
    sp.add_argument("--n", type=int, help="population size (complete influence graph)")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--mode", choices=("aggregated", "contact"))
    sp.add_argument("--strict", action="store_true", help="require an explicit --seed")
    sp.set_defaults(func=_cmd_abm_sim)

    sp = sub.add_parser("cycle", help="integrate then detect a limit cycle")
    _add_param_flags(sp)
    _add_initial_flags(sp)
    _add_integration_flags(sp)
    sp.add_argument("--tol-cycle", dest="tol_cycle", type=float)
    sp.add_argument("--transient-frac", dest="transient_frac", type=float)
    sp.set_defaults(func=_cmd_cycle)

    sp = sub.add_parser("sweep", help="classify regimes over a parameter grid")
    _add_param_flags(sp)
    sp.set_defaults(func=_cmd_sweep)

    sp = sub.add_parser("compare", help="ABM ensemble vs planar mean-field")
    _add_param_flags(sp)
    _add_initial_flags(sp)
    _add_integration_flags(sp)
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
        return args.func(args)
    except (AssumptionError, ConfigError, InvalidParameterError, GraphError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
