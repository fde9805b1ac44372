"""The array-valued regime ledger against the per-point scalar classifier it
replaced: `sweep.csv` and `regime.json` must stay byte-identical.

The reference below is the scalar ladder as it stood before the ledger:
math-module threshold formulas, one condition list per point, and the
early-return decision ladder.
"""

import json
import math
import warnings

import numpy as np
import pytest

from epigame import ModelParams, find_equilibria, thresholds
from epigame.cli import main
from epigame.equilibria import regime_ledger

# ---------------------------------------------------------------------------
# reference: the scalar classifier, one point at a time

_MARGIN_RTOL = 1e-12


def ref_near(lhs, rhs):
    if math.isinf(lhs) or math.isinf(rhs):
        return False
    return abs(lhs - rhs) <= _MARGIN_RTOL * max(1.0, abs(lhs), abs(rhs))


def ref_satisfied(lhs, op, rhs):
    return {">": lhs > rhs, ">=": lhs >= rhs, "<": lhs < rhs, "<=": lhs <= rhs}[op]


def ref_endemic_zeta_threshold(p):
    k = 2.0 * p.alpha * p.lam
    if k <= p.mu:
        return math.inf
    return k * (1.0 + p.c) / (k - p.mu)


def ref_interior_focus_zeta(p):
    al = p.alpha * p.lam
    arg = p.mu / al * (p.c - 1.0 + 25.0 * p.mu / (16.0 * al))
    if arg < 0.0:
        return -math.inf
    return p.c - 1.0 + 25.0 * p.mu / (8.0 * al) + 2.5 * math.sqrt(arg)


def ref_interior_band_zetas(p):
    al = p.alpha * p.lam
    k = 2.0 * al
    if k <= p.mu:
        return (-math.inf, math.inf)
    s = math.sqrt((al - 1.0) ** 2 + 2.0 * p.mu)
    pref = al / (k - p.mu)
    lo = pref * ((p.c + 1.0) * (1.0 - s) + al * (p.c - 3.0) + 2.0 * p.mu)
    hi = pref * ((p.c + 1.0) * (1.0 + s) + al * (p.c - 3.0) + 2.0 * p.mu)
    return (lo, hi)


def ref_cost_window(p):
    al = p.alpha * p.lam
    return (4.0 * al / p.mu - 3.0, 32.0 * al / (5.0 * p.mu) - 3.0)


def ref_conditions(p):
    """(name, lhs, rhs, op, source) of the nine regime conditions."""
    thr = ref_endemic_zeta_threshold(p)
    c_lo, c_hi = ref_cost_window(p)
    band_lo, band_hi = ref_interior_band_zetas(p)
    return [
        ("cost-exceeds-one", p.c, 1.0, ">", "payoff-ordering"),
        ("risk-gain-exceeds-cost-plus-one", p.zeta, p.c + 1.0, ">", "payoff-ordering"),
        ("above-epidemic-threshold", p.lam, p.mu / (2.0 * p.alpha), ">", "epidemic-threshold"),
        ("cost-window-lower", p.c, c_lo, ">=", "regime-window"),
        ("cost-window-upper", p.c, c_hi, "<", "regime-window"),
        ("zeta-above-endemic-threshold", p.zeta, thr, ">", "endemic-switch"),
        ("zeta-above-spiral-bound", p.zeta, ref_interior_focus_zeta(p), ">",
         "interior-stability"),
        ("zeta-above-band-lower", p.zeta, band_lo, ">", "interior-stability"),
        ("zeta-below-band-upper", p.zeta, band_hi, "<", "interior-stability"),
    ]


def ref_label(p, conds):
    sat = {name: ref_satisfied(lhs, op, rhs) for name, lhs, rhs, op, _ in conds}
    near = {name: ref_near(lhs, rhs) for name, lhs, rhs, _, _ in conds}
    if not p.payoff_assumption_holds:
        return "invalid-assumptions"
    if near["above-epidemic-threshold"] or not sat["above-epidemic-threshold"]:
        return "global-dfe"
    if near["cost-window-upper"]:
        return "marginal"
    if not (sat["cost-window-lower"] or near["cost-window-lower"]) or not sat["cost-window-upper"]:
        return "local-only"
    if near["zeta-above-endemic-threshold"]:
        return "marginal"
    if not sat["zeta-above-endemic-threshold"]:
        return "protection-free-endemic"
    spiral, lo, hi = "zeta-above-spiral-bound", "zeta-above-band-lower", "zeta-below-band-upper"
    if near[spiral] or near[hi] or near[lo]:
        return "marginal"
    if sat[spiral] and sat[lo] and sat[hi]:
        return "interior-endemic"
    if sat[spiral] and not sat[hi]:
        return "limit-cycle"
    return "local-only"


def ref_sweep_csv(base, grid):
    names = list(grid)
    axes = [np.linspace(s["min"], s["max"], s["steps"]) for s in grid.values()]
    points = [(a,) for a in axes[0]] if len(axes) == 1 else [
        (a, b) for a in axes[0] for b in axes[1]]
    lines = []
    for values in points:
        d = {**base, **dict(zip(names, map(float, values)))}
        p = ModelParams(d["alpha"], d["lambda"], d["mu"], d["c"], d["zeta"])
        conds = ref_conditions(p)
        if not lines:
            cols = [f"{name}_{col}" for name, *_ in conds for col in ("lhs", "rhs", "sat")]
            lines.append(",".join(names + ["label"] + cols))
        row = [f"{v:.17g}" for v in values] + [ref_label(p, conds)]
        for _, lhs, rhs, op, _ in conds:
            row += [f"{lhs:.17g}", f"{rhs:.17g}", str(int(ref_satisfied(lhs, op, rhs)))]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def ref_regime_json(p):
    conds = ref_conditions(p)
    report = {
        "params": p.to_dict(),
        "label": ref_label(p, conds),
        "conditions": [
            {"name": name, "lhs": None if math.isinf(lhs) else lhs,
             "rhs": None if math.isinf(rhs) else rhs, "op": op,
             "satisfied": ref_satisfied(lhs, op, rhs), "source": source}
            for name, lhs, rhs, op, source in conds
        ],
        "equilibria": ([e.to_dict() for e in find_equilibria(p)]
                       if p.payoff_assumption_holds else []),
    }
    return json.dumps(report, indent=2) + "\n"


# ---------------------------------------------------------------------------
# the gate

REF = {"alpha": 3.0, "lambda": 0.5, "mu": 1.0, "c": 3.0, "zeta": 8.0}
BOUNDS = {"alpha": (0.2, 5.0), "lambda": (0.05, 1.0), "mu": (0.2, 4.0), "c": (0.5, 7.0),
          "zeta": (1.0, 14.0)}


def random_grid(seed):
    rng = np.random.default_rng(seed)
    grid = {}
    for name in rng.choice(sorted(BOUNDS), 2, replace=False):
        lo, hi = sorted(rng.uniform(*BOUNDS[name], 2))
        grid[str(name)] = {"min": float(lo), "max": float(hi), "steps": int(rng.integers(20, 45))}
    return grid


GRIDS = {
    # the meanfield-analysis benchmark grid
    "benchmark": {"zeta": {"min": 4.0, "max": 11.0, "steps": 141},
                  "c": {"min": 1.5, "max": 4.5, "steps": 141}},
    "random-1": random_grid(1),
    "random-2": random_grid(2),
    # through the reference set's exact boundaries: endemic switch at zeta = 6,
    # band edge at 9, cost window [3, 6.6)
    "boundaries": {"zeta": {"min": 6.0, "max": 9.0, "steps": 13},
                   "c": {"min": 3.0, "max": 6.6, "steps": 13}},
    # each crosses 2*alpha*lambda = mu (alpha = 1, lambda = 1/6, mu = 3) and
    # the endemic switch zeta = 8 (alpha = 2, lambda = 1/3, mu = 1.5)
    "alpha": {"alpha": {"min": 0.25, "max": 4.0, "steps": 16}},
    "lambda": {"lambda": {"min": 1.0 / 12.0, "max": 1.0, "steps": 12}},
    "mu": {"mu": {"min": 0.5, "max": 4.0, "steps": 15}},
}


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_sweep_matches_scalar_reference(tmp_path, capsys, name):
    grid = GRIDS[name]
    base = {k: v for k, v in REF.items() if k not in grid}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": base, "sweep": {"grid": grid}}))
    assert main(["sweep", "--config", str(cfg), "--outdir", str(tmp_path)]) == 0
    capsys.readouterr()
    text = (tmp_path / "sweep.csv").read_text()
    assert text == ref_sweep_csv(base, grid)
    if name in ("alpha", "lambda", "mu"):
        assert ",inf," in text and ",-inf," in text and ",marginal," in text
    if name == "boundaries":
        labels = {tuple(line.split(",")[:2]): line.split(",")[2] for line in text.splitlines()}
        for zeta, c in (("6", "3"), ("9", "3"), ("9", f"{6.6:.17g}")):
            assert labels[zeta, c] == "marginal"


POINTS = {
    "zeta=5": {"zeta": 5.0},
    "zeta=8": {"zeta": 8.0},
    "zeta=9.5": {"zeta": 9.5},
    "endemic switch": {"zeta": 6.0},
    "band edge": {"zeta": 9.0},
    "cost window edge": {"zeta": 12.0, "c": 6.6},
    "epidemic threshold": {"lambda": 1.0 / 6.0},
    "below epidemic threshold": {"lambda": 0.1},
    "payoff ordering fails": {"c": 0.5},
}


@pytest.mark.parametrize("name", sorted(POINTS))
def test_regime_json_matches_scalar_reference(tmp_path, capsys, name):
    d = {**REF, **POINTS[name]}
    args = ["regime", "--outdir", str(tmp_path)]
    for key, value in d.items():
        args += [f"--{key}", repr(value)]
    assert main(args) == 0
    capsys.readouterr()
    p = ModelParams(d["alpha"], d["lambda"], d["mu"], d["c"], d["zeta"])
    assert (tmp_path / "regime.json").read_text() == ref_regime_json(p)


def test_ledger_matches_scalar_reference_on_random_points():
    # tens of thousands of distinct alpha*lambda values: (al - 1) * (al - 1)
    # rounds differently from the scalar (al - 1) ** 2 about once in a
    # thousand, and changes a band root about once in four thousand points
    rng = np.random.default_rng(7)
    n = 40_000
    alpha, lam, mu = rng.uniform(0.1, 5.0, n), rng.uniform(0.01, 1.0, n), rng.uniform(0.1, 4.0, n)
    c, zeta = rng.uniform(0.0, 8.0, n), rng.uniform(0.0, 16.0, n)
    ledger = regime_ledger(alpha, lam, mu, c, zeta)
    lhs, rhs, satisfied, labels = [], [], [], []
    for point in zip(alpha.tolist(), lam.tolist(), mu.tolist(), c.tolist(), zeta.tolist()):
        p = ModelParams(*point)
        t = thresholds(p)
        assert (t.endemic, t.focus, (t.band_lo, t.band_hi), (t.window_lo, t.window_hi)) == (
            ref_endemic_zeta_threshold(p), ref_interior_focus_zeta(p),
            ref_interior_band_zetas(p), ref_cost_window(p))
        conds = ref_conditions(p)
        lhs.append([cond[1] for cond in conds])
        rhs.append([cond[2] for cond in conds])
        satisfied.append([ref_satisfied(l, op, r) for _, l, r, op, _ in conds])
        labels.append(ref_label(p, conds))
    assert ledger.lhs.T.tolist() == lhs
    assert ledger.rhs.T.tolist() == rhs
    assert ledger.satisfied.T.tolist() == satisfied
    assert ledger.labels.tolist() == labels


def test_ledger_raises_no_warning():
    # every masked branch: below the epidemic threshold (thresholds infinite,
    # division by zero at 2*alpha*lambda = mu) and c < 1 (negative roots)
    alpha, lam, mu, c, zeta = np.meshgrid([0.5, 1.0, 3.0], [1.0 / 6.0, 0.5, 1.0], [1.0, 3.0],
                                          [0.0, 0.5, 3.0], [0.0, 6.0, 9.5], indexing="ij")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ledger = regime_ledger(alpha, lam, mu, c, zeta)
        points = [thresholds(ModelParams(*point)) for point in zip(
            alpha.flat, lam.flat, mu.flat, c.flat, zeta.flat)]
    assert ledger.lhs.shape == ledger.rhs.shape == ledger.satisfied.shape == (9, alpha.size)
    assert np.isinf(ledger.rhs).any()
    assert {math.inf, -math.inf} <= {v for t in points for v in t}
