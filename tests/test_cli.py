"""End-to-end tests of the command-line interface: artifacts, sidecar
reproducibility, and exit codes."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import epigame
from epigame import equilibria
from epigame.cli import ABM_SPEC_KEYS, BLOCK_KEYS, SETTINGS, build_parser, main
from .conftest import traced_peak

REF = ["--alpha", "3", "--lambda", "0.5", "--mu", "1", "--c", "3"]


def run(args, outdir):
    return main(args + ["--outdir", str(outdir)])


class TestRegime:
    def test_reference_labels(self, tmp_path, capsys):
        for zeta, label in (("5", "protection-free-endemic"),
                            ("8", "interior-endemic"),
                            ("9.5", "limit-cycle")):
            assert run(["regime", *REF, "--zeta", zeta], tmp_path) == 0
            assert f"regime: {label}" in capsys.readouterr().out
            report = json.loads((tmp_path / "regime.json").read_text())
            assert report["label"] == label
            assert len(report["conditions"]) == 9

    def test_condition_table_is_printed(self, tmp_path, capsys):
        assert run(["regime", *REF, "--zeta", "9.5"], tmp_path) == 0
        out = capsys.readouterr().out
        assert "[NOT] zeta-below-band-upper" in out

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"params": {"alpha": 3, "lambda": 0.5, "mu": 1, "c": 3, "zeta": 5}}
        ))
        # the flag wins over the config value
        assert run(["regime", "--config", str(cfg), "--zeta", "8"], tmp_path) == 0
        assert "interior-endemic" in capsys.readouterr().out

    def test_missing_parameter_exits_2(self, tmp_path, capsys):
        assert run(["regime", "--alpha", "3"], tmp_path) == 2
        assert "missing model parameters" in capsys.readouterr().err

    def test_invalid_parameter_exits_2(self, tmp_path, capsys):
        assert run(["regime", *REF, "--zeta", "-1"], tmp_path) == 2
        capsys.readouterr()

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["regime", "--config", str(bad)], tmp_path) == 2
        assert "malformed config" in capsys.readouterr().err

    def test_unwritable_outdir_exits_2(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = main(["regime", *REF, "--zeta", "8", "--outdir", str(blocker / "sub")])
        assert code == 2
        assert "output directory" in capsys.readouterr().err


class TestEquilibria:
    def test_inventory_json(self, tmp_path, capsys):
        assert run(["equilibria", *REF, "--zeta", "5"], tmp_path) == 0
        capsys.readouterr()
        payload = json.loads((tmp_path / "equilibria.json").read_text())
        existing = [e for e in payload["equilibria"] if e["exists"]]
        assert len(existing) == 3
        kinds = {e["kind"] for e in existing}
        assert kinds == {"dfe-origin", "dfe-one", "protection-free-ee"}

    def test_outside_payoff_assumption_exits_2(self, tmp_path, capsys):
        args = ["equilibria", "--alpha", "3", "--lambda", "0.5", "--mu", "1", "--c", "0.5",
                "--zeta", "8"]
        assert run(args, tmp_path) == 2
        assert "requires c > 1" in capsys.readouterr().err
        assert not (tmp_path / "equilibria.json").exists()

    def test_nonvanishing_field_exits_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(equilibria, "planar_rhs_xy", lambda x, y, p: (1e-6, 0.0))
        assert run(["equilibria", *REF, "--zeta", "8"], tmp_path) == 3
        assert "does not vanish" in capsys.readouterr().err


class TestMfSim:
    def test_writes_trajectory_and_sidecar(self, tmp_path, capsys):
        args = ["mf-sim", *REF, "--zeta", "5", "--x0", "0.3", "--y0", "0.2",
                "--horizon", "50", "--sample-dt", "0.5"]
        assert run(args, tmp_path) == 0
        capsys.readouterr()
        data = np.loadtxt(tmp_path / "mf_sim.csv", delimiter=",", skiprows=1)
        assert data.shape == (101, 3)
        sidecar = json.loads((tmp_path / "mf-sim.config.json").read_text())
        assert sidecar["command"] == "mf-sim"
        assert sidecar["params"]["zeta"] == 5.0

    def test_sidecar_rerun_is_byte_identical(self, tmp_path, capsys):
        first = tmp_path / "a"
        second = tmp_path / "b"
        args = ["mf-sim", *REF, "--zeta", "8", "--x0", "0.4", "--y0", "0.1",
                "--horizon", "30", "--sample-dt", "1"]
        assert run(args, first) == 0
        sidecar = json.loads((first / "mf-sim.config.json").read_text())
        sidecar.pop("command")
        sidecar["outdir"] = str(second)
        cfg = tmp_path / "rerun.json"
        cfg.write_text(json.dumps(sidecar))
        assert main(["mf-sim", "--config", str(cfg)]) == 0
        capsys.readouterr()
        assert (first / "mf_sim.csv").read_bytes() == (second / "mf_sim.csv").read_bytes()


class TestMfHetero:
    def test_complete_graph_block(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "params": {"alpha": 3, "lambda": 0.5, "mu": 1, "c": 3, "zeta": 5},
            "horizon": 20.0,
            "sample_dt": 5.0,
            "hetero": {"graph": {"type": "complete", "n": 4},
                       "p_x0": 0.3, "p_y0": 0.2},
        }))
        assert run(["mf-hetero", "--config", str(cfg)], tmp_path) == 0
        capsys.readouterr()
        nodes = (tmp_path / "hetero_nodes.csv").read_text().splitlines()
        assert nodes[0] == "t,node,p_x,p_y"
        assert len(nodes) == 1 + 5 * 4  # 5 sample times x 4 nodes
        macro = np.loadtxt(tmp_path / "hetero_macro.csv", delimiter=",", skiprows=1)
        assert macro.shape == (5, 3)

    def test_missing_block_exits_2(self, tmp_path, capsys):
        assert run(["mf-hetero", *REF, "--zeta", "5"], tmp_path) == 2
        assert "hetero" in capsys.readouterr().err

    def test_block_without_graph_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"hetero": {"p_x0": 0.3}}))
        assert run(["mf-hetero", *REF, "--zeta", "5", "--config", str(cfg)], tmp_path) == 2
        assert "graph" in capsys.readouterr().err

    @pytest.mark.parametrize("flags,given,initial,start", [
        ([], {"initial": {"x": 0.9, "y": 0.9}}, (0.9, 0.9), (0.9, 0.9)),
        ([], {}, (0.5, 0.1), (0.5, 0.1)),
        (["--x0", "0.2"], {"initial": {"x": 0.9, "y": 0.9}}, (0.2, 0.9), (0.2, 0.9)),
        # a per-node start replaces the initial state, however that is given
        (["--x0", "0.2"], {"hetero": {"p_x0": 0.7}}, (0.2, 0.1), (0.7, 0.1)),
    ], ids=["block", "default", "flag", "p_x0-over-flag"])
    def test_nodes_start_at_the_initial_state(self, tmp_path, capsys, flags, given, initial,
                                              start):
        cfg = tmp_path / "cfg.json"
        hetero = {"graph": {"type": "complete", "n": 3}, **given.get("hetero", {})}
        cfg.write_text(json.dumps({**given, "hetero": hetero}))
        args = ["mf-hetero", *REF, "--zeta", "5", "--horizon", "1", *flags, "--config", str(cfg)]
        assert run(args, tmp_path) == 0
        capsys.readouterr()
        nodes = np.loadtxt(tmp_path / "hetero_nodes.csv", delimiter=",", skiprows=1)
        np.testing.assert_array_equal(nodes[:3], [[0, k, *start] for k in range(3)])
        sidecar = json.loads((tmp_path / "mf-hetero.config.json").read_text())
        assert sidecar["initial"] == dict(zip("xy", initial))


    @pytest.mark.parametrize("bad", [np.nan, 5.0], ids=["failed-solve", "overshoot"])
    def test_failure_leaves_no_artifact(self, tmp_path, capsys, monkeypatch, bad):
        # after 200 evaluations the velocity turns nan, which fails the solve,
        # or pushes every probability past 1, which fails the overshoot check;
        # either way the rows already written go with their file
        from epigame import meanfield
        rhs, calls, sizes = meanfield.hetero_rhs, [], []

        def failing(px, py, g, a, p, bidirectional, out):
            calls.append(None)
            if len(calls) <= 200:
                return rhs(px, py, g, a, p, bidirectional, out)
            if len(calls) == 201:
                sizes.append((tmp_path / "hetero_nodes.csv").stat().st_size)
            out[:] = bad
            return out[:px.size], out[px.size:]

        monkeypatch.setattr(meanfield, "hetero_rhs", failing)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"hetero": {"graph": {"type": "complete", "n": 300}}}))
        args = ["mf-hetero", *REF, "--zeta", "8", "--horizon", "5", "--sample-dt", "0.01",
                "--config", str(cfg)]
        assert run(args, tmp_path) == 3
        assert "numerical failure" in capsys.readouterr().err
        assert sizes[0] > 10 ** 5  # rows of many samples had been written
        assert sorted(path.name for path in tmp_path.iterdir()) == ["cfg.json"]

    def test_streams_its_samples(self, tmp_path, capsys):
        # the traced peak at 1000 samples is within 1 MB of that at 100: the
        # per-node rows go to disk as they arrive, not into one array
        rng = np.random.default_rng(1)
        n = 1000
        # a random graph of out-degree 10 without self-loops
        lists = [sorted(((rng.choice(n - 1, 10, replace=False) + i + 1) % n).tolist())
                 for i in range(n)]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"hetero": {"graph": {"type": "adjacency", "lists": lists}}}))
        peaks = []
        for sample_dt in ("0.1", "0.01"):  # 100 and 1000 samples over the horizon
            args = ["mf-hetero", *REF, "--zeta", "8", "--horizon", "10", "--sample-dt", sample_dt,
                    "--config", str(cfg)]
            code, peak = traced_peak(run, args, tmp_path / sample_dt)
            assert code == 0
            peaks.append(peak / 2 ** 20)
        capsys.readouterr()
        assert peaks[1] - peaks[0] <= 1.0, f"traced peaks {peaks[0]:.2f} and {peaks[1]:.2f} MB"


class TestAbmSim:
    ARGS = ["abm-sim", *REF, "--zeta", "8", "--n", "60", "--seed", "7",
            "--horizon", "5", "--sample-dt", "0.5"]

    def test_artifacts(self, tmp_path, capsys):
        assert run(self.ARGS, tmp_path) == 0
        capsys.readouterr()
        traj = np.loadtxt(tmp_path / "abm_traj.csv", delimiter=",", skiprows=1)
        assert traj.shape == (11, 3)
        events = (tmp_path / "abm_events.csv").read_text().splitlines()
        assert events[0] == "# rng=numpy-pcg64 seed=7"
        assert events[1] == "t,kind,actor,counterpart"
        sidecar = json.loads((tmp_path / "abm-sim.config.json").read_text())
        assert sidecar["abm"]["seed"] == 7

    def test_same_seed_same_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(self.ARGS, a) == 0
        assert run(self.ARGS, b) == 0
        capsys.readouterr()
        assert (a / "abm_events.csv").read_bytes() == (b / "abm_events.csv").read_bytes()
        assert (a / "abm_traj.csv").read_bytes() == (b / "abm_traj.csv").read_bytes()

    def test_sidecar_rerun_is_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(self.ARGS, a) == 0
        sidecar = json.loads((a / "abm-sim.config.json").read_text())
        cfg = tmp_path / "rerun.json"
        block = sidecar["abm"]
        cfg.write_text(json.dumps({
            "params": block["params"],
            "abm": block,
            "horizon": block["horizon"],
            "sample_dt": block["sample_dt"],
            "seed": block["seed"],
            "initial": {"x": block["x0"], "y": block["y0"]},
            "outdir": str(b),
        }))
        assert main(["abm-sim", "--config", str(cfg)]) == 0
        capsys.readouterr()
        assert (a / "abm_events.csv").read_bytes() == (b / "abm_events.csv").read_bytes()
        assert (a / "abm_traj.csv").read_bytes() == (b / "abm_traj.csv").read_bytes()

    def test_strict_requires_seed(self, tmp_path, capsys):
        args = ["abm-sim", *REF, "--zeta", "8", "--n", "60", "--strict",
                "--horizon", "2"]
        assert run(args, tmp_path) == 2
        assert "seed" in capsys.readouterr().err

    def test_needs_population(self, tmp_path, capsys):
        assert run(["abm-sim", *REF, "--zeta", "8"], tmp_path) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("source", ["flag", "config-zero", "config-null"])
    def test_rejects_nonpositive_sample_dt(self, tmp_path, capsys, source):
        args = ["abm-sim", *REF, "--zeta", "8", "--n", "20", "--seed", "1", "--horizon", "1"]
        if source == "flag":
            args += ["--sample-dt", "0"]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"sample_dt": 0 if source == "config-zero" else None}))
            args += ["--config", str(cfg)]
        assert run(args, tmp_path) == 2
        assert "sample_dt" in capsys.readouterr().err


ABM = ["--n", "20", "--seed", "1", "--horizon", "1"]
EXPLICIT_ABM = {"abm": {"graph": {"type": "complete", "n": 4},
                        "behaviours0": [1, 0, 0, 0], "healths0": [0, 1, 0, 0]}}
# graph blocks that are not read strictly: (id, graph, message)
MALFORMED_GRAPHS = [
    ("n-fraction", {"type": "complete", "n": 2.5}, "graph.n"),
    ("n-text", {"type": "complete", "n": "4"}, "graph.n"),
    ("n-null", {"type": "complete", "n": None}, "graph.n"),
    ("lists-number", {"type": "adjacency", "lists": 5}, "list of lists"),
    ("lists-fraction", {"type": "adjacency", "lists": [[1.7], [0]]}, "graph.lists"),
]


@pytest.mark.parametrize("command,flags,cfg,message", [
    pytest.param("regime", [], [], "config", id="config-list"),
    pytest.param("regime", [], {"params": [1]}, "params", id="params-list"),
    pytest.param("mf-sim", [], {"horizon": "abc"}, "horizon", id="horizon-text"),
    pytest.param("mf-sim", [], {"initial": {"x": "a"}}, "initial.x", id="initial-text"),
    pytest.param("abm-sim", ["--n", "20", "--seed", "1"], {"sample_dt": [1]}, "sample_dt",
                 id="sample_dt-list"),
    pytest.param("abm-sim", ["--seed", "1"], {"abm": {"n": "abc"}}, "abm.n", id="n-text"),
    pytest.param("abm-sim", ["--n", "0", "--seed", "1"], {"abm": {"n": 60}}, "at least one node",
                 id="n-flag-zero"),
    pytest.param("abm-sim", ABM, {"abm": {"graph": {"type": "complete", "n": 20}}}, "either",
                 id="n-and-graph"),
    pytest.param("compare", ABM, {"compare": {"n_jobs": "x"}}, "compare.n_jobs",
                 id="n_jobs-text"),
    pytest.param("compare", [*ABM, "--n-runs", "0"], None, "n_runs", id="n_runs-flag-zero"),
    pytest.param("abm-sim", ABM, {"abm": {"activities": "pareto"}}, "activities",
                 id="activities-text"),
    pytest.param("abm-sim", ["--seed", "1"], {"abm": {"graph": [[1], [0]]}}, "graph",
                 id="graph-list"),
    pytest.param("mf-hetero", [], {"hetero": {"graph": {"type": "complete", "n": 3}, "p_x0": 2}},
                 "p_x0", id="p_x0-above-one"),
    pytest.param("abm-sim", ABM, {"abm": {"record_events": "no"}}, "record_events",
                 id="record_events-text"),
    pytest.param("compare", ABM, {"abm": {"record_events": 0}}, "record_events",
                 id="record_events-number"),
    pytest.param("abm-sim", ["--seed", "1", "--x0", "0.9", "--y0", "0.9"], EXPLICIT_ABM,
                 "not both", id="vectors-and-x0-flags"),
    pytest.param("compare", ["--seed", "1"], {**EXPLICIT_ABM, "initial": {"x": 0.9, "y": 0.9}},
                 "not both", id="vectors-and-initial-block"),
    # a key no command reads and no sidecar writes, in any block
    pytest.param("abm-sim", ["--seed", "1", "--horizon", "1"],
                 {"abm": {"n": 20, "infection_mod": "contact"}}, "'infection_mod'",
                 id="unknown-abm-key"),
    pytest.param("abm-sim", ["--seed", "1", "--horizon", "1"],
                 {"abm": {"n": 20, "debug_check": "yes"}}, "'debug_check'",
                 id="abm-debug_check"),
    # a sidecar key of the abm block that the run resolves elsewhere must agree with it
    pytest.param("abm-sim", [],
                 {"abm": {"n": 50, "horizon": 2.0, "seed": 9, "sample_dt": 0.5, "x0": 0.9,
                          "rng": "whatever", "params": {"alpha": 1}}},
                 "abm.horizon is 2.0, but the run resolved horizon to 30.0",
                 id="abm-horizon-not-the-run's"),
    pytest.param("compare", ABM, {"abm": {"rng": "mt19937"}}, "abm.rng",
                 id="abm-rng-not-the-run's"),
    pytest.param("cycle", ["--horizon", "10"], {"cycle": {"tol_cylce": 0.5}}, "'tol_cylce'",
                 id="unknown-cycle-key"),
    pytest.param("compare", ABM, {"compare": {"n_run": 2}}, "'n_run'", id="unknown-compare-key"),
    pytest.param("mf-sim", [], {"params": {"lam": 0.5}}, "'lam'", id="unknown-params-key"),
    pytest.param("mf-sim", [], {"initial": {"x0": 0.2}}, "'x0'", id="unknown-initial-key"),
    pytest.param("mf-hetero", [], {"hetero": {"graph": {"type": "complete", "n": 3}, "p_x": 0.2}},
                 "'p_x'", id="unknown-hetero-key"),
    pytest.param("sweep", [], {"sweep": {"grid": {"c": {"min": 2, "max": 4, "steps": 3}},
                                         "step": 3}}, "'step'", id="unknown-sweep-key"),
    pytest.param("sweep", [], {"sweep": {"grid": {"c": {"min": 2, "max": 4, "steps": 3,
                                                        "num": 5}}}}, "'num'",
                 id="unknown-axis-key"),
    # numbers: finite, integral where counted, positive where a time or tolerance
    pytest.param("abm-sim", [*ABM, "--horizon", "nan"], None, "horizon", id="abm-horizon-nan"),
    pytest.param("abm-sim", [*ABM, "--horizon", "inf"], None, "horizon", id="abm-horizon-inf"),
    pytest.param("abm-sim", [*ABM, "--sample-dt", "nan"], None, "sample_dt",
                 id="abm-sample_dt-nan"),
    pytest.param("mf-sim", ["--sample-dt", "inf"], None, "sample_dt", id="mf-sample_dt-inf"),
    pytest.param("mf-sim", ["--sample-dt", "0"], None, "sample_dt", id="mf-sample_dt-zero"),
    pytest.param("mf-sim", ["--rtol", "-1"], None, "rtol", id="mf-rtol-negative"),
    pytest.param("mf-sim", ["--atol", "nan"], None, "atol", id="mf-atol-nan"),
    pytest.param("mf-sim", [], {"horizon": True}, "horizon", id="horizon-bool"),
    pytest.param("cycle", ["--tol-cycle", "nan"], None, "tol_cycle", id="tol_cycle-nan"),
    # cycle detection: a fraction of the horizon, a positive tolerance, two crossings
    pytest.param("cycle", ["--horizon", "20", "--transient-frac", "2"], None,
                 "cycle.transient_frac", id="transient_frac-above-one"),
    pytest.param("cycle", ["--horizon", "20", "--transient-frac", "-0.5"], None,
                 "cycle.transient_frac", id="transient_frac-negative"),
    pytest.param("cycle", ["--horizon", "20", "--tol-cycle", "-1"], None, "cycle.tol_cycle",
                 id="tol_cycle-negative"),
    pytest.param("cycle", ["--horizon", "20", "--tol-cycle", "0"], None, "cycle.tol_cycle",
                 id="tol_cycle-zero"),
    pytest.param("cycle", ["--horizon", "20"], {"cycle": {"min_crossings": 1}},
                 "cycle.min_crossings", id="min_crossings-one"),
    pytest.param("sweep", [], {"sweep": {"grid": {"c": {"min": 2, "max": 4, "steps": 2.5}}}},
                 "steps", id="axis-steps-fraction"),
    pytest.param("abm-sim", ["--seed", "1", "--horizon", "1"], {"abm": {"n": 20.5}}, "abm.n",
                 id="n-fraction"),
    pytest.param("abm-sim", ["--n", "20", "--horizon", "1"], {"seed": 2.5}, "seed",
                 id="seed-fraction"),
    pytest.param("compare", ABM, {"compare": {"n_runs": 2.5}}, "compare.n_runs",
                 id="n_runs-fraction"),
    pytest.param("mf-hetero", ["--horizon", "1"],
                 {"hetero": {"graph": {"type": "complete", "n": 3}, "activities": [1, -1, 2]}},
                 "activities", id="hetero-activities-negative"),
    pytest.param("mf-hetero", ["--horizon", "1"],
                 {"hetero": {"graph": {"type": "complete", "n": 3}, "activities": [1, "nan", 2]}},
                 "activities", id="hetero-activities-nan"),
    # a string is not a number, in a setting or in a graph
    pytest.param("mf-sim", [], {"horizon": "5"}, "horizon", id="horizon-numeric-text"),
    pytest.param("abm-sim", ["--seed", "1", "--horizon", "1"], {"abm": {"n": "20"}}, "abm.n",
                 id="n-numeric-text"),
    *(pytest.param("abm-sim", ["--seed", "1", "--horizon", "1"], {"abm": {"graph": graph}},
                   message, id=f"abm-graph-{name}") for name, graph, message in MALFORMED_GRAPHS),
    *(pytest.param("mf-hetero", ["--horizon", "1"], {"hetero": {"graph": graph}}, message,
                   id=f"hetero-graph-{name}") for name, graph, message in MALFORMED_GRAPHS),
    # initial and per-node vectors: 0 or 1 where a state is read, and never a bool
    pytest.param("abm-sim", ["--seed", "1", "--horizon", "1"],
                 {"abm": {**EXPLICIT_ABM["abm"], "behaviours0": [0.6, 1, 0, 1]}}, "behaviours0",
                 id="behaviours0-fraction"),
    pytest.param("abm-sim", ["--seed", "1", "--horizon", "1"],
                 {"abm": {**EXPLICIT_ABM["abm"], "healths0": [256, 1, 0, 1]}}, "healths0",
                 id="healths0-256"),
    pytest.param("abm-sim", ["--seed", "1", "--horizon", "1"],
                 {"abm": {"graph": {"type": "complete", "n": 4}, "activities": [True, 1, 1, 1]}},
                 "activities", id="activities-bool"),
    pytest.param("mf-hetero", ["--horizon", "1"],
                 {"hetero": {"graph": {"type": "complete", "n": 3}, "p_x0": [True, 0.5, 0.5]}},
                 "hetero.p_x0", id="p_x0-bool"),
    # flags that only the command table gives: checked by the same rules
    pytest.param("abm-sim", [*ABM, "--mode", "foo"], None, "infection_mode", id="mode-flag-foo"),
    pytest.param("compare", [*ABM, "--n-jobs", "0"], None, "n_jobs must be >= 1",
                 id="n_jobs-flag-zero"),
    # blocks with a setting missing, or one too many
    pytest.param("sweep", [], {"sweep": {}}, "with a 'grid'", id="sweep-without-grid"),
    pytest.param("sweep", [], {"sweep": {"grid": {name: {"min": 2, "max": 4, "steps": 2}
                                                  for name in ("alpha", "c", "mu")}}},
                 "sweep grid must vary one or two parameters", id="sweep-three-axes"),
    # an integer beyond the float range is no finite number
    pytest.param("abm-sim", ABM, {"abm": {"activities": [10 ** 400] + [1] * 19}},
                 "activities must hold finite numbers only", id="activities-beyond-float"),
    # checks that a command's computation makes: before the output directory too
    pytest.param("equilibria", ["--c", "0.5"], None, "c > 1", id="equilibria-outside-payoff"),
    pytest.param("mf-hetero", ["--horizon", "1"],
                 {"hetero": {"graph": {"type": "complete", "n": 3}, "p_x0": [0.5, 0.5],
                             "p_y0": [0.1, 0.1]}},
                 "graph order", id="hetero-vectors-not-the-graph's-order"),
])
def test_rejects_malformed_settings(tmp_path, capsys, command, flags, cfg, message):
    args = [command, *REF, "--zeta", "8", *flags]
    if cfg is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        args += ["--config", str(path)]
    assert run(args, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "out").exists()


def test_missing_config_file_exits_2(tmp_path, capsys):
    path = tmp_path / "missing.json"
    assert run(["regime", *REF, "--zeta", "8", "--config", str(path)], tmp_path / "out") == 2
    assert capsys.readouterr().err == f"error: config file not found: {path}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("horizon", ["inf", "nan"])
def test_non_finite_horizon_exits_2_at_once(tmp_path, horizon):
    # such a horizon once sent the solver on without end, so the run gets a time limit
    src = str(Path(epigame.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get(
        "PYTHONPATH")]))}
    args = ["mf-sim", *REF, "--zeta", "8", "--horizon", horizon, "--outdir", str(tmp_path)]
    proc = subprocess.run([sys.executable, "-m", "epigame.cli", *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: horizon")


def test_null_outdir_exits_2(tmp_path, capsys, monkeypatch):
    # str() would read the null as a directory named "None"
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"outdir": None}))
    assert main(["mf-sim", *REF, "--zeta", "8", "--horizon", "1", "--config", str(cfg)]) == 2
    assert "outdir" in capsys.readouterr().err
    assert not (tmp_path / "None").exists()


def test_integral_float_counts_are_read(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 3.0, "abm": {"n": 20.0}}))
    assert run(["abm-sim", *REF, "--zeta", "8", "--horizon", "1", "--config", str(cfg)],
               tmp_path) == 0
    capsys.readouterr()
    sidecar = json.loads((tmp_path / "abm-sim.config.json").read_text())
    assert sidecar["seed"] == 3 and sidecar["abm"]["graph"]["n"] == 20


@pytest.mark.parametrize("command", ["abm-sim", "compare"])
def test_agent_commands_take_no_tolerances(tmp_path, capsys, command):
    # they integrate no ODE with their own tolerances
    with pytest.raises(SystemExit) as exc:
        run([command, *REF, "--zeta", "5", *ABM, "--rtol", "1e-2"], tmp_path)
    assert exc.value.code == 2
    assert "--rtol" in capsys.readouterr().err


def test_block_keys_hold_every_block_setting():
    for block, key, _ in SETTINGS.values():
        assert block is None or key in BLOCK_KEYS[block]
    assert set(ABM_SPEC_KEYS) <= set(BLOCK_KEYS["abm"])


# every flag of every command: (flag, value given, dest, value parsed); a
# flag without a value is a switch
PARAM_FLAGS = [
    *((f"--{key}", "0.5", "lambda_" if key == "lambda" else key, 0.5)
      for key in ("alpha", "lambda", "mu", "c", "zeta")),
    ("--config", "cfg.json", "config", "cfg.json"),
    ("--outdir", "out", "outdir", "out"),
]
INITIAL_FLAGS = [("--x0", "0.2", "x0", 0.2), ("--y0", "0.3", "y0", 0.3)]
ODE_FLAGS = [*PARAM_FLAGS, *INITIAL_FLAGS, ("--horizon", "7", "horizon", 7.0),
             ("--rtol", "1e-6", "rtol", 1e-6), ("--atol", "1e-9", "atol", 1e-9)]
AGENT_FLAGS = [*PARAM_FLAGS, *INITIAL_FLAGS, ("--horizon", "7", "horizon", 7.0),
               ("--sample-dt", "0.5", "sample_dt", 0.5), ("--n", "40", "n", 40),
               ("--seed", "3", "seed", 3), ("--mode", "contact", "mode", "contact")]
FLAGS = {
    "regime": PARAM_FLAGS,
    "equilibria": PARAM_FLAGS,
    "sweep": PARAM_FLAGS,
    "mf-sim": [*ODE_FLAGS, ("--sample-dt", "0.5", "sample_dt", 0.5)],
    "mf-hetero": [*ODE_FLAGS, ("--sample-dt", "0.5", "sample_dt", 0.5)],
    "cycle": [*ODE_FLAGS, ("--tol-cycle", "1e-3", "tol_cycle", 1e-3),
              ("--transient-frac", "0.25", "transient_frac", 0.25),
              ("--min-crossings", "3", "min_crossings", 3)],
    "abm-sim": [*AGENT_FLAGS, ("--strict", None, "strict", True)],
    "compare": [*AGENT_FLAGS, ("--n-runs", "4", "n_runs", 4), ("--n-jobs", "2", "n_jobs", 2)],
}


@pytest.mark.parametrize("command", sorted(FLAGS))
def test_every_flag_parses_to_its_type(capsys, command):
    """Each flag of the command parses to its dest with its type, and every
    other command's flag is refused."""
    parser = build_parser()
    given = {flag: rest for flag, *rest in FLAGS[command]}
    for flag in sorted({flag for flags in FLAGS.values() for flag, *_ in flags}):
        if flag not in given:
            with pytest.raises(SystemExit) as exc:
                parser.parse_args([command, flag, "1"])
            assert exc.value.code == 2, flag
            continue
        value, dest, parsed = given[flag]
        args = parser.parse_args([command, flag, *([] if value is None else [value])])
        got = getattr(args, dest)
        assert (got, type(got)) == (parsed, type(parsed)), flag
    capsys.readouterr()


def test_cycle_takes_no_sample_spacing(tmp_path, capsys):
    # detection reads the solve itself, so no spacing could change its output
    with pytest.raises(SystemExit) as exc:
        run(["cycle", *REF, "--zeta", "9.5", "--horizon", "10", "--sample-dt", "0.1"], tmp_path)
    assert exc.value.code == 2
    assert "--sample-dt" in capsys.readouterr().err


def test_cycle_settings_live_in_the_cycle_block(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tol_cycle": 0.5, "min_crossings": 2,
                               "cycle": {"tol_cycle": 1e-3}}))
    args = ["cycle", *REF, "--zeta", "9.5", "--horizon", "10", "--config", str(cfg)]
    assert run(args, tmp_path) == 0
    capsys.readouterr()
    sidecar = json.loads((tmp_path / "cycle.config.json").read_text())
    assert sidecar["cycle"] == {"tol_cycle": 1e-3, "transient_frac": 0.3, "min_crossings": 5}


@pytest.mark.parametrize("command", ["abm-sim", "compare", "mf-sim", "cycle", "mf-hetero"])
def test_rejects_null_horizon(tmp_path, capsys, command):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "horizon": None,
        "seed": 1,
        "abm": {"n": 20},
        "hetero": {"graph": {"type": "complete", "n": 4}},
    }))
    args = [command, *REF, "--zeta", "8", "--config", str(cfg)]
    assert run(args, tmp_path) == 2
    assert "horizon" in capsys.readouterr().err


class TestCycle:
    def test_limit_cycle_verdict(self, tmp_path, capsys):
        args = ["cycle", *REF, "--zeta", "9.5", "--x0", "0.5", "--y0", "0.1",
                "--horizon", "500"]
        assert run(args, tmp_path) == 0
        out = capsys.readouterr().out
        assert "verdict: limit-cycle" in out
        report = json.loads((tmp_path / "cycle.json").read_text())
        assert report["verdict"] == "limit-cycle"
        assert report["period"] > 0
        crossings = (tmp_path / "crossings.csv").read_text().splitlines()
        assert crossings[0] == "k,t_k,y_k,period_k"
        assert len(crossings) - 1 == report["n_crossings"]

    def test_converged_verdict(self, tmp_path, capsys):
        args = ["cycle", *REF, "--zeta", "5", "--x0", "0.3", "--y0", "0.2",
                "--horizon", "300"]
        assert run(args, tmp_path) == 0
        assert "converged-to-point" in capsys.readouterr().out

    def test_spiral_sink_converges_at_the_default_tolerances(self, tmp_path, capsys):
        # the end of a solve at rtol 1e-8 is as still as that solve can make it
        # (velocity 4e-8), which fixed floors of 1e-8 used to call undecided
        assert run(["cycle", *REF, "--zeta", "8", "--horizon", "500"], tmp_path) == 0
        assert "verdict: converged-to-point" in capsys.readouterr().out
        report = json.loads((tmp_path / "cycle.json").read_text())
        assert report["point"] == pytest.approx([0.457427, 0.385643], abs=1e-5)

    @pytest.mark.parametrize("flags,cfg,message", [
        (["--transient-frac", "2"], None, "cycle.transient_frac"),
        (["--tol-cycle", "0"], None, "cycle.tol_cycle"),
        ([], {"cycle": {"min_crossings": 1}}, "cycle.min_crossings"),
        (["--min-crossings", "1"], None, "cycle.min_crossings"),
    ], ids=["transient_frac", "tol_cycle", "min_crossings", "min_crossings-flag"])
    def test_setting_out_of_range_exits_before_the_solve(self, tmp_path, capsys, monkeypatch,
                                                         flags, cfg, message):
        solves = []
        monkeypatch.setattr("epigame.cli.integrate_planar", lambda *a, **k: solves.append(a))
        args = ["cycle", *REF, "--zeta", "9.5", "--horizon", "500", *flags]
        if cfg is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(cfg))
            args += ["--config", str(path)]
        assert run(args, tmp_path / "out") == 2
        assert message in capsys.readouterr().err
        assert solves == []
        assert not (tmp_path / "out").exists()


class TestSweep:
    def test_zeta_line_scan(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "params": {"alpha": 3, "lambda": 0.5, "mu": 1, "c": 3},
            "sweep": {"grid": {"zeta": {"min": 4.5, "max": 10.5, "steps": 61}}},
        }))
        assert run(["sweep", "--config", str(cfg)], tmp_path) == 0
        capsys.readouterr()
        lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[:2] == ["zeta", "label"]
        assert len(header) == 2 + 3 * 9
        assert len(lines) == 62
        labels = {}
        for line in lines[1:]:
            cells = line.split(",")
            labels[round(float(cells[0]), 6)] = cells[1]
        # transitions at the analytic thresholds: the endemic switch at 6,
        # the spiral-stability bound near 7.64, and the band edge at 9
        assert labels[5.0] == "protection-free-endemic"
        assert labels[6.5] == "local-only"  # interior exists, stability not covered
        assert labels[8.0] == "interior-endemic"
        assert labels[8.9] == "interior-endemic"
        assert labels[9.1] == "limit-cycle"
        assert labels[10.5] == "limit-cycle"

    def test_rejects_unknown_axis(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "params": {"alpha": 3, "lambda": 0.5, "mu": 1, "c": 3, "zeta": 8},
            "sweep": {"grid": {"x0": {"min": 0, "max": 1, "steps": 5}}},
        }))
        assert run(["sweep", "--config", str(cfg)], tmp_path) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("steps", [0, -3])
    def test_rejects_axis_without_points(self, tmp_path, capsys, steps):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "params": {"alpha": 3, "lambda": 0.5, "mu": 1, "c": 3},
            "sweep": {"grid": {"zeta": {"min": 5, "max": 10, "steps": steps}}},
        }))
        assert run(["sweep", "--config", str(cfg)], tmp_path) == 2
        assert "steps" in capsys.readouterr().err

    @pytest.mark.parametrize("axis", [{"min": 4, "max": 5}, 5])
    def test_rejects_axis_without_steps(self, tmp_path, capsys, axis):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "params": {"alpha": 3, "lambda": 0.5, "mu": 1, "c": 3},
            "sweep": {"grid": {"zeta": axis}},
        }))
        assert run(["sweep", "--config", str(cfg)], tmp_path) == 2
        assert "steps" in capsys.readouterr().err

    @pytest.mark.parametrize("grid,message", [
        ({"lambda": {"min": 0.5, "max": 1.5, "steps": 300}}, "lambda out of (0,1]"),
        # the first invalid point in row order is (c=1, lambda=1.5), not c=-1
        ({"c": {"min": 1, "max": -1, "steps": 3}, "lambda": {"min": 0.5, "max": 1.5, "steps": 3}},
         "lambda out of (0,1]"),
    ])
    def test_invalid_grid_point_writes_nothing(self, tmp_path, capsys, grid, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"params": {"alpha": 3, "mu": 1, "c": 3, "zeta": 8},
                                   "sweep": {"grid": grid}}))
        assert run(["sweep", "--config", str(cfg)], tmp_path) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "sweep.csv").exists()

    def test_invalid_grid_point_leaves_no_directory(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"params": {"alpha": 3, "lambda": 0.5, "mu": 1, "zeta": 8},
                                   "sweep": {"grid": {"c": {"min": -1, "max": 4, "steps": 3}}}}))
        assert run(["sweep", "--config", str(cfg)], tmp_path / "out") == 2
        assert "c must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_two_axis_grid(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "params": {"alpha": 3, "mu": 1, "c": 3},
            "sweep": {"grid": {"zeta": {"min": 5, "max": 10, "steps": 3},
                               "lambda": {"min": 0.2, "max": 0.8, "steps": 4}}},
        }))
        assert run(["sweep", "--config", str(cfg)], tmp_path) == 0
        capsys.readouterr()
        lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 12


class TestCompare:
    def test_artifacts_and_gap(self, tmp_path, capsys):
        args = ["compare", *REF, "--zeta", "5", "--n", "400", "--seed", "3",
                "--n-runs", "5", "--horizon", "10", "--sample-dt", "0.5",
                "--x0", "0.3", "--y0", "0.2"]
        assert run(args, tmp_path) == 0
        out = capsys.readouterr().out
        assert "sup-norm gap" in out
        ode = np.loadtxt(tmp_path / "compare_ode.csv", delimiter=",", skiprows=1)
        abm = np.loadtxt(tmp_path / "compare_abm.csv", delimiter=",", skiprows=1)
        gap = np.loadtxt(tmp_path / "compare_gap.csv", delimiter=",", skiprows=1)
        assert ode.shape[0] == abm.shape[0] == gap.shape[0] == 21
        np.testing.assert_allclose(gap[:, 1], abm[:, 1] - ode[:, 1], atol=1e-12)

    @pytest.mark.parametrize("setting,message", [
        ({"n_runs": 0}, "n_runs must be >= 1"),
        ({"n_runs": 2, "n_jobs": 0}, "n_jobs must be >= 1"),
        ({"n_runs": 2, "n_jobs": -3}, "n_jobs must be >= 1"),
    ], ids=["n_runs-zero", "n_jobs-zero", "n_jobs-negative"])
    def test_ensemble_size_below_one_exits_2(self, tmp_path, capsys, setting, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"compare": setting}))
        args = ["compare", *REF, "--zeta", "8", *ABM, "--config", str(path)]
        assert run(args, tmp_path / "out") == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestEnvOutdir:
    def test_env_var_fallback(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("EPIGAME_OUTDIR", str(tmp_path / "envout"))
        assert main(["regime", *REF, "--zeta", "8"]) == 0
        capsys.readouterr()
        assert (tmp_path / "envout" / "regime.json").exists()


HETERO_CFG = {"hetero": {"graph": {"type": "adjacency", "lists": [[1, 2], [0], [0, 1], [2]]},
                         "p_x0": [0.3, 0.5, 0.7, 0.1], "p_y0": 0.2}}
SWEEP_CFG = {"params": {"lambda": 0.5},
             "sweep": {"grid": {"zeta": {"min": 5, "max": 10, "steps": 4},
                                "c": {"min": 2, "max": 4, "steps": 3}}}}
INTEGRATION = ["--x0", "0.4", "--y0", "0.2", "--horizon", "7.3", "--sample-dt", "0.1"]
# a ring with chords, per-agent activities and an explicit initial population
ABM_GRAPH_CFG = {"abm": {"graph": {"type": "adjacency",
                                   "lists": [[1, 2], [2, 3], [3, 4], [4, 5], [5, 0], [0, 1]]},
                         "activities": [2.0, 3.0, 4.0, 2.5, 3.5, 3.0],
                         "behaviours0": [1, 0, 1, 0, 0, 1],
                         "healths0": [0, 1, 0, 0, 1, 0]}}
RERUN_CASES = {
    "regime": ([*REF, "--zeta", "9.5"], None),
    "equilibria": ([*REF, "--zeta", "8"], None),
    "mf-sim": ([*REF, "--zeta", "9.5", *INTEGRATION], None),
    "mf-hetero": ([*REF, "--zeta", "8", "--horizon", "5", "--sample-dt", "0.5"], HETERO_CFG),
    "abm-sim": ([*REF, "--zeta", "8", "--n", "60", "--seed", "7", "--mode", "contact",
                 *INTEGRATION], None),
    "cycle": ([*REF, "--zeta", "9.5", "--x0", "0.5", "--y0", "0.1", "--horizon", "200"], None),
    "sweep": (["--alpha", "3", "--mu", "1"], SWEEP_CFG),
    "compare": ([*REF, "--zeta", "5", "--n", "60", "--seed", "3", "--n-runs", "2",
                 *INTEGRATION], None),
    "abm-sim/graph": ([*REF, "--zeta", "8", "--seed", "5", "--horizon", "3", "--sample-dt", "0.5"],
                      ABM_GRAPH_CFG),
    "compare/graph": ([*REF, "--zeta", "8", "--seed", "5", "--n-runs", "2", "--mode", "contact",
                       "--horizon", "3", "--sample-dt", "0.5"], ABM_GRAPH_CFG),
}


@pytest.mark.parametrize("case", sorted(RERUN_CASES))
def test_raw_sidecar_rerun_is_byte_identical(tmp_path, capsys, case):
    """Feeding `<command>.config.json` back unedited, with only a new
    --outdir, reproduces every artifact and the sidecar itself."""
    flags, cfg = RERUN_CASES[case]
    command = case.split("/")[0]
    a, b = tmp_path / "a", tmp_path / "b"
    args = [command, *flags]
    if cfg is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        args += ["--config", str(path)]
    assert run(args, a) == 0
    sidecar = a / f"{command}.config.json"
    assert main([command, "--config", str(sidecar), "--outdir", str(b)]) == 0
    capsys.readouterr()
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        if name == sidecar.name:
            first, second = json.loads((a / name).read_text()), json.loads((b / name).read_text())
            assert (first.pop("outdir"), second.pop("outdir")) == (str(a), str(b))
            assert first == second
        else:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_no_command_loads_scipy_integrate_or_optimize(tmp_path):
    # the ODE solvers and the root finder are epigame's own, so a CLI process
    # never pays for importing these packages; one process runs every command
    runs = []
    for case, (flags, cfg) in sorted(RERUN_CASES.items()):
        args = [case.split("/")[0], *flags, "--outdir", str(tmp_path / case)]
        if cfg is not None:
            path = tmp_path / f"{case.replace('/', '-')}.json"
            path.write_text(json.dumps(cfg))
            args += ["--config", str(path)]
        runs.append(args)
    script = ("import json, sys\n"
              "from epigame.cli import main\n"
              "codes = [main(args) for args in json.loads(sys.argv[1])]\n"
              "loaded = sorted(m for m in sys.modules\n"
              "                if m.split('.')[:2] in (['scipy', 'integrate'], ['scipy', 'optimize']))\n"
              "print(json.dumps([codes, loaded, 'scipy.sparse' in sys.modules]))\n")
    src = str(Path(epigame.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get(
        "PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(runs)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    codes, loaded, sparse = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0] * len(runs)
    assert {args[0] for args in runs} == {"regime", "equilibria", "sweep", "mf-sim", "cycle",
                                          "mf-hetero", "abm-sim", "compare"}
    assert loaded == []
    assert sparse


DEFAULT_INITIAL_CASES = {
    "mf-sim": ["--zeta", "8", "--horizon", "1", "--sample-dt", "0.5"],
    "cycle": ["--zeta", "9.5", "--horizon", "10"],
    "abm-sim": ["--zeta", "8", "--n", "20", "--seed", "1", "--horizon", "1"],
    "compare": ["--zeta", "5", "--n", "20", "--seed", "1", "--n-runs", "1", "--horizon", "1"],
}


def test_commands_share_one_default_initial_state(tmp_path, capsys):
    recorded = {}
    for command, flags in DEFAULT_INITIAL_CASES.items():
        assert run([command, *REF, *flags], tmp_path / command) == 0
        sidecar = json.loads((tmp_path / command / f"{command}.config.json").read_text())
        recorded[command] = sidecar["initial"]
    capsys.readouterr()
    assert recorded == dict.fromkeys(DEFAULT_INITIAL_CASES, {"x": 0.5, "y": 0.1})


# SHA-256 of regime.json and equilibria.json, recorded before the analysis
# layer was refactored: (lambda, c, zeta) with alpha 3 and mu 1
PINNED_ANALYSIS = {
    ("0.5", "3", "4.5"): ("57575cea5aba37cae63701af82fe85ce057454f511bef449c1a6ad6e68a7c3f0",
                          "95d6644ce944de512b749ae5ca92ddd54698fa3fb772dbfe0255d7cca44cb381"),
    ("0.5", "3", "5"): ("5d973554154eb2c8f93e8d2799dc73a2eaf4ee9a1d8250f8e7595628d905a4fc",
                        "1fc6a2e8c26c47e284ac259d0d94d3f152d52305fc53b31646adfa8c0c138f5b"),
    ("0.5", "3", "6"): ("e50b189ad4319377b4f53cda9d52bfa76b5cebf600ba40f67e1fcff83b42d8dc",
                        "952aa7f8aa7721613c8bffcdffeb10db2406f74d29533bc4cb8a288f2ad1a4df"),
    ("0.5", "3", "8"): ("ee8646812af3453c49f555799a1f1e7e630b6677027295416b092b9e261499d3",
                        "09088dfa50e4696632b758c9a40e52bd925d2dfc69080db88b119da4422456b3"),
    ("0.5", "3", "9"): ("3913a2a0755adbdac2aeb597563754f2a8db5a7174142d1293547f501eeb5163",
                        "4add3ded567e95e8ed7602dcfe9d9d57d7f9a65ccb90fca5da6ceeda2922f02c"),
    ("0.5", "3", "9.5"): ("827d4d69d8ba910b5ccb0dfee4776c6c7e3208a5dcc18fc18913a5090f455b59",
                          "bf971fb34ba8e2b309768d81532c92c54ce425d2d31cd0a975635982acb7d1c7"),
    ("0.5", "3", "11"): ("55fd1aa899cb60ac0ee8ea1c22b4689823073faa5afcf5bdad8973cce1caf1b3",
                         "20f9c1322751e2e3ebdff9dbe80fcffbcf3ff4a52311e6a672e2b7f83f52cd92"),
    ("0.5", "7", "9.5"): ("92221e6516285a0a1ac8981146cdefc521ad3914157f63184071c35caf908403",
                          "7ae9db6c932f32d7db734018fef4c4f49ef665034d12aaa29986459e3df00759"),
    # the epidemic threshold 2*alpha*lambda = mu, where the origin is marginal
    ("0.16666666666666666", "3", "5"): (
        "a14d87896350770fb474461e237fadcbdc141990bf91503645f65aea66e89d37",
        "7b9b9b1697b96c3cbc23da6d75d446996569c066ec27b06697e0eef28c67f77b"),
}


@pytest.mark.parametrize("point", list(PINNED_ANALYSIS), ids="-".join)
def test_analysis_artifacts_keep_their_bytes(tmp_path, capsys, point):
    lam, c, zeta = point
    args = ["--alpha", "3", "--lambda", lam, "--mu", "1", "--c", c, "--zeta", zeta]
    digests = []
    for command in ("regime", "equilibria"):
        assert run([command, *args], tmp_path) == 0
        digests.append(hashlib.sha256((tmp_path / f"{command}.json").read_bytes()).hexdigest())
    capsys.readouterr()
    assert tuple(digests) == PINNED_ANALYSIS[point]


# SHA-256 of abm_traj.csv and abm_events.csv, recorded before the frozen
# path's draws went through the bit generator's ctypes interface: the
# complete graph with uniform activities, alpha 3, lambda 0.5, mu 1, c 3,
# zeta 8, n 600, horizon 30, log on; (mode, directionality, seed)
PINNED_FROZEN_ABM = {
    ("aggregated", "bidirectional", "11"): (
        "0dd788ec671b880ea7bc74eed501306befee3c874610cc577b1ffd1bef47a0bf",
        "dca6d312df3347dafb5ed982fb33345e10cd1f7f0f8687ff5b5ff16d62a25f14"),
    ("aggregated", "bidirectional", "12"): (
        "8278b8bc741ace903576381f4fe0cc4b7ccaf2432fcc778adafab2aab2a547a8",
        "224a214e9edb2af9a12825f71618e39c4ea67834c74fe3b519e73485eeadeee0"),
    # activator-infects reaches x = 0 within the horizon, so these also pin
    # the absorbed imitation channels
    ("aggregated", "activator-infects", "11"): (
        "d47c8be3344039fbcfe5fbe04120a745d21cee233098d0c97d32751772d83c8a",
        "fda2dda5d1af8a2c8562dc36029fdfe838821ecb4ee9d28e58264eb6640f6e03"),
    ("aggregated", "activator-infects", "12"): (
        "b4c82d91f2201f0e4e0ee1761da45deea3e9d852e8b8051e56c0c59c0f51ff8f",
        "d8da3d9cb5ed8ecf2c727cf7edfd63974f9c94e6c25c55e23e850d32d9bbdc32"),
    ("contact", "bidirectional", "11"): (
        "aac4cfc957f1a478b775e48a2a82cb902c66c24e3771a27fefadf386ad5d0485",
        "9c19fa2f1ccb2e638b7591867a9c6ca89ac6795b04a970ada2204c5c707af19e"),
    ("contact", "bidirectional", "12"): (
        "6f29312d031404843c76b8da865b4c73083a75314288eca6a051b0b221690832",
        "81376d3ca908664ccf2a6e71845496598c4ad565c672f6eae13b22124e62f7c2"),
    ("contact", "activator-infects", "11"): (
        "a5bab5af67ee8269b8c45e2354311ae93180e9dde7009b05aa3d678025780fd1",
        "f6b48ccdde3018137389d4e02eea2683b2f8c93454a423d1fe83cd9092636f1a"),
    ("contact", "activator-infects", "12"): (
        "c149629005b117bd5c6275fb24fc0641dce2d8a6dc4c58286179b5542a914c4c",
        "b0bad38a905390ec366c004289ddfad59d853f59998ac8a1ec1b5a9ed64b3a0e"),
}


@pytest.mark.parametrize("case", list(PINNED_FROZEN_ABM), ids="-".join)
def test_frozen_path_artifacts_keep_their_bytes(tmp_path, capsys, case):
    mode, directionality, seed = case
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"abm": {"directionality": directionality,
                                          "record_events": True}}))
    assert run(["abm-sim", *REF, "--zeta", "8", "--n", "600", "--seed", seed, "--mode", mode,
                "--config", str(config)], tmp_path) == 0
    capsys.readouterr()
    digests = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                    for name in ("abm_traj.csv", "abm_events.csv"))
    assert digests == PINNED_FROZEN_ABM[case]


# SHA-256 of compare_abm.csv and compare_gap.csv of one frozen-path compare:
# compare_abm.csv recorded with the abm-sim digests above, compare_gap.csv
# when the planar solve moved to its float solver, which changes the ODE's
# last digits
PINNED_FROZEN_COMPARE = (
    "f4924ddc563da8ea4e74c3d977465a4d8cc8a31a377287b300f162f2ae749733",
    "e03b44f790e88707846fad5bcdf271ea15c1ad624fa8b0ae557c0b0a7abd1a47")


def test_frozen_path_compare_keeps_its_bytes(tmp_path, capsys):
    assert run(["compare", *REF, "--zeta", "8", "--n", "2000", "--seed", "5", "--n-runs", "2",
                "--horizon", "10"], tmp_path) == 0
    capsys.readouterr()
    digests = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                    for name in ("compare_abm.csv", "compare_gap.csv"))
    assert digests == PINNED_FROZEN_COMPARE


# SHA-256 of hetero_nodes.csv and hetero_macro.csv of one seeded mf-hetero
# run, recorded before the per-node field was computed in one pass: a random
# out-degree-5 graph on 200 nodes, Pareto activities, zeta 8, horizon 20
PINNED_HETERO = (
    "30a2f2258f8058ac9ceea5cefd3bda1ca6e96f5d7b99504a04d89ddc15fd2280",
    "7250449ef4c3eb513656f8d43476dba5a9e300ff79e2836ecd291cde74f32b3e")


def test_hetero_artifacts_keep_their_bytes(tmp_path, capsys):
    rng = np.random.default_rng(17)
    n, degree = 200, 5
    lists = []
    for i in range(n):
        nbrs = rng.choice(n - 1, size=degree, replace=False)
        nbrs[nbrs >= i] += 1
        lists.append(sorted(nbrs.tolist()))
    acts = rng.pareto(2.5, n) + 1.0
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"hetero": {
        "graph": {"type": "adjacency", "lists": lists},
        "activities": (3.0 * acts / acts.mean()).tolist(),
        "p_x0": rng.uniform(0.3, 0.7, n).tolist(),
        "p_y0": rng.uniform(0.05, 0.15, n).tolist(),
    }}))
    assert run(["mf-hetero", *REF, "--zeta", "8", "--horizon", "20", "--config", str(config)],
               tmp_path) == 0
    capsys.readouterr()
    digests = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                    for name in ("hetero_nodes.csv", "hetero_macro.csv"))
    assert digests == PINNED_HETERO


# SHA-256 of mf_sim.csv, cycle.json and crossings.csv at zeta 9.5 from
# (0.5, 0.1), horizon 500, recorded when the planar solve moved to its float
# solver. That solver rounds each float operation on its own (Python floats
# and elementwise numpy), so these bytes do not depend on the BLAS kernel.
PINNED_PLANAR = (
    "f6a13c2745889129a609f524042e0e30ccaf66b848835c585c0c8b30e083b1ae",
    "a643fe2274f639d44ed01609ccd992a2f51cc0733713a7a9fafd63331a46d798",
    "f933a07911e390562fb512dfd6fa6e38c6927910da27ba844fb0b5347076f7cc")


def test_planar_artifacts_keep_their_bytes(tmp_path, capsys):
    args = [*REF, "--zeta", "9.5", "--x0", "0.5", "--y0", "0.1", "--horizon", "500"]
    for command in ("mf-sim", "cycle"):
        assert run([command, *args], tmp_path) == 0
    capsys.readouterr()
    digests = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                    for name in ("mf_sim.csv", "cycle.json", "crossings.csv"))
    assert digests == PINNED_PLANAR
