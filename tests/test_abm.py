"""Event-driven stochastic simulator: rates, event logs, determinism, ensembles."""

import dataclasses
import math

import numpy as np
import pytest

from epigame import (
    AbmConfig,
    ConfigError,
    EventLog,
    InfluenceGraph,
    MacroState,
    ModelParams,
    NumericalError,
    Population,
    ensemble,
    global_payoffs,
    infection_rate,
    node_payoffs,
    simulate,
    switch_rates,
)
from epigame import abm as abm_mod
from .conftest import example_params


def small_config(**overrides):
    p = example_params(zeta=8.0)
    n = overrides.pop("n", 50)
    base = dict(
        params=p,
        graph=InfluenceGraph.complete(n),
        activities=np.full(n, p.alpha),
        horizon=5.0,
        sample_dt=0.5,
        seed=1234,
        x0=0.4,
        y0=0.2,
    )
    base.update(overrides)
    return AbmConfig(**base)


class TestRates:
    def test_complete_graph_payoffs_match_global(self):
        p = example_params(zeta=8.0)
        n = 10
        pop = Population(
            behaviours=np.array([1] * 4 + [0] * 6),
            healths=np.array([1] * 3 + [0] * 7),
            activities=np.full(n, p.alpha),
        )
        pi1, pi0 = node_payoffs(InfluenceGraph.complete(n), pop, p)
        ref = global_payoffs(MacroState(0.4, 0.3), p)
        np.testing.assert_allclose(pi1, ref.pi1, rtol=1e-14)
        np.testing.assert_allclose(pi0, ref.pi0, rtol=1e-14)

    def test_zero_prevalence_payoffs(self):
        p = example_params(zeta=8.0)
        pop = Population(np.zeros(4), np.zeros(4), np.full(4, p.alpha))
        pi1, pi0 = node_payoffs(InfluenceGraph.complete(4), pop, p)
        np.testing.assert_array_equal(pi1, 0.0)
        np.testing.assert_array_equal(pi0, 1.0 + p.c)

    def test_path_graph_hand_computation(self):
        # path 0-1-2, behaviours (1,0,1), middle agent infected, zeta=5, c=3:
        #   neighbourhood adoption shares (0, 1, 0), y_bar = 1/3
        #   pi1 = (5/3, 8/3, 5/3), pi0 = (4, 3, 4)
        #   q01 = (0, 5/3, 0), q10 = (3, 0, 3)
        p = example_params(zeta=5.0)
        g = InfluenceGraph.from_adjacency([[1], [0, 2], [1]])
        pop = Population([1, 0, 1], [0, 1, 0], np.full(3, p.alpha))
        pi1, pi0 = node_payoffs(g, pop, p)
        np.testing.assert_allclose(pi1, [5 / 3, 8 / 3, 5 / 3], rtol=1e-14)
        np.testing.assert_allclose(pi0, [4.0, 3.0, 4.0], rtol=1e-14)
        q01, q10 = switch_rates(g, pop, p)
        np.testing.assert_allclose(q01, [0.0, 5 / 3, 0.0], rtol=1e-14)
        np.testing.assert_allclose(q10, [3.0, 0.0, 3.0], rtol=1e-14)

    def test_imitation_absorbing_at_consensus(self):
        p = example_params(zeta=8.0)
        g = InfluenceGraph.complete(5)
        nobody = Population(np.zeros(5), np.zeros(5), np.full(5, p.alpha))
        q01, _ = switch_rates(g, nobody, p)
        np.testing.assert_array_equal(q01, 0.0)  # nobody to imitate
        everybody = Population(np.ones(5), np.zeros(5), np.full(5, p.alpha))
        _, q10 = switch_rates(g, everybody, p)
        np.testing.assert_array_equal(q10, 0.0)

    def test_infection_rate_uniform_formula(self):
        # n=5, two infected, uniform activities: lam/(n-1) * (n*a*2/5 + 2a) = lam*a
        p = example_params(zeta=8.0)
        pop = Population(np.zeros(5), [1, 1, 0, 0, 0], np.full(5, p.alpha))
        assert infection_rate(pop, 2, p) == pytest.approx(p.lam * p.alpha, rel=1e-14)

    def test_infection_rate_one_directional(self):
        # only contacts initiated by the infected count
        p = example_params(zeta=8.0)
        pop = Population(np.zeros(5), [1, 1, 0, 0, 0], np.full(5, p.alpha))
        expect = p.lam / 4 * 2 * p.alpha
        assert infection_rate(pop, 2, p, bidirectional=False) == pytest.approx(expect, rel=1e-14)

    def test_infection_rate_guards(self):
        p = example_params(zeta=8.0)
        pop = Population([1, 0, 0], [0, 1, 0], np.full(3, p.alpha))
        assert infection_rate(pop, 0, p) == 0.0  # protected
        with pytest.raises(ValueError):
            infection_rate(pop, 1, p)  # already infected


def random_digraph(rng, n, max_degree=4):
    """Directed influence graph with out-degrees 1..max_degree, no self-loops."""
    adj = []
    for i in range(n):
        nbrs = rng.choice(n - 1, size=int(rng.integers(1, max_degree + 1)), replace=False)
        nbrs[nbrs >= i] += 1
        adj.append(sorted(nbrs.tolist()))
    return adj


def general_config(seed=77, n=24, **overrides):
    """Small random directed graph with heterogeneous activities and explicit
    initial vectors."""
    p = example_params(zeta=8.0)
    rng = np.random.default_rng(seed)
    base = dict(
        params=p,
        graph=InfluenceGraph.from_adjacency(random_digraph(rng, n)),
        activities=rng.uniform(1.0, 5.0, n),
        horizon=3.0,
        sample_dt=1.0,
        seed=seed,
        behaviours0=(rng.random(n) < 0.4).astype(int),
        healths0=(rng.random(n) < 0.3).astype(int),
    )
    base.update(overrides)
    return AbmConfig(**base)


def replay_events(cfg, log):
    """Re-apply a recorded event log to the initial state, checking that every
    event is legal at the moment it fires. Returns the final vectors."""
    x = cfg.behaviours0.astype(int).copy()
    y = cfg.healths0.astype(int).copy()
    prev_t = 0.0
    for t, kind, actor, cp in log:
        assert t >= prev_t
        prev_t = t
        if kind == "recovery":
            assert y[actor] == 1
            y[actor] = 0
        elif kind == "infection":
            assert y[actor] == 0 and x[actor] == 0
            if cp is not None:
                assert y[cp] == 1
            y[actor] = 1
        elif kind == "adopt":
            assert x[actor] == 0
            x[actor] = 1
        elif kind == "drop":
            assert x[actor] == 1
            x[actor] = 0
        elif kind == "contact":
            assert actor != cp
        else:  # pragma: no cover
            raise AssertionError(f"unknown event kind {kind}")
    return x, y


class TestSimulate:
    def test_trajectory_grid_and_ranges(self):
        traj, _ = simulate(small_config())
        np.testing.assert_allclose(traj.times, np.arange(11) * 0.5)
        assert np.all((traj.xs >= 0) & (traj.xs <= 1))
        assert np.all((traj.ys >= 0) & (traj.ys <= 1))
        # fractions over 50 agents are multiples of 0.02
        np.testing.assert_allclose(np.round(traj.xs * 50), traj.xs * 50, atol=1e-12)

    def test_seed_determinism(self):
        cfg = small_config()
        t1, l1 = simulate(cfg)
        t2, l2 = simulate(small_config())
        assert l1.events == l2.events
        np.testing.assert_array_equal(t1.xs, t2.xs)
        np.testing.assert_array_equal(t1.ys, t2.ys)

    def test_different_seeds_differ(self):
        l1 = simulate(small_config(seed=1))[1]
        l2 = simulate(small_config(seed=2))[1]
        assert l1.events != l2.events

    def test_event_log_is_a_legal_history(self):
        n = 40
        rng = np.random.default_rng(7)
        cfg = small_config(
            n=n,
            x0=None,
            y0=None,
            behaviours0=(rng.random(n) < 0.4).astype(int),
            healths0=(rng.random(n) < 0.2).astype(int),
            horizon=10.0,
        )
        traj, log = simulate(cfg)
        x, y = replay_events(cfg, log)
        assert x.mean() == pytest.approx(traj.xs[-1])
        assert y.mean() == pytest.approx(traj.ys[-1])

    def test_contact_mode_log_is_legal_too(self):
        n = 40
        rng = np.random.default_rng(8)
        cfg = small_config(
            n=n,
            x0=None,
            y0=None,
            behaviours0=(rng.random(n) < 0.4).astype(int),
            healths0=(rng.random(n) < 0.2).astype(int),
            horizon=5.0,
            infection_mode="contact",
        )
        traj, log = simulate(cfg)
        assert any(kind == "contact" for _, kind, _, _ in log)
        x, y = replay_events(cfg, log)
        assert x.mean() == pytest.approx(traj.xs[-1])
        assert y.mean() == pytest.approx(traj.ys[-1])

    def test_no_infections_without_initial_prevalence(self):
        cfg = small_config(y0=0.0, horizon=3.0)
        traj, log = simulate(cfg)
        assert np.all(traj.ys == 0.0)
        assert all(kind in ("adopt", "drop") for _, kind, _, _ in log)

    def test_epidemic_extinction_is_absorbing(self):
        # aggregated mode imports no cases: once the infection count hits
        # zero, no infection event may ever follow
        n = 30
        rng = np.random.default_rng(13)
        cfg = small_config(
            n=n,
            params=ModelParams(alpha=1.0, lam=0.1, mu=2.0, c=3.0, zeta=8.0),
            x0=None,
            y0=None,
            behaviours0=np.zeros(n, dtype=int),
            healths0=(rng.random(n) < 0.2).astype(int),
            horizon=50.0,
            seed=99,
        )
        _, log = simulate(cfg)
        n_inf = int(cfg.healths0.sum())
        extinct = n_inf == 0
        for _, kind, _, _ in log:
            if kind == "infection":
                assert not extinct
                n_inf += 1
            elif kind == "recovery":
                n_inf -= 1
                extinct = extinct or n_inf == 0
        assert extinct  # strongly subcritical: the epidemic must die

    def test_subcritical_epidemic_dies_out(self):
        p = ModelParams(alpha=1.0, lam=0.05, mu=1.0, c=3.0, zeta=8.0)
        for seed in (1, 2, 3):
            cfg = AbmConfig(
                params=p,
                graph=InfluenceGraph.complete(300),
                activities=np.full(300, p.alpha),
                horizon=200.0,
                sample_dt=5.0,
                seed=seed,
                x0=0.2,
                y0=0.3,
            )
            traj, _ = simulate(cfg)
            assert traj.ys[-1] == 0.0

    def test_general_graph_engine(self):
        # ring of 30 agents: recomputed-rate engine, log must replay cleanly
        p = example_params(zeta=8.0)
        n = 30
        adj = [[(i - 1) % n, (i + 1) % n] for i in range(n)]
        rng = np.random.default_rng(5)
        cfg = AbmConfig(
            params=p,
            graph=InfluenceGraph.from_adjacency(adj),
            activities=np.full(n, p.alpha),
            horizon=8.0,
            sample_dt=1.0,
            seed=42,
            behaviours0=(rng.random(n) < 0.5).astype(int),
            healths0=(rng.random(n) < 0.3).astype(int),
        )
        traj, log = simulate(cfg)
        x, y = replay_events(cfg, log)
        assert x.mean() == pytest.approx(traj.xs[-1])
        assert y.mean() == pytest.approx(traj.ys[-1])
        # determinism holds for this engine as well
        _, log2 = simulate(dataclasses.replace(cfg))
        assert log.events == log2.events

    def test_debug_invariant_checking(self):
        # heterogeneous activities exercise the rejection-sampling paths
        rng = np.random.default_rng(11)
        cfg = small_config(
            n=30,
            activities=rng.uniform(1.0, 5.0, 30),
            horizon=4.0,
            debug_check=True,
        )
        simulate(cfg)  # raises on any incremental bookkeeping drift
        cfg2 = small_config(
            n=30,
            activities=rng.uniform(1.0, 5.0, 30),
            horizon=4.0,
            infection_mode="contact",
            debug_check=True,
        )
        simulate(cfg2)
        # general graph: the cached imitation rates and channel totals are
        # compared with a from-scratch recomputation before every draw
        for mode in ("aggregated", "contact"):
            simulate(general_config(n=30, horizon=4.0, infection_mode=mode, debug_check=True))

        # a stale cache (one behaviour flipped, rates not recomputed) must raise
        cfg3 = general_config(n=30)
        g, p = cfg3.graph, cfg3.params
        pop = Population(cfg3.behaviours0.copy(), cfg3.healths0.copy(), cfg3.activities)
        x = pop.behaviours.astype(float)
        b = g.neighbor_mean(x)
        a = g.neighbor_mean(x * b)
        q01, q10 = switch_rates(g, pop, p)
        n1, n_inf = int(x.sum()), int(pop.healths.sum())
        totals = (p.mu * n_inf, float(q01[x == 0].sum()), float(q10[x == 1].sum()))
        abm_mod._debug_check_general(cfg3, pop, n1, n_inf, b, a, q10, *totals)
        k = int(g.neighbors(0)[0])  # node 0 imitates k, so flipping k changes B_0
        pop.behaviours[k] = 1 - pop.behaviours[k]
        n1 += 1 if pop.behaviours[k] else -1
        with pytest.raises(NumericalError, match="cached B"):
            abm_mod._debug_check_general(cfg3, pop, n1, n_inf, b, a, q10, *totals)
        # complete graph: a drifted infected-activity sum must raise
        pop = Population([1, 0, 0, 1], [0, 1, 0, 0], np.full(4, p.alpha))
        cfg4 = small_config(n=4)
        sets = [abm_mod._IndexedSet(4, np.nonzero(m)[0]) for m in
                (pop.behaviours == 1, pop.healths == 1,
                 (pop.behaviours == 0) & (pop.healths == 0))]
        a_elig = p.alpha  # only agent 2 is unprotected and susceptible
        abm_mod._debug_check_complete(cfg4, pop, 4, pop.activities, *sets, p.alpha, a_elig)
        with pytest.raises(NumericalError, match="infected activity"):
            abm_mod._debug_check_complete(cfg4, pop, 4, pop.activities, *sets, 2 * p.alpha, a_elig)

    @pytest.mark.parametrize("mode", ["aggregated", "contact"])
    @pytest.mark.parametrize("graph", ["complete", "general"])
    def test_event_counters_match_log(self, graph, mode):
        make = small_config if graph == "complete" else general_config
        cfg = make(infection_mode=mode, record_events=True)
        traj, log = simulate(cfg)
        counts = traj.meta["events"]
        assert set(counts) == {"recovery", "infection", "adopt", "drop", "contact"}
        tally = {kind: sum(1 for _, k, _, _ in log if k == kind) for kind in counts}
        assert counts == tally
        assert sum(counts.values()) == len(log) > 0
        # the counters stay on without the log; aggregated-mode draws do not
        # depend on the log, so the counts are the same
        quiet, _ = simulate(dataclasses.replace(cfg, record_events=False))
        if mode == "aggregated":
            assert quiet.meta["events"] == counts
        else:
            assert quiet.meta["events"]["contact"] > 0

    def test_warns_outside_payoff_ordering(self):
        p = ModelParams(alpha=3.0, lam=0.5, mu=1.0, c=0.5, zeta=8.0)
        cfg = small_config(params=p, horizon=1.0)
        with pytest.warns(UserWarning, match="payoff ordering"):
            simulate(cfg)


def replay_complete(cfg):
    """Independent replay of the complete-graph draw contract.

    Groups are plain lists with swap-with-last removal; channel totals and
    member weights come from the public per-node rate functions before every
    draw. Returns the event history, the number of rejected draws and the
    (x_bar, y_bar) state at each grid time."""
    p = cfg.params
    n = cfg.graph.n
    act = cfg.activities
    bidi = cfg.bidirectional
    contact = cfg.infection_mode == "contact"
    heterogeneous = np.ptp(act) > 0
    rng = np.random.default_rng(cfg.seed)
    if cfg.behaviours0 is not None:
        x = cfg.behaviours0.astype(int)
        y = cfg.healths0.astype(int)
    else:
        x = (rng.random(n) < cfg.x0).astype(int)
        y = (rng.random(n) < cfg.y0).astype(int)

    groups = {
        name: np.nonzero(mask)[0].tolist()
        for name, mask in (
            ("adopters", x == 1),
            ("nonadopters", x == 0),
            ("infected", y == 1),
            ("eligible", (x == 0) & (y == 0)),
        )
    }

    def remove(name, i):
        lst = groups[name]
        k = lst.index(i)
        last = lst.pop()
        if last != i:
            lst[k] = last

    def draw(name):
        lst = groups[name]
        return lst[int(rng.random() * len(lst))]

    def infect(i):
        y[i] = 1
        groups["infected"].append(i)
        remove("eligible", i)

    grid = abm_mod._grid(cfg)
    grid_state = []

    def sample_before(t_limit):
        while len(grid_state) < grid.size and grid[len(grid_state)] < t_limit:
            grid_state.append((x.sum() / n, y.sum() / n))

    events = []
    rejected = 0
    t = 0.0
    while True:
        pop = Population(x, y, act)
        q01, q10 = switch_rates(cfg.graph, pop, p)
        r_rec = p.mu * len(groups["infected"])
        if contact:
            r_mid = float(act.sum())  # the event log is on, so contacts always fire
        else:
            r_mid = sum(infection_rate(pop, i, p, bidi) for i in groups["eligible"])
        r_adopt = float(q01[x == 0].sum())
        r_drop = float(q10[x == 1].sum())
        total = r_rec + r_mid + r_adopt + r_drop
        if total <= 0:
            break
        t += rng.exponential(1.0 / total)
        sample_before(min(t, cfg.horizon))
        if t >= cfg.horizon:
            break
        u = rng.random() * total
        if u < r_rec:
            i = draw("infected")
            y[i] = 0
            remove("infected", i)
            if x[i] == 0:
                groups["eligible"].append(i)
            events.append((t, "recovery", i, None))
        elif u < r_rec + r_mid and contact:
            # initiator with probability proportional to its activity
            while True:
                i = int(rng.random() * n)
                if not heterogeneous or rng.random() * act.max() <= act[i]:
                    break
                rejected += 1
            j = int(rng.random() * (n - 1))
            if j >= i:
                j += 1
            events.append((t, "contact", i, j))
            pair = None
            if y[i] == 1 and y[j] == 0 and x[j] == 0:
                pair = (j, i)
            elif bidi and y[i] == 0 and x[i] == 0 and y[j] == 1:
                pair = (i, j)
            if pair is not None and rng.random() < p.lam:
                infect(pair[0])
                events.append((t, "infection", *pair))
        elif u < r_rec + r_mid:
            # eligible member with probability proportional to its infection
            # rate, by rejection against the rate of the most active agent
            n_inf = len(groups["infected"])
            a_inf = float(act[y == 1].sum())
            r_max = p.lam / (n - 1) * (act.max() * n_inf + a_inf)
            while True:
                i = draw("eligible")
                if not (heterogeneous and bidi):
                    break
                if rng.random() * r_max <= infection_rate(pop, i, p, bidi):
                    break
                rejected += 1
            infect(i)
            events.append((t, "infection", i, None))
        elif u < r_rec + r_mid + r_adopt:
            i = draw("nonadopters")
            x[i] = 1
            remove("nonadopters", i)
            groups["adopters"].append(i)
            if y[i] == 0:
                remove("eligible", i)
            events.append((t, "adopt", i, None))
        else:
            i = draw("adopters")
            x[i] = 0
            remove("adopters", i)
            groups["nonadopters"].append(i)
            if y[i] == 0:
                groups["eligible"].append(i)
            events.append((t, "drop", i, None))
    sample_before(math.inf)
    return events, rejected, np.array(grid_state)


def assert_same_history(ref, log, abs_t):
    assert len(ref) == len(log.events)
    for (t_ref, k_ref, a_ref, c_ref), (t_got, k_got, a_got, c_got) in zip(ref, log.events):
        assert k_ref == k_got and a_ref == a_got and c_ref == c_got
        assert t_got == pytest.approx(t_ref, rel=0, abs=abs_t)


class TestDrawByDrawReplay:
    """Mirror the documented per-event random-draw contract with an
    independent bookkeeping-free reference and demand identical histories."""

    def test_complete_uniform_aggregated(self):
        p = example_params(zeta=8.0)
        n = 12
        cfg = AbmConfig(
            params=p,
            graph=InfluenceGraph.complete(n),
            activities=np.full(n, p.alpha),
            horizon=3.0,
            sample_dt=1.0,
            seed=2024,
            behaviours0=np.array([1, 0, 0, 1, 0, 0, 0, 1, 0, 0, 1, 0]),
            healths0=np.array([0, 1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 1]),
        )
        _, log = simulate(cfg)
        assert len(log) > 10
        events, _, _ = replay_complete(cfg)
        assert_same_history(events, log, abs_t=1e-9)

    @pytest.mark.parametrize("activities", ["uniform", "heterogeneous"])
    @pytest.mark.parametrize("mode", ["aggregated", "contact"])
    @pytest.mark.parametrize("directionality", ["bidirectional", "activator-infects"])
    def test_complete_graph(self, mode, directionality, activities):
        p = example_params(zeta=5.0)
        n = 16
        acts = np.full(n, p.alpha)
        if activities == "heterogeneous":
            acts = np.random.default_rng(5).uniform(0.5, 6.0, n)
        cfg = AbmConfig(
            params=p,
            graph=InfluenceGraph.complete(n),
            activities=acts,
            horizon=3.0,
            sample_dt=0.5,
            seed=1,
            x0=0.3,
            y0=0.5,
            infection_mode=mode,
            directionality=directionality,
        )
        traj, log = simulate(cfg)
        kinds = {k for _, k, _, _ in log}
        assert {"recovery", "infection", "adopt", "drop"} <= kinds
        events, rejected, grid_state = replay_complete(cfg)
        assert_same_history(events, log, abs_t=1e-9)
        # the rejection-sampling paths really ran
        if activities == "heterogeneous" and (mode == "contact" or directionality == "bidirectional"):
            assert rejected > 0
        np.testing.assert_array_equal(traj.xs, grid_state[:, 0])
        np.testing.assert_array_equal(traj.ys, grid_state[:, 1])

    @pytest.mark.parametrize("mode", ["aggregated", "contact"])
    @pytest.mark.parametrize("directionality", ["bidirectional", "activator-infects"])
    def test_general_graph(self, mode, directionality):
        cfg = general_config(infection_mode=mode, directionality=directionality)
        p = cfg.params
        n = cfg.graph.n
        _, log = simulate(cfg)
        assert {"recovery", "infection", "adopt", "drop"} <= {k for _, k, _, _ in log}

        # reference: no cached state; every per-node rate vector is rebuilt
        # from the public rate functions before every draw
        rng = np.random.default_rng(cfg.seed)
        x = cfg.behaviours0.copy()
        y = cfg.healths0.copy()
        act = cfg.activities
        bidi = directionality == "bidirectional"

        def pick(rates):
            cum = np.cumsum(rates)
            return int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))

        events = []
        t = 0.0
        while True:
            pop = Population(x, y, act)
            q01, q10 = switch_rates(cfg.graph, pop, p)
            rec = np.where(y == 1, p.mu, 0.0)
            if mode == "contact":
                mid = act  # the event log is on, so contacts always fire
            else:
                mid = np.array(
                    [infection_rate(pop, i, p, bidi) if y[i] == 0 else 0.0 for i in range(n)]
                )
            adopt = np.where(x == 0, q01, 0.0)
            drop = np.where(x == 1, q10, 0.0)
            r_rec, r_mid, r_adopt, r_drop = (float(r.sum()) for r in (rec, mid, adopt, drop))
            total = r_rec + r_mid + r_adopt + r_drop
            if total <= 0:
                break
            t += rng.exponential(1.0 / total)
            if t >= cfg.horizon:
                break
            u = rng.random() * total
            if u < r_rec:
                i = pick(rec)
                y[i] = 0
                events.append((t, "recovery", i, None))
            elif u < r_rec + r_mid and mode == "aggregated":
                i = pick(mid)
                y[i] = 1
                events.append((t, "infection", i, None))
            elif u < r_rec + r_mid:
                i = pick(act)
                j = int(rng.random() * (n - 1))
                if j >= i:
                    j += 1
                events.append((t, "contact", i, j))
                pair = None
                if y[i] == 1 and y[j] == 0 and x[j] == 0:
                    pair = (j, i)
                elif bidi and y[i] == 0 and x[i] == 0 and y[j] == 1:
                    pair = (i, j)
                if pair is not None and rng.random() < p.lam:
                    y[pair[0]] = 1
                    events.append((t, "infection", *pair))
            elif u < r_rec + r_mid + r_adopt:
                i = pick(adopt)
                x[i] = 1
                events.append((t, "adopt", i, None))
            else:
                i = pick(drop)
                x[i] = 0
                events.append((t, "drop", i, None))

        assert len(events) == len(log.events)
        for (t_ref, k_ref, a_ref, c_ref), (t_got, k_got, a_got, c_got) in zip(
            events, log.events
        ):
            assert k_ref == k_got and a_ref == a_got and c_ref == c_got
            assert t_got == pytest.approx(t_ref, rel=0, abs=1e-12)


class TestEnsemble:
    def test_single_run_reduces_to_simulate(self):
        cfg = small_config()
        res = ensemble(cfg, n_runs=1)
        traj, _ = simulate(cfg)
        np.testing.assert_array_equal(res.x_mean, traj.xs)
        np.testing.assert_array_equal(res.y_mean, traj.ys)
        np.testing.assert_array_equal(res.x_std, 0.0)

    def test_consecutive_seeds_and_shapes(self):
        res = ensemble(small_config(seed=100), n_runs=4)
        assert res.seeds == [100, 101, 102, 103]
        assert res.finals.shape == (4, 2)
        assert res.x_mean.shape == res.times.shape
        assert np.all(res.x_std >= 0)

    def test_mean_trajectory_and_csv(self, tmp_path):
        res = ensemble(small_config(), n_runs=3)
        mt = res.mean_trajectory()
        np.testing.assert_array_equal(mt.xs, res.x_mean)
        out = tmp_path / "ens.csv"
        res.to_csv(out)
        assert out.read_text().splitlines()[0] == "t,x_mean,y_mean,x_std,y_std"

    def test_rejects_zero_runs(self):
        with pytest.raises(ConfigError):
            ensemble(small_config(), n_runs=0)


class TestConfig:
    def test_round_trip(self):
        cfg = small_config()
        again = AbmConfig.from_dict(cfg.to_dict())
        assert again.params == cfg.params
        assert again.graph == cfg.graph
        np.testing.assert_array_equal(again.activities, cfg.activities)
        assert (again.horizon, again.sample_dt, again.seed) == (5.0, 0.5, 1234)
        assert again.to_dict() == cfg.to_dict()

    def test_round_trip_with_explicit_vectors(self):
        cfg = small_config(
            n=4, x0=None, y0=None, behaviours0=[1, 0, 0, 1], healths0=[0, 1, 0, 0]
        )
        again = AbmConfig.from_dict(cfg.to_dict())
        np.testing.assert_array_equal(again.behaviours0, cfg.behaviours0)
        np.testing.assert_array_equal(again.healths0, cfg.healths0)

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(horizon=-1.0),
            dict(sample_dt=0.0),
            dict(infection_mode="direct"),
            dict(directionality="sideways"),
            dict(x0=1.5),
            dict(behaviours0=[1, 0], healths0=[0, 0]),  # wrong length, plus x0/y0 set
            dict(x0=None, y0=None),  # no initial condition at all
            dict(horizon=None),
        ],
    )
    def test_rejects_malformed(self, overrides):
        with pytest.raises(ConfigError):
            small_config(**overrides)

    def test_record_events_defaults_by_size(self):
        assert small_config(n=50).record_events is True
        big = small_config(n=1001)
        assert big.record_events is False

    def test_event_log_csv_header(self, tmp_path):
        _, log = simulate(small_config(horizon=1.0))
        out = tmp_path / "events.csv"
        log.to_csv(out)
        lines = out.read_text().splitlines()
        assert lines[0] == "# rng=numpy-pcg64 seed=1234"
        assert lines[1] == "t,kind,actor,counterpart"
