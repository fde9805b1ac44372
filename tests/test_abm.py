"""Event-driven stochastic simulator: rates, event logs, determinism, ensembles."""

import dataclasses
import gc
import math
import tracemalloc
from collections import Counter
from itertools import chain

import numpy as np
import pytest
from scipy import stats

from epigame import (
    AbmConfig,
    ConfigError,
    EventLog,
    InfluenceGraph,
    MacroState,
    ModelParams,
    NumericalError,
    ensemble,
    integrate_planar,
    simulate,
)
from epigame import abm as abm_mod
from epigame.meanfield import sample_grid
from .conftest import example_params
from .oracles import infection_rate, node_payoffs, switch_rates


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
        agents = (np.array([1] * 4 + [0] * 6), np.array([1] * 3 + [0] * 7), np.full(n, p.alpha))
        pi1, pi0 = node_payoffs(InfluenceGraph.complete(n), *agents, p)
        # the complete-graph payoffs pi1 = x + zeta*y and pi0 = 1 - x + c
        np.testing.assert_allclose(pi1, 0.4 + p.zeta * 0.3, rtol=1e-14)
        np.testing.assert_allclose(pi0, 1.0 - 0.4 + p.c, rtol=1e-14)

    def test_zero_prevalence_payoffs(self):
        p = example_params(zeta=8.0)
        pi1, pi0 = node_payoffs(InfluenceGraph.complete(4), np.zeros(4), np.zeros(4),
                                np.full(4, p.alpha), p)
        np.testing.assert_array_equal(pi1, 0.0)
        np.testing.assert_array_equal(pi0, 1.0 + p.c)

    def test_path_graph_hand_computation(self):
        # path 0-1-2, behaviours (1,0,1), middle agent infected, zeta=5, c=3:
        #   neighbourhood adoption shares (0, 1, 0), y_bar = 1/3
        #   pi1 = (5/3, 8/3, 5/3), pi0 = (4, 3, 4)
        #   q01 = (0, 5/3, 0), q10 = (3, 0, 3)
        p = example_params(zeta=5.0)
        g = InfluenceGraph.from_adjacency([[1], [0, 2], [1]])
        agents = ([1, 0, 1], [0, 1, 0], np.full(3, p.alpha))
        pi1, pi0 = node_payoffs(g, *agents, p)
        np.testing.assert_allclose(pi1, [5 / 3, 8 / 3, 5 / 3], rtol=1e-14)
        np.testing.assert_allclose(pi0, [4.0, 3.0, 4.0], rtol=1e-14)
        q01, q10 = switch_rates(g, *agents, p)
        np.testing.assert_allclose(q01, [0.0, 5 / 3, 0.0], rtol=1e-14)
        np.testing.assert_allclose(q10, [3.0, 0.0, 3.0], rtol=1e-14)

    def test_imitation_absorbing_at_consensus(self):
        p = example_params(zeta=8.0)
        g = InfluenceGraph.complete(5)
        q01, _ = switch_rates(g, np.zeros(5), np.zeros(5), np.full(5, p.alpha), p)
        np.testing.assert_array_equal(q01, 0.0)  # nobody to imitate
        _, q10 = switch_rates(g, np.ones(5), np.zeros(5), np.full(5, p.alpha), p)
        np.testing.assert_array_equal(q10, 0.0)

    def test_infection_rate_uniform_formula(self):
        # n=5, two infected, uniform activities: lam/(n-1) * (n*a*2/5 + 2a) = lam*a
        p = example_params(zeta=8.0)
        agents = (np.zeros(5), [1, 1, 0, 0, 0], np.full(5, p.alpha))
        assert infection_rate(*agents, 2, p) == pytest.approx(p.lam * p.alpha, rel=1e-14)

    def test_infection_rate_one_directional(self):
        # only contacts initiated by the infected count
        p = example_params(zeta=8.0)
        agents = (np.zeros(5), [1, 1, 0, 0, 0], np.full(5, p.alpha))
        expect = p.lam / 4 * 2 * p.alpha
        rate = infection_rate(*agents, 2, p, bidirectional=False)
        assert rate == pytest.approx(expect, rel=1e-14)

    def test_infection_rate_guards(self):
        p = example_params(zeta=8.0)
        agents = ([1, 0, 0], [0, 1, 0], np.full(3, p.alpha))
        assert infection_rate(*agents, 0, p) == 0.0  # protected
        with pytest.raises(ValueError):
            infection_rate(*agents, 1, p)  # already infected


def random_digraph(rng, n, max_degree=4):
    """Directed influence graph with out-degrees 1..max_degree, no self-loops."""
    adj = []
    for i in range(n):
        nbrs = rng.choice(n - 1, size=int(rng.integers(1, max_degree + 1)), replace=False)
        nbrs[nbrs >= i] += 1
        adj.append(sorted(nbrs.tolist()))
    return adj


# general_config's seed for the coverage cases in contact mode: at 77 the
# contact stream leaves those runs without a rejected drop proposal
GENERAL_CONTACT_SEED = 78


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


def heterogeneous_complete_config(**overrides):
    """general_config's agents, activities and initial state on the complete
    graph: a free path there, in either infection mode."""
    cfg = general_config(**overrides)
    return dataclasses.replace(cfg, graph=InfluenceGraph.complete(cfg.graph.n))


def frozen_extinction_config(**overrides):
    """The frozen path in contact mode, logged, where the disease dies at
    about t = 0.8 while protection lives and the behaviour layer moves on."""
    n = 30
    base = dict(
        params=ModelParams(alpha=3.0, lam=0.1, mu=1.0, c=3.0, zeta=8.0),
        graph=InfluenceGraph.complete(n),
        activities=np.full(n, 3.0),
        horizon=5.0,
        sample_dt=0.5,
        seed=5,
        x0=0.95,
        y0=0.1,
        infection_mode="contact",
        record_events=True,
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

    @pytest.mark.parametrize("graph", ["complete", "ring"])
    def test_grid_ends_at_horizon_like_the_ode(self, graph):
        # 73 * 0.1 rounds to 7.300000000000001; both samplers end at 7.3 itself
        n = 30
        g = (InfluenceGraph.complete(n) if graph == "complete"
             else InfluenceGraph.from_adjacency([[(i + 1) % n] for i in range(n)]))
        traj, _ = simulate(small_config(n=n, graph=g, horizon=7.3, sample_dt=0.1))
        ode = integrate_planar(MacroState(0.4, 0.2), traj.params, horizon=7.3, sample_dt=0.1)
        assert traj.times[-1] == 7.3
        np.testing.assert_array_equal(traj.times, ode.times)

    def test_seed_determinism(self):
        cfg = small_config()
        t1, l1 = simulate(cfg)
        t2, l2 = simulate(small_config())
        assert l1.events == l2.events
        np.testing.assert_array_equal(t1.xs, t2.xs)
        np.testing.assert_array_equal(t1.ys, t2.ys)

    def test_event_log_holds_no_per_event_objects(self):
        # the loop's events are floats and ints, nothing for the garbage
        # collector to track, and a free contact path's contacts are arrays
        _, log = simulate(small_config())
        assert len(log) > 0 and len(log.flat) == 4 * len(log) and not log.contacts
        assert not any(map(gc.is_tracked, log.flat))
        _, log = simulate(general_config(infection_mode="contact", record_events=True))
        assert not any(map(gc.is_tracked, log.flat))
        assert all(isinstance(c, np.ndarray) for c in chain.from_iterable(log.contacts))
        assert len(log) == len(log.flat) // 4 + sum(t.size for t, _, _ in log.contacts)

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
        # ring of 30 agents: thinning walks on a sparse graph, log must replay cleanly
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

    @pytest.mark.parametrize("mode", ["aggregated", "contact"])
    @pytest.mark.parametrize("graph", ["complete", "general"])
    def test_event_counters_match_log(self, graph, mode):
        make = small_config if graph == "complete" else general_config
        seed = {"seed": GENERAL_CONTACT_SEED} if (graph, mode) == ("general", "contact") else {}
        cfg = make(infection_mode=mode, record_events=True, **seed)
        traj, log = simulate(cfg)
        counts = traj.meta["events"]
        assert set(counts) == {"recovery", "infection", "adopt", "drop", "contact"}
        tally = {kind: sum(1 for _, k, _, _ in log if k == kind) for kind in counts}
        assert counts == tally
        assert sum(counts.values()) == len(log) > 0
        # rejected adopt and drop proposals: only the thinning walks make them
        nulls = traj.meta["null_proposals"]
        assert set(nulls) == {"adopt", "drop"}
        assert all(type(v) is int for v in nulls.values())
        if graph == "complete":
            assert nulls == {"adopt": 0, "drop": 0}
        else:
            assert nulls["adopt"] > 0 and nulls["drop"] > 0

    @pytest.mark.parametrize("make, overrides", [
        pytest.param("lumpable", {}, id="frozen-aggregated"),
        pytest.param("small", dict(infection_mode="contact"), id="frozen-contact"),
        pytest.param("extinction", {}, id="frozen-contact-extinction"),
        pytest.param("heterogeneous-complete", {}, id="complete-heterogeneous-aggregated"),
        pytest.param("heterogeneous-complete", dict(infection_mode="contact"),
                     id="complete-heterogeneous-contact-bidirectional"),
        pytest.param("heterogeneous-complete",
                     dict(infection_mode="contact", directionality="activator-infects"),
                     id="complete-heterogeneous-contact-activator-infects"),
        pytest.param("general", {}, id="general-aggregated"),
        pytest.param("general", dict(infection_mode="contact"), id="general-contact-bidirectional"),
        pytest.param("general", dict(infection_mode="contact", directionality="activator-infects"),
                     id="general-contact-activator-infects"),
    ])
    def test_quiet_equals_logged(self, make, overrides):
        # no path's draws depend on the log, so a quiet run's samples, counts
        # and both streams' words are those of its logged twin: also where
        # the quiet twin runs the count phase, and where the frozen contact
        # channel stops with the disease
        make = {"lumpable": lumpable_config, "small": small_config,
                "extinction": frozen_extinction_config, "general": general_config,
                "heterogeneous-complete": heterogeneous_complete_config}[make]
        cfg = make(record_events=True, **overrides)
        logged, log = simulate(cfg)
        quiet, quiet_log = simulate(dataclasses.replace(cfg, record_events=False))
        assert len(quiet_log) == 0 and len(log) > 0
        assert quiet.xs.tobytes() == logged.xs.tobytes()
        assert quiet.ys.tobytes() == logged.ys.tobytes()
        for key in ("events", "null_proposals", "words", "contact_words"):
            assert quiet.meta[key] == logged.meta[key]
        if make is lumpable_config:
            assert quiet.meta["lumped_at"] is not None
        if cfg.infection_mode == "contact":
            # a contact infects, and the loop's wait is drawn again after it
            assert logged.meta["events"]["contact"] > 0
            assert logged.meta["events"]["infection"] > 0

    def test_free_contact_quiet_memory_is_bounded(self):
        # a quiet run holds its contact marks a block at a time. Nobody
        # protects and the activities are ten times general_config's, so the
        # run is mostly contacts: about 154 000 by horizon 200, 3.7 MB as
        # arrays if they were all kept
        cfg = general_config(infection_mode="contact", record_events=False)
        cfg = dataclasses.replace(cfg, activities=10 * cfg.activities,
                                  behaviours0=np.zeros(cfg.graph.n, dtype=int))
        peaks = []
        for horizon in (20.0, 200.0):
            tracemalloc.start()
            try:
                traj, _ = simulate(dataclasses.replace(cfg, horizon=horizon))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert traj.meta["events"]["contact"] > 100_000
        assert peaks[1] - peaks[0] < 2**20

    def test_warns_outside_payoff_ordering(self):
        p = ModelParams(alpha=3.0, lam=0.5, mu=1.0, c=0.5, zeta=8.0)
        cfg = small_config(params=p, horizon=1.0)
        with pytest.warns(UserWarning, match="payoff ordering"):
            simulate(cfg)


def scalar_contacts(seed, act, horizon):
    """The contact stream of a free contact path by scalar draws: each
    contact's time, initiator, partner and transmission uniform before the
    horizon, and the stream's generator once its last block is drawn.

    The stream is ``default_rng(seed)``'s PCG64 jumped once, read in blocks
    of CONTACT_BLOCK contacts until a block reaches the horizon. Each
    contact reads four scalar ``random()`` uniforms in turn: the wait's u,
    with the wait -log(1 - u) (``np.log`` on the scalar) over the activity
    total, summed into its time; the initiator, from the engine's alias
    table (whose law ``test_alias_table_is_exact`` checks) or a uniform
    index with uniform activities; the partner, uniform over the other
    n - 1 agents; and the uniform against lambda."""
    n = act.size
    heterogeneous = np.ptp(act) > 0
    if heterogeneous:
        prob, alias = abm_mod._alias_table(act.tolist())
    rate = float(act.sum())
    crng = np.random.Generator(np.random.PCG64(seed).jumped())
    contacts, t = [], 0.0
    while t < horizon:
        for _ in range(abm_mod.CONTACT_BLOCK):
            t = t + float(-np.log(1.0 - crng.random())) / rate
            scaled = crng.random() * n
            i = int(scaled)
            if heterogeneous and scaled - i >= prob[i]:
                i = alias[i]
            j = int(crng.random() * (n - 1))
            if j >= i:
                j += 1
            u_lam = crng.random()
            if t < horizon:
                contacts.append((t, i, j, u_lam))
    return contacts, crng


def replay_complete(cfg, nulls=None):
    """Independent replay of the draw contract, on the complete graph and on
    any other graph.

    Every path draws scalar ``rng.random()`` uniforms, the doubles of the
    engine's word blocks (``TestSamplers`` checks that), so the replay's
    generator reads exactly the words the loop reads. The frozen path
    (complete graph, uniform activities) waits ``rng.exponential(1/R)`` and
    draws its contacts in the loop, only while someone is infected; every
    other path waits -log(1 - u)/R, and in contact mode it takes the
    contacts from their own stream (`scalar_contacts`): the loop's clock
    leaves them out, a contact whose transmission uniform is below lambda
    infects if its pair is transmissible, and the wait is drawn again after
    such an infection.
    Groups are plain lists with swap-with-last removal; channel totals and
    member weights come from the public per-node rate functions before every
    draw. Off the complete graph the adopt and drop channels fire at their
    thinning bounds, and a neighbour walk accepts or rejects each proposal;
    ``nulls``, a dict keyed by "adopt" and "drop", counts the rejected ones.
    Returns the event history, the number of rejected draws, the
    (x_bar, y_bar) state at each grid time, the replay's generator and the
    contact stream's generator (None on the frozen path and in aggregated
    mode)."""
    p = cfg.params
    n = cfg.graph.n
    act = cfg.activities
    bidi = cfg.bidirectional
    contact = cfg.infection_mode == "contact"
    heterogeneous = np.ptp(act) > 0
    complete = cfg.graph.is_complete
    if nulls is None:
        nulls = {"adopt": 0, "drop": 0}
    rng = np.random.default_rng(cfg.seed)
    if cfg.behaviours0 is not None:
        x = cfg.behaviours0.astype(int)
        y = cfg.healths0.astype(int)
    else:
        x = (rng.random(n) < cfg.x0).astype(int)
        y = (rng.random(n) < cfg.y0).astype(int)

    frozen = complete and not heterogeneous
    uniform = rng.random
    stream, crng = [], None
    if contact and not frozen:
        stream, crng = scalar_contacts(cfg.seed, act, cfg.horizon)
    stream.append((math.inf, -1, -1, 1.0))  # no contact after the horizon
    stream = iter(stream)
    next_contact = next(stream)

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
        return lst[int(uniform() * len(lst))]

    def out_neighbour(i):
        nbrs = cfg.graph.neighbors(i)
        return int(nbrs[int(uniform() * len(nbrs))])

    def walk_accepts(i, side, slack):
        # P(accept) = mean over out-neighbours j of [x_j == side] *
        # (slack + share of j's out-neighbours with x == side) / (1 + slack)
        j = out_neighbour(i)
        if x[j] != side:
            return False
        if uniform() * (1.0 + slack) < slack:
            return True
        return x[out_neighbour(j)] == side

    def infect(i):
        y[i] = 1
        groups["infected"].append(i)
        remove("eligible", i)

    grid = sample_grid(cfg.horizon, cfg.sample_dt)
    grid_state = []

    def sample_before(t_limit):
        while len(grid_state) < grid.size and grid[len(grid_state)] < t_limit:
            grid_state.append((x.sum() / n, y.sum() / n))

    def transmission(i, j):
        if y[i] == 1 and y[j] == 0 and x[j] == 0:
            return j, i
        if bidi and y[i] == 0 and x[i] == 0 and y[j] == 1:
            return i, j
        return None

    events = []
    rejected = 0
    t = 0.0
    while True:
        r_rec = p.mu * len(groups["infected"])
        if contact and not frozen:
            r_mid = 0.0  # the contacts have their own stream
        elif contact:
            # contacts cannot change the state while nobody is infected
            r_mid = float(act.sum()) if groups["infected"] else 0.0
        else:
            r_mid = sum(infection_rate(x, y, act, i, p, bidi) for i in groups["eligible"])
        n1 = len(groups["adopters"])
        zy = p.zeta * (len(groups["infected"]) / n)
        if complete:
            q01, q10 = switch_rates(cfg.graph, x, y, act, p)
            r_adopt = float(q01[x == 0].sum())
            r_drop = float(q10[x == 1].sum())
        else:
            r_adopt = (n - n1) * (1.0 + zy) if n1 > 0 else 0.0
            r_drop = n1 * (1.0 + p.c) if n1 < n else 0.0
        total = r_rec + r_mid + r_adopt + r_drop
        if total <= 0:
            break
        if frozen:
            t_new = t + rng.exponential(1.0 / total)
        else:
            t_new = t + -math.log(1.0 - uniform()) / total
        # the stream's contacts before the wait's end; one that infects ends it
        pair = None
        while pair is None and next_contact[0] < t_new:
            t_c, i, j, u_lam = next_contact
            events.append((t_c, "contact", i, j))
            next_contact = next(stream)
            if u_lam < p.lam:
                pair = transmission(i, j)
        if pair is not None:
            t = t_c
            sample_before(t)
            infect(pair[0])
            events.append((t, "infection", *pair))
            continue
        t = t_new
        sample_before(min(t, cfg.horizon))
        if t >= cfg.horizon:
            break
        u = uniform() * total
        if u < r_rec:
            i = draw("infected")
            y[i] = 0
            remove("infected", i)
            if x[i] == 0:
                groups["eligible"].append(i)
            events.append((t, "recovery", i, None))
        elif u < r_rec + r_mid and contact:
            # the frozen path's contact: a uniform initiator
            i = int(uniform() * n)
            j = int(uniform() * (n - 1))
            if j >= i:
                j += 1
            events.append((t, "contact", i, j))
            pair = transmission(i, j)
            if pair is not None and uniform() < p.lam:
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
                if uniform() * r_max <= infection_rate(x, y, act, i, p, bidi):
                    break
                rejected += 1
            infect(i)
            events.append((t, "infection", i, None))
        elif u < r_rec + r_mid + r_adopt:
            i = draw("nonadopters")
            if not complete and not walk_accepts(i, 1, zy):
                nulls["adopt"] += 1
                rejected += 1
                continue
            x[i] = 1
            remove("nonadopters", i)
            groups["adopters"].append(i)
            if y[i] == 0:
                remove("eligible", i)
            events.append((t, "adopt", i, None))
        else:
            i = draw("adopters")
            if not complete and not walk_accepts(i, 0, p.c):
                nulls["drop"] += 1
                rejected += 1
                continue
            x[i] = 0
            remove("adopters", i)
            groups["nonadopters"].append(i)
            if y[i] == 0:
                groups["eligible"].append(i)
            events.append((t, "drop", i, None))
    # the stream's contacts after the last event
    events.extend((t_c, "contact", i, j) for t_c, i, j, _ in chain([next_contact], stream)
                  if t_c < math.inf)
    sample_before(math.inf)
    return events, rejected, np.array(grid_state), rng, crng


def assert_replay_read_the_loop_words(cfg, traj, rng, crng):
    """The replay's generator `rng` read the words the loop reports
    (``meta["words"]``), after the 2n of a sampled initial state, and its
    contact stream's `crng` those of ``meta["contact_words"]`` (0 when the
    run has no contact stream, `crng` None; four words per contact of
    whole blocks otherwise)."""
    initial = 0 if cfg.behaviours0 is not None else 2 * cfg.graph.n
    advanced = np.random.default_rng(cfg.seed).bit_generator.advance(initial + traj.meta["words"])
    assert rng.bit_generator.state == advanced.state
    if crng is None:
        assert traj.meta["contact_words"] == 0
    else:
        assert traj.meta["contact_words"] % (4 * abm_mod.CONTACT_BLOCK) == 0
        advanced = np.random.PCG64(cfg.seed).jumped().advance(traj.meta["contact_words"])
        assert crng.bit_generator.state == advanced.state


def assert_same_history(ref, log, abs_t):
    assert len(ref) == len(log.events)
    for (t_ref, k_ref, a_ref, c_ref), (t_got, k_got, a_got, c_got) in zip(ref, log.events):
        assert k_ref == k_got and a_ref == a_got and c_ref == c_got
        assert t_got == pytest.approx(t_ref, rel=0, abs=abs_t)


def first_event_rates(cfg):
    """Exact rate of every (kind, actor) channel in the initial state of cfg,
    from the reference rate formulas; zero-rate channels included."""
    p = cfg.params
    x, y, act = cfg.behaviours0, cfg.healths0, cfg.activities
    q01, q10 = switch_rates(cfg.graph, x, y, act, p)
    rates = {}
    for i in range(cfg.graph.n):
        if y[i] == 1:
            rates["recovery", i] = p.mu
        elif cfg.infection_mode == "aggregated":
            rates["infection", i] = infection_rate(x, y, act, i, p, cfg.bidirectional)
        if cfg.infection_mode == "contact":
            rates["contact", i] = float(act[i])  # the log is on: every contact is an event
        if x[i] == 0:
            rates["adopt", i] = float(q01[i])
        else:
            rates["drop", i] = float(q10[i])
    return rates


# 4 configurations x 2 tests at a family-wise false-alarm rate of 1e-3
LAW_SEEDS = 10_000
LAW_LEVEL = 1e-3 / 8
# the complete graph with heterogeneous activities, a family of its own:
# 2 configurations x 2 tests at a family-wise false-alarm rate of 1e-3
COMPLETE_LAW_LEVEL = 1e-3 / 4


def assert_first_event_law(cfg, level):
    """The first event of LAW_SEEDS seeded runs from cfg's initial state:
    its (kind, actor) by chi-square against the exact channel rates, and its
    time by Kolmogorov-Smirnov against the exponential in their total,
    truncated at a horizon before which about 86% of the runs see an event."""
    rates = first_event_rates(cfg)
    total = sum(rates.values())
    zero = {cell for cell, r in rates.items() if r == 0.0}
    horizon = 2.0 / total
    cfg = dataclasses.replace(cfg, horizon=horizon, sample_dt=horizon)
    firsts = []
    for seed in range(LAW_SEEDS):
        _, log = simulate(dataclasses.replace(cfg, seed=seed))
        if len(log):
            firsts.append(log.events[0])
    seen = Counter((kind, actor) for _, kind, actor, _ in firsts)
    assert not [cell for cell in seen if cell not in rates or cell in zero]

    cells = [cell for cell, r in rates.items() if r > 0.0]
    expected = np.array([len(firsts) * rates[cell] / total for cell in cells])
    observed = np.array([seen[cell] for cell in cells], dtype=float)
    small = expected < 5.0
    if small.any():  # pool sparse cells into one
        expected = np.append(expected[~small], expected[small].sum())
        observed = np.append(observed[~small], observed[small].sum())
    assert stats.chisquare(observed, expected).pvalue > level

    times = np.array([t for t, _, _, _ in firsts])
    cdf = lambda t: np.expm1(-total * t) / np.expm1(-total * horizon)  # noqa: E731
    assert stats.kstest(times, cdf).pvalue > level


class TestFirstEventLaw:
    """From a fixed state, the first real event of many seeded runs must
    follow the exact rates (``assert_first_event_law``). On a random digraph
    null proposals of the thinning walks are not events, so this tests the
    walks' acceptance law too; on the complete graph with heterogeneous
    activities it tests the alias-table contact initiator and the rejection
    for the aggregated target."""

    @pytest.mark.slow
    @pytest.mark.parametrize("mode", ["aggregated", "contact"])
    @pytest.mark.parametrize("directionality", ["bidirectional", "activator-infects"])
    def test_first_event_follows_exact_rates(self, mode, directionality):
        # seed 20: some non-adopters have no adopting out-neighbour, some
        # adopters none that does not adopt, and some susceptibles protect,
        # so zero-rate adopt, drop and infection channels exist
        cfg = general_config(seed=20, n=12, infection_mode=mode,
                             directionality=directionality, record_events=True)
        zero = {cell for cell, r in first_event_rates(cfg).items() if r == 0.0}
        assert {"adopt", "drop"} <= {kind for kind, _ in zero}
        assert_first_event_law(cfg, LAW_LEVEL)

    @pytest.mark.slow
    @pytest.mark.parametrize("mode", ["aggregated", "contact"])
    def test_complete_graph_heterogeneous_activities(self, mode):
        cfg = general_config(seed=20, n=12, graph=InfluenceGraph.complete(12),
                             infection_mode=mode, record_events=True)
        assert cfg.bidirectional and np.ptp(cfg.activities) > 0
        assert_first_event_law(cfg, COMPLETE_LAW_LEVEL)


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
        traj, log = simulate(cfg)
        assert len(log) > 10
        events, _, _, rng, crng = replay_complete(cfg)
        assert_same_history(events, log, abs_t=1e-9)
        assert_replay_read_the_loop_words(cfg, traj, rng, crng)

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
        events, rejected, grid_state, rng, crng = replay_complete(cfg)
        assert_same_history(events, log, abs_t=1e-9)
        assert_replay_read_the_loop_words(cfg, traj, rng, crng)
        # the rejection for the aggregated bidirectional target really ran
        if activities == "heterogeneous" and mode == "aggregated" and directionality == "bidirectional":
            assert rejected > 0
        np.testing.assert_array_equal(traj.xs, grid_state[:, 0])
        np.testing.assert_array_equal(traj.ys, grid_state[:, 1])

    @pytest.mark.parametrize("mode", ["aggregated", "contact"])
    @pytest.mark.parametrize("directionality", ["bidirectional", "activator-infects"])
    def test_general_graph(self, mode, directionality):
        # random digraph, heterogeneous activities: the thinning walks, the
        # alias table for the contact initiator and the rejection for the
        # aggregated infection target all run
        seed = GENERAL_CONTACT_SEED if mode == "contact" else 77
        cfg = general_config(seed, infection_mode=mode, directionality=directionality)
        traj, log = simulate(cfg)
        assert {"recovery", "infection", "adopt", "drop"} <= {k for _, k, _, _ in log}
        nulls = {"adopt": 0, "drop": 0}
        events, _, grid_state, rng, crng = replay_complete(cfg, nulls)
        assert_same_history(events, log, abs_t=1e-9)
        assert_replay_read_the_loop_words(cfg, traj, rng, crng)
        assert nulls["adopt"] > 0 and nulls["drop"] > 0
        assert traj.meta["null_proposals"] == nulls
        np.testing.assert_array_equal(traj.xs, grid_state[:, 0])
        np.testing.assert_array_equal(traj.ys, grid_state[:, 1])

    def test_frozen_contacts_stop_with_the_disease(self):
        # once nobody is infected the frozen contact channel is silent, log
        # or no log, while protection lives and drops go on
        cfg = frozen_extinction_config()
        traj, log = simulate(cfg)
        extinct = max(t for t, kind, _, _ in log if kind == "recovery")
        before = {kind for t, kind, _, _ in log if t <= extinct}
        after = {kind for t, kind, _, _ in log if t > extinct}
        assert traj.ys[-1] == 0.0 and extinct < cfg.horizon
        assert "contact" in before and "drop" in after and "contact" not in after
        events, _, grid_state, rng, crng = replay_complete(cfg)
        assert_same_history(events, log, abs_t=1e-9)
        assert_replay_read_the_loop_words(cfg, traj, rng, crng)
        np.testing.assert_array_equal(traj.xs, grid_state[:, 0])
        np.testing.assert_array_equal(traj.ys, grid_state[:, 1])

    def test_eligible_group_empties_and_refills(self):
        # heterogeneous activities off the dyadic grid and a fast infection:
        # the eligible group empties, its activity sum is then 0.0, and it
        # refills on recoveries; the replay sums the activities afresh
        n = 5
        cfg = AbmConfig(
            params=ModelParams(alpha=3.0, lam=1.0, mu=1.0, c=3.0, zeta=5.0),
            graph=InfluenceGraph.complete(n),
            activities=np.array([3.3, 1.1, 2.2, 4.4, 7.7]),
            horizon=5.0,
            sample_dt=0.5,
            seed=0,
            behaviours0=np.array([1, 0, 0, 0, 0]),
            healths0=np.array([0, 1, 0, 0, 0]),
            record_events=True,
        )
        traj, log = simulate(cfg)
        x, y = cfg.behaviours0.copy(), cfg.healths0.copy()
        eligible = []  # the size of the eligible group after each event
        for _, kind, i, _ in log:
            if kind in ("recovery", "infection"):
                y[i] = kind == "infection"
            else:
                x[i] = kind == "adopt"
            eligible.append(int(((x == 0) & (y == 0)).sum()))
        assert 0 in eligible and max(eligible[eligible.index(0):]) > 0
        events, rejected, grid_state, rng, crng = replay_complete(cfg)
        assert rejected > 0
        assert_same_history(events, log, abs_t=1e-9)
        assert_replay_read_the_loop_words(cfg, traj, rng, crng)
        np.testing.assert_array_equal(traj.xs, grid_state[:, 0])
        np.testing.assert_array_equal(traj.ys, grid_state[:, 1])


def lumpable_config(n=200, zeta=5.0, lam=0.5, alpha=3.0, seed=1, c=3.0, **overrides):
    """The frozen path without a log: the complete graph, uniform activities
    and aggregated infection, where the count phase may take over."""
    base = dict(
        params=ModelParams(alpha=alpha, lam=lam, mu=1.0, c=c, zeta=zeta),
        graph=InfluenceGraph.complete(n),
        activities=np.full(n, alpha),
        horizon=10.0,
        sample_dt=0.1,
        seed=seed,
        record_events=False,
    )
    base.update(overrides)
    if "behaviours0" not in base:
        base.setdefault("x0", 0.3)
        base.setdefault("y0", 0.2)
    return AbmConfig(**base)


class TestCountPhaseReplay:
    """Once a layer is absorbed, a run without a log goes on as its count
    chain (``meta["lumped_at"]``); with the log on the agent loop runs to
    the end. The two must agree to the bit."""

    @staticmethod
    def assert_quiet_equals_logged(cfg):
        quiet, _ = simulate(cfg)
        logged, _ = simulate(dataclasses.replace(cfg, record_events=True))
        assert quiet.xs.tobytes() == logged.xs.tobytes()
        assert quiet.ys.tobytes() == logged.ys.tobytes()
        assert quiet.meta["events"] == logged.meta["events"]
        assert quiet.meta["null_proposals"] == logged.meta["null_proposals"]
        assert quiet.meta["words"] == logged.meta["words"]
        assert logged.meta["lumped_at"] is None
        return quiet

    @staticmethod
    def state_at_lumping(traj):
        """The (x_bar, y_bar) sample at the first grid time after lumped_at."""
        k = int(np.searchsorted(traj.times, traj.meta["lumped_at"], side="right"))
        return traj.xs[k], traj.ys[k]

    @pytest.mark.parametrize("directionality, alpha, lam", [
        ("bidirectional", 3.0, 0.5),
        ("activator-infects", 3.0, 0.5),
        ("bidirectional", 0.7, 0.9),  # activity sums that round
    ])
    def test_protection_dies_mid_run(self, directionality, alpha, lam):
        cfg = lumpable_config(directionality=directionality, alpha=alpha, lam=lam)
        traj = self.assert_quiet_equals_logged(cfg)
        assert 0.0 < traj.meta["lumped_at"] < traj.times[-1]
        assert self.state_at_lumping(traj)[0] == 0.0
        assert traj.ys[-1] > 0.0  # the SIS layer goes on in the count phase

    def test_disease_dies_while_behaviour_moves(self):
        cfg = lumpable_config(n=100, lam=0.1, seed=2, x0=0.9, y0=0.05)
        traj = self.assert_quiet_equals_logged(cfg)
        x, y = self.state_at_lumping(traj)
        assert y == 0.0 and x > 0.0
        assert traj.meta["events"]["drop"] > 0

    def test_both_layers_die_before_the_horizon(self):
        traj = self.assert_quiet_equals_logged(lumpable_config(lam=0.1, x0=0.5, horizon=30.0))
        assert traj.xs[-1] == 0.0 and traj.ys[-1] == 0.0
        assert 0.0 < traj.meta["lumped_at"] < traj.times[-1]

    def test_activities_off_the_dyadic_grid(self):
        # at alpha 0.3 the activity sums come from the counts, so the
        # disease-free state starts the count phase when the last infected
        # recovers, while the behaviour layer still moves
        cfg = lumpable_config(n=100, alpha=0.3, seed=4, x0=0.95, y0=0.1)
        traj = self.assert_quiet_equals_logged(cfg)
        before = traj.times < traj.meta["lumped_at"]
        assert (traj.ys[before] > 0.0).all()
        x, y = self.state_at_lumping(traj)
        assert y == 0.0 and x > 0.0

    @pytest.mark.parametrize("initial", [
        dict(x0=0.0, y0=0.3),
        dict(behaviours0=np.r_[np.ones(20, int), np.zeros(30, int)], healths0=np.zeros(50, int)),
    ], ids=["nobody-protects", "nobody-infected"])
    def test_absorbed_at_the_start(self, initial):
        n = 50 if "healths0" in initial else 200
        traj = self.assert_quiet_equals_logged(lumpable_config(n=n, **initial))
        assert traj.meta["lumped_at"] == 0.0
        assert sum(traj.meta["events"].values()) > 0

    def test_count_phase_follows_the_replay(self):
        # an oracle that shares no code with the loop: grid states and the
        # generator's advance equal the draw-by-draw replay's
        cfg = lumpable_config(n=30, horizon=5.0, sample_dt=0.5)
        traj, _ = simulate(cfg)
        assert 0.0 < traj.meta["lumped_at"] < cfg.horizon
        events, _, grid_state, rng, crng = replay_complete(cfg)
        assert {"adopt", "drop"} <= {kind for _, kind, _, _ in events}
        np.testing.assert_array_equal(traj.xs, grid_state[:, 0])
        np.testing.assert_array_equal(traj.ys, grid_state[:, 1])
        assert_replay_read_the_loop_words(cfg, traj, rng, crng)

    @pytest.mark.parametrize("overrides", [
        dict(infection_mode="contact"),
        dict(activities=np.r_[np.full(100, 2.0), np.full(100, 4.0)]),
        dict(record_events=True),
    ], ids=["contact", "heterogeneous", "logged"])
    def test_only_the_frozen_quiet_aggregated_path_lumps(self, overrides):
        assert simulate(lumpable_config())[0].meta["lumped_at"] is not None
        traj, _ = simulate(lumpable_config(**overrides))
        assert traj.meta["lumped_at"] is None
        assert traj.xs[-1] == 0.0  # protection died here too

    @staticmethod
    def assert_long_count_phase_equals_logged(cfg):
        """Quiet equals logged bit for bit in a run whose count phase reads
        at least 20 word blocks; ``lumped_events`` counts the logged twin's
        events after ``lumped_at``, and is 0 where no count phase ran."""
        quiet, _ = simulate(cfg)
        logged, log = simulate(dataclasses.replace(cfg, record_events=True))
        assert quiet.xs.tobytes() == logged.xs.tobytes()
        assert quiet.ys.tobytes() == logged.ys.tobytes()
        for key in ("events", "null_proposals", "words"):
            assert quiet.meta[key] == logged.meta[key]
        lumped_at, lumped_events = quiet.meta["lumped_at"], quiet.meta["lumped_events"]
        assert logged.meta["lumped_at"] is None and logged.meta["lumped_events"] == 0
        assert lumped_events == sum(t > lumped_at for t in log.flat[0::4])
        assert 3 * lumped_events > 20 * abm_mod.UNIFORM_BLOCK
        return quiet

    @pytest.mark.parametrize("overrides", [
        dict(),
        dict(directionality="activator-infects"),
        # activities off the dyadic grid
        dict(n=4000, alpha=0.7, lam=0.9),
        dict(n=4000, alpha=1.4, lam=0.9, directionality="activator-infects"),
    ], ids=["bidirectional", "activator-infects", "rounded-sums", "rounded-sums-activator-infects"])
    def test_long_disease_layer_cut_by_the_horizon(self, overrides):
        cfg = lumpable_config(**{"n": 2000, "horizon": 30.0, **overrides})
        traj = self.assert_long_count_phase_equals_logged(cfg)
        assert self.state_at_lumping(traj)[0] == 0.0
        assert traj.ys[-1] > 0.0  # the horizon cut the count phase

    @pytest.mark.parametrize("layer, overrides", [
        ("behaviour", dict(n=20_000, c=1.05, lam=0.1, x0=0.97, y0=0.01)),
        ("disease", dict(n=20_000, lam=1 / 12, x0=0.0, y0=0.9)),
    ])
    def test_long_layer_absorbed_in_mid_block(self, layer, overrides):
        cfg = lumpable_config(horizon=30.0, **overrides)
        traj = self.assert_long_count_phase_equals_logged(cfg)
        x, y = self.state_at_lumping(traj)
        assert (y == 0.0 and x > 0.0) if layer == "behaviour" else (x == 0.0 and y > 0.0)
        assert traj.xs[-1] == 0.0 and traj.ys[-1] == 0.0
        # the loop's words began a block, and they ended inside one
        assert traj.meta["words"] % abm_mod.UNIFORM_BLOCK != 0

    @pytest.mark.parametrize("overrides", [
        dict(alpha=0.7, lam=0.9),  # the disease layer goes on, activity sums that round
        dict(alpha=0.7, lam=0.9, directionality="activator-infects"),
        dict(n=500, alpha=0.7, c=1.05, lam=0.1, x0=0.97, y0=0.01),  # the behaviour layer goes on
    ])
    def test_count_phase_times_equal_a_walk_of_its_tables(self, overrides):
        # the doubles themselves, not only the samples and counts: from the
        # logged twin's state and word position at lumped_at, a walk of
        # _count_tables over count_draws gives the twin's event times after
        # it, bit for bit. Before lumped_at every event of the frozen
        # aggregated path reads a wait and then two words, its channel and
        # its member, so scalar draws find the word position
        cfg = lumpable_config(**overrides)
        quiet, _ = simulate(cfg)
        lumped_at = quiet.meta["lumped_at"]
        assert 0.0 < lumped_at < cfg.horizon
        _, log = simulate(dataclasses.replace(cfg, record_events=True))
        times, kinds, actors, _ = log.columns()
        n, p = cfg.graph.n, cfg.params
        twin = np.random.default_rng(cfg.seed)
        x = twin.random(n) < cfg.x0
        y = twin.random(n) < cfg.y0
        agent = times <= lumped_at
        for _ in range(int(agent.sum())):
            twin.exponential()
            twin.random()
            twin.random()
        for kind, i in zip(kinds[agent].tolist(), actors[agent].tolist()):
            if kind in (abm_mod.K_ADOPT, abm_mod.K_DROP):
                x[i] = kind == abm_mod.K_ADOPT
            else:
                y[i] = kind == abm_mod.K_INFECTION
        behaviour = bool(x.any())  # else nobody protects and the disease layer is live
        assert not (behaviour and y.any())
        k = int(x.sum() if behaviour else y.sum())
        step = 1 if behaviour else -1
        tot, inv, thr = map(np.ndarray.tolist, abm_mod._count_tables(
            behaviour, n, p.alpha, p.mu, p.c, p.zeta, p.lam / (n - 1), cfg.bidirectional))
        walk, t = [], lumped_at
        for e, u in chain.from_iterable(abm_mod._Words(twin, frozen=True).count_draws(-1)):
            t_new = t + inv[k] * e
            if not t_new < cfg.horizon:
                break
            t = t_new
            walk.append(t)
            k += step if u * tot[k] < thr[k] else -step
        assert len(walk) == quiet.meta["lumped_events"] > 100
        assert walk == times[~agent].tolist()

    @pytest.mark.parametrize("n", [12, 31])
    @pytest.mark.parametrize("alpha", [3.0, 0.7])
    @pytest.mark.parametrize("directionality", ["bidirectional", "activator-infects"])
    def test_count_tables_equal_the_per_agent_rates(self, n, alpha, directionality):
        # the count level against the agent level, without a simulation: in
        # every state of an absorbed layer, the tables' total rate and channel
        # threshold are sums of the oracles' per-agent rates, mu per infected,
        # the infection rate per eligible agent, q01 per non-adopter and q10
        # per adopter
        p = ModelParams(alpha=alpha, lam=0.5, mu=1.0, c=3.0, zeta=8.0)
        g = InfluenceGraph.complete(n)
        acts = np.full(n, alpha)
        bidi = directionality == "bidirectional"
        for behaviour in (True, False):
            tot, _, thr = abm_mod._count_tables(
                behaviour, n, alpha, p.mu, p.c, p.zeta, p.lam / (n - 1), bidi)
            for k in range(n + 1):
                live = np.r_[np.ones(k, int), np.zeros(n - k, int)]
                x, y = (live, np.zeros(n, int)) if behaviour else (np.zeros(n, int), live)
                q01, q10 = switch_rates(g, x, y, acts, p)
                rec = p.mu * y.sum()
                inf = sum(infection_rate(x, y, acts, i, p, bidi)
                          for i in np.flatnonzero((x == 0) & (y == 0)))
                adopt, drop = q01[x == 0].sum(), q10[x == 1].sum()
                below = rec + inf + adopt if behaviour else rec
                assert tot[k] == pytest.approx(rec + inf + adopt + drop, rel=1e-12, abs=0.0)
                assert thr[k] == pytest.approx(below, rel=1e-12, abs=0.0)

    def test_corrupted_counters_are_an_error(self):
        abm_mod._check_lumped(10, 0, 4, 6)
        abm_mod._check_lumped(10, 3, 0, 7)
        for counters in [(0, 4, 5), (-1, 4, 7), (0, 11, -1), (3, 1, 5)]:
            with pytest.raises(NumericalError, match="absorbed"):
                abm_mod._check_lumped(10, *counters)


class TestActivitySums:
    """The aggregated infection rate reads the activity sums of the infected
    and of the eligible, which must not outlive their groups. Here infection
    is fast and recovery all but absent, so once the last eligible agent is
    infected a rounding residue in the eligible sum would be the largest
    rate left, and its infection would pick from an empty group."""

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("alpha, activities", [
        (0.25, [0.3, 0.1, 0.2, 0.4]),
        (0.1, [0.1] * 4),
    ], ids=["heterogeneous", "uniform"])
    def test_no_infection_while_nobody_is_eligible(self, alpha, activities, seed):
        n = 4
        cfg = AbmConfig(
            params=ModelParams(alpha=alpha, lam=1.0, mu=1e-20, c=3.0, zeta=5.0),
            graph=InfluenceGraph.complete(n),
            activities=np.array(activities),
            horizon=1e19,
            sample_dt=1e18,
            seed=seed,
            behaviours0=np.zeros(n, int),
            healths0=np.r_[1, np.zeros(n - 1, int)],
            record_events=True,
        )
        traj, log = simulate(cfg)
        assert traj.times[-1] == cfg.horizon and traj.ys[-1] == 1.0
        # every infection target is susceptible and unprotected, so eligible
        _, y = replay_events(cfg, log)
        assert y.all()


class TestSamplers:
    def test_uniform_stream_equals_scalar_draws(self):
        # a buffered path's reads: one to six words per event, a refill at
        # the top of an event past REFILL_AT that keeps the unread tail, and
        # so words from two blocks in one event
        words = abm_mod._Words(np.random.default_rng(3), frozen=False)
        ub, pos = words.ub, -1
        rng = np.random.default_rng(3)
        streamed, scalar = [], []
        while len(streamed) < 3 * abm_mod.UNIFORM_BLOCK:
            if pos > abm_mod.REFILL_AT:
                pos = words.refill(pos)
            for _ in range(1 + len(streamed) % 6):
                streamed.append(ub[(pos := pos + 1)])
                scalar.append(rng.random())
        assert streamed == scalar
        advanced = np.random.default_rng(3).bit_generator.advance(words.consumed(pos))
        assert words.consumed(pos) == len(streamed)
        assert advanced.state == rng.bit_generator.state

    def test_frozen_draws_equal_the_generator_methods(self):
        # the frozen path's reads in the event loop's order: a wait, then one
        # to three uniforms, across many refills. At seed 9, 7 417 of the
        # 333 334 waits leave the ziggurat's fast path; both of its slow
        # branches run, the tail at idx 0 and the wedge test's reject with a
        # retry from the next word
        rates = np.random.default_rng(10).uniform(1.0, 1e5, 1000).tolist()
        branches = Counter()
        for seed in (9, 1, 23):
            words = abm_mod._Words(np.random.default_rng(seed), frozen=True)
            ub, eb, pos = words.ub, words.eb, -1
            twin = np.random.default_rng(seed)
            frozen, methods = [], []
            while len(frozen) < 1_000_000:
                if pos > abm_mod.REFILL_AT:
                    pos = words.refill(pos)
                scale = 1.0 / rates[len(frozen) % 1000]
                e = eb[(pos := pos + 1)]
                if e != e:
                    idx = int(words.raw[pos]) >> 3 & 0xFF
                    before = words.consumed(pos)
                    e, pos = words.exponential(pos)
                    extra = words.consumed(pos) - before
                    branches["tail" if idx == 0 else "wedge" if extra == 1 else "retry"] += 1
                frozen.append(scale * e)
                methods.append(twin.exponential(scale))
                for _ in range(1 + len(frozen) % 3):
                    frozen.append(ub[(pos := pos + 1)])
                    methods.append(twin.random())
            assert frozen == methods
            advanced = np.random.default_rng(seed).bit_generator.advance(words.consumed(pos))
            assert advanced.state == twin.bit_generator.state
        assert branches["tail"] > 0 and branches["retry"] > 0

    def test_slow_wait_at_a_blocks_end_is_replayed_across_the_refill(self):
        # a wait whose word leaves the ziggurat's fast path among the last 13
        # of the first block: `exponential` refills, keeping that word, and
        # draws it again from the new block. The draw is the twin's, at least
        # 13 words are left after it, and the words read are the twin's
        seeds = 0
        for seed in range(40):
            first = abm_mod._Words(np.random.default_rng(seed), frozen=True)
            size = first.raw.size
            slow = [p for p in range(size - 13, size) if first.eb[p] != first.eb[p]]
            seeds += bool(slow)
            for p in slow:
                words = abm_mod._Words(np.random.default_rng(seed), frozen=True)
                twin = np.random.default_rng(seed)
                for _ in range(p):
                    twin.random()
                e, pos = words.exponential(p)
                assert e == twin.standard_exponential()
                assert words.raw.size - pos - 1 >= 13
                advanced = np.random.default_rng(seed).bit_generator.advance(words.consumed(pos))
                assert advanced.state == twin.bit_generator.state
        assert seeds >= 3

    def test_count_draws_equal_the_generator_methods(self):
        # the count phase's reads, decoded a block at a time from where the
        # agent loop stopped: per event a wait, the channel uniform and the
        # skipped member word. Four slow waits at a block's end are left to
        # the next block at these seeds. The words read when the loop stops
        # at an event are the twin's, before the event or after its wait
        for seed in (9, 1, 23):
            words = abm_mod._Words(np.random.default_rng(seed), frozen=True)
            twin = np.random.default_rng(seed)
            start = 1 + seed  # words the agent loop read
            for _ in range(start):
                twin.random()
            decoded, methods = [], []
            for e, u in chain.from_iterable(words.count_draws(start - 1)):
                before = twin.bit_generator.state
                decoded.append((e, u))
                methods.append((twin.exponential(), twin.random()))
                if len(decoded) == 100_000:
                    break
                twin.random()
            assert decoded == methods
            twin.bit_generator.state = before
            twin.exponential()
            for waited, state in ((False, before), (True, twin.bit_generator.state)):
                done, pos = words.count_stop(waited)
                assert done == len(decoded) - 1
                advanced = np.random.default_rng(seed).bit_generator.advance(words.consumed(pos))
                assert advanced.state == state

    @pytest.mark.parametrize("activities", [
        np.random.default_rng(4).pareto(2.5, 1000) + 1.0,
        np.full(1000, 3.0),
    ], ids=["pareto", "uniform"])
    def test_contact_marks_equal_scalar_draws(self, activities):
        # the contact stream's marks, drawn a block at a time, against scalar
        # draws of the documented stream: times, initiators, partners and
        # transmission uniforms, over three blocks, and the words read
        lam = 0.5
        horizon = 2.5 * abm_mod.CONTACT_BLOCK / activities.sum()
        for seed in (9, 1, 23):
            expected, crng = scalar_contacts(seed, activities, horizon)
            stream = abm_mod._Contacts(seed, activities, lam, horizon, None)
            blocks = list(stream.marks())
            assert len(blocks) == 3
            marks = zip(*(np.concatenate(column).tolist() for column in zip(*blocks)))
            assert [m for m in marks if m[0] < horizon] == expected
            advanced = np.random.PCG64(seed).jumped().advance(stream.words)
            assert advanced.state == crng.bit_generator.state
            # the loop's candidates are the marks below lambda, then no more
            stream = abm_mod._Contacts(seed, activities, lam, horizon, None)
            assert list(stream.candidates()) == [
                (t, i, j) for t, i, j, u in expected if u < lam] + [(math.inf, -1, -1)]
            assert stream.count == len(expected)

    @pytest.mark.parametrize("activities", [
        np.random.default_rng(4).pareto(2.5, 1000) + 1.0,
        np.where(np.random.default_rng(5).random(500) < 0.1, 40.0, 1.0),  # two-point
        np.full(7, 3.0),
    ], ids=["pareto", "two-point", "uniform"])
    def test_alias_table_is_exact(self, activities):
        n = activities.size
        prob, alias = abm_mod._alias_table(activities.tolist())
        assert all(0.0 <= q <= 1.0 for q in prob) and all(0 <= k < n for k in alias)
        implied = np.array(prob)
        np.add.at(implied, alias, 1.0 - np.array(prob))
        np.testing.assert_allclose(implied / n, activities / activities.sum(), rtol=0, atol=1e-12)


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

    def test_logged_replicates_give_the_quiet_statistics(self):
        # quiet equals logged on every path, so a logged config gives the
        # statistics of its quiet twin bit for bit; seed 5 is a run whose
        # disease dies while protection lives
        cfg = frozen_extinction_config()
        logged = ensemble(cfg, n_runs=4, n_jobs=1)
        quiet = ensemble(dataclasses.replace(cfg, record_events=False), n_runs=4)
        for name in ("x_mean", "y_mean", "x_std", "y_std", "finals"):
            assert getattr(logged, name).tobytes() == getattr(quiet, name).tobytes()

    def test_parallel_runs_equal_serial_runs(self):
        # each run is seeded on its own, so the worker processes change no bit
        cfg = small_config(n=200)
        serial = ensemble(cfg, n_runs=3, n_jobs=1)
        parallel = ensemble(cfg, n_runs=3, n_jobs=2)
        for name in ("times", "x_mean", "y_mean", "x_std", "y_std"):
            assert getattr(parallel, name).tobytes() == getattr(serial, name).tobytes()

    @pytest.mark.parametrize("n_jobs", [0, -3])
    def test_rejects_fewer_than_one_job(self, n_jobs):
        with pytest.raises(ConfigError, match="n_jobs must be >= 1"):
            ensemble(small_config(), n_runs=2, n_jobs=n_jobs)

    def test_starts_no_more_workers_than_runs(self, monkeypatch):
        # a fork pool starts all its workers at the first submit; a stand-in
        # pool records how many were asked for and runs the work in process
        asked = []

        class Pool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(abm_mod, "ProcessPoolExecutor", Pool)
        ensemble(small_config(), n_runs=2, n_jobs=64)
        ensemble(small_config(), n_runs=1, n_jobs=64)  # one run needs no pool
        assert asked == [2]


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

    def test_spec_keys_name_every_key_of_the_spec(self):
        sampled = small_config()
        explicit = small_config(n=4, x0=None, y0=None, behaviours0=[1, 0, 0, 1],
                                healths0=[0, 1, 0, 0])
        keys = set(sampled.to_dict()) | set(explicit.to_dict())
        assert keys == set(AbmConfig.SPEC_KEYS)

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
            dict(n=4, activities=[float("nan")] * 4),
            dict(n=4, activities=[float("inf")] * 4),
            dict(n=4, x0=None, y0=None, behaviours0=[0.6, 1, 0, 1], healths0=[0, 1, 0, 0]),
            dict(n=4, x0=None, y0=None, behaviours0=[1, 0, 0, 1], healths0=[256, 1, 0, 1]),
            dict(horizon=float("nan")),
            dict(horizon=float("inf")),
            dict(sample_dt=float("nan")),
            dict(sample_dt=float("inf")),
            # seeds numpy rejects only once the run starts, or draws from OS entropy
            dict(seed=-1),
            dict(seed=None),
            dict(seed=True),
            dict(seed=1.0),
            # the contact process picks one of the n - 1 other agents
            dict(graph=InfluenceGraph.from_adjacency([[0]]), activities=[3.0]),
        ],
    )
    def test_rejects_malformed(self, overrides):
        with pytest.raises(ConfigError):
            small_config(**overrides)

    @pytest.mark.parametrize("key,value", [("record_events", "no"), ("record_events", 1)])
    def test_from_dict_rejects_non_boolean_switches(self, key, value):
        with pytest.raises(ConfigError, match=key):
            AbmConfig.from_dict({**small_config().to_dict(), key: value})

    @pytest.mark.parametrize("key,value", [
        ("debug_check", "yes"), ("debug_check", None), ("horizn", 5),
        ("infection_mod", "contact"),
    ])
    def test_from_dict_rejects_unknown_keys(self, key, value):
        # a misspelt key would otherwise leave its setting at the default
        with pytest.raises(ConfigError, match=f"unknown key.*'{key}'"):
            AbmConfig.from_dict({**small_config().to_dict(), key: value})

    @pytest.mark.parametrize("initial,message", [
        ({"behaviours0": [1, 0, 0, 1]}, "both behaviours0 and healths0"),
        ({"healths0": [0, 1, 0, 0]}, "both behaviours0 and healths0"),
        ({"x0": 0.5}, "both x0 and y0"),
        ({"y0": 0.5}, "both x0 and y0"),
        ({"behaviours0": [1, 0, 0], "healths0": [0, 1, 0, 0]}, "behaviours0 must have length"),
        ({"behaviours0": [1, 0, 0, 1], "healths0": [0, 1]}, "healths0 must have length"),
    ])
    def test_from_dict_rejects_an_incomplete_initial_state(self, initial, message):
        spec = small_config(n=4).to_dict()
        del spec["x0"], spec["y0"]
        with pytest.raises(ConfigError, match=message):
            AbmConfig.from_dict({**spec, **initial})

    def test_from_dict_rejects_what_it_would_ignore(self):
        spec = small_config(n=4, x0=None, y0=None, behaviours0=[1, 0, 0, 1],
                            healths0=[0, 1, 0, 0]).to_dict()
        with pytest.raises(ConfigError, match="not both"):
            AbmConfig.from_dict({**spec, "x0": 0.5, "y0": 0.5})
        with pytest.raises(ConfigError, match="rng"):
            AbmConfig.from_dict({**spec, "rng": "mt19937"})

    def test_record_events_defaults_by_size(self):
        assert small_config(n=50).record_events is True
        big = small_config(n=1001)
        assert big.record_events is False

    def test_diverged_counters_are_an_error(self):
        abm_mod._check_counts([1, 0, 1], [0, 0, 1], 2, 1)
        with pytest.raises(NumericalError, match="diverged"):
            abm_mod._check_counts([1, 0, 1], [0, 0, 1], 1, 1)
        with pytest.raises(NumericalError, match="diverged"):
            abm_mod._check_counts([1, 0, 1], [0, 0, 1], 2, 2)

    def test_event_log_csv_header(self, tmp_path):
        _, log = simulate(small_config(horizon=1.0))
        out = tmp_path / "events.csv"
        log.to_csv(out)
        lines = out.read_text().splitlines()
        assert lines[0] == "# rng=numpy-pcg64 seed=1234"
        assert lines[1] == "t,kind,actor,counterpart"
