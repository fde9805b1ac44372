"""Planar and per-node mean-field systems and their adaptive integrator."""

import functools
import math
import multiprocessing
import operator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import RK45, solve_ivp

from epigame import (
    GraphError,
    InfluenceGraph,
    MacroState,
    ProbabilityState,
    Trajectory,
    hetero_rhs,
    integrate_hetero,
    integrate_planar,
    planar_rhs_xy,
)
from epigame import meanfield
from epigame.artifacts import CHUNK_ROWS
from epigame.core import ConfigError, NumericalError
from epigame.meanfield import (
    HeteroSolve,
    _ERROR_EXPONENT,
    _RK45_A,
    _RK45_B,
    _RK45_C,
    _RK45_E,
    _RK45_P,
    _solve,
    _solve_planar,
    sample_grid,
)
from .conftest import example_params, random_valid_params, traced_peak


class TestPlanarRhs:
    def test_corners_are_fixed_points(self):
        p = example_params(zeta=8.0)
        assert planar_rhs_xy(0.0, 0.0, p) == (0.0, 0.0)
        assert planar_rhs_xy(1.0, 0.0, p) == (0.0, 0.0)

    def test_full_adoption_edge(self):
        # at x = 1 there is no transmission, so y decays at rate mu
        p = example_params(zeta=8.0)
        dx, dy = planar_rhs_xy(1.0, 0.5, p)
        assert dx == 0.0
        assert dy == pytest.approx(-0.5)

    def test_hand_computed_interior_value(self):
        # alpha=3, lambda=0.5, mu=1, c=3, zeta=8 at (x,y) = (0.25, 0.5):
        #   dx = 0.25*0.75*(0.5 + 4 - 4) = 0.09375
        #   dy = 3*0.5*0.75*0.5 - 0.5 = 0.0625
        p = example_params(zeta=8.0)
        dx, dy = planar_rhs_xy(0.25, 0.5, p)
        assert dx == pytest.approx(0.09375, abs=1e-15)
        assert dy == pytest.approx(0.0625, abs=1e-15)

    def test_array_form_matches_scalar_form(self, rng):
        p = random_valid_params(rng)
        xs = rng.uniform(0, 1, 50)
        ys = rng.uniform(0, 1, 50)
        dxs, dys = planar_rhs_xy(xs, ys, p)
        k = 2.0 * p.alpha * p.lam
        for x, y, dx, dy in zip(xs.tolist(), ys.tolist(), dxs, dys):
            assert planar_rhs_xy(x, y, p) == (dx, dy)
            assert dx == x * (1.0 - x) * (2.0 * x + p.zeta * y - 1.0 - p.c)
            assert dy == k * y * (1.0 - x) * (1.0 - y) - p.mu * y

    @given(st.floats(0, 1), st.floats(0, 1))
    def test_field_points_inward_on_the_boundary(self, x, y):
        p = example_params(zeta=9.5)
        # y = 0 edge: dy = 0; x in {0,1}: dx = 0 -- the square is invariant
        assert planar_rhs_xy(x, 0.0, p)[1] == 0.0
        assert planar_rhs_xy(0.0, y, p)[0] == 0.0
        assert planar_rhs_xy(1.0, y, p)[0] == 0.0
        assert planar_rhs_xy(x, 1.0, p)[1] <= 0.0


class TestIntegratePlanar:
    def test_fixed_point_stays_put(self):
        p = example_params(zeta=8.0)
        traj = integrate_planar(MacroState(0.0, 0.0), p, horizon=10.0)
        assert np.all(traj.xs == 0.0) and np.all(traj.ys == 0.0)

    def test_protection_free_endemic_attractor(self):
        # zeta=5: protection dies out, prevalence settles at 1 - mu/(2*alpha*lambda) = 2/3
        p = example_params(zeta=5.0)
        final = integrate_planar(MacroState(0.3, 0.2), p, horizon=200.0).final_state()
        assert final.x == pytest.approx(0.0, abs=1e-6)
        assert final.y == pytest.approx(2.0 / 3.0, abs=1e-6)

    def test_subthreshold_epidemic_dies_out(self):
        p = example_params(zeta=5.0)
        p = type(p)(alpha=p.alpha, lam=0.15, mu=p.mu, c=p.c, zeta=p.zeta)  # 2*a*l = 0.9 < mu
        final = integrate_planar(MacroState(0.3, 0.6), p, horizon=300.0).final_state()
        assert abs(final.x) < 1e-5 and abs(final.y) < 1e-8

    def test_sample_grid_is_respected(self):
        p = example_params(zeta=8.0)
        traj = integrate_planar(MacroState(0.5, 0.1), p, horizon=10.0, sample_dt=0.5)
        assert traj.times[0] == 0.0 and traj.times[-1] == 10.0
        assert np.allclose(np.diff(traj.times), 0.5)

    def test_overshoot_is_tracked_and_bounded(self, rng):
        for _ in range(20):
            p = random_valid_params(rng)
            s0 = MacroState(rng.uniform(0, 1), rng.uniform(0, 1))
            traj = integrate_planar(s0, p, horizon=30.0)
            assert traj.meta["max_overshoot"] <= 10.0 * traj.meta["atol"]
            assert np.all(traj.xs >= 0) and np.all(traj.xs <= 1)
            assert np.all(traj.ys >= 0) and np.all(traj.ys <= 1)

    def test_tightening_tolerances_is_consistent(self):
        # halving both tolerances moves the final state by less than the
        # coarser tolerance (the solve is already resolved at the default)
        p = example_params(zeta=8.0)
        s0 = MacroState(0.35, 0.15)
        coarse = integrate_planar(s0, p, horizon=20.0, rtol=1e-8, atol=1e-10).final_state()
        fine = integrate_planar(s0, p, horizon=20.0, rtol=5e-9, atol=5e-11).final_state()
        assert math.hypot(coarse.x - fine.x, coarse.y - fine.y) < 1e-8

    def test_rejects_bad_arguments(self):
        p = example_params(zeta=8.0)
        with pytest.raises(ValueError):
            integrate_planar(MacroState(0.5, 0.5), p, horizon=0.0)
        with pytest.raises(ValueError):
            integrate_planar(MacroState(0.5, 0.5), p, horizon=1.0, rtol=-1e-8)

    def test_floors_rtol_as_scipy_does(self):
        # below 100 * machine epsilon, rtol is raised to it with a warning, and
        # the solve takes scipy's steps at that rtol
        p = example_params(8.0)
        with pytest.warns(UserWarning, match="rtol"):
            traj = integrate_planar(MacroState(0.5, 0.1), p, horizon=1.0, rtol=1e-15, atol=1e-20)
        with pytest.warns(UserWarning, match="rtol"):
            ref = solve_ivp(lambda _t, u: planar_rhs_xy(u[0], u[1], p), (0.0, 1.0), [0.5, 0.1],
                            method="RK45", rtol=1e-15, atol=1e-20, first_step=1e-3)
        assert traj.meta["nfev"] == ref.nfev == 1081
        assert (traj.meta["rtol"], traj.meta["atol"]) == (100 * np.finfo(float).eps, 1e-20)
        np.testing.assert_allclose(traj.solution.y[:, -1], ref.y[:, -1], rtol=0, atol=1e-15)

    def test_trajectory_validates_time_axis(self):
        p = example_params(zeta=8.0)
        with pytest.raises(ValueError):
            Trajectory(times=[1.0, 2.0], xs=[0.1, 0.2], ys=[0.1, 0.2], params=p)
        with pytest.raises(ValueError):
            Trajectory(times=[0.0, 0.0], xs=[0.1, 0.2], ys=[0.1, 0.2], params=p)
        with pytest.raises(ValueError, match="identical shapes"):
            Trajectory(times=[0.0, 1.0], xs=[0.1], ys=[0.1, 0.2], params=p)
        with pytest.raises(ValueError, match="empty trajectory"):
            Trajectory(times=[], xs=[], ys=[], params=p)

    def test_csv_round_trip(self, tmp_path):
        p = example_params(zeta=8.0)
        traj = integrate_planar(MacroState(0.5, 0.1), p, horizon=5.0, sample_dt=1.0)
        out = tmp_path / "traj.csv"
        traj.to_csv(out)
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        assert data.shape == (6, 3)
        np.testing.assert_allclose(data[:, 1], traj.xs, rtol=0, atol=0)
        np.testing.assert_allclose(data[:, 2], traj.ys, rtol=0, atol=0)

    @pytest.mark.parametrize("zeta,horizon,sample_dt", [
        (5.0, 30.0, 0.1), (8.0, 73.3, None), (9.5, 200.0, 0.7), (9.5, 31.0, 7.0),
    ])
    def test_samples_equal_a_solve_stopped_at_the_sample_times(self, zeta, horizon, sample_dt):
        # the grid read off the dense interpolant is, to rounding, a scipy
        # solve that evaluates at the grid itself, with the same
        # right-hand-side count
        p = example_params(zeta)
        traj = integrate_planar(MacroState(0.5, 0.1), p, horizon, sample_dt=sample_dt)
        ref = solve_ivp(lambda _t, u: planar_rhs_xy(u[0], u[1], p), (0.0, horizon), [0.5, 0.1],
                        t_eval=sample_grid(horizon, sample_dt), rtol=1e-8, atol=1e-10,
                        first_step=1e-3)
        np.testing.assert_array_equal(traj.times, ref.t)
        np.testing.assert_allclose(traj.xs, np.clip(ref.y[0], 0.0, 1.0), rtol=0, atol=1e-12)
        np.testing.assert_allclose(traj.ys, np.clip(ref.y[1], 0.0, 1.0), rtol=0, atol=1e-12)
        assert traj.meta["nfev"] == ref.nfev

    def test_step_counts_are_exact(self):
        # recount by stepping scipy's RK45 by hand with the same settings:
        # every attempt of a step, the rejected ones included, evaluates the
        # right-hand side six times
        p = example_params(9.5)
        traj = integrate_planar(MacroState(0.5, 0.1), p, horizon=500.0)
        calls = 0

        def fun(_t, u):
            nonlocal calls
            calls += 1
            return planar_rhs_xy(u[0], u[1], p)

        solver = RK45(fun, 0.0, [0.5, 0.1], 500.0, rtol=1e-8, atol=1e-10, first_step=1e-3)
        accepted = rejected = 0
        while solver.status == "running":
            before = calls
            solver.step()
            accepted += 1
            rejected += (calls - before) // 6 - 1
        steps = traj.meta["steps"]
        assert steps == {"accepted": accepted, "rejected": rejected}
        assert steps["accepted"] == traj.solution.t.size - 1
        assert traj.meta["nfev"] == 1 + 6 * (steps["accepted"] + steps["rejected"])
        assert (steps["accepted"], steps["rejected"], traj.meta["nfev"]) == (4484, 212, 28177)


def test_sampled_states_are_the_step_interpolants():
    # the array and the float form of a step's interpolant agree to the bit,
    # and at the ends of the steps they give the accepted states to rounding
    p = example_params(9.5)
    sol = integrate_planar(MacroState(0.5, 0.1), p, horizon=50.0).solution
    times = np.linspace(0.0, 50.0, 1001)
    steps = np.clip(np.searchsorted(sol.t, times) - 1, 0, sol.t.size - 2)
    sampled = sol.sol(times)
    for k, (t, i) in enumerate(zip(times.tolist(), steps.tolist())):
        assert sol.interpolant(i)(t) == tuple(sampled[:, k].tolist())
    ends = sol.sol(sol.t[1:])
    np.testing.assert_allclose(ends, sol.y[:, 1:], rtol=0, atol=1e-15)
    np.testing.assert_array_equal(sol.sol(sol.t[:1]), sol.y[:, :1])


def _drop(_first, _states):
    """A `keep` for _solve that drops the samples."""


@pytest.mark.parametrize("solve", [
    lambda: _solve_planar(lambda x, y: (math.nan, math.nan), 0.5, 0.1, 1.0, 1e-8, 1e-10),
    lambda: _solve(lambda t, u: np.full(2, np.nan), [0.5, 0.1], 1.0, 1e-8, 1e-10,
                   np.linspace(0.0, 1.0, 5), _drop),
], ids=["dense", "grid"])
def test_failed_solve_is_a_numerical_error(solve):
    # a velocity that is nan from the start fails the first step: every
    # attempt is rejected until the step falls below the float spacing at
    # t = 0 (where scipy leaves the solution's times a list)
    with pytest.raises(NumericalError, match="integration failed at t = 0"):
        solve()


def test_tableau_is_scipys():
    # bit for bit, signed zeros included
    for ours, scipys in ((_RK45_C, RK45.C), (_RK45_A, RK45.A), (_RK45_B, RK45.B),
                         (_RK45_E, RK45.E), (_RK45_P, RK45.P)):
        assert ours.dtype == scipys.dtype and ours.shape == scipys.shape
        assert ours.tobytes() == scipys.tobytes()
    assert _ERROR_EXPONENT == -1 / (RK45.error_estimator_order + 1) == -1 / 5


def _hetero_field(n, seed):
    """The per-node field of integrate_hetero on a seeded out-degree-3 graph
    (a 2-cycle for n = 2), with its start state."""
    rng = np.random.default_rng(seed)
    if n == 2:
        g = InfluenceGraph.from_adjacency([[1], [0]])
    else:
        g = InfluenceGraph.from_adjacency(
            [rng.choice(np.delete(np.arange(n), i), 3, replace=False).tolist() for i in range(n)])
    p, a = example_params(8.0), rng.uniform(1.0, 5.0, n)

    def fun(_t, u):
        v = np.clip(u, 0.0, 1.0)
        out = np.empty_like(v)
        hetero_rhs(v[:n], v[n:], g, a, p, out)
        return out

    return fun, np.concatenate([rng.uniform(0.3, 0.7, n), rng.uniform(0.05, 0.15, n)])


def _solve_kept(fun, u0, horizon, rtol, atol, grid):
    """_solve with the samples it hands out gathered into one array (a
    column per time of the grid), each sample handed out once and in order."""
    states = np.full((u0.size, grid.size), np.nan)
    blocks = []

    def keep(first, block):
        blocks.append((first, block.shape[1]))
        states[:, first:first + block.shape[1]] = block

    meta = _solve(fun, u0, horizon, rtol, atol, grid, keep)
    firsts, sizes = zip(*blocks)
    assert list(firsts) == np.cumsum((0,) + sizes[:-1]).tolist()
    assert sum(sizes) == grid.size
    return states, meta


@pytest.mark.parametrize("n,horizon,sample_dt", [(2, 60.0, 0.3), (200, 20.0, 0.2)])
def test_per_node_solve_is_solve_ivps(n, horizon, sample_dt):
    # the same step decisions and array operations give the same bits
    fun, u0 = _hetero_field(n, seed=n)
    grid = sample_grid(horizon, sample_dt)
    states, meta = _solve_kept(fun, u0, horizon, 1e-8, 1e-10, grid)
    ref = solve_ivp(fun, (0.0, horizon), u0, method="RK45", t_eval=grid, rtol=1e-8,
                    atol=1e-10, first_step=1e-3)
    assert grid.tobytes() == ref.t.tobytes()
    assert states.tobytes() == ref.y.tobytes()
    assert meta["nfev"] == ref.nfev


def test_failed_per_node_solve_names_the_solvers_time():
    # the solver stops where the field turns nan, between the samples 0.5
    # and 1, and says so in the planar solver's words
    def fun(t, u):
        return np.full(2, np.nan) if t > 0.7 else -u

    with pytest.raises(NumericalError, match=r"^integration failed at t = 0\.7: required "
                                             "step size is less than spacing between numbers$"):
        _solve(fun, [0.5, 0.1], 2.0, 1e-8, 1e-10, np.linspace(0.0, 2.0, 5), _drop)


def test_per_node_solve_floors_rtol_as_scipy_does():
    fun, u0 = _hetero_field(2, seed=5)
    grid = sample_grid(1.0, 0.5)
    with pytest.warns(UserWarning, match="rtol"):
        states, meta = _solve_kept(fun, u0, 1.0, 1e-16, 1e-10, grid)
    with pytest.warns(UserWarning, match="rtol"):
        ref = solve_ivp(fun, (0.0, 1.0), u0, t_eval=grid, rtol=1e-16, atol=1e-10,
                        first_step=1e-3)
    assert states.tobytes() == ref.y.tobytes() and meta["nfev"] == ref.nfev


def _entry_points(**settings):
    """A call of each public solve entry point with `settings` (horizon 1
    unless given), on a three-node graph."""
    args = _hetero_graph(3, seed=3)
    settings = {"horizon": 1.0, **settings}
    return {
        "integrate_planar": lambda: integrate_planar(MacroState(0.5, 0.1), args[-1], **settings),
        "integrate_hetero": lambda: integrate_hetero(*args, **settings),
        "HeteroSolve": lambda: HeteroSolve(*args, **settings),
    }


@pytest.mark.parametrize("entry", ["integrate_planar", "integrate_hetero", "HeteroSolve"])
@pytest.mark.parametrize("sample_dt", [-1.0, 0.0, math.nan])
def test_rejects_a_bad_sample_dt_before_the_solve(monkeypatch, entry, sample_dt):
    # once a negative sample_dt failed with an IndexError after the whole
    # solve; now no right-hand side is evaluated
    calls = []
    for name in ("planar_rhs_xy", "hetero_rhs"):
        monkeypatch.setattr(meanfield, name, lambda *args, **kwargs: calls.append(args))
    with pytest.raises(ValueError, match="^sample_dt must be > 0 and finite"):
        _entry_points(sample_dt=sample_dt)[entry]()
    assert calls == []


@pytest.mark.parametrize("entry", ["integrate_planar", "integrate_hetero", "HeteroSolve"])
def test_rtol_floor_warning_names_the_caller(entry):
    solve = _entry_points(horizon=0.01, rtol=1e-16)[entry]
    with pytest.warns(UserWarning, match="rtol") as record:
        solve()
    assert [w.filename for w in record] == [__file__]


def test_rejects_an_infinite_horizon():
    for solve in _entry_points(horizon=math.inf).values():
        with pytest.raises(ValueError, match="^horizon must be finite$"):
            solve()


@pytest.mark.parametrize("which", ["p_x", "p_y"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1.5, -0.5])
def test_probability_state_needs_finite_entries_in_the_unit_interval(which, bad):
    entries = {"p_x": np.array([0.2, 0.4]), "p_y": np.array([0.1, 0.3])}
    entries[which][1] = bad
    with pytest.raises(ValueError, match=f"{which} entries must be finite"):
        ProbabilityState(**entries)


@pytest.mark.parametrize("p_x,p_y", [([0.2], [0.1, 0.3]), ([[0.2, 0.4]], [[0.1, 0.3]])],
                         ids=["unequal-lengths", "2-d"])
def test_probability_state_needs_vectors_of_equal_length(p_x, p_y):
    with pytest.raises(ValueError, match="1-d vectors of equal length"):
        ProbabilityState(p_x, p_y)


class TestHeteroRhs:
    def test_complete_uniform_matches_planar_up_to_finite_size(self):
        # uniform marginals on the complete graph reproduce the planar field
        # exactly once the finite-size factor n/(n-1) on infection is undone,
        # with the planar field's k = 2*alpha*lambda
        p = example_params(zeta=8.0)
        n = 7
        g = InfluenceGraph.complete(n)
        a = np.full(n, p.alpha)
        x, y = 0.31, 0.44
        ps = ProbabilityState(np.full(n, x), np.full(n, y))
        dpx, dpy = hetero_rhs(ps.p_x, ps.p_y, g, a, p)
        dx, dy = planar_rhs_xy(x, y, p)
        np.testing.assert_allclose(dpx, dx, rtol=1e-13, atol=1e-14)
        k = 2 * p.alpha * p.lam
        expected_dy = dy + (k * y * (1 - x) * (1 - y)) / (n - 1)
        np.testing.assert_allclose(dpy, expected_dy, rtol=1e-13, atol=1e-14)

    def test_no_infection_without_prevalence(self):
        p = example_params(zeta=8.0)
        g = InfluenceGraph.complete(5)
        ps = ProbabilityState(np.linspace(0.1, 0.9, 5), np.zeros(5))
        _, dpy = hetero_rhs(ps.p_x, ps.p_y, g, np.full(5, p.alpha), p)
        np.testing.assert_array_equal(dpy, 0.0)

    def test_star_graph_hand_computation(self):
        # centre node 0 observes {1,2}; leaves observe {0}. With
        # p_x = (1, 0, 0), p_y = 0, c = 3, zeta = 5 the per-node payoffs are
        #   pi1 = (0, 1, 1), pi0 = (4, 3, 3)
        # and imitation averages the observed neighbours' own payoffs:
        #   centre: q01 = mean(0, 0) = 0, q10 = mean(1*3, 1*3) = 3 -> dpx0 = -3
        #   leaves: q01 = 1 * pi1[0] = 0, q10 = (1-1) * pi0[0] = 0 -> dpx = 0
        p = example_params(zeta=5.0)
        g = InfluenceGraph.from_adjacency([[1, 2], [0], [0]])
        ps = ProbabilityState([1.0, 0.0, 0.0], [0.0, 0.0, 0.0])
        dpx, dpy = hetero_rhs(ps.p_x, ps.p_y, g, np.full(3, p.alpha), p)
        np.testing.assert_allclose(dpx, [-3.0, 0.0, 0.0], atol=1e-14)
        np.testing.assert_array_equal(dpy, 0.0)

    def test_isolated_behavioural_components_see_shared_prevalence(self):
        # two behavioural components, but prevalence couples everyone through
        # the well-mixed contact layer: the all-susceptible component still
        # feels infection pressure from the infected one
        p = example_params(zeta=8.0)
        g = InfluenceGraph.from_adjacency([[1], [0], [3], [2]])
        ps = ProbabilityState([0.0, 0.0, 0.0, 0.0], [0.8, 0.8, 0.0, 0.0])
        a = np.full(4, p.alpha)
        _, dpy = hetero_rhs(ps.p_x, ps.p_y, g, a, p)
        assert dpy[2] > 0 and dpy[3] > 0

    def test_activity_heterogeneity_shifts_pressure(self):
        p = example_params(zeta=8.0)
        g = InfluenceGraph.complete(4)
        ps = ProbabilityState(np.zeros(4), np.full(4, 0.3))
        a = np.array([6.0, 2.0, 2.0, 2.0])
        _, dpy = hetero_rhs(ps.p_x, ps.p_y, g, a, p)
        assert dpy[0] > dpy[1]  # the busier node gets infected faster
        np.testing.assert_allclose(dpy[1:], dpy[1], rtol=1e-14)

    def test_dimension_mismatch_raises(self):
        p = example_params(zeta=8.0)
        g = InfluenceGraph.complete(4)
        ps = ProbabilityState(np.zeros(3), np.zeros(3))
        with pytest.raises(GraphError, match="graph order"):
            integrate_hetero(ps, g, np.full(4, p.alpha), p, horizon=1.0)
        ps4 = ProbabilityState(np.zeros(4), np.zeros(4))
        with pytest.raises(ValueError, match="activities length"):
            integrate_hetero(ps4, g, np.full(3, p.alpha), p, horizon=1.0)
        ps1 = ProbabilityState(np.zeros(1), np.zeros(1))
        with pytest.raises(ConfigError, match="two nodes"):
            integrate_hetero(ps1, InfluenceGraph.from_adjacency([[0]]), np.full(1, p.alpha), p,
                             horizon=1.0)

    @pytest.mark.parametrize("bad", [-1.0, 0.0, math.nan, math.inf])
    @pytest.mark.parametrize("entry", [integrate_hetero, HeteroSolve])
    def test_nonpositive_or_nonfinite_activity_raises_before_any_evaluation(
            self, monkeypatch, entry, bad):
        # the agent model's check: every activity positive and finite
        calls = []
        rhs = meanfield.hetero_rhs
        monkeypatch.setattr(meanfield, "hetero_rhs", lambda *a: calls.append(1) or rhs(*a))
        p = example_params(zeta=8.0)
        ps0 = ProbabilityState(np.full(3, 0.5), np.full(3, 0.1))
        g = InfluenceGraph.complete(3)
        with pytest.raises(ValueError, match="positive and finite"):
            solve = entry(ps0, g, np.array([bad, 3.0, 3.0]), p, 1.0, sample_dt=0.5)
            if entry is HeteroSolve:
                solve.run(lambda first, states: None)
        assert calls == []
        integrate_hetero(ps0, g, np.full(3, 3.0), p, 1.0, sample_dt=0.5)
        assert calls  # the counter sees the evaluations of a valid solve


def _hetero_graph(n, seed):
    """Start, graph, activities and parameters of a per-node solve on a
    seeded graph of out-degree 3 (n - 1 below four nodes)."""
    rng = np.random.default_rng(seed)
    degree = min(3, n - 1)
    g = InfluenceGraph.from_adjacency(
        [rng.choice(np.delete(np.arange(n), i), degree, replace=False).tolist()
         for i in range(n)])
    ps0 = ProbabilityState(rng.uniform(0.3, 0.7, n), rng.uniform(0.05, 0.15, n))
    return ps0, g, rng.uniform(1.0, 5.0, n), example_params(8.0)


class TestIntegrateHetero:
    def test_macro_tracks_planar_on_complete_graph(self):
        p = example_params(zeta=5.0)
        n = 200
        g = InfluenceGraph.complete(n)
        a = np.full(n, p.alpha)
        ps0 = ProbabilityState(np.full(n, 0.3), np.full(n, 0.2))
        _, macro = integrate_hetero(ps0, g, a, p, horizon=60.0)
        planar = integrate_planar(MacroState(0.3, 0.2), p, horizon=60.0, sample_dt=macro.times[1])
        gap = max(
            np.max(np.abs(macro.xs - planar.xs[: macro.xs.size])),
            np.max(np.abs(macro.ys - planar.ys[: macro.ys.size])),
        )
        assert gap < 5.0 / n

    def test_uniform_start_stays_exchangeable(self):
        # identical nodes must keep identical marginals for all time
        p = example_params(zeta=8.0)
        n = 6
        g = InfluenceGraph.complete(n)
        ps0 = ProbabilityState(np.full(n, 0.5), np.full(n, 0.1))
        hetero, _ = integrate_hetero(ps0, g, np.full(n, p.alpha), p, horizon=20.0)
        assert np.max(hetero.p_x.std(axis=1)) < 1e-9
        assert np.max(hetero.p_y.std(axis=1)) < 1e-9

    def test_long_csv_layout(self, tmp_path):
        p = example_params(zeta=8.0)
        g = InfluenceGraph.complete(3)
        ps0 = ProbabilityState([0.2, 0.5, 0.8], [0.1, 0.1, 0.1])
        hetero, _ = integrate_hetero(ps0, g, np.full(3, p.alpha), p, horizon=2.0, sample_dt=1.0)
        out = tmp_path / "nodes.csv"
        hetero.to_csv(out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,node,p_x,p_y"
        assert len(lines) == 1 + 3 * 3  # 3 sample times x 3 nodes

    def test_holds_its_results_and_little_more(self):
        # the samples go straight into the arrays returned, not into a list
        # of blocks that is then stacked and clamped into copies
        args = _hetero_graph(200, seed=9)
        (hetero, _), peak = traced_peak(integrate_hetero, *args, horizon=20.0, sample_dt=0.05)
        assert hetero.p_x.shape == (401, 200)
        assert peak < 1.25 * (hetero.p_x.nbytes + hetero.p_y.nbytes)

    @pytest.mark.parametrize("n,horizon,sample_dt", [
        (3, 2.0, 0.1),  # 21 samples: fewer than one write takes, written at the end
        (200, 20.0, 0.05),  # 401 samples: 320 a write, in blocks of 20
        (CHUNK_ROWS + 1, 2.0, 0.1),  # 21 samples: 15 a write, in blocks of one
    ])
    def test_streamed_csv_is_the_trajectorys(self, tmp_path, n, horizon, sample_dt):
        args = _hetero_graph(n, seed=n)
        hetero, macro = integrate_hetero(*args, horizon=horizon, sample_dt=sample_dt)
        hetero.to_csv(tmp_path / "kept.csv")
        macro.to_csv(tmp_path / "kept_macro.csv")
        streamed = HeteroSolve(*args, horizon=horizon, sample_dt=sample_dt).to_csv(
            tmp_path / "streamed.csv")
        streamed.to_csv(tmp_path / "streamed_macro.csv")
        assert (tmp_path / "streamed.csv").read_bytes() == (tmp_path / "kept.csv").read_bytes()
        assert ((tmp_path / "streamed_macro.csv").read_bytes()
                == (tmp_path / "kept_macro.csv").read_bytes())
        assert streamed.meta == macro.meta == hetero.meta

    def test_failed_solve_leaves_no_file_and_no_writer(self, tmp_path, monkeypatch, bounded):
        # the velocity turns nan after 200 evaluations, when blocks of rows
        # have gone to the writer process
        rhs, calls = meanfield.hetero_rhs, []

        def failing(px, py, g, a, p, out):
            calls.append(None)
            if len(calls) <= 200:
                return rhs(px, py, g, a, p, out)
            out[:] = np.nan
            return out[:px.size], out[px.size:]

        monkeypatch.setattr(meanfield, "hetero_rhs", failing)
        solve = HeteroSolve(*_hetero_graph(300, seed=5), horizon=5.0, sample_dt=0.01)
        with pytest.raises(NumericalError):
            solve.to_csv(tmp_path / "nodes.csv")
        assert list(tmp_path.iterdir()) == []
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("entry", ["integrate_hetero", "run", "to_csv"])
    @pytest.mark.parametrize("bad,message", [
        ({"rtol": -1.0}, "tolerances"), ({"rtol": 0.0}, "tolerances"),
        ({"atol": 0.0}, "tolerances"), ({"atol": -1e-3}, "tolerances"),
        ({"horizon": 0.0}, "horizon"),
    ], ids=["rtol-negative", "rtol-zero", "atol-zero", "atol-negative", "horizon-zero"])
    def test_rejects_settings_not_above_zero(self, tmp_path, entry, bad, message):
        args = _hetero_graph(3, seed=3)
        settings = {"horizon": 1.0, **bad}
        solves = {
            "integrate_hetero": lambda: integrate_hetero(*args, **settings),
            "run": lambda: HeteroSolve(*args, **settings).run(_drop),
            "to_csv": lambda: HeteroSolve(*args, **settings).to_csv(tmp_path / "nodes.csv"),
        }
        with pytest.raises(ValueError, match=f"^{message} must be > 0$"):
            solves[entry]()
        assert list(tmp_path.iterdir()) == []

    def test_step_counts_are_exact(self):
        # recounted as TestIntegratePlanar.test_step_counts_are_exact does,
        # on scipy's RK45 stepped over the same per-node field
        ps0, g, a, p = _hetero_graph(50, seed=6)
        _, macro = integrate_hetero(ps0, g, a, p, horizon=60.0)
        calls = 0

        def fun(_t, u):
            nonlocal calls
            calls += 1
            v = np.clip(u, 0.0, 1.0)
            return np.concatenate(hetero_rhs(v[:50], v[50:], g, a, p))

        solver = RK45(fun, 0.0, np.concatenate([ps0.p_x, ps0.p_y]), 60.0, rtol=1e-8,
                      atol=1e-10, first_step=1e-3)
        accepted = rejected = 0
        while solver.status == "running":
            before = calls
            solver.step()
            accepted += 1
            rejected += (calls - before) // 6 - 1
        assert macro.meta["steps"] == {"accepted": accepted, "rejected": rejected}
        assert macro.meta["nfev"] == 1 + 6 * (accepted + rejected) == calls
        assert rejected > 0

    def test_node_means_sum_the_nodes_in_order(self):
        # the macro trajectory is the left-to-right mean of the clamped nodes,
        # also at a single sample, where numpy's own sum would go pairwise
        args = _hetero_graph(300, seed=4)
        for sample_dt in (None, 0.5, 1.0):
            hetero, macro = integrate_hetero(*args, horizon=1.0, sample_dt=sample_dt)
            for values, means in ((hetero.p_x, macro.xs), (hetero.p_y, macro.ys)):
                ref = [functools.reduce(operator.add, row) / 300 for row in values.tolist()]
                assert means.tolist() == ref
