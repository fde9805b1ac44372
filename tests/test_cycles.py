"""Limit-cycle detection on a Poincare section and the trapping rectangle."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from epigame import (
    AssumptionError,
    ConfigError,
    MacroState,
    ModelParams,
    Trajectory,
    TrappingRegion,
    Verdict,
    beta_pm,
    detect_cycle,
    integrate_planar,
    planar_rhs_xy,
    trapping_region,
)
from epigame.cycles import _ROOT_TOL, _brentq
from .conftest import example_params


@pytest.fixture(scope="module")
def cycle_traj():
    # the regime with a fully repelling interior state and a periodic attractor
    p = example_params(9.5)
    return p, integrate_planar(MacroState(0.5, 0.1), p, horizon=500.0, sample_dt=0.01)


class TestDetectCycle:
    def test_periodic_regime_is_recognised(self, cycle_traj):
        p, traj = cycle_traj
        rep = detect_cycle(traj)
        assert rep.verdict == Verdict.LIMIT_CYCLE
        assert rep.period is not None and rep.period > 0
        assert len(rep.crossings) >= 5
        assert rep.amplitude_x > 0.1 and rep.amplitude_y > 0.1
        # the section sits on the interior state's x-coordinate
        assert rep.section_x == pytest.approx(beta_pm(p).beta_plus)

    def test_period_stable_under_denser_sampling(self, cycle_traj):
        p, traj = cycle_traj
        dense = integrate_planar(MacroState(0.5, 0.1), p, horizon=500.0, sample_dt=0.005)
        t1 = detect_cycle(traj).period
        t2 = detect_cycle(dense).period
        assert abs(t2 - t1) / t1 < 1e-3

    @pytest.mark.parametrize("setting", [
        {"transient_frac": 1.0}, {"transient_frac": 2.0}, {"transient_frac": -0.5},
        {"tol_cycle": 0.0}, {"tol_cycle": -1.0}, {"tol_cycle": float("nan")},
        # one crossing has nothing to compare it with
        {"min_crossings": 1}, {"min_crossings": 0},
    ], ids=lambda s: "{}={}".format(*next(iter(s.items()))))
    def test_rejects_settings_out_of_range(self, cycle_traj, setting):
        _, traj = cycle_traj
        (name,) = setting
        with pytest.raises(ConfigError, match=f"cycle.{name}"):
            detect_cycle(traj, **setting)

    def test_crossing_heights_settle(self, cycle_traj):
        _, traj = cycle_traj
        rep = detect_cycle(traj)
        tail = [c.y for c in rep.crossings[-5:]]
        assert max(tail) - min(tail) < 1e-4

    def test_spiral_sink_converges_to_point(self):
        # the stable-interior regime: the detector must not call this a cycle.
        # Tolerances are tightened so the terminal velocity reflects the true
        # dynamics rather than the integrator error floor.
        p = example_params(8.0)
        traj = integrate_planar(
            MacroState(0.5, 0.1), p, horizon=500.0, sample_dt=0.01, rtol=1e-10, atol=1e-12
        )
        rep = detect_cycle(traj)
        assert rep.verdict == Verdict.CONVERGED_TO_POINT
        assert rep.point[0] == pytest.approx(0.457427, abs=1e-4)
        assert rep.point[1] == pytest.approx(0.385643, abs=1e-4)

    @pytest.mark.parametrize("zeta,verdict", [
        (8.0, Verdict.CONVERGED_TO_POINT),
        (8.5, Verdict.CONVERGED_TO_POINT),
        (9.0, Verdict.UNDECIDED),
        (9.5, Verdict.LIMIT_CYCLE),
    ])
    def test_verdict_ladder_at_the_default_tolerances(self, zeta, verdict):
        # a stable focus (8, 8.5), the band's upper edge, where the interior
        # state is marginal and the spiral neither settles nor repeats within
        # the horizon (9.0), and the limit cycle (9.5)
        p = example_params(zeta)
        rep = detect_cycle(integrate_planar(MacroState(0.5, 0.1), p, horizon=500.0))
        assert rep.verdict == verdict
        if verdict == Verdict.LIMIT_CYCLE:
            assert rep.period == pytest.approx(5.7730067861, rel=0, abs=1e-9)

    def test_fixed_start_is_a_point(self):
        p = example_params(9.5)
        traj = integrate_planar(MacroState(0.0, 0.0), p, horizon=50.0)
        rep = detect_cycle(traj)
        assert rep.verdict == Verdict.CONVERGED_TO_POINT
        assert rep.point == (0.0, 0.0)

    def test_short_horizon_is_undecided(self):
        # too short to collect five settled crossings
        p = example_params(9.5)
        traj = integrate_planar(MacroState(0.5, 0.1), p, horizon=20.0, sample_dt=0.01)
        rep = detect_cycle(traj)
        assert rep.verdict == Verdict.UNDECIDED

    def test_deterministic(self, cycle_traj):
        _, traj = cycle_traj
        a = detect_cycle(traj)
        b = detect_cycle(traj)
        assert a.to_dict() == b.to_dict()

    def test_crossings_csv(self, cycle_traj, tmp_path):
        _, traj = cycle_traj
        rep = detect_cycle(traj)
        out = tmp_path / "crossings.csv"
        rep.crossings_to_csv(out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "k,t_k,y_k,period_k"
        assert len(lines) == 1 + len(rep.crossings)
        assert lines[1].endswith(",")  # first crossing has no period yet


class TestReadsTheSolve:
    """Every figure of the report comes from the solve, none from its samples."""

    @pytest.fixture(scope="class")
    def reports(self):
        p = example_params(9.5)
        out = {}
        for sample_dt in (0.5, 0.1, 0.05, 0.01, None):
            traj = integrate_planar(MacroState(0.5, 0.1), p, horizon=500.0, sample_dt=sample_dt)
            out[sample_dt] = traj, detect_cycle(traj)
        return p, out

    def test_verdict_and_crossings_ignore_the_sample_spacing(self, reports):
        _, out = reports
        _, ref = out[None]
        for _, rep in out.values():
            assert rep.verdict == Verdict.LIMIT_CYCLE
            assert rep.to_dict() == ref.to_dict()
            assert rep.crossings == ref.crossings

    def test_crossings_are_the_solver_events(self, reports):
        # solve_ivp locates its events on the same step interpolants
        p, out = reports
        _, rep = out[None]

        def section(_t, u):
            return u[0] - rep.section_x

        section.direction = 1
        sol = solve_ivp(lambda _t, u: planar_rhs_xy(u[0], u[1], p), (0.0, 500.0), [0.5, 0.1],
                        rtol=1e-8, atol=1e-10, first_step=1e-3, events=section)
        t_ev, y_ev = sol.t_events[0], sol.y_events[0][:, 1]
        after = t_ev >= rep.transient_discarded
        np.testing.assert_allclose([c.t for c in rep.crossings], t_ev[after], rtol=0, atol=1e-10)
        np.testing.assert_allclose([c.y for c in rep.crossings], y_ev[after], rtol=0, atol=1e-10)

    def test_amplitudes_are_the_ranges_over_the_last_period(self, reports):
        _, out = reports
        traj, rep = out[None]
        t1 = rep.crossings[-1].t
        xs, ys = traj.solution.sol(np.linspace(t1 - rep.period, t1, 200_001))
        assert rep.amplitude_x == pytest.approx(np.ptp(xs), rel=0, abs=1e-8)
        assert rep.amplitude_y == pytest.approx(np.ptp(ys), rel=0, abs=1e-8)
        assert rep.amplitude_x >= np.ptp(xs) - 1e-15 and rep.amplitude_y >= np.ptp(ys) - 1e-15

    def test_needs_the_solve(self, reports):
        p, out = reports
        traj, _ = out[0.5]
        sampled = Trajectory(traj.times, traj.xs, traj.ys, p, dict(traj.meta))
        with pytest.raises(ValueError, match="solve"):
            detect_cycle(sampled)


class TestTrappingRegion:
    def test_rectangle_extent(self):
        r = trapping_region(example_params(9.5))
        assert (r.x_min, r.x_max) == (0.0, 1.0)
        assert r.y_min == 0.0
        assert r.y_max == pytest.approx(2.0 / 3.0, abs=1e-14)

    def test_requires_supercritical_epidemic(self):
        p = ModelParams(alpha=3.0, lam=0.15, mu=1.0, c=3.0, zeta=9.5)
        with pytest.raises(AssumptionError):
            trapping_region(p)

    def test_cycle_orbit_enters_and_stays(self, cycle_traj):
        p, traj = cycle_traj
        r = trapping_region(p)
        stayed, t_entry = r.entered_and_stayed(traj)
        assert stayed and t_entry == 0.0

    def test_entry_from_above(self):
        # starting above the rectangle: prevalence decays monotonically
        # until entry, then never leaves
        p = example_params(9.5)
        traj = integrate_planar(MacroState(0.5, 0.95), p, horizon=200.0, sample_dt=0.01)
        r = trapping_region(p)
        stayed, t_entry = r.entered_and_stayed(traj)
        assert stayed and t_entry > 0.0
        before = traj.times < t_entry
        assert np.all(np.diff(traj.ys[before]) < 0)

    def test_never_entering_has_no_entry_time(self):
        # the rectangle's top is y = 2/3 at zeta 9.5; this orbit stays above it
        p = example_params(9.5)
        traj = Trajectory(times=[0.0, 1.0], xs=[0.5, 0.5], ys=[0.9, 0.8], params=p)
        assert trapping_region(p).entered_and_stayed(traj) == (False, None)

    def test_contains_tolerance(self):
        r = trapping_region(example_params(9.5))
        assert r.contains(0.5, r.y_max)
        assert not r.contains(0.5, r.y_max + 1e-9)
        assert r.contains(0.5, r.y_max + 1e-9, tol=1e-8)

    def test_the_rectangle_is_its_height(self):
        # the other three sides are the unit square's: one value per type
        r = trapping_region(example_params(9.5))
        assert [f.name for f in dataclasses.fields(r)] == ["y_max"]
        assert (TrappingRegion.x_min, TrappingRegion.x_max, TrappingRegion.y_min) == (0.0, 1.0, 0.0)
        with pytest.raises(TypeError):
            TrappingRegion(y_max=0.5, x_min=0.1)

    def test_contains_is_elementwise(self):
        r = trapping_region(example_params(9.5))
        xs = np.array([0.5, -1e-9, 0.5, 1.0])
        ys = np.array([0.0, 0.3, r.y_max + 1e-9, r.y_max])
        np.testing.assert_array_equal(r.contains(xs, ys), [True, False, False, True])
        np.testing.assert_array_equal(r.contains(xs, ys, tol=1e-8), [True, True, True, True])


def _bracketed_functions(rng, count):
    """`count` seeded (f, a, b) with a sign change of f on [a, b]: cubics,
    sines, exponentials and a steep tanh, in turn."""
    found = []
    while len(found) < count:
        kind = len(found) % 4
        if kind == 0:
            r0, r1, r2 = rng.uniform(-3.0, 3.0, 3).tolist()

            def f(x, r0=r0, r1=r1, r2=r2):
                return (x - r0) * (x - r1) * (x - r2)
        elif kind == 1:
            w, phase = rng.uniform(0.5, 20.0), rng.uniform(0.0, 6.0)

            def f(x, w=w, phase=phase):
                return math.sin(w * x + phase)
        elif kind == 2:
            rate, level = rng.uniform(-3.0, 3.0), rng.uniform(0.1, 10.0)

            def f(x, rate=rate, level=level):
                return math.exp(rate * x) - level
        else:
            x0, steep = rng.uniform(-1.0, 1.0), 10 ** rng.uniform(0.0, 4.0)

            def f(x, x0=x0, steep=steep):
                return math.tanh(steep * (x - x0)) + 1e-3
        a, b = sorted(rng.uniform(-3.0, 3.0, 2).tolist())
        if (f(a) < 0) != (f(b) < 0):
            found.append((f, a, b))
    return found


class TestBrentq:
    def test_equals_scipy_to_the_bit(self):
        # every other bracket at the root tolerance of cycle detection, the
        # rest at a random xtol
        rng = np.random.default_rng(2024)
        for k, (f, a, b) in enumerate(_bracketed_functions(rng, 5200)):
            xtol = _ROOT_TOL if k % 2 else float(10 ** rng.uniform(-15.0, -2.0))
            root = _brentq(f, a, b, xtol, _ROOT_TOL)
            ref = brentq(f, a, b, xtol=xtol, rtol=_ROOT_TOL)
            assert type(root) is float and root.hex() == ref.hex(), (k, a, b)

    def test_an_end_root_is_returned_as_given(self):
        assert _brentq(lambda x: x - 1.0, 1.0, 2.0, _ROOT_TOL, _ROOT_TOL) == 1.0
        assert _brentq(lambda x: x - 2.0, 1.0, 2.0, _ROOT_TOL, _ROOT_TOL) == 2.0

    @pytest.mark.parametrize("f,a,b,error,message", [
        (lambda x: x - 5.0, 0.0, 1.0, ValueError, "different signs"),
        (lambda x: math.nan if x > 0.5 else x - 0.75, 0.0, 1.0, ValueError, "is NaN"),
        # a step at 1e-200 on [-1e300, 1e300]: some 2 000 halvings to an xtol of 1e-300
        (lambda x: -1.0 if x < 1e-200 else 1.0, -1e300, 1e300, RuntimeError,
         "Failed to converge after 100 iterations"),
    ], ids=["same-sign", "nan", "no-convergence"])
    def test_raises_what_scipy_raises(self, f, a, b, error, message):
        for solve in (lambda: brentq(f, a, b, xtol=1e-300, rtol=_ROOT_TOL),
                      lambda: _brentq(f, a, b, 1e-300, _ROOT_TOL)):
            with pytest.raises(error, match=message):
                solve()
