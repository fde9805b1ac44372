"""Closed-form equilibria, Jacobian stability, and the regime classifier."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epigame import (
    AssumptionError,
    Condition,
    EquilibriumKind,
    MacroState,
    ModelParams,
    RegimeLabel,
    Stability,
    beta_pm,
    classify_regime,
    eigenvalues_2x2,
    find_equilibria,
    interior_point,
    jacobian,
    planar_rhs_xy,
    thresholds,
)
from .conftest import example_params, random_valid_params


def by_kind(reports, kind):
    (r,) = [e for e in reports if e.kind == kind]
    return r


class TestThresholds:
    """All four closed-form thresholds at the reference set alpha=3, lambda=0.5, mu=1, c=3."""

    def test_endemic_switch_threshold(self):
        assert thresholds(example_params(8.0)).endemic == pytest.approx(6.0, abs=1e-12)

    def test_endemic_threshold_infinite_below_epidemic_threshold(self):
        p = ModelParams(alpha=3.0, lam=0.15, mu=1.0, c=3.0, zeta=8.0)
        assert math.isinf(thresholds(p).endemic)

    def test_spiral_stability_bound(self):
        assert thresholds(example_params(8.0)).focus == pytest.approx(7.6433349, abs=1e-5)

    def test_band_upper_root(self):
        t = thresholds(example_params(8.0))
        assert t.band_hi == pytest.approx(9.0, abs=1e-10)
        assert t.band_lo < t.band_hi

    def test_cost_window(self):
        t = thresholds(example_params(8.0))
        assert t.window_lo == pytest.approx(3.0, abs=1e-12)
        assert t.window_hi == pytest.approx(6.6, abs=1e-12)

    def test_real_root_threshold_consistency(self, rng):
        # the discriminant changes sign exactly at the real-root threshold
        for _ in range(50):
            p = random_valid_params(rng, above_threshold=True)
            zc = thresholds(p).real
            below = ModelParams(p.alpha, p.lam, p.mu, p.c, max(zc * (1 - 1e-6), 1e-9))
            above = ModelParams(p.alpha, p.lam, p.mu, p.c, zc * (1 + 1e-6))
            assert beta_pm(below).discriminant < 0
            assert beta_pm(above).discriminant > 0


class TestBetaRoots:
    def test_reference_values(self):
        r8 = beta_pm(example_params(8.0))
        assert r8.beta_plus == pytest.approx(0.45742710775633810, abs=1e-12)
        r95 = beta_pm(example_params(9.5))
        assert r95.beta_plus == pytest.approx(0.51506894, abs=1e-7)

    def test_no_real_roots_at_low_zeta(self):
        r = beta_pm(example_params(5.0))
        assert r.discriminant < 0
        assert r.beta_plus is None and r.beta_minus is None

    def test_roots_solve_the_nullcline_quadratic(self, rng):
        # both roots, paired with the matching prevalence, must make the
        # planar vector field vanish whenever they land inside the square
        for _ in range(100):
            p = random_valid_params(rng, above_threshold=True)
            r = beta_pm(p)
            for beta in (r.beta_plus, r.beta_minus):
                if beta is None or not 0 < beta < 1:
                    continue
                x, y = interior_point(beta, p)
                if not 0 <= y <= 1:
                    continue
                dx, dy = planar_rhs_xy(x, y, p)
                assert abs(dx) < 1e-10 and abs(dy) < 1e-10

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_upper_root_below_one(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        p = random_valid_params(rng, above_threshold=True)
        r = beta_pm(p)
        if r.beta_plus is not None:
            assert r.beta_plus < 1.0

    def test_interior_point_reference_coordinates(self):
        p = example_params(8.0)
        x, y = interior_point(beta_pm(p).beta_plus, p)
        assert x == pytest.approx(0.457427, abs=1e-6)
        assert y == pytest.approx(0.385643, abs=1e-6)


class TestJacobian:
    def test_matches_central_differences(self, rng):
        h = 1e-6
        for _ in range(200):
            p = random_valid_params(rng)
            x, y = rng.uniform(0.05, 0.95, 2)
            j = jacobian(MacroState(x, y), p)
            fd = np.empty((2, 2))
            for col, (ex, ey) in enumerate(((h, 0.0), (0.0, h))):
                fp = planar_rhs_xy(x + ex, y + ey, p)
                fm = planar_rhs_xy(x - ex, y - ey, p)
                fd[0, col] = (fp[0] - fm[0]) / (2 * h)
                fd[1, col] = (fp[1] - fm[1]) / (2 * h)
            np.testing.assert_allclose(j, fd, rtol=1e-5, atol=1e-5)

    def test_eigenvalues_2x2_against_numpy(self, rng):
        for _ in range(200):
            m = rng.normal(size=(2, 2))
            mine = sorted(eigenvalues_2x2(m), key=lambda z: (z.real, z.imag))
            ref = sorted(np.linalg.eigvals(m), key=lambda z: (z.real, z.imag))
            for a, b in zip(mine, ref):
                assert a == pytest.approx(b, abs=1e-12)

    def test_boundary_eigenvalues_reference(self):
        p = example_params(8.0)
        eig00 = sorted(e.real for e in eigenvalues_2x2(jacobian(MacroState(0, 0), p)))
        assert eig00 == pytest.approx([-4.0, 2.0], abs=1e-14)
        eig10 = sorted(e.real for e in eigenvalues_2x2(jacobian(MacroState(1, 0), p)))
        assert eig10 == pytest.approx([-1.0, 2.0], abs=1e-14)
        p5 = example_params(5.0)
        eig_pf = sorted(e.real for e in eigenvalues_2x2(jacobian(MacroState(0, 2 / 3), p5)))
        assert eig_pf == pytest.approx([-2.0, -2.0 / 3.0], abs=1e-14)


class TestFindEquilibria:
    def test_requires_payoff_ordering(self):
        with pytest.raises(AssumptionError):
            find_equilibria(ModelParams(alpha=3, lam=0.5, mu=1, c=0.5, zeta=8))

    def test_low_zeta_inventory(self):
        reports = find_equilibria(example_params(5.0))
        existing = [e for e in reports if e.exists]
        assert {e.kind for e in existing} == {
            EquilibriumKind.DFE_ORIGIN,
            EquilibriumKind.DFE_ONE,
            EquilibriumKind.PROTECTION_FREE_EE,
        }
        pf = by_kind(reports, EquilibriumKind.PROTECTION_FREE_EE)
        assert pf.point == pytest.approx((0.0, 2.0 / 3.0))
        assert pf.stability == Stability.LES
        assert by_kind(reports, EquilibriumKind.DFE_ORIGIN).stability == Stability.SADDLE
        assert by_kind(reports, EquilibriumKind.DFE_ONE).stability == Stability.SADDLE

    def test_stable_interior_state(self):
        reports = find_equilibria(example_params(8.0))
        inner = by_kind(reports, EquilibriumKind.INTERIOR_PLUS)
        assert inner.exists
        assert inner.point[0] == pytest.approx(0.457427, abs=1e-6)
        assert inner.point[1] == pytest.approx(0.385643, abs=1e-6)
        assert inner.stability == Stability.LES
        pf = by_kind(reports, EquilibriumKind.PROTECTION_FREE_EE)
        assert pf.exists and pf.stability in (Stability.SADDLE, Stability.UNSTABLE)

    def test_unstable_interior_state(self):
        reports = find_equilibria(example_params(9.5))
        inner = by_kind(reports, EquilibriumKind.INTERIOR_PLUS)
        assert inner.exists
        assert inner.point[0] == pytest.approx(0.51506894, abs=1e-7)
        assert inner.point[1] == pytest.approx(1 - 1 / (3 * (1 - inner.point[0])), abs=1e-12)
        assert inner.stability == Stability.UNSTABLE

    def test_every_existing_point_annihilates_the_field(self, rng):
        for _ in range(100):
            p = random_valid_params(rng)
            for e in find_equilibria(p):
                if not e.exists:
                    continue
                dx, dy = planar_rhs_xy(e.point[0], e.point[1], p)
                assert math.hypot(dx, dy) < 1e-9

    def test_nonexistent_report_carries_no_eigenvalues_or_stability(self):
        reports = find_equilibria(example_params(5.0))
        ghost = by_kind(reports, EquilibriumKind.INTERIOR_PLUS)
        assert not ghost.exists
        assert ghost.eigenvalues is None and ghost.stability is None

    def test_marginal_origin_at_epidemic_threshold(self):
        # 2*alpha*lambda = mu exactly: the disease-free origin has a zero
        # eigenvalue but remains attracting along the resolved direction
        p = ModelParams(alpha=3.0, lam=1.0 / 6.0, mu=1.0, c=3.0, zeta=5.0)
        origin = by_kind(find_equilibria(p), EquilibriumKind.DFE_ORIGIN)
        assert origin.stability == Stability.MARGINAL

    @pytest.mark.parametrize("zeta, kind, stability", [
        # the zeta threshold 6: a direct analysis settles the protection-free state
        (6.0, EquilibriumKind.PROTECTION_FREE_EE, Stability.MARGINAL),
        # the band's upper root 9: nothing settles the interior focus
        (9.0, EquilibriumKind.INTERIOR_PLUS, Stability.INDETERMINATE),
    ])
    def test_zero_real_part_is_marginal_only_where_resolved(self, zeta, kind, stability):
        e = by_kind(find_equilibria(example_params(zeta)), kind)
        assert min(abs(v.real) for v in e.eigenvalues) < 1e-12
        assert e.stability == stability


class TestConditions:
    def test_serialization_maps_infinities_to_null(self):
        c = Condition(name="x", lhs=math.inf, rhs=1.0, op=">", source="s")
        d = c.to_dict()
        assert d["lhs"] is None and d["rhs"] == 1.0
        json.dumps(d)  # must be JSON-clean

    def test_marginal_flag_uses_relative_closeness(self):
        assert Condition("x", 6.0 + 1e-13, 6.0, ">", "s").marginal
        assert not Condition("x", 6.0 + 1e-9, 6.0, ">", "s").marginal
        # an infinite threshold is never within reach
        assert not Condition("x", 6.0, math.inf, "<", "s").marginal
        assert not Condition("x", 6.0, -math.inf, ">", "s").marginal

    def test_regime_conditions_schema(self):
        conds = classify_regime(example_params(9.5)).conditions
        assert len(conds) == 9
        names = [c.name for c in conds]
        assert len(set(names)) == 9
        for c in conds:
            assert c.op in (">", ">=", "<", "<=")
            assert c.source
        band = {c.name: c for c in conds}["zeta-below-band-upper"]
        assert not band.satisfied  # 9.5 < 9 fails -> the cycle regime


class TestClassifyRegime:
    @pytest.mark.parametrize(
        "zeta,label",
        [
            (5.0, RegimeLabel.PROTECTION_FREE_ENDEMIC),
            (8.0, RegimeLabel.INTERIOR_ENDEMIC),
            (9.5, RegimeLabel.LIMIT_CYCLE),
        ],
    )
    def test_reference_regimes(self, zeta, label):
        assert classify_regime(example_params(zeta)).label == label

    def test_global_dfe_below_epidemic_threshold(self):
        p = ModelParams(alpha=3.0, lam=0.15, mu=1.0, c=3.0, zeta=8.0)
        assert classify_regime(p).label == RegimeLabel.GLOBAL_DFE

    def test_global_dfe_at_exact_threshold(self):
        # equality is still covered by the extinction result
        p = ModelParams(alpha=3.0, lam=1.0 / 6.0, mu=1.0, c=3.0, zeta=8.0)
        assert classify_regime(p).label == RegimeLabel.GLOBAL_DFE

    def test_invalid_assumptions(self):
        p = ModelParams(alpha=3.0, lam=0.5, mu=1.0, c=0.5, zeta=8.0)
        assert classify_regime(p).label == RegimeLabel.INVALID_ASSUMPTIONS

    def test_below_switch_threshold_is_protection_free(self):
        # zeta in (c+1, T): protection-free endemic state is the attractor
        p = example_params(4.5)
        assert classify_regime(p).label == RegimeLabel.PROTECTION_FREE_ENDEMIC

    def test_marginal_at_switch_threshold(self):
        p = example_params(6.0)
        assert classify_regime(p).label == RegimeLabel.MARGINAL

    def test_outside_cost_window_is_local_only(self):
        # same rates but c = 7 > window upper bound 6.6
        p = ModelParams(alpha=3.0, lam=0.5, mu=1.0, c=7.0, zeta=13.0)
        t = thresholds(p)
        assert not (t.window_lo <= p.c < t.window_hi)
        assert classify_regime(p).label == RegimeLabel.LOCAL_ONLY

    def test_report_is_json_serializable(self):
        for zeta in (5.0, 6.0, 8.0, 9.5):
            rep = classify_regime(example_params(zeta))
            parsed = json.loads(json.dumps(rep.to_dict()))
            assert parsed["label"] == rep.label.value
            assert len(parsed["conditions"]) == 9

    def test_total_and_deterministic(self, rng):
        # every admissible parameter point gets exactly one label, stably
        for _ in range(200):
            alpha = rng.uniform(0.1, 5)
            lam = rng.uniform(0.01, 1)
            mu = rng.uniform(0.1, 3)
            c = rng.uniform(0, 6)
            zeta = rng.uniform(0.1, 15)
            p = ModelParams(alpha, lam, mu, c, zeta)
            rep = classify_regime(p)
            assert isinstance(rep.label, RegimeLabel)
            assert classify_regime(p).label == rep.label

    def test_rate_rescaling_invariance(self, rng):
        # the field depends on alpha and lambda only through their product,
        # so (alpha, lambda) -> (k*alpha, lambda/k) preserves the regime
        for _ in range(50):
            p = random_valid_params(rng)
            k = rng.uniform(1.0, 1.0 / p.lam) if p.lam < 1 else 1.0
            q = ModelParams(p.alpha * k, p.lam / k, p.mu, p.c, p.zeta)
            assert classify_regime(q).label == classify_regime(p).label

    def test_small_grid_scan_flags_every_field_zero(self, rng):
        # cheap version of the exhaustive acceptance scan
        xs, ys = np.meshgrid(np.linspace(0, 1, 200), np.linspace(0, 1, 200))
        for _ in range(20):
            p = random_valid_params(rng)
            pts = [e.point for e in find_equilibria(p) if e.exists]
            dx, dy = planar_rhs_xy(xs, ys, p)
            mask = np.hypot(dx, dy) < 1e-12
            for x, y in zip(xs[mask], ys[mask]):
                assert min(math.hypot(x - px, y - py) for px, py in pts) < 1e-6
