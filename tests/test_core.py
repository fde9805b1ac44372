"""Parameter/state types, and the complete-graph payoffs against their formulas."""

import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from epigame import InfluenceGraph, InvalidParameterError, MacroState, ModelParams
from epigame.meanfield import imitation_rates
from .conftest import example_params


params_st = st.builds(
    ModelParams,
    alpha=st.floats(0.05, 10.0),
    lam=st.floats(0.01, 1.0),
    mu=st.floats(0.05, 5.0),
    c=st.floats(1.01, 8.0),
    zeta=st.floats(0.0, 20.0).filter(lambda z: z > 0.0),
)


class TestModelParams:
    def test_reference_set_is_valid(self):
        p = example_params(zeta=8.0)
        assert ModelParams(3.0, 0.5, 1.0, 3.0, 8.0) == p
        assert p.payoff_assumption_holds

    @pytest.mark.parametrize(
        "field,value,reported",
        [
            ("alpha", 0.0, "alpha"),
            ("alpha", -1.0, "alpha"),
            ("lam", 0.0, "lambda"),
            ("lam", 1.5, "lambda"),
            ("mu", 0.0, "mu"),
            ("c", -3.0, "c"),
            ("alpha", float("nan"), "alpha"),
            ("zeta", float("inf"), "zeta"),
            ("alpha", "3", "alpha"),
            ("zeta", None, "zeta"),
            ("c", True, "c"),
        ],
    )
    def test_rejects_out_of_range(self, field, value, reported):
        kwargs = dict(alpha=3.0, lam=0.5, mu=1.0, c=3.0, zeta=8.0)
        kwargs[field] = value
        with pytest.raises(InvalidParameterError) as exc:
            ModelParams(**kwargs)
        assert exc.value.field == reported

    def test_lambda_error_message_uses_public_name(self):
        with pytest.raises(InvalidParameterError, match="lambda"):
            ModelParams(alpha=3.0, lam=2.0, mu=1.0, c=3.0, zeta=8.0)

    def test_payoff_assumption_boundary(self):
        # needs c > 1 and zeta > c + 1, both strict
        assert not ModelParams(alpha=1, lam=0.5, mu=1, c=1.0, zeta=5).payoff_assumption_holds
        assert not ModelParams(alpha=1, lam=0.5, mu=1, c=3.0, zeta=4.0).payoff_assumption_holds
        assert ModelParams(alpha=1, lam=0.5, mu=1, c=3.0, zeta=4.0 + 1e-9).payoff_assumption_holds

    def test_dict_round_trip_uses_lambda_key(self):
        p = example_params(zeta=9.5)
        d = p.to_dict()
        assert d["lambda"] == 0.5
        assert "lam" not in d
        assert ModelParams.from_dict(json.loads(json.dumps(d))) == p


class TestMacroState:
    def test_bounds(self):
        MacroState(x=0.0, y=1.0)
        with pytest.raises(InvalidParameterError):
            MacroState(x=-0.01, y=0.5)
        with pytest.raises(InvalidParameterError):
            MacroState(x=0.5, y=1.01)

    def test_as_tuple(self):
        assert MacroState(x=0.25, y=0.75).as_tuple() == (0.25, 0.75)


def global_payoffs(x, y, p, n=8):
    """(pi1, pi0) of a node of the complete graph on which every node adopts
    with probability x, at prevalence y; the formulas are pi1 = x + zeta*y
    and pi0 = 1 - x + c."""
    pi1, pi0, _, _ = imitation_rates(InfluenceGraph.complete(n), np.full(n, x), y, p)
    return float(pi1[0]), float(pi0[0])


class TestGlobalPayoffs:
    def test_reference_values(self):
        p = example_params(zeta=8.0)
        pi1, pi0 = global_payoffs(0.5, 0.5, p)
        assert pi1 == pytest.approx(0.5 + 8.0 * 0.5)
        assert pi0 == pytest.approx(0.5 + 3.0)

    def test_corners(self):
        p = example_params(zeta=5.0)
        assert global_payoffs(0.0, 0.0, p) == (0.0, 1.0 + p.c)
        assert global_payoffs(1.0, 0.0, p) == (1.0, p.c)

    @given(params_st, st.floats(0, 1), st.floats(0, 1))
    def test_affine_in_each_argument(self, p, x, y):
        # pi1 = x + zeta*y and pi0 = 1 - x + c, checked against midpoint interpolation
        a = global_payoffs(x / 2, y / 2, p)
        b = global_payoffs(x, y, p)
        o = global_payoffs(0.0, 0.0, p)
        assert a[0] == pytest.approx((o[0] + b[0]) / 2, abs=1e-12)
        assert a[1] == pytest.approx((o[1] + b[1]) / 2, abs=1e-12)
        assert b == pytest.approx((x + p.zeta * y, 1.0 - x + p.c), abs=1e-12)

    @given(params_st.filter(lambda p: p.payoff_assumption_holds), st.floats(0, 1))
    def test_payoff_ordering_at_prevalence_extremes(self, p, x):
        # with no disease pressure non-adoption pays strictly more; at full
        # prevalence adoption pays strictly more (this is what the ordering
        # c > 1, zeta > c + 1 buys)
        lo_pi1, lo_pi0 = global_payoffs(x, 0.0, p)
        hi_pi1, hi_pi0 = global_payoffs(x, 1.0, p)
        assert lo_pi0 > lo_pi1
        assert hi_pi1 > hi_pi0
