"""Tests for the scalar-function catalog, pair classification, bound
coefficients, and the grid scans."""

import math
from dataclasses import dataclass

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from skewlab import functions
from skewlab.functions import (
    Assumption,
    Const,
    Exp,
    FunctionTriple,
    PairClass,
    Power,
    RatioBounds,
    ScalarFunction,
    ScaledSum,
    beta_coefficient,
    check_assumption,
    classify_pair,
    function_from_spec,
    function_to_spec,
    l_scan_min,
    l_value,
    lemma41_check,
    lemma41_lhs,
    ratio_bounds,
    triple_from_spec,
    triple_to_spec,
)
from skewlab.cli import load_default_config
from skewlab.harness import InequalityId, config_from_dict, evaluate_inequality
from skewlab.linalg import DensityMatrix, DomainError, HermitianMatrix


class TestEvaluators:
    def test_power_eval(self):
        assert Power(p=0.5).value(0.25) == pytest.approx(0.5)

    def test_power_log_deriv_exact(self):
        fn = Power(p=0.37)
        for x in (1e-6, 0.2, 0.9, 1.0):
            assert fn.log_deriv(x) == 0.37 / x

    def test_scaled_sum_log_deriv_symbolic_oracle(self):
        # oracle: differentiate log(x^2 + x) symbolically
        x = sympy.Symbol("x", positive=True)
        expr = sympy.diff(sympy.log(x**2 + x), x)
        fn = ScaledSum(terms=((1.0, 2.0), (1.0, 1.0)))
        for xv in (0.1, 0.33, 0.77, 1.0):
            expected = float(expr.subs(x, xv))
            assert fn.log_deriv(xv) == pytest.approx(expected, rel=1e-12)
            assert fn.log_deriv(xv) == pytest.approx((2 * xv + 1) / (xv**2 + xv))

    def test_exp_log_deriv_constant(self):
        grid = np.linspace(1e-6, 1, 7)
        np.testing.assert_array_equal(Exp(a=1.7).log_deriv(grid), np.full(7, 1.7))

    def test_const_rejects_negative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            Const(c=-1.0)

    def test_scaled_sum_rejects_negative_coef(self):
        with pytest.raises(ValueError, match="nonnegative"):
            ScaledSum(terms=((-1.0, 2.0),))

    def test_domain_error_below_floor(self):
        # l_value checks both points against the triple's domain [eps, 1],
        # with a slack of 1e-15 below the floor and 1e-12 above 1
        t = FunctionTriple(Power(p=0.5), Power(p=0.5), Const(c=1.0), eps=1e-3)
        with pytest.raises(DomainError, match="argument 1.000e-04 below domain floor 1.0e-03"):
            l_value(t, 1e-4, 0.5)
        with pytest.raises(DomainError, match="below domain floor"):
            l_value(t, 0.5, 1e-3 - 1e-12)
        with pytest.raises(DomainError, match="above domain"):
            l_value(t, 0.5, 1.0 + 1e-9)
        assert l_value(t, 1e-3 - 1e-16, 1.0 + 1e-13) == pytest.approx(4.0, rel=1e-12)

    @pytest.mark.parametrize("x, y", [(math.nan, 0.5), (0.5, math.nan), (math.nan, math.nan)])
    def test_nan_point_is_a_domain_error(self, x, y):
        # a NaN passed the domain test, as min and max depend on argument
        # order with NaN, and the ratio read nan
        t = FunctionTriple(Power(p=0.5), Power(p=0.5), Const(c=1.0), eps=1e-3)
        with pytest.raises(DomainError) as err:
            l_value(t, x, y)
        assert str(err.value) == f"l_value needs points in [eps, 1], got ({x!r}, {y!r})"

    def test_nonnegative_on_domain(self):
        grid = np.linspace(1e-6, 1, 101)
        for fn in (
            Power(p=0.5),
            Power(p=-0.7),
            Exp(a=-2.0),
            Const(c=0.3),
            ScaledSum(terms=((0.5, 2.0), (1.5, -0.5))),
        ):
            assert np.all(np.asarray(fn.value(grid)) >= 0.0)


# one instance of each catalog kind, with its spec
SPECS = {
    "power": (Power(p=0.25), {"kind": "power", "p": 0.25}),
    "exp": (Exp(a=1.5), {"kind": "exp", "a": 1.5}),
    "const": (Const(c=1.0), {"kind": "const", "c": 1.0}),
    "scaled_sum": (ScaledSum(terms=((1.0, 2.0), (1.0, 1.0))),
                   {"kind": "scaled_sum", "terms": [[1.0, 2.0], [1.0, 1.0]]}),
}


class TestSpecs:
    def test_round_trip(self):
        assert sorted(functions._KINDS) == sorted(SPECS)
        for kind, cls in functions._KINDS.items():
            fn, spec = SPECS[kind]
            assert type(fn) is cls
            assert function_to_spec(fn) == spec
            assert list(function_to_spec(fn)) == list(spec)   # "kind" first
            assert function_from_spec(spec) == fn

    def test_subclass_of_a_catalog_class_serializes_as_its_kind(self):
        @dataclass(frozen=True)
        class Root(Power):
            note: str = "square root"

        assert function_to_spec(Root(p=0.5)) == {"kind": "power", "p": 0.5}

    def test_foreign_function_is_not_serialized(self):
        class Sine(ScalarFunction):
            def value(self, x):
                return np.sin(x)

        with pytest.raises(TypeError) as err:
            function_to_spec(Sine())
        assert str(err.value) == "cannot serialize Sine"

    def test_triple_round_trip(self):
        doc = {
            "f": {"kind": "power", "p": 0.25},
            "g": {"kind": "power", "p": 0.25},
            "h": {"kind": "power", "p": 0.5},
            "eps": 1e-6,
        }
        assert triple_to_spec(triple_from_spec(doc)) == doc

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown function kind"):
            function_from_spec({"kind": "sinh", "a": 1.0})

    def test_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown keys"):
            function_from_spec({"kind": "power", "p": 1.0, "q": 2.0})

    def test_missing_field(self):
        with pytest.raises(ValueError, match="misses"):
            function_from_spec({"kind": "power"})

    def test_triple_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown keys"):
            triple_from_spec(
                {
                    "f": {"kind": "power", "p": 1.0},
                    "g": {"kind": "power", "p": 1.0},
                    "h": {"kind": "const", "c": 1.0},
                    "bogus": 3,
                }
            )

    def test_triple_requires_increasing_f(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            FunctionTriple(Power(p=-1.0), Power(p=1.0), Const(c=1.0))

    @pytest.mark.parametrize("f, g, h, message", [
        # x^-300 overflows at eps = 1e-6, e^{800 x} past x = 0.887
        (Power(p=1.0), Power(p=2.0), Power(p=-300.0),
         "h = Power(p=-300.0) is not finite at x = 1e-06"),
        (Exp(a=800.0), Power(p=2.0), Power(p=1.0),
         "f = Exp(a=800.0) is not finite at x = 0.8884541232876711"),
        (Power(p=1.0), ScaledSum(terms=((1.0, 1.0), (1.0, -400.0))), Const(c=1.0),
         "g = ScaledSum(terms=((1.0, 1.0), (1.0, -400.0))) is not finite at x = 1e-06"),
    ])
    def test_triple_with_values_that_are_not_finite_rejected(self, f, g, h, message):
        # beta and pairs read ratio bounds and pair classes off the infinities
        with pytest.raises(ValueError) as err:
            FunctionTriple(f, g, h)
        assert str(err.value) == message

    @pytest.mark.parametrize("f, g, h", [
        (Exp(a=400.0), Power(p=1.0), Exp(a=400.0)),
        (Exp(a=300.0), Power(p=1.0), Exp(a=300.0)),
        (Power(p=1.0), Power(p=2.0), Power(p=-50.0)),   # 1e300 at eps
        (Power(p=1.0), Power(p=2.0), Power(p=300.0)),   # underflows to 0, finite
    ])
    def test_triple_with_finite_extremes_accepted(self, f, g, h):
        FunctionTriple(f, g, h)

    def test_derivative_that_overflows_still_reads_increasing(self):
        # f = e^{705 x} is finite on [eps, 1], but f' = 705 e^{705 x} overflows
        # near x = 1; the overflow warned, and inf > 0 is still increasing
        FunctionTriple(Exp(a=705.0), Power(p=1.0), Const(c=1.0))

    def test_log_derivative_that_overflows_is_refused(self):
        # f = 1e306 sqrt(x): f' overflows at eps, so f'/f read +inf there,
        # the ratio read 0 and beta read 0, where the ratio is 2 everywhere
        triple = FunctionTriple(ScaledSum(terms=((1e306, 0.5),)), Power(p=1.0), Const(c=1.0))
        assert np.isposinf(triple.f.log_deriv(1e-6))
        with pytest.raises(ValueError) as err:
            ratio_bounds(triple)
        assert str(err.value) == "ratio undefined: log-derivative of f is not finite at x = 1e-06"
        with pytest.raises(ValueError, match="non-finite log-derivative ratio"):
            classify_pair(Power(p=1.0), triple.f)

    @pytest.mark.parametrize("kind, field", [
        ("power", "p"), ("exp", "a"), ("const", "c"), ("scaled_sum", "terms"),
    ])
    def test_function_spec_with_eps_rejected(self, kind, field):
        value = [[1.0, 1.0]] if kind == "scaled_sum" else 1.0
        with pytest.raises(ValueError, match="eps is set once, on the triple"):
            function_from_spec({"kind": kind, field: value, "eps": 1e-6})


class TestClassifyPair:
    def test_power_pair_constant_ratio(self):
        kind, m, big_m = classify_pair(Power(p=0.5), Power(p=1 / 3))
        assert kind is PairClass.MONOTONE
        assert m == big_m == pytest.approx(2 / 3, abs=1e-12)

    def test_anti_monotone_power_pair(self):
        kind, m, big_m = classify_pair(Power(p=0.5), Power(p=-1 / 3))
        assert kind is PairClass.ANTI_MONOTONE
        assert m == big_m == pytest.approx(-2 / 3, abs=1e-12)

    def test_scaled_sum_ratio_range(self):
        # ratio (2x+1)/(x+1) runs from ~1 at the floor to 3/2 at x = 1
        kind, m, big_m = classify_pair(
            Power(p=1.0), ScaledSum(terms=((1.0, 2.0), (1.0, 1.0))), k=10_000
        )
        assert kind is PairClass.MONOTONE
        assert m == pytest.approx(1.0, abs=1e-3)
        assert big_m == pytest.approx(1.5, abs=1e-3)

    def test_exp_pair_constant_ratio(self):
        kind, m, big_m = classify_pair(Exp(a=2.0), Exp(a=-1.0))
        assert kind is PairClass.ANTI_MONOTONE
        assert m == big_m == -0.5

    def test_neither(self):
        # x^2 + 1/x is not co-monotone with x on [eps, 1]
        kind, _, _ = classify_pair(Power(p=1.0), ScaledSum(terms=((1.0, 2.0), (1.0, -1.0))))
        assert kind is PairClass.NEITHER

    def test_constant_base_is_error(self):
        with pytest.raises(ValueError, match="ratio undefined"):
            classify_pair(Const(c=1.0), Power(p=1.0))

    def test_constant_partner_degenerate(self):
        kind, m, big_m = classify_pair(Power(p=1.0), Const(c=1.0))
        assert (m, big_m) == (0.0, 0.0)
        assert kind is PairClass.MONOTONE

    @pytest.mark.parametrize("f, g, message", [
        (Power(p=1.0), Power(p=-300.0), "g = Power(p=-300.0) is not finite at x = 1e-06"),
        (Exp(a=800.0), Power(p=1.0), "f = Exp(a=800.0) is not finite at x = 0.887888"),
    ])
    def test_values_that_are_not_finite_are_error(self, f, g, message):
        # x^-300 read as "neither" where it is anti-monotone
        with pytest.raises(ValueError) as err:
            classify_pair(f, g, k=1000)
        assert str(err.value) == message

    @pytest.mark.parametrize("eps", [-1.0, 0.0, 1.0, 2.0, math.nan])
    def test_eps_outside_the_unit_interval_is_error(self, eps):
        # the grid ran on [eps, 1] for any eps, from a negative floor up past 1
        with pytest.raises(ValueError) as err:
            classify_pair(Power(p=0.5), Power(p=0.25), eps=eps)
        assert str(err.value) == f"eps must lie in (0, 1), got {eps!r}"
        with pytest.raises(ValueError) as err:
            FunctionTriple(Power(p=0.5), Power(p=0.25), Power(p=0.5), eps=eps)
        assert str(err.value) == f"eps must lie in (0, 1), got {eps!r}"


class TestBetaCoefficient:
    def test_power_triple_quarter(self):
        t = FunctionTriple(Power(p=0.25), Power(p=0.25), Power(p=0.5))
        assert beta_coefficient(ratio_bounds(t)) == pytest.approx(0.0625, abs=1e-15)

    def test_constant_h_reduces_to_two_exponent_value(self):
        t = FunctionTriple(Power(p=0.4), Power(p=0.4), Const(c=1.0))
        # alpha = beta: alpha*beta/(alpha+beta)^2 = 1/4
        assert beta_coefficient(ratio_bounds(t)) == pytest.approx(0.25, abs=1e-15)

    def test_all_corners_equal(self):
        b = RatioBounds(m_g=1.0, M_g=1.0, m_h=2.0, M_h=2.0)
        assert beta_coefficient(b) == 1.0 / 16.0

    def test_degenerate_denominator(self):
        with pytest.raises(ValueError, match="degenerate denominator"):
            beta_coefficient(RatioBounds(m_g=1.0, M_g=1.0, m_h=-2.0, M_h=-2.0))

    @pytest.mark.parametrize(
        "alpha,beta,gamma",
        [(0.25, 0.25, 0.5), (0.1, 0.3, 0.6), (0.2, 0.2, 1.5), (1.0, 1.0, -0.5), (0.8, 0.6, -0.3)],
    )
    def test_power_closed_form(self, alpha, beta, gamma):
        t = FunctionTriple(Power(p=alpha), Power(p=beta), Power(p=gamma))
        expected = alpha * beta / (alpha + beta + gamma) ** 2
        assert beta_coefficient(ratio_bounds(t)) == pytest.approx(expected, abs=1e-12)

    def test_pair_only_coefficient_fails_on_cor41_rhs(self):
        # lhs / |Tr fgh(rho)[A, B]|^2 on a near-maximally mixed qubit falls to
        # the four-corner beta = 0.24 of (x^1/2, x^1/3, 1), below the 0.375
        # that min{m, M}/(m + M)^2 gives at m = M = 2/3
        (pair,) = [s for s in config_from_dict(load_default_config()).inequalities
                   if s.id is InequalityId.COR41_PAIR]
        rho = DensityMatrix(np.diag([0.499, 0.501]).astype(complex))
        sx = HermitianMatrix(np.array([[0, 1], [1, 0]], dtype=complex))
        sy = HermitianMatrix(np.array([[0, -1j], [1j, 0]], dtype=complex))
        rec = evaluate_inequality(pair, rho, sx, sy)
        assert rec.passed
        reached = rec.lhs * pair.coefficient / rec.rhs
        assert 0.2399 <= reached <= 0.2401
        pair_only = min(2 / 3, 2 / 3) / (2 / 3 + 2 / 3) ** 2
        assert pair_only == 0.375 and reached < pair_only


class TestGridSizes:
    """Every grid-based decision needs at least two grid points, closed form
    or not, as ``classify_pair`` and ``l_scan_min`` already require."""

    SUM = FunctionTriple(
        Power(p=1.0), ScaledSum(terms=((1.0, 2.0), (1.0, 1.0))), Power(p=4.0)
    )
    POWERS = FunctionTriple(Power(p=0.25), Power(p=0.25), Power(p=0.5))

    @pytest.mark.parametrize("triple", [SUM, POWERS], ids=["sum", "powers"])
    @pytest.mark.parametrize("k", [1, 0, -3])
    def test_ratio_bounds_rejects_short_grid(self, triple, k):
        with pytest.raises(ValueError, match="ratio grid needs at least 2 points"):
            ratio_bounds(triple, k)

    @pytest.mark.parametrize("triple", [SUM, POWERS], ids=["sum", "powers"])
    @pytest.mark.parametrize("k_pairs", [1, 0, -3])
    def test_check_assumption_rejects_short_grid(self, triple, k_pairs):
        with pytest.raises(ValueError, match="pair grid needs at least 2 points"):
            check_assumption(triple, k_pairs)

    @pytest.mark.parametrize("triple", [SUM, POWERS], ids=["sum", "powers"])
    def test_two_points_accepted(self, triple):
        assert ratio_bounds(triple, 2).grid_size == 2
        assert check_assumption(triple, 2) is Assumption.I


class TestCornerFunction:
    """The corner function (R^2-1)(R^2k-1)(R^l+1)^2 / (R^(1+k+l)-1)^2 is
    ``lemma41_lhs(1, k, l, log R)``."""

    def test_limit_at_one_symbolic_oracle(self):
        r, k, ell = sympy.symbols("r k l", positive=True)
        expr = (r**2 - 1) * (r ** (2 * k) - 1) * (r**ell + 1) ** 2 / (
            r ** (1 + k + ell) - 1
        ) ** 2
        limit = sympy.limit(expr.subs({k: 1, ell: 2}), r, 1)
        assert float(limit) == pytest.approx(1.0)
        assert lemma41_lhs(1.0, 1.0, 2.0, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_consistency_with_exponential_form(self):
        for r_base, k, ell in ((math.e**2, 1.0, 0.0), (3.0, 0.5, 2.0), (0.2, 1.5, -1.2)):
            corner = (r_base**2 - 1) * (r_base ** (2 * k) - 1) * (r_base**ell + 1) ** 2 / (
                r_base ** (1 + k + ell) - 1
            ) ** 2
            assert lemma41_lhs(1.0, k, ell, math.log(r_base)) == pytest.approx(corner, rel=1e-12)

    def test_lower_bound_on_grid(self):
        rng = np.random.default_rng(20)
        for _ in range(200):
            k = rng.uniform(0.05, 2.0)
            if rng.random() < 0.5:
                ell = (1 + k) * (1 + rng.uniform(0, 1.5))
            else:
                ell = -rng.uniform(0, 0.9) * (1 + k)
            r_base = rng.uniform(0.05, 5.0)
            bound = 16 * k / (1 + k + ell) ** 2
            lhs = lemma41_lhs(1.0, k, ell, math.log(r_base))
            assert lhs >= bound - 1e-9 * max(1.0, bound)


class TestCheckAssumption:
    def test_power_quarter_boundary(self):
        t = FunctionTriple(Power(p=0.25), Power(p=0.25), Power(p=0.5))
        assert check_assumption(t) is Assumption.I

    def test_negative_power_h(self):
        t = FunctionTriple(Power(p=1.0), Power(p=1.0), Power(p=-0.5))
        assert check_assumption(t) is Assumption.II

    def test_large_h_satisfies_first(self):
        t = FunctionTriple(Power(p=1.0), Power(p=1.0), Power(p=3.0))
        assert check_assumption(t) is Assumption.I

    def test_intermediate_h_is_neither(self):
        t = FunctionTriple(Power(p=1.0), Power(p=1.0), Power(p=1.5))
        assert check_assumption(t) is Assumption.NEITHER

    def test_constant_h_routes_through_second(self):
        t = FunctionTriple(Power(p=0.5), Power(p=1 / 3), Const(c=1.0))
        assert check_assumption(t) is Assumption.II

    def test_non_constant_ratio_triple(self):
        t = FunctionTriple(
            Power(p=1.0), ScaledSum(terms=((1.0, 2.0), (1.0, 1.0))), Power(p=4.0)
        )
        assert check_assumption(t) is Assumption.I


class TestLSurface:
    def test_power_triple_point(self):
        # this triple sits on the equality family, so L == 1 up to rounding
        t = FunctionTriple(Power(p=0.25), Power(p=0.25), Power(p=0.5))
        assert l_value(t, 0.25, 0.75) >= 1.0 - 1e-9

    def test_identical_fg_constant_h_is_four(self):
        # (f^2x - f^2y)^2 (2c)^2 / (c (f^2x - f^2y))^2 == 4 identically
        t = FunctionTriple(Power(p=0.7), Power(p=0.7), Const(c=2.5))
        for x, y in ((0.2, 0.9), (1e-6, 1.0), (0.5, 0.51)):
            assert l_value(t, x, y) == pytest.approx(4.0, rel=1e-10)

    def test_constant_product_gives_infinity(self):
        # f g h = x * x * x^-2 = 1, so the denominator vanishes off-diagonal
        t = FunctionTriple(Power(p=1.0), Power(p=1.0), Power(p=-2.0))
        assert check_assumption(t) is Assumption.II
        assert l_value(t, 0.3, 0.9) == math.inf

    def test_diagonal_excluded(self):
        t = FunctionTriple(Power(p=0.25), Power(p=0.25), Power(p=0.5))
        with pytest.raises(ValueError, match="diagonal"):
            l_value(t, 0.5, 0.5)

    def test_scan_power_triple(self):
        t = FunctionTriple(Power(p=0.25), Power(p=0.25), Power(p=0.5))
        res = l_scan_min(t, k=200)
        assert res.min_value >= 1.0 - 1e-9

    def test_scan_negative_exponent(self):
        t = FunctionTriple(Power(p=1.0), Power(p=1.0), Power(p=-0.5))
        res = l_scan_min(t, k=200)
        assert res.min_value >= 16 * (4 / 9) - 1e-9

    def test_scan_without_contract_still_computes(self):
        t = FunctionTriple(Power(p=1.0), Power(p=1.0), Power(p=1.5))
        assert check_assumption(t) is Assumption.NEITHER
        res = l_scan_min(t, k=50)
        assert math.isfinite(res.min_value) or res.min_value == math.inf

    @pytest.mark.parametrize("k", [200, 2000])
    def test_scan_zero_numerator_where_den_squared_underflows(self, k):
        # g is constant, so every numerator is a zero; den = f g h(x) - f g h(y)
        # is a subnormal at the argmin, whose square underflows, and 0 / 0 made
        # the scan read min_L = nan, where each ratio is that zero
        t = FunctionTriple(Power(p=1.0), Const(c=1.0), Power(p=300.0))
        res = l_scan_min(t, k=k)
        assert repr(res.min_value) == "-0.0"
        den = float(t.h.value(res.arg_x) * res.arg_x) - float(t.h.value(res.arg_y) * res.arg_y)
        assert den != 0.0 and den**2 == 0.0
        assert repr(l_value(t, res.arg_x, res.arg_y)) == "-0.0"

    def test_scan_coarse_grid(self):
        t = FunctionTriple(Power(p=0.25), Power(p=0.25), Power(p=0.5))
        res = l_scan_min(t, k=2)
        assert res.grid_size == 2
        assert res.min_value >= 1.0 - 1e-9

    @pytest.mark.parametrize("k", [200, 2000])
    @pytest.mark.parametrize("g, name", [
        (Power(p=1.0), "numerator"),
        # num is 0 everywhere, so an infinite den^2 read as a ratio of 0
        (Const(c=1.0), "squared denominator"),
    ])
    def test_scan_pair_product_overflow_raises(self, g, name, k):
        # f^2, g^2, h and f g h are finite on the grid; their pair products
        # are not. With g = x the scan read min_L = 0 where L = 0.4811
        t = FunctionTriple(Exp(a=300.0), g, Exp(a=300.0))
        grid = np.linspace(t.eps, 1.0, k)
        fv, gv, hv = (np.asarray(fn.value(grid), dtype=float) for fn in (t.f, t.g, t.h))
        f2, g2, prod = fv**2, gv**2, fv * gv * hv
        with np.errstate(over="ignore", invalid="ignore"):
            num = (f2[:, None] - f2) * (g2[:, None] - g2) * (hv[:, None] + hv) ** 2
            den_sq = (prod[:, None] - prod) ** 2
        bad = np.triu(~np.isfinite(num) | ~np.isfinite(den_sq), k=1)
        i, j = divmod(int(np.argmax(bad)), k)
        assert np.isfinite(num[i, j]) == name.startswith("squared")
        want = (
            f"scan {name} overflows at (x, y) = ({float(grid[i])!r}, {float(grid[j])!r}), "
            f"the first such pair of the {k}-point grid"
        )
        with pytest.raises(ValueError) as err:
            l_scan_min(t, k=k)
        assert str(err.value) == want


class TestLemma41:
    def test_limit_equality(self):
        rep = lemma41_check(0.5, 0.5, 1.0)
        assert rep.rhs == pytest.approx(1.0)
        assert rep.limit_gap <= 1e-8

    def test_second_regime_point(self):
        # direct scalar evaluation of the displayed expression at r = 1
        a, b, c, r = 1.0, 1.0, -0.5, 1.0
        direct = (
            (math.exp(2 * a * r) - 1)
            * (math.exp(2 * b * r) - 1)
            * (math.exp(c * r) + 1) ** 2
            / (math.exp((a + b + c) * r) - 1) ** 2
        )
        assert direct == pytest.approx(8.691034442658387)
        assert lemma41_lhs(a, b, c, r) == pytest.approx(direct, rel=1e-12)
        rep = lemma41_check(a, b, c)
        assert rep.rhs == pytest.approx(16 / 2.25)
        assert rep.min_margin > 0
        assert rep.violations == 0

    def test_zero_product_parameter(self):
        rep = lemma41_check(0.0, 1.0, -0.5)
        assert rep.rhs == 0.0
        assert rep.min_margin >= 0.0
        assert rep.violations == 0

    @pytest.mark.parametrize("a, b, c", [
        (0.0, 1.0, -0.5), (1.0, 0.0, -0.5), (0.0, 1.0, 1.0), (1.0, 0.0, 2.5),
    ])
    def test_zero_product_lhs_is_exactly_zero(self, a, b, c):
        # in the second regime e^{-c|r|} overflows past |c| |r| = 354.9, and
        # 0 * inf read as NaN, so the check refused a value that is 0
        r = np.array([-800.0, -1.0, 0.0, 1e-300, 1.0, 800.0])
        assert lemma41_lhs(a, b, c, r).tobytes() == np.zeros(6).tobytes()
        assert repr(lemma41_lhs(a, b, c, 800.0)) == "0.0"
        rep = lemma41_check(a, b, c, rmax=800, steps=7)
        assert rep.rhs == 0.0 and rep.limit_gap == 0.0
        assert rep.margins.tobytes() == np.zeros(6).tobytes()
        assert rep.violations == 0

    def test_regime_guard(self):
        with pytest.raises(ValueError, match="regime"):
            lemma41_check(1.0, 1.0, 0.5)
        with pytest.raises(ValueError, match="regime"):
            lemma41_check(1.0, 1.0, -2.0)

    @pytest.mark.parametrize("r", [0.5, 0.0, [0.0, 0.5]])
    def test_lhs_rejects_zero_exponent_sum(self, r):
        with pytest.raises(ValueError, match=r"a \+ b \+ c = 0"):
            lemma41_lhs(1.0, 1.0, -2.0, r)

    def test_band_excluded(self):
        # linspace(-1, 1, 101) holds r = 0, which drops out with the band
        rep = lemma41_check(0.5, 0.5, 1.0, rmax=1.0, steps=101)
        grid = np.linspace(-1.0, 1.0, 101)
        assert rep.r_grid.size == 100
        assert np.all(np.abs(rep.r_grid) >= 1e-4)
        assert rep.r_grid.tobytes() == grid[np.abs(grid) >= 1e-4].tobytes()
        want = lemma41_lhs(0.5, 0.5, 1.0, rep.r_grid) - rep.rhs
        assert rep.margins.tobytes() == want.tobytes()

    def test_overflow_is_an_error_not_a_pass(self):
        # e^{4r} overflowed past r = 177.45, and inf / inf gave NaN margins
        # that counted as no violation; at -|r| the first regime cannot overflow
        rep = lemma41_check(0.5, 0.5, 1.0, rmax=800)
        assert np.isfinite(rep.margins).all()
        assert rep.violations == 0
        assert rep.min_margin == -4.440892098500626e-16
        # the second regime overflows where e^{-c|r|} grows, on both sides of 0;
        # the first such r in grid order is named
        with pytest.raises(ValueError) as err:
            lemma41_check(1.0, 1.0, -1.5, rmax=800)
        assert str(err.value) == (
            "lemma41 lhs is not finite at r = -800.0 (a=1.0, b=1.0, c=-1.5): "
            "its exponentials overflow there, so choose a smaller rmax"
        )

    def test_denominator_overflow_is_an_error_not_a_violation(self):
        # from r = 142.1 on, expm1(2.5 r)^2 overflowed while the numerator
        # stayed finite, so the lhs read 0 (true value about 2.9e-10 > rhs =
        # 2.56e-12) and counted as 21 false violations; at -|r| the squared
        # denominator lies below 1, and the true value is checked
        rep = lemma41_check(1e-12, 1.0, 1.5, rmax=145)
        assert np.isfinite(rep.margins).all()
        assert rep.violations == 0
        assert rep.min_margin == 2.805468433576834e-15
        assert lemma41_lhs(1e-12, 1.0, 1.5, 142.1) == pytest.approx(2.842e-10, rel=1e-9)
        # the grid of rmax = 200 and 401 steps holds every integer r in [-200, 200]
        rep = lemma41_check(1e-12, 1.0, 1.5, rmax=200, steps=401)
        assert np.isfinite(rep.margins).all()
        assert rep.violations == 0
        r = np.array([-200.0, 1.0, 144.0, 140.0, 143.0])
        lhs = lemma41_lhs(1e-12, 1.0, 1.5, r)
        assert np.isfinite(lhs).all() and (lhs >= rep.rhs).all()
        at = np.searchsorted(rep.r_grid, r)
        assert rep.r_grid[at].tobytes() == r.tobytes()
        assert rep.margins[at].tobytes() == (lhs - rep.rhs).tobytes()

    @pytest.mark.parametrize("name, args, kwargs", [
        ("a", (math.nan, 0.5, 1.0), {}),
        ("b", (0.5, math.inf, 1.0), {}),
        ("c", (0.5, 0.5, math.inf), {}),
        ("c", (0.5, 0.5, -math.inf), {}),
        ("rmax", (0.5, 0.5, 1.0), {"rmax": math.inf}),
        ("rmax", (0.5, 0.5, 1.0), {"rmax": math.nan}),
    ])
    def test_non_finite_parameters_rejected(self, name, args, kwargs):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            lemma41_check(*args, **kwargs)

    @pytest.mark.parametrize("rmax", [9e307, 1e308, float(np.finfo(float).max)])
    def test_rmax_whose_grid_overflows_rejected(self, rmax):
        # np.linspace's width 2 * rmax overflowed: the grid held r = inf,
        # whose margin is the r -> inf limit
        with pytest.raises(ValueError) as err:
            lemma41_check(1.0, 1.0, 3.0, rmax=rmax)
        assert str(err.value) == (
            f"rmax = {rmax!r} is too large: the grid's width 2 * rmax overflows"
        )

    def test_largest_rmax_whose_grid_is_finite_accepted(self):
        rep = lemma41_check(1.0, 1.0, 3.0, rmax=8.9e307, steps=5)
        assert rep.r_grid.tolist() == [-8.9e307, -4.45e307, 4.4500000000000006e307, 8.9e307]
        assert rep.violations == 0

    @pytest.mark.parametrize("rmax", [-145.0, -1e-3, 0.0, -0.0])
    def test_non_positive_rmax_rejected(self, rmax):
        with pytest.raises(ValueError, match=f"rmax must be positive, got {rmax!r}"):
            lemma41_check(1e-12, 1.0, 1.5, rmax=rmax)

    def test_random_parameters_no_violations(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            a, b = rng.uniform(0.05, 1.0, 2)
            c = (a + b) * (1 + rng.uniform(0, 1.5))
            assert lemma41_check(a, b, c, steps=500).violations == 0
        for _ in range(10):
            a, b = rng.uniform(0.1, 1.5, 2)
            c = -rng.uniform(0, 0.9) * (a + b)
            assert lemma41_check(a, b, c, steps=500).violations == 0


def reference_lemma41_lhs(a, b, c, r):
    """``lemma41_lhs`` as one expression of whole arrays, the form it had
    before it wrote into preallocated buffers and evaluated at -|r|: called
    at ``-np.abs(r)`` it is what ``lemma41_lhs`` computes at r. At a * b = 0,
    where the expression reads 0 * inf = NaN once e^{c r} overflows, the lhs
    and its limit are exact zeros."""
    r_arr = np.asarray(r, dtype=float)
    if a == 0.0 or b == 0.0:
        return np.zeros(r_arr.shape)
    limit = 16.0 * a * b / (a + b + c) ** 2
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        num = (
            np.expm1(2.0 * a * r_arr)
            * np.expm1(2.0 * b * r_arr)
            * (np.exp(c * r_arr) + 1.0) ** 2
        )
        den = np.expm1((a + b + c) * r_arr) ** 2
        return np.where(r_arr == 0.0, limit, num / np.where(den == 0.0, 1.0, den))


@st.composite
def lemma41_parameters(draw):
    """(a, b, c) in either admissible regime, edges included."""
    a = draw(st.sampled_from([0.0]) | st.floats(0.0, 5.0))
    b = draw(st.floats(1e-3, 5.0))
    if draw(st.booleans()):
        c = (a + b) * draw(st.sampled_from([1.0]) | st.floats(1.0, 4.0))
    else:
        c = -(a + b) * draw(st.sampled_from([0.0]) | st.floats(0.0, 0.99))
    return a, b, c


r_values = st.sampled_from([0.0, 1e-300, -1e-6]) | st.floats(-300.0, 300.0)


class TestLemma41Buffers:
    """``lemma41_lhs`` writes into two buffers with ``out=`` ufuncs in the
    order of the whole-array expression at -|r|, so no array result moves a
    bit from that expression's."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(abc=lemma41_parameters(), r=st.lists(r_values, min_size=1, max_size=40))
    def test_array_results_match_reference_bit_for_bit(self, abc, r):
        a, b, c = abc
        r = np.array(r + [0.0])
        got = lemma41_lhs(a, b, c, r)
        want = reference_lemma41_lhs(a, b, c, -np.abs(r))
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_two_dimensional_input_keeps_its_shape(self):
        r = np.linspace(-2.0, 2.0, 12).reshape(3, 4)
        got = lemma41_lhs(0.5, 0.5, 1.0, r)
        assert got.shape == (3, 4)
        assert got.tobytes() == reference_lemma41_lhs(0.5, 0.5, 1.0, -np.abs(r)).tobytes()

    def test_does_not_write_to_its_input(self):
        r = np.linspace(-2.0, 2.0, 11)
        before = r.copy()
        lemma41_lhs(0.5, 0.5, 1.0, r)
        assert r.tobytes() == before.tobytes()

    def test_scalar_equals_one_element_array(self):
        # the float64 scalar `**2` calls pow, one ulp away from the array square
        args = (1.0592845708622913, 1.4722643055481293, 4.380232749344668)
        r = 6.001760873692383
        got = lemma41_lhs(*args, r)
        assert type(got) is float
        assert got == lemma41_lhs(*args, np.array([r]))[0] == 0.9999969736098938

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(abc=lemma41_parameters(), r=r_values)
    def test_scalar_path_is_the_array_path(self, abc, r):
        a, b, c = abc
        got = lemma41_lhs(a, b, c, r)
        assert type(got) is float
        want = float(lemma41_lhs(a, b, c, np.array([r]))[0])
        assert repr(got) == repr(want)

    def test_default_grid_is_shared_and_read_only(self):
        first = lemma41_check(0.5, 0.5, 1.0, rmax=7.0, steps=301)
        second = lemma41_check(1.0, 1.0, -0.5, rmax=7.0, steps=301)
        assert first.r_grid is second.r_grid
        assert not first.r_grid.flags.writeable
        with pytest.raises(ValueError):
            first.r_grid[0] = 0.0
        grid = np.linspace(-7.0, 7.0, 301)
        assert first.r_grid.tobytes() == grid[np.abs(grid) >= 1e-4].tobytes()
        assert not np.shares_memory(first.margins, second.margins)


class TestLemma41Evenness:
    """The lhs is even in r, and ``lemma41_lhs`` evaluates it at -|r|, where
    no exponential of the first regime grows."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(abc=lemma41_parameters(), r=st.lists(r_values, min_size=1, max_size=40))
    def test_lhs_at_r_and_minus_r_have_the_same_bits(self, abc, r):
        a, b, c = abc
        r = np.array(r)
        assert lemma41_lhs(a, b, c, r).tobytes() == lemma41_lhs(a, b, c, -r).tobytes()

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(abc=lemma41_parameters().filter(lambda abc: abc[2] > 0.0),
           rmax=st.sampled_from([1e6]) | st.floats(1.0, 1e6))
    def test_first_regime_margins_are_finite_at_any_rmax(self, abc, rmax):
        rep = lemma41_check(*abc, rmax=rmax, steps=201)
        assert np.isfinite(rep.margins).all()
        assert rep.violations == 0

    def test_second_regime_refused_exactly_past_the_overflow(self):
        # (e^{1.5 |r|} + 1)^2 overflows once 1.5 |r| > 354.9, at |r| > 236.6
        rep = lemma41_check(1.0, 1.0, -1.5, rmax=230)
        assert np.isfinite(rep.margins).all()
        assert rep.violations == 0
        with pytest.raises(ValueError) as err:
            lemma41_check(1.0, 1.0, -1.5, rmax=240)
        assert str(err.value) == (
            "lemma41 lhs is not finite at r = -240.0 (a=1.0, b=1.0, c=-1.5): "
            "its exponentials overflow there, so choose a smaller rmax"
        )
