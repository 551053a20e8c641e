import threading
from decimal import Context, Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emi.errors import ExactModeUnsupportedError
from emi import jets, quadrature
from emi.jets import get_integrand
from emi.pi_suite import pi_emi
from emi.precision import Rat, arithmetic, rat_to_real, render_decimal, render_rat
from emi.quadrature import (
    EmiConfig,
    closed_form_arctan,
    emi_integrate,
    emi_subinterval,
    emi_weights,
    pairwise_sum,
    term_count,
)

from oracles import brute_midpoint, exp_emi_sum, machin_pi_digits


class TestWeights:
    @pytest.mark.parametrize("L", [1, 2, 17, 1000])
    def test_odd_weights_vanish(self, L):
        # only the even coefficients are folded, so there are no odd weights
        assert len(emi_weights(L, 7)) == 7 // 2 + 1
        assert len(emi_weights(L, 6)) == 6 // 2 + 1

    def test_order_zero_reduces_to_midpoint_width(self):
        assert emi_weights(1, 0) == [Rat(1)]
        assert emi_weights(4, 0) == [Rat(1, 4)]

    def test_second_order_weight(self):
        assert emi_weights(1, 2)[1] == Rat(1, 12)

    @pytest.mark.parametrize("L,m", [(1, 4), (3, 2), (10, 6)])
    def test_even_weight_formula(self, L, m):
        assert emi_weights(L, m)[m // 2] == Rat(2, (2 * L) ** (m + 1) * (m + 1))

    @pytest.mark.parametrize("wp", [25, 75, 145])
    @pytest.mark.parametrize("L", [1, 7, 2000])
    def test_float_weights_within_0_51_ulp(self, L, wp):
        M = 400
        frac, scope = arithmetic(wp)
        with scope:
            weights = emi_weights(L, M, frac)
        assert len(weights) == M // 2 + 1
        for k, w in enumerate(weights):
            exact = Fraction(2, (2 * L) ** (2 * k + 1) * (2 * k + 1))
            assert len(w.as_tuple().digits) <= wp
            ulp = Fraction(10) ** (w.adjusted() - wp + 1)
            assert abs(Fraction(w) - exact) <= Fraction(51, 100) * ulp, k

    def test_validation(self):
        with pytest.raises(ValueError):
            emi_weights(0, 2)
        with pytest.raises(ValueError):
            emi_weights(1, -1)


class TestSubinterval:
    def test_order_zero_is_midpoint_area(self):
        assert emi_subinterval([Rat(7)], emi_weights(4, 0)) == Rat(7, 4)

    def test_integrates_t_squared_exactly(self):
        # coefficients of t^2 at 1/2: [1/4, 1, 1]; full integral over [0,1] is 1/3
        coeffs = [Rat(1, 4), Rat(1), Rat(1)][0::2]
        assert emi_subinterval(coeffs, emi_weights(1, 2)) == Rat(1, 3)

    def test_midpoint_value_of_arctan_kernel(self):
        spec = get_integrand("arctan-kernel", Rat(1))
        coeffs = spec.kernel(Rat)(1, 2, 0)
        value = emi_subinterval(coeffs, emi_weights(1, 0))
        assert value == Rat(4, 5)
        # single-midpoint error against pi/4 is about 0.0146
        quarter_pi_digits = machin_pi_digits(30)
        quarter = Fraction(int(quarter_pi_digits), 10**29) / 4
        err = abs(value - quarter)
        assert Fraction("0.0146018") < err < Fraction("0.0146019")


def _fraction_kernel(x: Fraction):
    def f(t: Fraction) -> Fraction:
        return x / (1 + x * x * t * t)

    return f


def _fraction_runge(t: Fraction) -> Fraction:
    return Fraction(1) / (1 + 25 * t * t)


def _fraction_poly(k: int):
    def f(t: Fraction) -> Fraction:
        return t**k

    return f


EXACT_CASES = [
    ("arctan-kernel", Rat(1), _fraction_kernel(Fraction(1))),
    ("arctan-kernel", Rat(2, 3), _fraction_kernel(Fraction(2, 3))),
    ("runge", None, _fraction_runge),
    ("poly:4", None, _fraction_poly(4)),
]


class TestIntegrate:
    def test_poly3_exact_at_order_two(self):
        result = emi_integrate(get_integrand("poly:3"), EmiConfig(1, 2, "exact"))
        assert result.value == Rat(1, 4)
        assert result.term_count == 2

    def test_linear_exact_with_midpoint_rule(self):
        result = emi_integrate(get_integrand("poly:1"), EmiConfig(7, 0, "exact"))
        assert result.value == Rat(1, 2)
        assert result.term_count == 7

    def test_arctan_kernel_float_leading_digits(self):
        spec = get_integrand("arctan-kernel", Rat(1))
        result = emi_integrate(spec, EmiConfig(1000, 0, "float", 60))
        assert render_decimal(result.value, 12) == "0.785398184230"
        assert result.term_count == 1000

    @pytest.mark.parametrize("name,x,f", EXACT_CASES)
    @pytest.mark.parametrize("L", [1, 2, 3, 5, 8, 16, 64])
    def test_order_zero_is_plain_midpoint_rule(self, name, x, f, L):
        spec = get_integrand(name, x)
        result = emi_integrate(spec, EmiConfig(L, 0, "exact"))
        assert result.value == brute_midpoint(f, L)

    @pytest.mark.parametrize("name,x,f", EXACT_CASES)
    @pytest.mark.parametrize("L", [1, 4, 32])
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_odd_order_collapses_to_even(self, name, x, f, L, k):
        spec = get_integrand(name, x)
        odd = emi_integrate(spec, EmiConfig(L, 2 * k + 1, "exact"))
        even = emi_integrate(spec, EmiConfig(L, 2 * k, "exact"))
        assert odd.value == even.value
        assert odd.term_count == even.term_count == L * (k + 1)

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_odd_order_collapse_exp_float(self, k):
        spec = get_integrand("exp")
        odd = emi_integrate(spec, EmiConfig(16, 2 * k + 1, "float", 40))
        even = emi_integrate(spec, EmiConfig(16, 2 * k, "float", 40))
        assert odd.value == even.value

    @pytest.mark.parametrize("M", [0, 2, 4, 6, 8])
    @pytest.mark.parametrize("L", [1, 3, 7])
    def test_polynomial_exactness_up_to_degree_m_plus_one(self, M, L):
        for k in range(M + 2):
            spec = get_integrand(f"poly:{k}")
            result = emi_integrate(spec, EmiConfig(L, M, "exact"))
            assert result.value == Rat(1, k + 1), (k, L, M)

    @pytest.mark.parametrize("M", [0, 2, 4])
    def test_degree_of_exactness_is_sharp(self, M):
        # degree M+2 must NOT integrate exactly (single interval)
        k = M + 2
        spec = get_integrand(f"poly:{k}")
        result = emi_integrate(spec, EmiConfig(1, M, "exact"))
        assert result.value != Rat(1, k + 1)

    def test_float_mode_agrees_with_exact_oracle(self):
        spec = get_integrand("arctan-kernel", Rat(1))
        exact = emi_integrate(spec, EmiConfig(10, 4, "exact")).value
        approx = emi_integrate(spec, EmiConfig(10, 4, "float", 40)).value
        assert render_decimal(approx, 30) == render_rat(exact, 30)

    def test_exact_mode_with_float_only_integrand(self):
        with pytest.raises(ExactModeUnsupportedError):
            emi_integrate(get_integrand("exp"), EmiConfig(4, 2, "exact"))

    def test_term_count_counts_even_orders_only(self):
        spec = get_integrand("poly:2")
        assert emi_integrate(spec, EmiConfig(10, 7, "exact")).term_count == 40

    def test_repeated_float_runs_are_bit_identical(self):
        spec = get_integrand("arctan-kernel", Rat(1))
        config = EmiConfig(37, 6, "float", 45)
        first = emi_integrate(spec, config).value
        second = emi_integrate(spec, config).value
        assert first.value == second.value
        assert str(first.value) == str(second.value)

    def test_repeated_exact_runs_agree(self):
        spec = get_integrand("runge")
        config = EmiConfig(23, 4, "exact")
        first = emi_integrate(spec, config).value
        assert emi_integrate(spec, config).value == first

    def test_thread_setting_starts_no_thread(self, monkeypatch):
        started = []
        start = threading.Thread.start

        def recorded_start(thread):
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", recorded_start)
        monkeypatch.setenv("EMI_THREADS", "8")
        before = threading.active_count()
        emi_integrate(get_integrand("runge"), EmiConfig(64, 4, "float", 40))
        closed_form_arctan(Rat(1), 64, 2)
        assert started == []
        assert threading.active_count() == before

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_weights_built_once_per_run(self, monkeypatch, mode):
        calls = []

        def counted(L, M, frac):
            calls.append((L, M))
            return emi_weights(L, M, frac)

        monkeypatch.setattr(quadrature, "emi_weights", counted)
        emi_integrate(get_integrand("runge"), EmiConfig(50, 6, mode))
        assert calls == [(50, 6)]


class TestFloatAgainstExact:
    @given(
        integrand=st.one_of(
            st.tuples(st.just("arctan-kernel"),
                      st.builds(Rat, st.integers(-50, 50), st.integers(1, 50))),
            st.tuples(st.just("runge"), st.none()),
            st.tuples(st.integers(0, 9).map("poly:{}".format), st.none()),
        ),
        L=st.integers(1, 32),
        M=st.integers(0, 40),
        precision=st.integers(10, 130),
    )
    @settings(max_examples=60, deadline=None)
    def test_float_within_one_unit_of_exact(self, integrand, L, M, precision):
        # float mode, rounded at every step, against the exact sum rounded once
        spec = get_integrand(*integrand)
        exact = emi_integrate(spec, EmiConfig(L, M, "exact")).value
        got = emi_integrate(spec, EmiConfig(L, M, "float", precision)).value.value
        want = rat_to_real(exact, precision).value
        unit = Fraction(10) ** (want.adjusted() - precision + 1)
        assert abs(Fraction(got) - Fraction(want)) <= unit


class TestExpRuns:
    @pytest.mark.parametrize("precision", [10, 60, 130])
    @pytest.mark.parametrize("M", [0, 2, 6])
    @pytest.mark.parametrize("L", [1, 7, 64, 2000])
    def test_matches_independent_sum(self, L, M, precision):
        config = EmiConfig(L, M, "float", precision)
        got = emi_integrate(get_integrand("exp"), config).value.value
        oracle = exp_emi_sum(L, M, precision + 30)
        unit = Fraction(10) ** (got.adjusted() - precision + 1)
        assert abs(Fraction(got) - Fraction(oracle)) <= unit

    @pytest.mark.parametrize("L", [1, 64, 2000])
    def test_one_exponential_per_run(self, monkeypatch, L):
        calls = []
        exp_root = jets._exp_root

        def counted(q, wide):
            calls.append(q)
            return exp_root(q, wide)

        monkeypatch.setattr(jets, "_exp_root", counted)
        emi_integrate(get_integrand("exp"), EmiConfig(L, 2, "float", 60))
        assert calls == [2 * L]
        emi_integrate(get_integrand("exp"), EmiConfig(L, 2, "float", 60))
        assert calls == [2 * L, 2 * L]  # the memo dies with its run


def _exp_reference(precision: int) -> Decimal:
    from emi.precision import context

    ctx = context(precision)
    return ctx.subtract(ctx.exp(Decimal(1)), Decimal(1))


class TestConvergenceOrder:
    @pytest.mark.parametrize("M", [0, 2, 4, 6])
    def test_exp_order_tracks_correction_order(self, M):
        import math

        spec = get_integrand("exp")
        true = _exp_reference(60)
        errors = {}
        for L in (8, 16, 32):
            value = emi_integrate(spec, EmiConfig(L, M, "float", 45)).value
            errors[L] = abs(float(Decimal(str(value.value)) - true))
        for a, b in ((8, 16), (16, 32)):
            p = math.log2(errors[a] / errors[b])
            assert abs(p - (M + 2)) <= 0.3, (M, a, b, p)


class TestClosedForms:
    def test_single_term_values(self):
        # L=2, M=0, x=1: 8/17 + 8/25
        value = closed_form_arctan(Rat(1), 2, 0, mode="exact")
        assert value == Rat(8, 17) + Rat(8, 25)

    def test_zero_parameter(self):
        for M in (0, 2, 6):
            assert closed_form_arctan(Rat(0), 5, M, mode="exact") == 0

    def test_order_four_matches_engine(self):
        spec = get_integrand("arctan-kernel", Rat(1))
        generic = emi_integrate(spec, EmiConfig(10, 4, "exact")).value
        assert closed_form_arctan(Rat(1), 10, 4, mode="exact") == generic

    @pytest.mark.parametrize("x", [Rat(1), Rat(1, 2), Rat(1, 3), Rat(2), Rat(-5, 3)])
    @pytest.mark.parametrize("L", [1, 2, 10, 50])
    @pytest.mark.parametrize("M", [*range(9), 13, 30, 46])
    def test_equivalence_with_generic_engine(self, x, L, M):
        spec = get_integrand("arctan-kernel", x)
        generic = emi_integrate(spec, EmiConfig(L, M, "exact")).value
        closed = closed_form_arctan(x, L, M, mode="exact")
        assert generic == closed

    @given(
        st.integers(-50, 50),
        st.integers(1, 50),
        st.integers(1, 8),
        st.integers(0, 40),
    )
    @settings(max_examples=60, deadline=None)
    def test_equivalence_for_random_rationals(self, num, den, L, M):
        x = Rat(num, den)
        spec = get_integrand("arctan-kernel", x)
        generic = emi_integrate(spec, EmiConfig(L, M, "exact")).value
        assert closed_form_arctan(x, L, M, mode="exact") == generic

    def test_float_results_ignore_caller_context(self):
        # every Decimal operation must round to the run's working precision,
        # never to the caller's thread-local context
        def results():
            exp = get_integrand("exp")
            return [
                pi_emi(1000, 6),
                closed_form_arctan(Rat(-5, 3), 10, 6, mode="float", precision=40),
                emi_integrate(exp, EmiConfig(7, 6, "float", 40)).value,
                emi_integrate(exp, EmiConfig(64, 2, "float", 60)).value,
            ]

        expected = results()
        with localcontext() as caller:
            caller.prec = 5
            got = results()
        assert [repr(v) for v in got] == [repr(v) for v in expected]

    def test_float_mode_tracks_exact(self):
        exact = closed_form_arctan(Rat(1, 2), 20, 6, mode="exact")
        approx = closed_form_arctan(Rat(1, 2), 20, 6, mode="float", precision=40)
        assert render_decimal(approx, 30) == render_rat(exact, 30)


class TestPairwiseSum:
    @given(st.lists(st.fractions(max_denominator=50), min_size=1, max_size=40))
    @settings(max_examples=60)
    def test_matches_plain_sum_on_rationals(self, values):
        assert pairwise_sum(values) == sum(values)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            pairwise_sum([])

    def test_tree_matches_slice_recursion(self):
        # at 3 digits decimal addition is not associative, so any change to
        # the reduction tree would change some of these sums
        ctx = Context(prec=3)

        def slice_sum(values):
            if len(values) == 1:
                return values[0]
            mid = len(values) // 2
            return ctx.add(slice_sum(values[:mid]), slice_sum(values[mid:]))

        for n in range(1, 71):
            values = [ctx.divide(7**i % 1009, 3 + i % 11) for i in range(n)]
            expected = slice_sum(values)
            with localcontext(ctx):
                got = pairwise_sum(values)
            assert got == expected and str(got) == str(expected), n


class TestConfig:
    @pytest.mark.parametrize("check", [EmiConfig, term_count, emi_weights])
    def test_one_L_M_rule(self, check):
        with pytest.raises(ValueError, match=r"^L must be >= 1, got 0$"):
            check(0, 0)
        with pytest.raises(ValueError, match=r"^M must be >= 0, got -1$"):
            check(1, -1)

    def test_validation(self):
        with pytest.raises(ValueError):
            EmiConfig(0, 0)
        with pytest.raises(ValueError):
            EmiConfig(1, -1)
        with pytest.raises(ValueError):
            EmiConfig(1, 0, "symbolic")
        with pytest.raises(ValueError):
            EmiConfig(1, 0, "float", 5)

    def test_exact_mode_ignores_low_precision_gate(self):
        EmiConfig(1, 0, "exact")  # must not raise

    def test_working_precision_adds_guard(self):
        assert EmiConfig(1, 0, "float", 60).working_precision == 75
