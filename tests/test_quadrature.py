import re
import threading
import tracemalloc
from decimal import Context, Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emi.errors import ExactModeUnsupportedError
from emi import jets, quadrature
from emi.jets import get_integrand
from emi.pi_suite import ConvergenceReport, ScanRow, pi_emi
from emi.precision import (
    GUARD_DIGITS,
    Rat,
    Real,
    as_rat,
    context,
    rat_to_real,
    render_decimal,
    render_rat,
)
from emi.quadrature import (
    MAX_TERMS,
    MAX_WORK,
    EmiConfig,
    QuadResult,
    closed_form_arctan,
    emi_integrate,
    pairwise_sum,
    term_count,
)
from emi.selftest import GroupResult

from oracles import arctan_emi_sum, brute_midpoint, exp_emi_sum, machin_pi_digits


def _term(bind, q, order, p):
    # the exact term of a term binder bound in exact mode: term(p) / scale
    term, scale = bind(None, q, order)
    return Rat(term(p), scale)


class TestSubinterval:
    # a term, the sum of g_k / (2k + 1) with g_k = c_2k / (2L)^(2k), is L
    # times the subinterval's integral; the engine divides the kernel's total
    # of the L terms by L times its scale once
    def test_order_zero_is_midpoint_area(self):
        # t^2 at the midpoint 1/4 of [0, 1/2], times the width 1/2
        term = _term(jets._poly_kernel(2), 4, 0, 1)
        assert term / 2 == Rat(1, 32)

    def test_integrates_t_squared_exactly(self):
        # coefficients of t^2 at 1/2: [1/4, 1, 1], so g = [1/4, 1/2^2] and
        # the term is 1/4 + (1/4) / 3; full integral over [0,1] is 1/3
        assert _term(jets._poly_kernel(2), 2, 2, 1) == Rat(1, 3)

    def test_midpoint_value_of_arctan_kernel(self):
        value = _term(jets._rational_kernel(Rat(1), Rat(1)), 2, 0, 1)
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

    @pytest.mark.parametrize("name,x", [
        ("pi", None), ("runge", None), ("arctan-kernel", Rat(-5, 3)),
        ("arctan-kernel", as_rat("7" * 40)), ("poly:3", None), ("poly:57", None),
        ("exp", None),
    ])
    @pytest.mark.parametrize("L,M", [(1, 0), (7, 3), (64, 13), (301, 46)])
    def test_one_decimal_operation_per_run(self, monkeypatch, name, x, L, M):
        # a float run of every integrand makes one correctly rounded
        # quotient at working precision of its kernel's int total by L times
        # its int scale, both converted to Decimal by halves first; Real then
        # rounds it to precision.  The recorded contexts offer the engine
        # nothing but that quotient, and emi.jets imports no context to offer
        # the kernels any
        calls = []

        class Recording:
            def __init__(self, precision):
                self.divide_at = context(precision).divide

            def divide(self, n, d):
                calls.append((type(n), type(d)))
                return self.divide_at(n, d)

        monkeypatch.setattr(quadrature, "context", Recording)
        spec = jets.PI if name == "pi" else get_integrand(name, x)
        emi_integrate(spec, EmiConfig(L, M, "float", 60))
        assert calls == [(Decimal, Decimal)]

    @pytest.mark.parametrize("k,L,M", [
        (0, 1, 0), (3, 7, 3), (3, 301, 40), (57, 64, 57), (1000, 10, 1000),
    ])
    @pytest.mark.parametrize("precision", [10, 60, 130])
    def test_float_poly_is_one_over_k_plus_one_correctly_rounded(
        self, k, L, M, precision
    ):
        # at M >= k the order-M sum of t^k is exactly 1 / (k + 1); float
        # mode adds the exact int terms and rounds once to working
        # precision, then once to precision
        spec = get_integrand(f"poly:{k}")
        wp = precision + GUARD_DIGITS
        term, scale = jets._poly_kernel(k)(wp, 2 * L, M)
        terms = [term(p) for p in range(1, 2 * L, 2)]
        assert Rat(sum(terms), L * scale) == Rat(1, k + 1)
        got = emi_integrate(spec, EmiConfig(L, M, "float", precision)).value
        want = Real(context(wp).divide(1, k + 1), precision)
        assert str(got) == str(want)

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
        # one integer series per bind gives e^(1/q), sinh(1/q) and
        # sinh_K(1/q); no table outlives its run, so a second run makes it
        # again
        calls = []
        series = jets._exp_total

        def counted(q, P, K):
            calls.append(q)
            return series(q, P, K)

        monkeypatch.setattr(jets, "_exp_total", counted)
        emi_integrate(get_integrand("exp"), EmiConfig(L, 2, "float", 60))
        assert calls == [2 * L]
        emi_integrate(get_integrand("exp"), EmiConfig(L, 2, "float", 60))
        assert calls == [2 * L, 2 * L]

    @pytest.mark.parametrize("L", [1, 64, 2000])
    def test_one_wide_context_per_run(self, monkeypatch, L):
        # a float run of every integrand makes one decimal context, of wp
        # digits, for the engine's one quotient; no kernel makes any
        assert not {"context", "decimal", "Context", "Decimal"} & vars(jets).keys()
        widths = []
        make = quadrature.context

        def counted(precision):
            widths.append(precision)
            return make(precision)

        monkeypatch.setattr(quadrature, "context", counted)
        specs = [jets.PI] + [get_integrand(name) for name in ("runge", "poly:3", "exp")]
        for spec in specs + [get_integrand("arctan-kernel", Rat(-5, 3))]:
            widths.clear()
            emi_integrate(spec, EmiConfig(L, 2, "float", 60))
            assert widths == [60 + GUARD_DIGITS], spec.name

    def test_peak_memory_independent_of_L(self):
        # a bind holds a few P-bit ints whatever L is, where two power
        # tables of isqrt(2L) + 1 entries each would hold 24 at L = 64 and
        # 402 at L = 20000
        def peak(L):
            run = lambda: emi_integrate(get_integrand("exp"), EmiConfig(L, 2, "float", 60))
            run()  # warm any one-time caches outside the traced window
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(64), peak(20000)
        assert large <= 2 * small, (small, large)


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

    @pytest.mark.parametrize("x", [Rat("7" * 40), Rat(1, 10**40), Rat("0." + "3" * 39)])
    @pytest.mark.parametrize("L,M", [(1, 0), (3, 4), (7, 13)])
    def test_long_numerals_match_closed_form(self, x, L, M):
        # a parameter longer than the working precision enters the kernel
        # once: rounded in float mode, as an exact Fraction in exact mode
        spec = get_integrand("arctan-kernel", x)
        exact = emi_integrate(spec, EmiConfig(L, M, "exact")).value
        assert exact == closed_form_arctan(x, L, M, mode="exact")
        got = emi_integrate(spec, EmiConfig(L, M, "float", 20)).value.value
        want = rat_to_real(exact, 20).value
        unit = Fraction(10) ** (want.adjusted() - 20 + 1)
        assert abs(Fraction(got) - Fraction(want)) <= unit

    @pytest.mark.parametrize("x,L", [("7" * 4000, 16), ("1e1000", 64), ("1e-1000", 64)],
                             ids=["7x4000", "1e1000", "1e-1000"])
    def test_hostile_numerals_within_one_unit_of_exact(self, x, L):
        # float against the exact sum, from the oracle's integers; the sum
        # is near 1/x or x, so the oracle carries |log10 x| more digits; for
        # the 4000-digit x its integers reach about 56,000 digits, so that
        # one runs at L = 16
        x = as_rat(x)
        digits = 100 + abs(len(str(x.numerator)) - len(str(x.denominator)))
        exact = arctan_emi_sum(x, L, 6, digits)  # within L 10^-digits below
        spec = get_integrand("arctan-kernel", x)
        for precision in (20, 60):
            got = emi_integrate(spec, EmiConfig(L, 6, "float", precision)).value.value
            unit = Fraction(10) ** (got.adjusted() - precision + 1)
            assert abs(Fraction(got) - exact) + Fraction(L, 10**digits) <= unit

    @pytest.mark.parametrize("x,L,M", [
        (Rat(1), 1, 2000),
        (Rat(1), 2, 400),
        (Rat(-5, 3), 24, 30),
        (Rat("7" * 300), 3, 60),
    ], ids=["1-L1-M2000", "1-L2-M400", "-5over3-L24-M30", "7x300-L3-M60"])
    def test_deep_exact_cells_against_oracle(self, x, L, M):
        # the engine's exact sum at deep K lies in the oracle's bracket,
        # [oracle, oracle + L 10^-digits); the sum is near 1/x for a long
        # x, so the oracle carries |log10 x| more digits.  The closed form
        # must equal it on every cell
        spec = get_integrand("arctan-kernel", x)
        exact = emi_integrate(spec, EmiConfig(L, M, "exact")).value
        digits = 60 + abs(len(str(x.numerator)) - len(str(x.denominator)))
        oracle = arctan_emi_sum(x, L, M, digits)
        assert oracle <= exact < oracle + Fraction(L, 10**digits)
        assert exact == closed_form_arctan(x, L, M, mode="exact")

    @pytest.mark.parametrize("x", ["1e1000", "1e-1000", "7" * 300],
                             ids=["1e1000", "1e-1000", "7x300"])
    @pytest.mark.parametrize("L,M", [(1, 0), (2, 3), (5, 8)])
    def test_hostile_numerals_exact_closed_form_equals_engine(self, x, L, M):
        # exact only: rounding these exact sums to a Decimal, as
        # test_long_numerals_match_closed_form does, takes seconds at (7, 13)
        x = as_rat(x)
        spec = get_integrand("arctan-kernel", x)
        exact = emi_integrate(spec, EmiConfig(L, M, "exact")).value
        assert exact == closed_form_arctan(x, L, M, mode="exact")

    @pytest.mark.parametrize("x", [Rat(0), Rat(-5, 3), Rat("7" * 40)])
    @pytest.mark.parametrize("L,M", [(1, 0), (7, 13)])
    def test_one_fraction_per_exact_subinterval(self, monkeypatch, x, L, M):
        # exact mode runs each l on Gaussian ints and makes its term as one
        # Fraction, besides the one Rat(x) makes; the sum adds those
        made = []

        def counted(*args):
            made.append(args)
            return Fraction(*args)

        want = closed_form_arctan(x, L, M, mode="exact")
        monkeypatch.setattr(quadrature, "Rat", counted)
        assert closed_form_arctan(x, L, M, mode="exact") == want
        assert len(made) == L + 1

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

    @pytest.mark.parametrize("x", [Fraction(1), Fraction(1, 3), Fraction(-5, 3), Fraction(7)])
    @pytest.mark.parametrize("L", [1, 2, 5, 46])
    def test_real_argument_identity_telescopes(self, x, L):
        # the M -> oo limit of the closed form, arctan x = sum over l of
        # arctan(L x / (L^2 + l (l - 1) x^2)), checked without src/: adding
        # the first l angles by tan(a + b) = (tan a + tan b) / (1 - tan a tan b)
        # gives tangent l x / L, and all L of them give x
        tangent = Fraction(0)
        for l in range(1, L + 1):
            term = L * x / (L * L + l * (l - 1) * x * x)
            tangent = (tangent + term) / (1 - tangent * term)
            assert tangent == l * x / L
        assert tangent == x

    def test_float_mode_tracks_exact(self):
        exact = closed_form_arctan(Rat(1, 2), 20, 6, mode="exact")
        approx = closed_form_arctan(Rat(1, 2), 20, 6, mode="float", precision=40)
        assert render_decimal(approx, 30) == render_rat(exact, 30)


class TestPairwiseSum:
    @given(st.lists(st.fractions(max_denominator=50), min_size=1, max_size=40))
    @settings(max_examples=60)
    def test_matches_plain_sum_on_rationals(self, values):
        assert pairwise_sum(values.__getitem__, 0, len(values)) == sum(values)

    @pytest.mark.parametrize("lo, hi", [(0, 1), (1, 2), (0, 7), (1, 1001), (5, 38)])
    def test_each_leaf_made_once_in_order(self, lo, hi):
        calls = []

        def term(i):
            calls.append(i)
            return i

        assert pairwise_sum(term, lo, hi) == sum(range(lo, hi))
        assert calls == list(range(lo, hi))

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
                got = pairwise_sum(values.__getitem__, 0, len(values))
            assert got == expected and str(got) == str(expected), n


    def test_parenthesisation_matches_midpoint_split(self):
        # every addition joins the same two halves in the same order as a
        # plain midpoint-split recursion
        class Logged:
            def __init__(self, text, log):
                self.text, self.log = text, log

            def __add__(self, other):
                text = f"({self.text}+{other.text})"
                self.log.append(text)
                return Logged(text, self.log)

        def reference(lo, hi, log):
            if hi - lo == 1:
                return str(lo)
            mid = (lo + hi) // 2
            text = f"({reference(lo, mid, log)}+{reference(mid, hi, log)})"
            log.append(text)
            return text

        for n in range(1, 71):
            got, expected = [], []
            total = pairwise_sum(lambda i: Logged(str(i), got), 0, n)
            assert total.text == reference(0, n, expected), n
            assert got == expected, n


class TestStreaming:
    # the L terms are made at the leaves of the reduction, never held as a
    # list: at L = 10000 a list of Decimal terms alone would take about 1 MB
    @pytest.mark.parametrize("run", [
        lambda: emi_integrate(jets.PI, EmiConfig(10000, 0, "float", 20)),
        lambda: closed_form_arctan(Rat(1), 10000, 0, precision=20),
    ], ids=["emi_integrate", "closed_form_arctan"])
    def test_peak_memory_independent_of_L(self, run):
        run()  # warm any one-time caches outside the traced window
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000, peak

    # a kernel adds each g_k / (2k + 1) to its term as it makes g_k, so a
    # deep order holds no list of coefficients either: at M = 100000 the
    # 50001 of them took 5.65 MB for pi
    @pytest.mark.parametrize("run", [
        lambda: pi_emi(1, 100000, precision=20),
        lambda: emi_integrate(get_integrand("exp"), EmiConfig(1, 100000, "float")),
    ], ids=["pi", "exp"])
    def test_peak_memory_independent_of_M(self, run):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, peak

    # a bind makes nothing of size K = M // 2 either: a bind-time list of
    # K weights lcm(1, 3, .., 2K + 1) / (2k + 1) would take 964 MB at float
    # pi (1, 10^5)
    def test_binding_allocates_nothing_of_size_K(self):
        binders = [jets._rational_kernel(Rat(4), Rat(1)),  # pi and runge
                   jets._rational_kernel(Rat(1), Rat(25))]
        tracemalloc.start()
        try:
            for bind in binders:
                for wp in (None, 75):
                    bind(wp, 2, 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10_000, peak


# the (L, M) cells the budget tests below refuse
_OVER_TERMS = [(10**12, 0), (1, 10**9), (MAX_TERMS + 1, 1), (1, 2 * MAX_TERMS)]
_OVER_WORK = [(MAX_TERMS, 0, 10**5), (10**4, 0, 10**5), (1, 20000, 10**5),
              (10**5, 0, 10**4), (2, 10**6, 1000)]


class TestConfig:
    @pytest.mark.parametrize("check", [EmiConfig, term_count])
    def test_one_L_M_rule(self, check):
        with pytest.raises(ValueError, match=r"^L must be >= 1, got 0$"):
            check(0, 0)
        with pytest.raises(ValueError, match=r"^M must be >= 0, got -1$"):
            check(1, -1)
        with pytest.raises(ValueError, match=r"^L must be an integer, got 1\.5$"):
            check(1.5, 0)
        with pytest.raises(ValueError, match=r"^M must be an integer, got 2\.5$"):
            check(1, 2.5)
        budget = r"^L \* \(M // 2 \+ 1\) must be <= 10000000, got "
        for L, M in _OVER_TERMS:
            with pytest.raises(ValueError, match=f"{budget}L = {L}, M = {M}$"):
                check(L, M)
        for L, M in [(10**6, 0), (1, 40000), (1, 14500), (MAX_TERMS, 1),
                     (1, 2 * MAX_TERMS - 1), (MAX_TERMS // 2, 3)]:
            check(L, M)  # accepted; nothing is allocated

    def test_float_work_budget(self):
        # L * (M // 2 + 1) * wp, in float mode only, checked before any
        # allocation; every run MAX_TERMS admits at the default precision
        # stays legal
        budget = (r"^L \* \(M // 2 \+ 1\) \* working precision must be "
                  f"<= {MAX_WORK}, got ")
        for L, M, precision in _OVER_WORK:
            wp = precision + GUARD_DIGITS
            with pytest.raises(
                ValueError, match=f"{budget}L = {L}, M = {M}, working precision = {wp}$"
            ):
                EmiConfig(L, M, "float", precision)
            EmiConfig(L, M, "exact", precision)  # there precision counts printed digits
        for L, M, precision in [(MAX_TERMS, 1, 60), (1, 2 * MAX_TERMS - 1, 60),
                                (9998, 0, 10**5), (1, 19994, 10**5), (1, 14500, 5020)]:
            EmiConfig(L, M, "float", precision)  # accepted; nothing is allocated

    def test_term_count_checks_as_an_exact_config(self):
        # term_count states no rule of its own: on every cell the budget
        # tests use it refuses, or accepts, as EmiConfig(L, M, "exact") does
        def outcome(check, L, M):
            try:
                check(L, M)
            except ValueError as exc:
                return str(exc)
            return None

        cells = [(0, 0), (1, -1), (1.5, 0), (1, 2.5), *_OVER_TERMS,
                 *((L, M) for L, M, _ in _OVER_WORK)]
        for L, M in cells:
            assert outcome(term_count, L, M) == outcome(
                lambda L, M: EmiConfig(L, M, "exact"), L, M), (L, M)
        assert all(outcome(term_count, L, M) for L, M in cells[:8])

    def test_validation(self):
        cases = [
            ((0, 0), "L must be >= 1, got 0"),
            ((1, -1), "M must be >= 0, got -1"),
            ((1, 0, "symbolic"), "mode must be 'exact' or 'float', got 'symbolic'"),
            ((1, 0, "float", 5), "precision must be >= 10, got 5"),
            ((1, 0, "float", 100001), "precision must be <= 100000, got 100001"),
            ((1, 0, "exact", 100001), "precision must be <= 100000, got 100001"),
        ]
        valid = EmiConfig(1, 0)
        for args, message in cases:
            match = f"^{re.escape(message)}$"
            with pytest.raises(ValueError, match=match):
                EmiConfig(*args)
            # _replace builds the copy through _make, which must check too
            with pytest.raises(ValueError, match=match):
                valid._replace(**dict(zip(EmiConfig._fields, args)))

    def test_exact_mode_ignores_low_precision_gate(self):
        EmiConfig(1, 0, "exact")  # must not raise

    def test_working_precision_adds_guard(self):
        assert EmiConfig(1, 0, "float", 60).working_precision == 75
        assert EmiConfig(1, 0, "exact", 60).working_precision is None

    def test_positional_and_keyword_construction_agree(self):
        config = EmiConfig(7, 2, "float", 60)
        assert config == EmiConfig(L=7, M=2)
        assert hash(config) == hash(EmiConfig(L=7, M=2))
        assert config._replace(M=4) == EmiConfig(7, 4)

    @pytest.mark.parametrize("record", [
        EmiConfig(1, 0),
        QuadResult(Rat(1), 1),
        ScanRow(8, 0, "3.14", 3, "0.0013", None),
        ConvergenceReport("float", 60, ()),
        GroupResult("exactness", True, 1),
        jets.PI,
    ], ids=lambda record: type(record).__name__)
    def test_records_are_immutable(self, record):
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], record[0])
