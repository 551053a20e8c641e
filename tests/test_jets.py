import math
from decimal import Context
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from emi.errors import EmiError, ExactModeUnsupportedError, UnknownIntegrandError
from emi.jets import MAX_POLY_DEGREE, get_integrand
from emi.precision import Rat, arithmetic

from oracles import binomial, central_difference, rational_function_derivative


def exact_coeffs(name, center, order, x=None):
    """c_0, c_2, .., c_(2 (order // 2)) of a registered integrand, through its kernel.

    Kernels make only the even Taylor coefficients, so the tests compare
    against the even entries ``[0::2]`` of the full expansions.
    """
    center = Fraction(center)
    return get_integrand(name, x).kernel(Rat)(
        center.numerator, center.denominator, order
    )


def float_coeffs(name, center, order, precision, x=None):
    frac, scope = arithmetic(precision)
    with scope:
        return get_integrand(name, x).kernel(frac)(
            center.numerator, center.denominator, order
        )


class TestJetAffine:
    # the jet of t itself (poly:1): the expansion of t about the center
    def test_definition(self):
        assert exact_coeffs("poly:1", Rat(1, 2), 3) == [Rat(1, 2), 1, 0, 0][0::2]

    def test_order_zero_keeps_only_constant(self):
        assert exact_coeffs("poly:1", Rat(0), 0) == [0]

    def test_order_one(self):
        assert exact_coeffs("poly:1", Rat(2, 3), 1) == [Rat(2, 3), 1][0::2]


class TestJetMul:
    # jets of the products t * t and 1 * 1 (poly:2, poly:0)
    def test_square_of_one_plus_eps(self):
        assert exact_coeffs("poly:2", Rat(1), 1) == [1, 2][0::2]

    def test_multiplicative_identity(self):
        assert exact_coeffs("poly:0", Rat(1, 3), 2) == [1, 0, 0][0::2]

    def test_eps_times_eps(self):
        assert exact_coeffs("poly:2", Rat(0), 2) == [0, 0, 1][0::2]


def denominator_jet(b, center):
    # Q(c + e) = 1 + b (c + e)^2 = q0 + q1 e + q2 e^2
    return (1 + b * center * center, 2 * b * center, b)


class TestJetReciprocal:
    # the rational kernels run the series inverse of their denominator
    def test_inverse_of_full_geometric_block(self):
        # brute-force long division: runge at 1/5 has Q = 2 + 10e + 25e^2,
        # and (2 + 10e + 25e^2)(1/2 - 5/2 e + 25/4 e^2) = 1 + O(e^4)
        coeffs = exact_coeffs("runge", Rat(1, 5), 3)
        assert coeffs == [Rat(1, 2), Rat(-5, 2), Rat(25, 4), 0][0::2]

    def test_constant(self):
        assert exact_coeffs("runge", Rat(1, 5), 0) == [Rat(1, 2)]

    def test_geometric_series(self):
        # about 0, 1/(1 + 25 t^2) is the geometric series in -25 t^2
        assert exact_coeffs("runge", Rat(0), 6) == [1, 0, -25, 0, 625, 0, -15625][0::2]

    @given(
        x=st.fractions(min_value=-3, max_value=3, max_denominator=20).filter(bool),
        center=st.fractions(min_value=0, max_value=1, max_denominator=50),
        order=st.integers(min_value=0, max_value=12),
    )
    def test_product_with_reciprocal_is_identity(self, x, center, order):
        # the series r with (q0, q1, q2) convolved with r = (1, 0, ..., 0),
        # by long division; the kernel's c_2k / x are its even entries
        q = denominator_jet(x * x, center)
        r = []
        for n in range(order + 1):
            known = sum(q[k] * r[n - k] for k in range(1, min(n, 2) + 1))
            r.append(((1 if n == 0 else 0) - known) / q[0])
        product = [
            sum(q[k] * r[n - k] for k in range(min(n, 2) + 1)) for n in range(order + 1)
        ]
        assert product == [1] + [0] * order
        coeffs = exact_coeffs("arctan-kernel", center, order, x)
        assert [c / x for c in coeffs] == r[0::2]


ARCTAN_X1_NUM = [1]
ARCTAN_X1_DEN = [1, 0, 1]  # 1 + t^2

QUOTIENT_RULE_CASES = [
    ("arctan-kernel", Rat(1, 3), [Rat(1, 3)], [1, 0, Rat(1, 9)]),
    ("arctan-kernel", Rat(2, 3), [Rat(2, 3)], [1, 0, Rat(4, 9)]),
    ("arctan-kernel", Rat(3, 2), [Rat(3, 2)], [1, 0, Rat(9, 4)]),
    ("runge", None, [1], [1, 0, 25]),
]


def gaussian_pow(z, n):
    # (a + bi)^n on pairs of Fractions
    re, im = Fraction(1), Fraction(0)
    for _ in range(n):
        re, im = re * z[0] - im * z[1], re * z[1] + im * z[0]
    return re, im


def partial_fraction_coeff(a, s, center, n):
    """c_n of a / (1 + s^2 t^2) about ``center``, from its partial fractions.

    a / (1 + s^2 t^2) = (a/2) (1/(1 + i s t) + 1/(1 - i s t)), and the Taylor
    coefficients of 1/(1 + i s t) about c are (-i s)^n / (1 + i s c)^(n+1),
    so c_n = a Re[(-i s)^n / (1 + i s c)^(n+1)].
    """
    num = gaussian_pow((Fraction(0), -s), n)
    den = gaussian_pow((Fraction(1), s * center), n + 1)
    norm = den[0] ** 2 + den[1] ** 2
    return a * (num[0] * den[0] + num[1] * den[1]) / norm


class TestIntegrandJets:
    def test_arctan_kernel_low_order_against_symbolic(self):
        coeffs = exact_coeffs("arctan-kernel", Rat(1, 2), 2, Rat(1))
        assert coeffs[0] == Rat(4, 5)
        assert coeffs[1] == Rat(-16, 125)  # c_2 = f''(1/2) / 2
        oracle = rational_function_derivative(
            ARCTAN_X1_NUM, ARCTAN_X1_DEN, Fraction(1, 2), 2
        )
        assert coeffs[1] * 2 == oracle

    def test_arctan_kernel_maclaurin(self):
        assert exact_coeffs("arctan-kernel", Rat(0), 2, Rat(1)) == [1, 0, -1][0::2]

    def test_zero_parameter_gives_zero_jet(self):
        assert exact_coeffs("arctan-kernel", Rat(3, 7), 4, Rat(0)) == [0] * 3

    @pytest.mark.parametrize("m", range(7))
    @pytest.mark.parametrize(
        "center", [Fraction(0), Fraction(1, 7), Fraction(1, 3), Fraction(9, 10)]
    )
    def test_derivatives_match_symbolic_oracle(self, m, center):
        coeffs = exact_coeffs("arctan-kernel", center, m, Rat(1))
        derived = [c * math.factorial(2 * k) for k, c in enumerate(coeffs)]
        oracle = [
            rational_function_derivative(ARCTAN_X1_NUM, ARCTAN_X1_DEN, center, n)
            for n in range(m + 1)
        ]
        assert derived == oracle[0::2]

    @pytest.mark.parametrize("name,x,num,den", QUOTIENT_RULE_CASES)
    @pytest.mark.parametrize("center", [Fraction(0), Fraction(2, 9), Fraction(5, 6)])
    def test_rational_kernels_match_quotient_rule(self, name, x, num, den, center):
        # the oracle's numerator degree grows linearly with the order, so
        # order 12 costs a few milliseconds per case
        coeffs = exact_coeffs(name, center, 12, x)
        assert len(coeffs) == 7
        for k, c in enumerate(coeffs):
            oracle = rational_function_derivative(num, den, center, 2 * k)
            assert c * math.factorial(2 * k) == oracle, 2 * k

    @pytest.mark.parametrize("name,x,a,s", [
        ("arctan-kernel", Rat(1), 1, 1),
        ("arctan-kernel", Rat(2, 7), Rat(2, 7), Rat(2, 7)),
        ("arctan-kernel", Rat(-5, 3), Rat(-5, 3), Rat(-5, 3)),
        ("runge", None, 1, 5),
    ])
    @pytest.mark.parametrize("center", [Fraction(0), Fraction(3, 11), Fraction(1)])
    def test_order_twelve_matches_partial_fractions(self, name, x, a, s, center):
        coeffs = exact_coeffs(name, center, 12, x)
        full = [partial_fraction_coeff(a, s, center, n) for n in range(13)]
        assert coeffs == full[0::2]

    @pytest.mark.parametrize("m", range(1, 7))
    def test_derivatives_match_finite_differences(self, m):
        # the highest coefficient at order m is c_n, n = 2 (m // 2)
        coeffs = float_coeffs("arctan-kernel", Rat(2, 5), m, 40, Rat(1))
        n = 2 * (len(coeffs) - 1)
        assert n == m - m % 2
        derived = float(coeffs[-1]) * math.factorial(n)

        def f(t):
            return Fraction(1) / (1 + t * t)

        oracle = float(central_difference(f, Fraction(2, 5), n, Fraction(1, 512)))
        assert abs(derived - oracle) < 1e-6 * max(1.0, abs(oracle))

    def test_arbitrary_rational_parameter(self):
        coeffs = exact_coeffs("arctan-kernel", Rat(1, 4), 2, Rat(2, 3))
        x = Fraction(2, 3)
        assert len(coeffs) == 2
        for k, c in enumerate(coeffs):
            oracle = rational_function_derivative(
                [x], [1, 0, x * x], Fraction(1, 4), 2 * k
            )
            assert c * math.factorial(2 * k) == oracle

    def test_runge_against_symbolic(self):
        coeffs = exact_coeffs("runge", Rat(1, 3), 4)
        assert len(coeffs) == 3
        for k, c in enumerate(coeffs):
            oracle = rational_function_derivative(
                [1], [1, 0, 25], Fraction(1, 3), 2 * k
            )
            assert c * math.factorial(2 * k) == oracle

    def test_poly_jet_is_binomial_expansion(self):
        # (1/2 + e)^3 truncated: [1/8, 3/4, 3/2]
        full = [Rat(1, 8), Rat(3, 4), Rat(3, 2)]
        assert exact_coeffs("poly:3", Rat(1, 2), 2) == full[0::2]

    @pytest.mark.parametrize("k", [0, 1, 4, 9])
    @pytest.mark.parametrize("center", [Fraction(0), Fraction(3, 8), Fraction(1)])
    def test_poly_kernel_binomial_expansion(self, k, center):
        order = k + 2
        expected = [binomial(k, m) * center ** (k - m) if m <= k else 0
                    for m in range(order + 1)]
        assert exact_coeffs(f"poly:{k}", center, order) == expected[0::2]

    def test_truncation_consistency_exact(self):
        full = exact_coeffs("arctan-kernel", Rat(2, 7), 6, Rat(1))
        shorter = exact_coeffs("arctan-kernel", Rat(2, 7), 5, Rat(1))
        assert len(shorter) == 3 and full[:3] == shorter

    def test_truncation_consistency_float(self):
        full = float_coeffs("runge", Rat(2, 7), 6, 30)
        shorter = float_coeffs("runge", Rat(2, 7), 5, 30)
        assert len(shorter) == 3 and full[:3] == shorter

    def test_provider_is_deterministic(self):
        a = exact_coeffs("arctan-kernel", Rat(1, 3), 5, Rat(1, 2))
        b = exact_coeffs("arctan-kernel", Rat(1, 3), 5, Rat(1, 2))
        assert a == b


class TestExpIntegrand:
    def test_float_coefficients_scale_like_inverse_factorials(self):
        coeffs = float_coeffs("exp", Rat(0), 6, 30)
        # e^0 = 1, so c_m = 1/m!
        assert len(coeffs) == 4
        for k, c in enumerate(coeffs):
            diff = abs(Fraction(c) - Fraction(1, math.factorial(2 * k)))
            assert diff < Fraction(1, 10**27), 2 * k

    def test_exact_mode_refused(self):
        with pytest.raises(ExactModeUnsupportedError):
            get_integrand("exp").kernel(Rat)

    @pytest.mark.parametrize("precision", [10, 60, 130])
    @pytest.mark.parametrize("q", [1, 2, 7, 4000])
    @pytest.mark.parametrize("p", [0, 1, -3, 7, 1999, 8001])
    def test_seed_within_one_ulp(self, p, q, precision):
        # c_0 = e^(p/q) at working precision, also for |p| > q and p < 0
        frac, scope = arithmetic(precision)
        with scope:
            seed = get_integrand("exp").kernel(frac)(p, q, 2)[0]
        wide = Context(prec=precision + 30)
        reference = wide.exp(wide.divide(p, q))
        assert len(seed.as_tuple().digits) <= precision
        ulp = Fraction(10) ** (seed.adjusted() - precision + 1)
        assert abs(Fraction(seed) - Fraction(reference)) <= ulp

    def test_coefficients_do_not_depend_on_call_order(self):
        # the kernel's memo of e^(1/q) only saves work
        L, M = 64, 6
        centers = [(2 * l - 1, 2 * L) for l in range(1, L + 1)]

        def run(kernel, order):
            return [list(map(str, kernel(p, q, M))) for p, q in order]

        frac, scope = arithmetic(60)
        narrow_frac, narrow_scope = arithmetic(20)
        shared = get_integrand("exp").kernel(frac)
        with narrow_scope:  # fill the memo at another working precision first
            narrow = run(shared, centers[:3])
            fresh = run(get_integrand("exp").kernel(narrow_frac), centers[:3])
        with scope:
            up = run(shared, centers)
            down = run(get_integrand("exp").kernel(frac), centers[::-1])
            again = run(shared, centers[::-1])
        assert narrow == fresh
        assert down[::-1] == up and again == down


class TestRegistry:
    def test_unknown_name(self):
        with pytest.raises(UnknownIntegrandError):
            get_integrand("cosine")

    def test_bad_poly_degree(self):
        with pytest.raises(UnknownIntegrandError):
            get_integrand("poly:x")

    def test_arctan_kernel_requires_parameter(self):
        with pytest.raises(UnknownIntegrandError):
            get_integrand("arctan-kernel")

    @pytest.mark.parametrize("degree", ["9" * 11, "9" * 5000])
    def test_huge_poly_degree_fails_fast(self, degree):
        # the spec is never run: a degree this large would hang the kernel
        with pytest.raises(UnknownIntegrandError, match="exceeds"):
            get_integrand("poly:" + degree)

    def test_poly_degree_limit(self):
        assert get_integrand(f"poly:{MAX_POLY_DEGREE}").name == f"poly:{MAX_POLY_DEGREE}"
        with pytest.raises(UnknownIntegrandError, match="exceeds"):
            get_integrand(f"poly:{MAX_POLY_DEGREE + 1}")

    @pytest.mark.parametrize("degree", ["\u0663", "\u00b2"])
    def test_poly_degree_is_ascii_digits(self, degree):
        with pytest.raises(UnknownIntegrandError, match="bad polynomial degree"):
            get_integrand("poly:" + degree)

    @pytest.mark.parametrize("name", ["exp", "runge", "poly:2"])
    def test_parameterless_integrands_refuse_x(self, name):
        with pytest.raises(EmiError, match="takes no parameter x"):
            get_integrand(name, Rat(5))

    def test_names_round_trip(self):
        for name in ["arctan-kernel", "exp", "runge", "poly:5"]:
            x = Rat(1) if name == "arctan-kernel" else None
            assert get_integrand(name, x).name == name


class TestJetHelpers:
    def test_derivative_recovers_factorial_scaling(self):
        # c_m is the m-th derivative over m!: t^3 at 1 has derivatives 1, 3, 6, 6
        coeffs = exact_coeffs("poly:3", Rat(1), 3)
        derived = [c * math.factorial(2 * k) for k, c in enumerate(coeffs)]
        assert derived == [1, 3, 6, 6][0::2]
