import hashlib
import itertools
import math
from decimal import Context, Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emi.errors import EmiError, ExactModeUnsupportedError, UnknownIntegrandError
from emi import jets
from emi.jets import MAX_POLY_DEGREE, PI, get_integrand
from emi.precision import Rat
from emi.quadrature import EmiConfig, closed_form_arctan, emi_integrate

from oracles import (
    binomial,
    central_difference,
    exp_emi_sum,
    rational_function_derivative,
)


def term_binder(name, x=None):
    """The term binder behind a rational or ``poly:k`` integrand.

    ``bind(wp, q, order)`` returns ``(term, scale)``, and ``term(p) / scale``
    is the term ``T_K = sum over k <= K of g_k / (2k + 1)``,
    ``g_k = c_2k / q^(2k)``, about the center ``p/q``; the integrand's
    kernel adds those terms over a run's midpoints.
    """
    if name.startswith("poly:"):
        return jets._poly_kernel(int(name[len("poly:"):]))
    a, b = {"pi": (4, 1), "runge": (1, 25)}[name] if x is None else (x, x * x)
    return jets._rational_kernel(Rat(a), Rat(b))


def _coeffs(name, center, order, x, wp):
    """c_0, c_2, .., c_2K about ``center``, ``K = order // 2``, from terms.

    The tests bind the integrand's term binder at the orders 0, 2, ..,
    2K - 2 and at ``order`` itself, take each term ``T_k`` exactly (in
    float mode, the int term over its scale), recover
    ``g_k = (2k + 1) (T_k - T_(k-1))`` and undo the scaling, so they compare
    against the even entries ``[0::2]`` of the full expansions.
    """
    p, q = center.numerator, center.denominator
    bind = term_binder(name, x)
    terms = []
    for m in [*range(0, order - 1, 2), order]:
        term, scale = bind(wp, q, m)
        terms.append(Rat(term(p), scale))
    return _unscaled(terms, q)


def _unscaled(terms, q):
    # c_2k = (2k + 1) (T_k - T_(k-1)) q^(2k) from the terms T_0, .., T_K
    return [(2 * k + 1) * (t - s) * q ** (2 * k)
            for k, (t, s) in enumerate(zip(terms, [0, *terms]))]


def exact_coeffs(name, center, order, x=None):
    return _coeffs(name, Fraction(center), order, x, None)


def float_coeffs(name, center, order, precision, x=None):
    return _coeffs(name, center, order, x, precision)


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


def exact_term(name, x, q, order):
    """``term(p)``: sum over k <= order // 2 of g_k / (2k + 1), from definitions.

    ``g_k = c_2k / q^(2k)`` about ``c = p/q``.  For ``poly:k``,
    ``c_2j = C(k, 2j) c^(k-2j)``; for ``a / (1 + b t^2)`` at order <= 3,
    ``c_0 = a / (1 + b c^2)`` and
    ``c_2 = f''(c) / 2 = a (3 b^2 c^2 - b) / (1 + b c^2)^3``; ``pi`` is
    ``4 / (1 + t^2)``.
    """
    if name.startswith("poly:"):
        k = int(name[len("poly:"):])
        top = min(order, k) // 2
        return lambda p: sum(
            binomial(k, 2 * j) * Fraction(p, q) ** (k - 2 * j)
            / (q ** (2 * j) * (2 * j + 1))
            for j in range(top + 1)
        )
    assert order <= 3
    a, b = {"pi": (4, 1), "runge": (1, 25)}[name] if x is None else (x, x * x)

    def term(p):
        c = Fraction(p, q)
        q0 = 1 + b * c * c
        c2 = a * (3 * b * b * c * c - b) / q0**3 if order >= 2 else Fraction(0)
        return a / q0 + c2 / (3 * q * q)

    return term


class TestRoundedSeeds:
    # the rounding account of emi.quadrature, in units of the bound kernel's
    # scale: a float rational term with K <= 1, whose order-0 term is the
    # seed g_0, is the exact term times the scale rounded down, so off by
    # less than one unit, and a poly:k term is exact; neither is a function
    # of a rounded center
    @pytest.mark.parametrize("name,x,order", [
        ("pi", None, 0),
        ("runge", None, 0),
        ("arctan-kernel", Rat(1, 3), 0),
        ("arctan-kernel", Rat(-5, 3), 0),
        ("poly:3", None, 4),
        ("poly:57", None, 58),
        ("pi", None, 2),
        ("runge", None, 3),
        ("arctan-kernel", Rat(1, 3), 2),
        ("arctan-kernel", Rat(-5, 3), 3),
        ("poly:57", None, 13),
    ])
    @pytest.mark.parametrize("wp", [25, 75, 145])
    def test_engine_center_seeds_within_half_ulp(self, wp, name, x, order):
        bind = term_binder(name, x)
        for L in (1, 7, 64, 2000):
            q = 2 * L
            kernel, scale = bind(wp, q, order)
            got = [kernel(2 * l - 1) for l in range(1, L + 1)]
            exact = exact_term(name, x, q, order)
            for l, term in enumerate(got, 1):
                want = exact(2 * l - 1) * scale
                assert type(term) is int and type(scale) is int
                if name.startswith("poly:"):
                    assert term == want, (L, l)
                else:
                    assert term == math.floor(want), (L, l)


@st.composite
def arctan_cells(draw):
    """``(x, long, L, M, wp)``: ``x`` signed in [10^-40, 10^6), its numeral
    either at most 12 digits or longer than ``wp``."""
    wp = draw(st.sampled_from([20, 75, 300]))
    long = draw(st.booleans())
    length = draw(st.integers(wp + 1, wp + 20) if long else st.integers(1, 12))
    mantissa = draw(st.integers(10 ** (length - 1), 10**length - 1))
    scale = Fraction(10) ** draw(st.integers(-40, 5)) * draw(st.sampled_from([1, -1]))
    x = Fraction(mantissa, 10 ** (length - 1)) * scale
    return x, long, draw(st.integers(1, 64)), draw(st.integers(4, 120)), wp


class TestFixedPointTerms:
    # float mode makes every rational term, at every order, as one floor
    # quotient of two ints over the bound kernel's int scale, with no
    # Decimal operation; K >= 2 runs on ints in fixed point first
    @pytest.mark.parametrize("name,x", [
        ("pi", None), ("runge", None), ("arctan-kernel", Rat(-5, 3)),
    ])
    @pytest.mark.parametrize("K", [2, 7, 23, 150])
    def test_one_quotient_of_ints_per_term(self, monkeypatch, name, x, K):
        # the kernel builds no decimal context, so it has none to round in;
        # emi.jets imports no context factory, so the one it could reach is
        # emi.precision's
        bind = term_binder(name, x)
        calls = []
        monkeypatch.setattr("emi.precision.context", calls.append)
        term, scale = bind(75, 14, 2 * K)
        got = [term(p) for p in (1, 7, 13)]
        assert calls == []
        assert type(scale) is int and all(type(t) is int for t in got)

    # as a multiple of arctan-kernel: 4 / (1 + t^2) is 4 times x = 1, and
    # 1 / (1 + 25 t^2) is a fifth of x = 5
    @pytest.mark.parametrize("name,x,closed_x,factor", [
        ("pi", None, Rat(1), 4),
        ("runge", None, Rat(5), Rat(1, 5)),
        ("arctan-kernel", Rat(-5, 3), Rat(-5, 3), 1),
    ])
    @pytest.mark.parametrize("K", [2, 7, 23, 150])
    def test_one_fraction_per_exact_term(self, monkeypatch, name, x, closed_x, factor, K):
        # exact mode runs the recurrence on ints and makes each term as one
        # Fraction: term by term where the closed form has one term (L = 1),
        # summed over the run otherwise
        bind = term_binder(name, x)
        made = []

        def counted(*args):
            made.append(args)
            return Fraction(*args)

        monkeypatch.setattr(jets, "Rat", counted)
        for L in (1, 7):
            term, scale = bind(None, 2 * L, 2 * K)
            terms = []
            for p in range(1, 2 * L, 2):
                made.clear()
                terms.append(term(p))
                assert len(made) == 1, (L, p)
            assert scale == 1 and all(type(t) is Fraction for t in terms)
            closed = factor * closed_form_arctan(closed_x, L, 2 * K, mode="exact")
            assert sum(terms) / L == closed, L

    @given(cell=arctan_cells(), pick=st.integers(0, 63))
    @settings(max_examples=30, deadline=None)
    def test_within_the_rounding_bound_of_the_exact_term(self, cell, pick):
        # emi.quadrature's bound, in units of the scale: one unit for the
        # last floor plus A units of 2^-B g_0 <= 10^-wp g_0 / 256, and 50
        # more of those where a long x was rounded; its lower bound
        # term >= 2 g_0 / 3 holds on the exact terms; and the q/2 floors of
        # a run stay below 10^-wp / 256 of 2 |g_0| / 3 at p = 1
        x, long, L, M, wp = cell
        q, p, K = 2 * L, 2 * (pick % L) + 1, M // 2
        bind = term_binder("arctan-kernel", x)
        (exact_term, _), (seed, _) = bind(None, q, M), bind(None, q, 0)
        exact, g0 = exact_term(p), seed(p)
        term, scale = bind(wp, q, M)
        got = term(p)
        assert exact / g0 >= Fraction(2, 3)
        bn, bd = (x * x).as_integer_ratio()
        gap = 1 - Fraction(bn, bd * q * q + bn * p * p)  # 1 - rho
        A = K + min(math.log(2 * K + 1) / (2 * float(gap) ** 2), K * (K + 3) / 8)
        units = 1 + Fraction(A + 50 * long) * abs(g0) * scale / (256 * 10**wp)
        assert type(got) is int
        assert abs(got - exact * scale) < units
        assert Fraction(L, scale) <= Fraction(2, 3) * abs(seed(1)) / (256 * 10**wp)

    # the float terms' integers themselves: every floor of the kernels is an
    # implementation choice that the bounds above leave free, so this digest
    # changes with any of them; a change that moves a floor on purpose
    # updates it and says why
    _PINNED_DIGEST = "7e8b9e564ea9ece8571a809c46376c4204faa4bcdab24767f2670071a67c8f32"

    def test_terms_match_the_pinned_digest(self):
        binders = [term_binder("pi"), term_binder("runge")] + [
            term_binder("arctan-kernel", x) for x in (
                Rat(1, 3), Rat(-5, 3), Rat(22, 7), Rat(0), Rat("7" * 300),
                Rat(-1, 10**200), Rat(10**30 + 1, 3**40),
            )
        ]
        digest = hashlib.sha256()
        # hex, as str refuses ints of more than 4300 digits
        for bind, L, M, wp in itertools.product(
            binders, (1, 2, 7, 64, 2000), (0, 1, 2, 3, 6), (25, 75, 145)
        ):
            term, scale = bind(wp, 2 * L, M)
            # one bound binder, asked at every midpoint ascending, at the top
            # 50 descending and at every third
            centers = range(1, 2 * L, 2)
            order = [*centers, *centers[:-51:-1], *centers[::3]]
            digest.update(" ".join(map(hex, [scale, *map(term, order)])).encode())
        assert digest.hexdigest() == self._PINNED_DIGEST


class TestRunKernels:
    # a rational or poly:k integrand's kernel adds its binder's terms over
    # the run's midpoints exactly: in float mode ints by the built-in sum, in
    # exact mode by the pairwise tree over l = 1..L
    @pytest.mark.parametrize("name,x", [
        ("pi", None), ("runge", None), ("arctan-kernel", Rat(-5, 3)),
        ("arctan-kernel", Rat("7" * 40)), ("poly:0", None), ("poly:57", None),
    ])
    @pytest.mark.parametrize("wp", [None, 25, 145])
    @pytest.mark.parametrize("L,M", [(1, 0), (7, 3), (64, 13)])
    def test_total_is_the_sum_of_the_terms(self, name, x, wp, L, M):
        spec = PI if name == "pi" else get_integrand(name, x)
        term, scale = term_binder(name, x)(wp, 2 * L, M)
        terms = [term(2 * l - 1) for l in range(1, L + 1)]
        total, got_scale = spec.kernel(wp, 2 * L, M)
        assert got_scale == scale and total == sum(terms)
        assert type(total) is (int if wp or name.startswith("poly:") else Fraction)

    def test_exact_terms_add_by_the_pairwise_tree(self, monkeypatch):
        trees = []
        tree = jets.pairwise_sum

        def counted(term, lo, hi):
            trees.append((lo, hi))
            return tree(term, lo, hi)

        monkeypatch.setattr(jets, "pairwise_sum", counted)
        PI.kernel(25, 14, 2)
        assert trees == []
        PI.kernel(None, 14, 2)
        assert trees[0] == (1, 8)


class TestExpIntegrand:
    def test_float_coefficients_scale_like_inverse_factorials(self):
        # at L = 1 a run's one term is the term about the midpoint 1/2, so
        # the run totals at the orders 0, 2, 4 and 6 give c_0, .., c_6
        kernel = get_integrand("exp").kernel
        coeffs = _unscaled([Rat(*kernel(30, 2, m)) for m in (0, 2, 4, 6)], 2)
        # c_m = e^(1/2) / m! at the midpoint 1/2
        root = Fraction(Context(prec=60).exp(Decimal("0.5")))
        assert len(coeffs) == 4
        for k, c in enumerate(coeffs):
            diff = abs(Fraction(c) - root / math.factorial(2 * k))
            assert diff < Fraction(1, 10**27), 2 * k

    def test_exact_mode_refused(self):
        with pytest.raises(ExactModeUnsupportedError):
            get_integrand("exp").kernel(None, 2, 0)

    @pytest.mark.parametrize("wp", [25, 75, 145])
    @pytest.mark.parametrize("M", [0, 6, 40])
    @pytest.mark.parametrize("L", [1, 7, 64, 2000])
    def test_run_within_a_64th_of_an_ulp(self, L, M, wp):
        # the module docstring's two-sided bound: total / (L scale) lies
        # within 10^-wp / 64 relative of the order-M sum, here the
        # independent sum of L exponentials at wp + 40 digits
        total, scale = get_integrand("exp").kernel(wp, 2 * L, M)
        assert type(total) is int and type(scale) is int
        oracle = Fraction(exp_emi_sum(L, M, wp + 40))
        assert abs(Rat(total, L * scale) / oracle - 1) < Fraction(1, 64 * 10**wp)

    # the values of exp runs, one per (L, M, precision), rounded to
    # precision: the digest was made with the earlier kernel, which made
    # each term on its own, so the closed-form sum moved no value
    _VALUE_DIGEST = "98e39ad63ab5016bca9bc57f2d236414ea3e2938646acdfacc5e63e32b6df0cc"

    def test_values_match_the_pinned_digest(self):
        exp = get_integrand("exp")
        digest = hashlib.sha256()
        for L, M, precision in itertools.product(
            (1, 2, 3, 7, 8, 64, 301, 1000, 2000), (0, 1, 2, 6, 13, 40),
            (10, 20, 40, 60, 100, 200, 300),
        ):
            value = emi_integrate(exp, EmiConfig(L, M, "float", precision)).value
            digest.update(f"{value}\n".encode())
        assert digest.hexdigest() == self._VALUE_DIGEST


class TestBinding:
    # a kernel, and a term binder, is bound on the working precision it is
    # passed, wp, and never reads the caller's decimal context
    @pytest.mark.parametrize("name", ["pi", "runge", "exp", "poly:57"])
    @pytest.mark.parametrize("wp,L,M", [(25, 7, 6), (75, 64, 13), (145, 3, 40)])
    def test_terms_ignore_the_caller_context(self, name, wp, L, M):
        spec = PI if name == "pi" else get_integrand(name)

        def bound():
            got = [spec.kernel(wp, 2 * L, M)]
            if name != "exp":
                term, scale = term_binder(name)(wp, 2 * L, M)
                got += [(term(p), scale) for p in range(1, 2 * L, 2)]
            return got

        expected = bound()
        with localcontext() as caller:
            caller.prec = 5
            assert bound() == expected


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
        # the repr names the integrand and leaves out the kernel's address
        for name in ["arctan-kernel", "exp", "runge", "poly:5"]:
            x = Rat(1) if name == "arctan-kernel" else None
            spec = get_integrand(name, x)
            assert spec.name == name
            assert repr(spec) == f"IntegrandSpec(name={name!r})"
        assert repr(PI) == "IntegrandSpec(name='pi')"


class TestJetHelpers:
    def test_derivative_recovers_factorial_scaling(self):
        # c_m is the m-th derivative over m!: t^3 at 1 has derivatives 1, 3, 6, 6
        coeffs = exact_coeffs("poly:3", Rat(1), 3)
        derived = [c * math.factorial(2 * k) for k, c in enumerate(coeffs)]
        assert derived == [1, 3, 6, 6][0::2]
