"""Checks of the benchmark's oracle against the naive oracles in ``tests/oracles.py``.

Run from the repository root with ``python3 -m pytest perfbench/test_oracle.py``.
"""

import sys
from decimal import Context, Decimal
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

import oracle  # noqa: E402
import oracles  # noqa: E402

CENTERS = [Fraction(1, 14), Fraction(1, 2), Fraction(13, 14), Fraction(5, 6)]


@pytest.mark.parametrize("c", CENTERS)
@pytest.mark.parametrize("x", [Fraction(1), Fraction(1, 3), Fraction(11, 7)])
def test_arctan_kernel_coeffs_match_quotient_rule(x, c):
    coeffs = oracle.rational_coeffs(x, x * x, c, 6)
    for m, coeff in enumerate(coeffs):
        derivative = oracles.rational_function_derivative([x], [1, 0, x * x], c, m)
        assert coeff == derivative / factorial(m)


@pytest.mark.parametrize("c", CENTERS)
def test_runge_coeffs_match_quotient_rule(c):
    coeffs = oracle.rational_coeffs(Fraction(1), Fraction(25), c, 6)
    for m, coeff in enumerate(coeffs):
        assert coeff == oracles.rational_function_derivative([1], [1, 0, 25], c, m) / factorial(m)


@pytest.mark.parametrize("k", range(6))
@pytest.mark.parametrize("c", CENTERS)
def test_poly_coeffs_match_quotient_rule(k, c):
    numerator = [0] * k + [1]
    for m, coeff in enumerate(oracle.poly_coeffs(k, c, 6)):
        assert coeff == oracles.rational_function_derivative(numerator, [1], c, m) / factorial(m)


def test_midpoint_sum_matches_brute_force():
    runge = lambda t: 1 / (1 + 25 * t * t)  # noqa: E731
    for L in (1, 3, 8):
        terms = oracle.rational_terms(Fraction(1), Fraction(25), L, 0)
        assert oracle.exact_sum(terms) == oracles.brute_midpoint(runge, L)


@pytest.mark.parametrize("M", [0, 2, 4, 6])
def test_poly_sums_are_exact(M):
    for k in range(M + 2):
        assert oracle.exact_sum(oracle.poly_terms(k, 3, M)) == Fraction(1, k + 1)


def test_odd_orders_collapse():
    for M in (2, 4):
        low = oracle.rational_terms(Fraction(1), Fraction(1), 5, M)
        high = oracle.rational_terms(Fraction(1), Fraction(1), 5, M + 1)
        assert low == high


def test_decimal_sum_agrees_with_exact_sum():
    terms = oracle.rational_terms(Fraction(2, 3), Fraction(4, 9), 40, 4)
    exact = oracle.exact_sum(terms)
    approx = oracle.decimal_sum(terms, 80)
    ctx = Context(prec=100)
    exact_dec = ctx.divide(Decimal(exact.numerator), Decimal(exact.denominator))
    assert oracle.within_one_unit(approx, exact_dec, 75)


def test_exp_sum_matches_exact_factor_form():
    # against the per-coefficient route, each e^(c_l)/m! weighted separately
    L, M, digits = 4, 6, 60
    ctx = Context(prec=digits + 20)
    total = Decimal(0)
    for l in range(1, L + 1):
        e = ctx.exp(ctx.divide(Decimal(2 * l - 1), Decimal(2 * L)))
        for m in range(0, M + 1, 2):
            w = oracle.weight(L, m) / factorial(m)
            total = ctx.add(total, ctx.multiply(e, ctx.divide(Decimal(w.numerator),
                                                              Decimal(w.denominator))))
    assert oracle.within_one_unit(oracle.exp_sum(L, M, digits + 20), total, digits)


def test_exp_sum_converges_to_e_minus_one():
    e_minus_one = Context(prec=60).subtract(Context(prec=60).exp(Decimal(1)), Decimal(1))
    assert oracle.within_one_unit(oracle.exp_sum(8, 40, 80), e_minus_one, 50)


def test_machin_digits_match_naive_oracle():
    assert oracle.machin_pi_digits(150) == oracles.machin_pi_digits(150)


def test_matched_count_and_truncation():
    assert oracle.matched_count("3.14159") == 6
    assert oracle.matched_count("3.1416") == 4
    assert oracle.truncated_digits(Fraction(16, 5), 50) == "32"
    assert oracle.truncated_digits(Fraction(2, 3), 5) == "66666"
    assert oracle.truncated_digits(Decimal("0.0123456"), 4) == "1234"
