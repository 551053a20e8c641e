"""Reference values for the benchmark, computed without the ``emi`` package.

Everything here is written from the method's definition alone:

- the exact enhanced-midpoint (EMI) sum for ``a / (1 + b t^2)`` and ``t^k``
  over [0, 1] with ``L`` subintervals and Taylor order ``M``;
- a high-precision ``decimal`` evaluation of the same sum for ``e^t``;
- the digits of pi by Machin's formula, with two-sided error bounds.

The EMI sum of an integrand ``f`` is

    sum over l = 1..L, even m <= M of  c_m(l) * 2 / ((2L)^(m+1) (m+1))

where ``c_m(l)`` is the m-th Taylor coefficient of ``f`` about the midpoint
``(2l - 1) / (2L)``.
"""

from __future__ import annotations

from decimal import Context, Decimal
from fractions import Fraction
from math import comb, factorial


def weight(L: int, m: int) -> Fraction:
    """Integral of ``h^m`` over one subinterval of width ``1/L``, centred."""
    if m % 2:
        return Fraction(0)
    return Fraction(2, (2 * L) ** (m + 1) * (m + 1))


def rational_coeffs(a: Fraction, b: Fraction, c: Fraction, M: int) -> list[Fraction]:
    """Taylor coefficients ``r_0 .. r_M`` of ``a / (1 + b t^2)`` about ``t = c``.

    With ``1 + b (c + h)^2 = q0 + q1 h + q2 h^2`` the coefficients of the
    reciprocal obey the three-term recurrence
    ``r_n = -(q1 r_{n-1} + q2 r_{n-2}) / q0``.
    """
    q0, q1, q2 = 1 + b * c * c, 2 * b * c, b
    coeffs = [a / q0]
    for n in range(1, M + 1):
        acc = q1 * coeffs[n - 1]
        if n >= 2:
            acc += q2 * coeffs[n - 2]
        coeffs.append(-acc / q0)
    return coeffs


def poly_coeffs(k: int, c: Fraction, M: int) -> list[Fraction]:
    """Taylor coefficients ``C(k, m) c^(k-m)`` of ``t^k`` about ``t = c``."""
    return [Fraction(comb(k, m)) * c ** (k - m) if m <= k else Fraction(0)
            for m in range(M + 1)]


def _centers(L: int):
    return (Fraction(2 * l - 1, 2 * L) for l in range(1, L + 1))


def _terms(coeffs_at, L: int, M: int) -> list[Fraction]:
    weights = [weight(L, m) for m in range(M + 1)]
    return [
        sum((coeffs[m] * weights[m] for m in range(0, M + 1, 2)), Fraction(0))
        for coeffs in map(coeffs_at, _centers(L))
    ]


def rational_terms(a: Fraction, b: Fraction, L: int, M: int) -> list[Fraction]:
    """Exact per-subinterval EMI summands of ``a / (1 + b t^2)``."""
    return _terms(lambda c: rational_coeffs(a, b, c, M), L, M)


def poly_terms(k: int, L: int, M: int) -> list[Fraction]:
    """Exact per-subinterval EMI summands of ``t^k``."""
    return _terms(lambda c: poly_coeffs(k, c, M), L, M)


def exact_sum(terms: list[Fraction]) -> Fraction:
    """Exact sum, by splitting into halves on unreduced numerator/denominator pairs."""

    def split(lo: int, hi: int) -> tuple[int, int]:
        if hi - lo == 1:
            return terms[lo].numerator, terms[lo].denominator
        mid = (lo + hi) // 2
        p1, q1 = split(lo, mid)
        p2, q2 = split(mid, hi)
        return p1 * q2 + p2 * q1, q1 * q2

    p, q = split(0, len(terms))
    return Fraction(p, q)


def decimal_sum(terms: list[Fraction], digits: int) -> Decimal:
    """Sum of exact terms, each rounded to ``digits`` significant digits."""
    ctx = Context(prec=digits)
    acc = Decimal(0)
    for t in terms:
        acc = ctx.add(acc, ctx.divide(Decimal(t.numerator), Decimal(t.denominator)))
    return acc


def exp_sum(L: int, M: int, digits: int) -> Decimal:
    """EMI sum of ``e^t`` at ``digits`` significant digits.

    Every Taylor coefficient about ``c_l`` is ``e^(c_l) / m!``, so the sum
    factors as ``sum_l e^(c_l) * sum_{even m <= M} 2 / ((2L)^(m+1) (m+1)!)``.
    """
    ctx = Context(prec=digits)
    w = sum((Fraction(2, (2 * L) ** (m + 1) * factorial(m + 1))
             for m in range(0, M + 1, 2)), Fraction(0))
    two_l = Decimal(2 * L)
    acc = Decimal(0)
    for l in range(1, L + 1):
        acc = ctx.add(acc, ctx.exp(ctx.divide(Decimal(2 * l - 1), two_l)))
    return ctx.multiply(acc, ctx.divide(Decimal(w.numerator), Decimal(w.denominator)))


def _arctan_inv(n: int, scale: int) -> tuple[int, int]:
    """``arctan(1/n) * scale`` in integers, and a bound on its error in units.

    ``power`` is ``floor(scale / n^(2k+1))`` exactly (nested floor divisions
    compose), so each series term is off by less than two units, and the
    alternating tail left when ``power`` reaches zero is below one unit.
    """
    total, power, k, n2 = 0, scale // n, 0, n * n
    while power:
        term = power // (2 * k + 1)
        total += -term if k % 2 else term
        power //= n2
        k += 1
    return total, 2 * k + 1


def machin_pi_digits(n: int) -> str:
    """First ``n`` significant digits of pi from ``16 atan(1/5) - 4 atan(1/239)``.

    Raises ``ArithmeticError`` if the two-sided bound does not fix all ``n``
    digits.
    """
    guard = 10
    scale = 10 ** (n + guard)
    a5, e5 = _arctan_inv(5, scale)
    a239, e239 = _arctan_inv(239, scale)
    pi_scaled = 16 * a5 - 4 * a239
    err = 16 * e5 + 4 * e239
    lo, hi = str(pi_scaled - err)[:n], str(pi_scaled + err)[:n]
    if lo != hi:
        raise ArithmeticError("pi bounds do not fix the requested digits")
    return lo


PI_DIGITS = machin_pi_digits(160)


def matched_count(rendered: str) -> int:
    """Leading significant digits of a decimal numeral that agree with pi."""
    digits = rendered.lstrip("+-").replace(".", "").lstrip("0")
    count = 0
    for a, b in zip(digits, PI_DIGITS):
        if a != b:
            break
        count += 1
    return count


def truncated_digits(value: Fraction | Decimal, n: int) -> str:
    """First ``n`` significant digits of ``|value| > 0``, truncated, by long division.

    A terminating expansion stops early rather than being padded.
    """
    q = abs(Fraction(value))
    num, den = q.numerator, q.denominator
    while num < den:
        num *= 10
    while num >= 10 * den:
        den *= 10
    out = []
    while len(out) < n and num:
        d, num = divmod(num, den)
        out.append(str(d))
        num *= 10
    return "".join(out)


def within_one_unit(value: Decimal, reference: Decimal, precision: int) -> bool:
    """``|value - reference|`` is at most one unit in the ``precision``-th significant digit."""
    ctx = Context(prec=precision + 40)
    gap = ctx.subtract(value, reference).copy_abs()
    return gap <= Decimal(1).scaleb(reference.adjusted() + 1 - precision)
