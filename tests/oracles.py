"""Independent oracles used by the tests.

Everything here is deliberately naive and self-contained: long division for
digit strings, quotient-rule differentiation of rational functions, central
finite differences, a plain composite midpoint sum, the corrected midpoint
sums of e^t and of the arctangent kernel, and a Machin-style pi computation
with rigorous two-sided truncation bounds.  None of it shares code with the
package under test.
"""

from decimal import Context, Decimal
from fractions import Fraction
from math import factorial, lcm


def long_division_digits(q: Fraction, n: int) -> str:
    """First n significant digits of a positive rational, by long division."""
    assert q > 0
    num, den = q.numerator, q.denominator
    # scale into [1, 10) so the first digit emitted is significant
    while num < den:
        num *= 10
    while num >= 10 * den:
        den *= 10
    digits = []
    for _ in range(n):
        d = num // den
        digits.append(str(d))
        num = (num - d * den) * 10
    return "".join(digits)


def polynomial_derivative(coeffs: list[Fraction]) -> list[Fraction]:
    return [k * c for k, c in enumerate(coeffs)][1:] or [Fraction(0)]


def polynomial_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def polynomial_eval(coeffs: list[Fraction], t: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def rational_function_derivative(num, den, t: Fraction, order: int) -> Fraction:
    """``order``-th derivative of num(t)/den(t), exact quotient rule.

    ``num`` and ``den`` are polynomial coefficient lists (ascending powers).
    The m-th derivative is kept as N_m / Q^(m+1), and differentiating that
    quotient gives N_(m+1) = N_m' Q - (m+1) N_m Q', so the degree of N grows
    by deg Q - 1 per order instead of doubling.
    """
    p = [Fraction(c) for c in num]
    q = [Fraction(c) for c in den]
    dq = polynomial_derivative(q)
    for m in range(order):
        p = [
            a - (m + 1) * b
            for a, b in zip_pad(polynomial_mul(polynomial_derivative(p), q),
                                polynomial_mul(p, dq))
        ]
    return polynomial_eval(p, t) / polynomial_eval(q, t) ** (order + 1)


def zip_pad(a: list[Fraction], b: list[Fraction]):
    n = max(len(a), len(b))
    a = a + [Fraction(0)] * (n - len(a))
    b = b + [Fraction(0)] * (n - len(b))
    return zip(a, b)


def binomial(n: int, k: int) -> int:
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


def central_difference(f, t: Fraction, m: int, h: Fraction) -> Fraction:
    """m-th derivative of f at t by the order-m central stencil.

    Evaluated in exact rational arithmetic, so the only error is the O(h^2)
    truncation of the stencil itself; one Richardson step removes that,
    leaving O(h^4).
    """

    def stencil(step: Fraction) -> Fraction:
        acc = Fraction(0)
        for i in range(m + 1):
            node = t + (Fraction(m, 2) - i) * step
            acc += (-1) ** i * binomial(m, i) * f(node)
        return acc / step**m

    coarse = stencil(h)
    fine = stencil(h / 2)
    return (4 * fine - coarse) / 3


def brute_midpoint(f, L: int) -> Fraction:
    """Plain composite midpoint rule, exact arithmetic."""
    return sum(f(Fraction(2 * l - 1, 2 * L)) for l in range(1, L + 1)) / L


def exp_emi_sum(L: int, M: int, digits: int) -> Decimal:
    """Order-M corrected midpoint sum of e^t over [0, 1], to ``digits`` digits.

    Every Taylor coefficient of e^t about a midpoint c is e^c / m!, so the
    sum factors into  sum_l e^(c_l)  times  sum over even m <= M of
    2 / ((2L)^(m+1) (m+1)!).  The factor is exact; the exponentials and
    their sum carry ``digits`` digits.
    """
    ctx = Context(prec=digits)
    factor = sum(
        Fraction(2, (2 * L) ** (m + 1) * factorial(m + 1)) for m in range(0, M + 1, 2)
    )
    total = Decimal(0)
    for l in range(1, L + 1):
        total = ctx.add(total, ctx.exp(ctx.divide(2 * l - 1, 2 * L)))
    return ctx.divide(ctx.multiply(total, factor.numerator), factor.denominator)


def arctan_emi_sum(x: Fraction, L: int, M: int, digits: int) -> Fraction:
    """Order-M corrected midpoint sum of x / (1 + x^2 t^2) over [0, 1].

    By the geometric series about each midpoint the sum is
    2 sum over l, k <= M/2 of (-1)^k Re y_l^(2k+1) / (2k+1), y_l = x / z_l,
    z_l = 2L + i x (2l - 1).  With x = n/d and the Gaussian integer
    w_l = 2Ld - i n (2l - 1), y_l = n w_l / |w_l|^2, so each l is a quotient
    of integers, which is rounded down to a multiple of 10^-digits: the
    result lies within L 10^-digits below the sum, for numerals of any
    length and without the gcds of a Fraction sum.
    """
    n, d, K = x.numerator, x.denominator, M // 2
    lam = lcm(*range(1, 2 * K + 2, 2))
    total = 0
    for l in range(1, L + 1):
        re, im = n * 2 * L * d, -n * n * (2 * l - 1)  # n w_l
        norm = (2 * L * d) ** 2 + (n * (2 * l - 1)) ** 2  # |w_l|^2
        sq_re, sq_im, sq_norm = re * re - im * im, 2 * re * im, norm * norm
        num = 0
        for k in range(K + 1):  # (re, im) = (n w_l)^(2k+1), num over norm^(2k+1)
            num = num * sq_norm + (-1) ** k * re * (lam // (2 * k + 1))
            re, im = re * sq_re - im * sq_im, re * sq_im + im * sq_re
        total += 2 * num * 10**digits // (lam * norm ** (2 * K + 1))
    return Fraction(total, 10**digits)


def _arctan_inv_partial(n: int, terms: int):
    # alternating series for arctan(1/n): consecutive partial sums bracket it
    s = Fraction(0)
    sign = 1
    for k in range(terms):
        s += Fraction(sign, (2 * k + 1) * n ** (2 * k + 1))
        sign = -sign
    nxt = Fraction(sign, (2 * terms + 1) * n ** (2 * terms + 1))
    return (s + nxt, s) if sign < 0 else (s, s + nxt)


def machin_pi_digits(n: int) -> str:
    """First n digits of pi via 16*arctan(1/5) - 4*arctan(1/239).

    Both arctangents are bracketed by consecutive partial sums of their
    alternating series; the resulting two-sided bound on pi must agree to
    all n requested digits or the call fails loudly.
    """
    terms = n + 20
    lo5, hi5 = _arctan_inv_partial(5, terms)
    lo239, hi239 = _arctan_inv_partial(239, terms)
    lo = 16 * lo5 - 4 * hi239
    hi = 16 * hi5 - 4 * lo239
    dlo = long_division_digits(lo, n)
    dhi = long_division_digits(hi, n)
    assert dlo == dhi, "pi bounds do not pin down the requested digits"
    return dlo
