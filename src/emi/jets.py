"""Taylor-coefficient kernels for the built-in integrands.

A kernel produces the even Taylor coefficients ``c_0, c_2, ..., c_2K`` of an
integrand about an expansion center, with ``K = order // 2``: ``c_m`` is the
m-th derivative divided by ``m!``.  Only the even ones are made because the
quadrature uses no others: odd powers integrate to zero over a subinterval
symmetric about its center (see :mod:`emi.quadrature`).  Every built-in
integrand obeys a short linear recurrence in its coefficients, and so do
the even ones alone, so a kernel costs O(M) scalar operations for order M
(Taylor mode differentiation of rational functions; Griewank & Walther,
*Evaluating Derivatives*, 2nd ed., ch. 13):

``arctan-kernel``
    ``x / (1 + x^2 t^2)`` for a rational parameter ``x``; integrating it
    over [0, 1] gives ``arctan(x)``.  Works in both modes.
``runge``
    ``1 / (1 + 25 t^2)``.  Both modes.
:data:`PI`
    ``4 / (1 + t^2)``, whose integral over [0, 1] is pi.  Both modes.  It is
    not in the registry, so no ``--integrand`` name selects it; ``emi pi``
    and ``emi scan`` run it.
``exp``
    ``e^t``, from ``c_0 = e^c`` and ``c_m = c_(m-1) / m``, so the even ones
    are ``c_2k = c_(2k-2) / ((2k - 1) 2k)``.  Float mode only: ``e^c`` is
    irrational, so exact mode is refused rather than silently
    approximated.  The seed ``e^(p/q)`` is a power of ``e^(1/q)``, so a run
    pays for one exponential, not one per subinterval (see below).
``poly:k``
    ``t^k`` for a non-negative integer k, from ``c_2j = C(k, 2j) c^(k-2j)``
    (zero for ``2j > k``).  Both modes; its exact integral ``1/(k+1)``
    makes it a convenient exactness probe.

The rational integrands are ``a / Q(t)`` with ``Q(t) = 1 + b t^2``.  About
a center ``c``, ``Q(c + e) = q0 + q1 e + q2 e^2`` with ``q0 = 1 + b c^2``,
``q1 = 2 b c`` and ``q2 = b``; matching powers of ``e`` in ``Q * sum c_n e^n = a``
gives ``c_0 = a / q0`` and ``c_n = p1 c_(n-1) + p2 c_(n-2)`` with
``p1 = -q1 / q0`` and ``p2 = -q2 / q0``.  ``q0 >= 1`` for every built-in, so
nothing divides by zero.  The even coefficients ``e_k = c_2k`` obey a
recurrence of their own.  The vector ``(c_n, c_(n-1))`` advances by the
companion matrix ``A = [[p1, p2], [1, 0]]``, which has trace ``p1`` and
determinant ``-p2``, so ``(c_2k, c_(2k-1))`` advances by ``A^2``.  By
Cayley-Hamilton ``A^4 = tr(A^2) A^2 - det(A^2) I``, with
``tr(A^2) = tr(A)^2 - 2 det(A) = p1^2 + 2 p2`` and ``det(A^2) = p2^2``.
Hence, exactly,

    e_0 = a / q0,   e_1 = c_2 = (p1^2 + p2) e_0,
    e_k = (p1^2 + 2 p2) e_(k-1) - p2^2 e_(k-2)   for k >= 2,

two multiplies per even coefficient instead of two per coefficient.

Each kernel is written once for both modes, with plain operators, and runs
inside the scope of :func:`~emi.precision.arithmetic`: exactly on
``Fraction``s, or on ``Decimal``s rounded at every step to the run's
working precision.  A kernel receives the center exactly, as the integers
``p`` and ``q`` of ``c = p/q``.  The rational and polynomial kernels start
from ``frac(p, q)``, the center correctly rounded to working precision.

The ``exp`` seed at working precision ``wp`` is ``e^(p/q) = (e^(1/q))^p``
(argument reduction by the exponent law; Brent & Zimmermann, *Modern
Computer Arithmetic*, sec. 4.3), evaluated at ``W = wp + d + 3`` digits,
where ``d`` is the digit count of ``max(|p|, q)``:

- ``e^(1/q)`` is ``exp`` of ``1/q`` rounded to W digits.  The rounded
  argument is off by at most ``1/q`` times ``10^(1-W) / 2`` and ``exp`` is
  correctly rounded, so the root's relative error is at most ``10^(1-W)``.
- Raising it to the integer power ``|p| < 10^d`` multiplies that error by
  at most ``|p|``, giving ``10^(-wp-2)``.  libmpdec's integer power works
  with the exponent's digit count plus 2 extra digits and rounds once to
  W, which adds about ``10^(1-W) / 2``.
- The seed is then rounded once to ``wp``.  A relative error of
  ``10^(-wp-2)`` is at most 0.01 ulp at ``wp``, so the seed lies within
  0.52 ulp of ``e^(p/q)``.

``exp`` of the center rounded to ``wp`` is off by up to 0.5 ulp plus
``|p/q| * 10^(1-wp) / 2`` relative, about as much on the engine's centers
(``|p/q| < 1``), so the guard digits that cover a rounded center cover this
seed too.

Each bound kernel keeps the roots it computed, keyed by ``(q, W)``; the
engine's centers ``(2l - 1) / (2L)`` share one ``q`` and one ``W``, so a run
computes one exponential.  The memo only saves work: calls in any order
return the same coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Context, Decimal, getcontext
from math import comb
from typing import Callable

from .errors import EmiError, ExactModeUnsupportedError, UnknownIntegrandError
from .precision import Rat, context

#: ``kernel(frac)`` -> ``coeffs(p, q, order)`` -> ``[c_0, c_2, ..., c_2K]``
#: about the center ``p/q``, with ``K = order // 2``
Kernel = Callable[[Callable], Callable[[int, int, int], list]]


def _rational_kernel(a: Rat, b: Rat) -> Kernel:
    # a / (1 + b t^2)
    def bind(frac):
        a_, b_, minus_b, minus_2b = (
            frac(v.numerator, v.denominator) for v in (a, b, -b, -2 * b)
        )

        def coeffs(p: int, q: int, order: int) -> list:
            center = frac(p, q)
            q0 = 1 + b_ * (center * center)
            e = [a_ / q0]
            if order >= 2:
                p1 = minus_2b * center / q0  # -q1 / q0
                p2 = minus_b / q0  # -q2 / q0
                p1_squared = p1 * p1
                e.append((p1_squared + p2) * e[0])
                if order >= 4:
                    trace, det = p1_squared + 2 * p2, p2 * p2  # of A^2
                    for _ in range(2, order // 2 + 1):
                        e.append(trace * e[-1] - det * e[-2])
            return e

        return coeffs

    return bind


def _exp_kernel(frac):
    if frac is Rat:
        raise ExactModeUnsupportedError(
            "integrand 'exp' does not support exact mode; use float mode"
        )

    roots = {}  # (q, W) -> e^(1/q) at W digits

    def coeffs(p: int, q: int, order: int) -> list:
        wide_digits = getcontext().prec + len(str(max(abs(p), q))) + 3  # W
        wide = context(wide_digits)
        root = roots.get((q, wide_digits))
        if root is None:
            root = roots[q, wide_digits] = _exp_root(q, wide)
        e = [+wide.power(root, p)]  # rounded once, to working precision
        for k in range(1, order // 2 + 1):
            e.append(e[-1] / ((2 * k - 1) * 2 * k))
        return e

    return coeffs


def _exp_root(q: int, wide: Context) -> Decimal:
    # e^(1/q) at the wide context's precision; the one exponential of a run
    return wide.exp(wide.divide(1, q))


def _poly_kernel(k: int) -> Kernel:
    def bind(frac):
        zero, one = frac(0, 1), frac(1, 1)

        def coeffs(p: int, q: int, order: int) -> list:
            center = frac(p, q)
            powers = [one]  # center ** j
            for _ in range(k):
                powers.append(powers[-1] * center)
            return [
                comb(k, m) * powers[k - m] if m <= k else zero
                for m in range(0, order + 1, 2)
            ]

        return coeffs

    return bind


@dataclass(frozen=True)
class IntegrandSpec:
    """A named integrand together with its coefficient kernel.

    ``kernel(frac)`` binds the kernel to a mode's ``frac``, converting the
    integrand's parameters once.  The function it returns maps
    ``(p, q, order)`` to the even coefficients ``c_0, c_2, .., c_2K``,
    ``K = order // 2``, about the center ``p/q`` (ints, ``q > 0``) inside
    that mode's scope; it is pure, so identical inputs always produce
    identical coefficients, whatever was computed before.
    """

    name: str
    kernel: Kernel = field(repr=False)


#: ``4 / (1 + t^2)``, whose integral over [0, 1] is pi; not in the registry
PI = IntegrandSpec("pi", _rational_kernel(Rat(4), Rat(1)))


#: Largest ``k`` accepted in ``poly:k``.  The kernel builds all k + 1 powers
#: of the center on every subinterval, and in exact mode the j-th power has
#: j times the center's digits, so a run costs about L k^2 digit operations:
#: an exact ``poly:10000`` run at L = 50 takes seconds, a larger k hangs.
MAX_POLY_DEGREE = 1000


def get_integrand(name: str, x: Rat | None = None) -> IntegrandSpec:
    """Look up a built-in integrand by its registry name.

    ``x`` is the parameter of ``arctan-kernel``, which requires it; every
    other integrand takes no parameter and refuses one.
    """
    if name == "arctan-kernel":
        if x is None:
            raise UnknownIntegrandError("arctan-kernel requires a rational parameter x")
        xr = Rat(x)
        return IntegrandSpec(name, _rational_kernel(xr, xr * xr))
    if x is not None:
        raise EmiError(f"integrand {name!r} takes no parameter x")
    if name == "exp":
        return IntegrandSpec(name, _exp_kernel)
    if name == "runge":
        return IntegrandSpec(name, _rational_kernel(Rat(1), Rat(25)))
    if name.startswith("poly:"):
        tail = name[len("poly:") :]
        if not (tail.isascii() and tail.isdigit()):
            raise UnknownIntegrandError(f"bad polynomial degree in {name!r}")
        # the length test comes first: int() refuses more than 4300 digits
        digits = tail.lstrip("0") or "0"
        if len(digits) > len(str(MAX_POLY_DEGREE)) or int(digits) > MAX_POLY_DEGREE:
            raise UnknownIntegrandError(
                f"polynomial degree of {name[:20]!r}... exceeds {MAX_POLY_DEGREE}"
            )
        return IntegrandSpec(name, _poly_kernel(int(digits)))
    raise UnknownIntegrandError(f"unknown integrand {name!r}")
