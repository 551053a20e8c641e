"""Composite midpoint quadrature with per-subinterval Taylor corrections.

The interval [0, 1] is split into L equal subintervals with midpoints
``p/q = (2l - 1) / (2L)``.  On each subinterval the integrand is replaced
by its order-M Taylor expansion about the midpoint and integrated
analytically.  The odd powers integrate to zero over the symmetric
subinterval, and ``e^(2k)`` integrates over ``|e| <= 1/(2L)`` to
``2 / ((2L)^(2k+1) (2k+1))``, so the subinterval's integral is

    sum over k <= M/2 of  c_2k * 2 / ((2L)^(2k+1) (2k+1))
      = (1/L) * sum over k <= M/2 of  g_k / (2k + 1),   g_k = c_2k / (2L)^(2k).

A kernel of :mod:`emi.jets` returns the sum over all L subintervals of
the term ``sum over k <= K of g_k / (2k + 1)`` (``K = M // 2``): for
``exp`` in closed form, and otherwise making each term itself, adding
each ``g_k / (2k + 1)`` as it makes ``g_k``, so no run holds a list of
coefficients.  :func:`emi_integrate` divides that total by L, times the
kernel's scale, once.  There is no weight table.  M = 0 is exactly the
classical composite midpoint rule; every increase of M by 2 raises the
convergence order by 2, and an odd M gives the same sum as M - 1.

A float run at working precision ``wp`` gets its total as an int over
the bound kernel's int scale (see :mod:`emi.jets`), the L terms added
exactly, and makes one ``Decimal`` operation: the quotient of the total
by ``L scale``, rounded half-even to ``wp`` digits, within 0.5 ulp of
``total / (L scale)``.  The errors before it are these, for each
term in units of the scale and then for the sum:

- *poly:k.*  A term is its exact numerator over ``lam q^k``, so the sum
  is exact and the run's value is the exact sum correctly rounded.
- *exp.*  The kernel has no terms: it returns the sum of the L terms
  ``e^(p/q) S_K`` in closed form, ``L (e - 1) sinh_K(1/q) / sinh(1/q)``,
  as a quotient of two ints made in fixed point of ``P`` bits by floors
  that it counts: the ``n <= P + 2`` of its one series and at most two
  per bit of q in raising ``e^(1/q)`` to the q-th power.  Each floor
  loses less than one unit, and a quotient of such underestimates lands
  on either side, so ``total / (L scale)`` lies within ``delta`` relative
  of the sum over L, with ``delta = q (4.2n + 11) 2^-P < 10^-wp / 64`` at
  the kernel's ``P`` (see :mod:`emi.jets`), and the run's value within
  0.516 ulp of it.
- *Rational terms with K <= 1 (M <= 3).*  A term is the exact term times
  the scale ``2^F``, rounded down: off by less than one unit.  No kernel
  rounds the center, so no term inherits the error of a rounded ``p/q``.
- *Deeper rational terms (K >= 2).*  The kernel runs the recurrence in
  fixed point, ``G_k ~ 2^B g_k / g_0`` with ``B = ceil(wp log2 10) + 8``,
  and the term is ``2^F g_0 acc / 2^B`` rounded down (see
  :mod:`emi.jets`).  That floor is off by less than one unit of the scale;
  the fixed point's own unit, ``2^-B |g_0|``, is below
  ``10^-wp |g_0| / 256``.

  - *Floors.*  Each floor division, for ``G_1``, for every later ``G_k``
    and for every ``G_k / (2k + 1)``, is off by less than one fixed-point
    unit.
  - *Propagation.*  The error of ``G_k`` obeys the recurrence itself plus
    the new floor.  Its characteristic polynomial
    ``z^2 - (T / N^2) z + D / N^2`` has complex roots ``rho e^(+-2i phi)``,
    as ``T^2 - 4 D N^2 = -16 bn^3 bd p^2 q^2 < 0``, of modulus
    ``rho = bn / N < 1 / p^2 <= 1`` at the engine's centers.  A unit made
    at step j adds at most ``(k - j + 1) rho^(k-j)`` units to ``G_k``, so
    ``G_k`` is off by less than
    ``sum over i < k of (i + 1) rho^i <= min(1 / (1 - rho)^2, k (k + 1) / 2)``
    units.  With the K floors of the sum, ``acc`` is off by less than
    ``A = K + min(ln(2K + 1) / (2 (1 - rho)^2), K (K + 3) / 8)`` units; for
    pi, ``rho <= 1/5`` and ``A < K + ln(2K + 1)``.
  - *Lower bound.*  With ``sin(phi)^2 = bd q^2 / N``, ``0 < phi <= pi/2``,
    ``g_k / g_0 = rho^k sin((2k + 1) phi) / sin(phi)``.  Abel summation over
    the falling ``rho^k`` gives ``term / g_0 >= min over k <= K of F_k``,
    where ``F_k = sum over j <= k of sin((2j + 1) phi) / ((2j + 1) sin(phi))``.
    ``F_0 = 1`` and ``F_1 = 2 - (4/3) sin(phi)^2 >= 2/3``, and no ``F_k``
    fell below 2/3 on a grid of K <= 1000 and 4000 values of ``phi``.  The
    argument uses ``term >= 2 g_0 / 3``, with the sign of ``g_0``, at every
    order.
  - *Result.*  A term is off by less than one unit of the scale plus
    ``A 2^-B |g_0| <= 1.5 A 2^-B |term|``.

  A numeral ``x`` longer than about ``wp`` digits makes the kernel round its
  parameters once, to ``width = B + 2 bits(q) + 3 bits(K)`` bits (see
  :mod:`emi.jets`).  That moves ``g_0`` by less than one fixed-point unit
  and the recurrence's coefficients ``T / N^2``, ``D / N^2`` and
  ``h_1 / N^2`` by less than ``16 q^2 2^-width``.  As
  ``|g_k / g_0| <= (2k + 1) rho^k``, such a change grows through the
  recurrence by at most about ``(K + 3)^3 / 9``, so to first order the term
  moves by less than 50 more fixed-point units.  No rounded ``1 / q0`` and
  no weight enters any step.
- *Sum of rational terms.*  Every term has the sign of ``a``, and the term
  at ``p = 1`` alone is at least ``2 |g_0(1)| / 3``, the largest ``|g_0|``
  times 2/3, so that bounds the sum.  The kernel picks F so that L units of
  the scale are below ``2^-B`` of it: the L floors move the sum by less
  than ``2^-B`` relative, and the fixed-point errors by less than
  ``1.5 A 2^-B`` relative, as they move each term.  Before its quotient
  the sum is off by less than ``(1 + 1.5 A) 2^-B <= (0.004 + 0.006 A)
  10^-wp`` relative.  A relative error ``x`` is at most ``x 10^wp`` ulp, so
  the run's value lies within ``0.504 + 0.006 A`` ulp of the exact sum.
- *Budget.*  ``A <= K + K (K + 3) / 8 < 1.3 10^13`` for every run that
  :data:`MAX_TERMS` admits, so the value is off by less than ``10^11`` ulp
  at ``wp``, while the final rounding's half unit at ``precision`` is
  ``10^GUARD_DIGITS / 2 = 5 10^14`` of them.

The ``GUARD_DIGITS`` absorb them: the tests check that the result,
rounded once to ``precision``, equals the exact sum rounded once, or lies
within one unit of it.

Exact mode runs the same recurrences on ints without the floors, makes
each term as one ``Fraction`` (see :mod:`emi.jets`), and serves as the
correctness oracle for float mode.  The engine does two things: it binds
the kernel once per run, as ``spec.kernel(wp, 2L, M)``, to the working
precision ``wp = config.precision + GUARD_DIGITS`` in float mode (``None``
in exact mode), the denominator ``2L`` and the order M, which returns the
run's total over its scale; and it makes one quotient of that total by
L times the scale.  Making and adding the subintervals' terms, at the
midpoints ``(2l - 1) / (2L)`` received exactly, is the kernel's job
(see :mod:`emi.jets`).  In exact mode the quotient is one ``Rat``
division.  In float mode both ints are converted to ``Decimal`` by halves
(:func:`~emi.precision.to_decimal`), and their quotient is made with the
explicit context of ``wp`` digits and wrapped in
:class:`~emi.precision.Real`, so identical inputs give bit-identical
results and the engine enters no decimal context.  A kernel that adds
terms makes each when its sum needs it, so no list of terms is built:
float mode holds one running total and exact mode, which adds by
:func:`~emi.jets.pairwise_sum`, at most O(log L) partial sums.  Runs are
single-threaded.

For the arctangent kernel the sum has a closed form for every M, which
:func:`closed_form_arctan` evaluates without ``emi.jets``, so that the two
routes cross-check each other.  For real t, ``x / (1 + x^2 t^2)`` is
``x Re 1/(1 + i x t)``; about ``c = (2l - 1)/(2L)`` the geometric series gives
``1/(1 + i x (c + e)) = sum over n of (-i x e)^n / (1 + i x c)^(n+1)``, and
``e^(2k)`` integrates as above.
With ``z_l = 2L (1 + i x c) = 2L + i x (2l - 1)`` the order-M sum is

    2x * sum over l of  Re sum over k <= M/2 of  (-1)^k x^(2k) / ((2k+1) z_l^(2k+1))
      = 2 * sum over l of  Re T(x / z_l),

where ``T(y) = sum over k <= M/2 of (-1)^k y^(2k+1) / (2k+1)`` is arctan's
Maclaurin series cut after degree M + 1.  As ``|x / z_l| < 1``, letting M
grow gives the identity ``arctan x = 2 * sum over l of Re arctan(x / z_l)``.
Each l starts from ``y_0 = x / z_l = x conj(z_l) / |z_l|^2`` and each k
costs one complex multiply, ``y_k = -y_0^2 y_(k-1)``, and adds
``Re y_k / (2k + 1)``.

Exact mode runs this on integers.  With ``x = n/d`` and the Gaussian
integer ``w_l = 2Ld + i n (2l - 1)``, ``y_0 = c / m`` for ``c = n conj(w_l)``
and ``m = |w_l|^2``, so ``y_k = Y_k / m^(2k+1)`` with ``Y_0 = c`` and
``Y_k = g Y_(k-1)``, ``g = -c^2``.  The partial sum is kept as
``s / (m^(2k+1) dd)`` with ``dd = lcm(1, 3, .., 2k + 1)``: from
``s = Re c`` and ``dd = 1``, each step takes
``mult = (2k + 1) / gcd(dd, 2k + 1)`` and sets

    dd <- dd mult,   s <- s m^2 mult + Re Y_k (dd / (2k + 1)),

so each l is one ``Fraction``, ``2 s / (m^(2K+1) dd)``, made as the exact
kernels of :mod:`emi.jets` make theirs, and :func:`pairwise_sum` adds the
L of them.

Float mode runs it on (re, im) pairs of ``Decimal``s.  Every step rounds
to working precision, in a ``decimal.localcontext`` of ``wp`` digits that
only this function opens, so its cost grows neither with k nor with the
length of the numeral x.

The limit has a real-argument form.  For ``|y| < 1``,
``2 Re arctan y = arctan y + arctan conj(y) = arctan(2 Re y / (1 - |y|^2))``,
and at ``y = x / z_l`` that argument is ``L x / (L^2 + l (l - 1) x^2)``, so

    arctan x = sum over l = 1..L of  arctan(L x / (L^2 + l (l - 1) x^2)).

The sum telescopes: by the subtraction formula for tangents its l-th term
is ``arctan(l x / L) - arctan((l - 1) x / L)``.  At L = 2, x = 1 it is
Euler's ``pi/4 = arctan(1/2) + arctan(1/3)``.
"""

from __future__ import annotations

from decimal import localcontext
from math import gcd
from typing import NamedTuple, Union

from .jets import IntegrandSpec, pairwise_sum
from .precision import GUARD_DIGITS, Rat, Real, check_precision, context, to_decimal

Scalar = Union[Rat, Real]


#: Most summands ``L * (M // 2 + 1)`` a run accepts, checked before any
#: allocation.  A summand costs time but no memory, at the default
#: precision about 0.4 microseconds at M <= 3 and 0.13 at deep M: the
#: largest accepted pi runs, (10^7, 0), (5 10^6, 2) and (1, 19999998),
#: took 4.2, 4.1 and 1.3 s in fresh processes (Python 3.11.7, 2-vCPU
#: Xeon VM), where L = 10^12 would run for weeks.  (10^6, 0), (1, 40000)
#: and (1, 14500) stay legal.
MAX_TERMS = 10**7

#: Most work ``L * (M // 2 + 1) * wp`` a float run at working precision
#: ``wp`` accepts, checked before any allocation.  A summand's cost grows
#: with ``wp``: at precision 10^5 the largest accepted pi runs, (9998, 0)
#: and (1, 19994), took 1.3 and 2.6 s in fresh processes on the same VM,
#: so (10^7, 0) would run for about 22 minutes.  Every run that
#: :data:`MAX_TERMS` admits at the default precision, at most 7.5 10^8,
#: stays legal.  An ``exp`` run's cost does not grow with L, as its kernel
#: sums the L terms in closed form: (1, 0) and (9998, 0) at precision 10^5
#: took 1.5 and 1.1 s fresh (Python 3.11.7, 2-vCPU Xeon VM).
MAX_WORK = 10**9


class _EmiConfigFields(NamedTuple):
    L: int
    M: int
    mode: str = "float"
    precision: int = 60


class EmiConfig(_EmiConfigFields):
    """Parameters of one quadrature run.

    ``L`` subintervals, Taylor order ``M``, arithmetic ``mode`` ("exact" or
    "float"), and for float mode the significant-digit count ``precision``
    the result should be trusted to.  Every way of building one, ``_make``
    and ``_replace`` included, checks the parameters, and that check is
    the one statement of which runs are accepted: :func:`term_count` checks
    ``(L, M)`` by building an exact config, and :func:`emi_integrate` does
    not check again.  ``working_precision``
    is the ``wp`` the run's kernel is bound on: ``precision`` plus
    ``GUARD_DIGITS`` in float mode, ``None`` in exact mode.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        # the one statement of which runs are accepted, in this order
        self = super().__new__(cls, *args, **kwargs)
        L, M, mode, precision = self
        if mode not in ("exact", "float"):
            raise ValueError(f"mode must be 'exact' or 'float', got {mode!r}")
        check_precision(precision, exact=mode == "exact")
        for name, value in (("L", L), ("M", M)):
            if not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if L < 1:
            raise ValueError(f"L must be >= 1, got {L}")
        if M < 0:
            raise ValueError(f"M must be >= 0, got {M}")
        if L * (M // 2 + 1) > MAX_TERMS:
            raise ValueError(
                f"L * (M // 2 + 1) must be <= {MAX_TERMS}, got L = {L}, M = {M}"
            )
        wp = self.working_precision
        if wp is not None and L * (M // 2 + 1) * wp > MAX_WORK:
            raise ValueError(
                f"L * (M // 2 + 1) * working precision must be <= {MAX_WORK}, "
                f"got L = {L}, M = {M}, working precision = {wp}"
            )
        return self

    @classmethod
    def _make(cls, iterable):
        # the named tuple's own _make, which _replace calls, skips __new__
        return cls(*iterable)

    @property
    def working_precision(self) -> int | None:
        return self.precision + GUARD_DIGITS if self.mode == "float" else None


class QuadResult(NamedTuple):
    """Value of one quadrature run and its count of nonzero summands."""

    value: Scalar
    term_count: int


def term_count(L: int, M: int) -> int:
    """Nonzero summands in the truncated double sum: L * (floor(M/2) + 1).

    ``(L, M)`` is checked as an exact run's :class:`EmiConfig` checks it,
    with the same messages.
    """
    EmiConfig(L, M, "exact")
    return L * (M // 2 + 1)


def emi_integrate(spec: IntegrandSpec, config: EmiConfig) -> QuadResult:
    """Integrate a registered integrand over [0, 1].

    The kernel is bound to the run once and returns the sum of its L terms
    over a scale; the value is that total divided by L times the scale,
    one ``Rat`` division in exact mode and one correctly rounded quotient
    at working precision in float mode.
    """
    L, M, wp = config.L, config.M, config.working_precision
    total, scale = spec.kernel(wp, 2 * L, M)
    if wp is None:
        # Rat(total, L) would take a gcd of the long total's two parts,
        # which dividing by an int avoids
        value = Rat(total) / (L * scale)
    else:  # both ints converted by halves, then one quotient
        quotient = context(wp).divide(to_decimal(total), to_decimal(L * scale))
        value = Real(quotient, config.precision)
    return QuadResult(value, L * (M // 2 + 1))


def closed_form_arctan(
    x: Rat,
    L: int,
    M: int,
    mode: str = "float",
    precision: int = 60,
) -> Scalar:
    """Closed-form value of the order-M, L-subinterval arctangent sum.

    Evaluates ``2 * sum over l of Re T(x / z_l)`` for any M >= 0, as derived
    in the module docstring, sharing no code with the coefficient kernels,
    so it serves as an independent cross-check of :func:`emi_integrate` on
    the ``arctan-kernel`` integrand: for rational x the two routes agree
    exactly in exact mode.  Exact mode steps each l on Gaussian integers
    and makes it as one ``Fraction``; float mode steps ``Decimal`` pairs
    rounded to the working precision.
    """
    config = EmiConfig(L=L, M=M, mode=mode, precision=precision)
    x = Rat(x)

    if config.mode == "exact":
        n, two_ld = x.numerator, 2 * L * x.denominator

        def exact_term(l):
            # 2 Re T(x / z_l) on ints: y_k = Y_k / m^(2k+1), the sum s / (m^(2k+1) dd)
            b = n * (2 * l - 1)  # w_l = 2Ld + ib, y_0 = n conj(w_l) / |w_l|^2
            re, im = n * two_ld, -n * b  # Y_0 = c = n conj(w_l)
            m = two_ld * two_ld + b * b  # |w_l|^2
            g_re, g_im, m2 = im * im - re * re, -2 * re * im, m * m  # g = -c^2
            s, dd = re, 1
            for k in range(1, M // 2 + 1):
                re, im = re * g_re - im * g_im, re * g_im + im * g_re
                odd = 2 * k + 1
                mult = odd // gcd(dd, odd)  # dd = lcm(1, 3, .., 2k + 1)
                dd *= mult
                s = s * m2 * mult + re * (dd // odd)
            return Rat(2 * s, m ** (2 * (M // 2) + 1) * dd)

        return pairwise_sum(exact_term, 1, L + 1)

    ctx = context(config.working_precision)
    with localcontext(ctx):  # every operator below rounds to wp digits
        xs = ctx.divide(to_decimal(x.numerator), to_decimal(x.denominator))
        two_lx, four_l2 = 2 * L * xs, 4 * L * L

        def term(l):
            # 2 Re T(x / z_l), as derived in the module docstring
            b = xs * (2 * l - 1)  # z_l = 2L + ib
            n = four_l2 + b * b  # |z_l|^2
            re, im = two_lx / n, -xs * b / n  # y_0 = x / z_l
            g_re, g_im = im * im - re * re, -2 * re * im  # -y_0^2
            total = re
            for k in range(1, M // 2 + 1):
                re, im = re * g_re - im * g_im, re * g_im + im * g_re
                total += re / (2 * k + 1)
            return 2 * total

        total = pairwise_sum(term, 1, L + 1)
    return Real(total, config.precision)
