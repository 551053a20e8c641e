"""Taylor-coefficient kernels for the built-in integrands.

A run of L subintervals adds one term per midpoint ``c = p/q``, with
``q = 2L`` and ``p = 1, 3, .., q - 1``,

    sum over k <= K = order // 2 of  g_k / (2k + 1),   g_k = c_2k / q^(2k),

from the even Taylor coefficients ``c_2k`` of an integrand about ``c``;
``c_m`` is the m-th derivative divided by ``m!``.  The term is L times the
integral of the order-``order`` expansion over the subinterval: odd powers
integrate to zero over a subinterval symmetric about its center, and its
integral scales ``c_2k`` so (see :mod:`emi.quadrature`).  A kernel returns
the run's total of those terms, as a numerator over a scale (see below).
The rational and ``poly:k`` kernels make each term and add the terms up.
The rational kernels' ``g_k`` obey a short linear recurrence with integer
coefficients, in which ``q^2`` cancels, so such a term costs O(M)
operations for order M, in float mode each a multiply or divide by a short
integer (Taylor mode differentiation of rational functions; Griewank &
Walther, *Evaluating Derivatives*, 2nd ed., ch. 13), and adds each
``g_k / (2k + 1)`` to the term as it makes ``g_k``, so it holds no list of
them.  ``poly:k`` has a closed form for each term, and ``exp`` for the
run's total:

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
    ``e^t``, from ``c_m = e^c / m!``, so ``g_k = e^c / ((2k)! q^(2k))`` and
    the term is ``e^c S_K`` with ``S_K = sum over k <= K of
    1 / ((2k + 1)! q^(2k))``, the same at every center.  Float mode only:
    ``e^c`` is irrational, so exact mode is refused rather than silently
    approximated.  Over the midpoints the terms add up in closed form
    (below): a bind sums one integer series in binary fixed point and
    raises ``e^(1/q)`` to the q-th power by about ``log2 q`` squarings, so
    a run's cost does not grow with L, and it makes no ``Decimal``
    operation of its own.
``poly:k``
    ``t^k`` for a non-negative integer k, from ``c_2j = C(k, 2j) c^(k-2j)``
    (zero for ``2j > k``), so ``g_j = C(k, 2j) p^(k-2j) / q^k``, and with
    ``T = min(order, k) // 2`` and ``lam = lcm(1, 3, .., 2T + 1)`` the term
    is one quotient of two integers,

        sum over j <= T of  C(k, 2j) (lam / (2j + 1)) p^(k-2j)  /  (lam q^k),

    whose numerator is a Horner sum in ``p^2`` over integers made once per
    bind, with no power of a rounded center.  Its term binder returns that
    numerator as the term and ``lam q^k`` as the scale, in both modes, so a
    float run's one quotient is its exact sum correctly rounded.  The
    integers carry about k times the digits of q, so a term's cost grows
    with k.  Both modes; its exact integral ``1/(k+1)`` makes it a
    convenient exactness probe.

The rational integrands are ``a / Q(t)`` with ``Q(t) = 1 + b t^2``.  About
a center ``c``, ``Q(c + e) = q0 + q1 e + q2 e^2`` with ``q0 = 1 + b c^2``,
``q1 = 2 b c`` and ``q2 = b``; matching powers of ``e`` in ``Q * sum c_n e^n = a``
gives ``c_0 = a / q0`` and ``c_n = p1 c_(n-1) + p2 c_(n-2)`` with
``p1 = -q1 / q0`` and ``p2 = -q2 / q0``.  The even coefficients
``e_k = c_2k`` obey a recurrence of their own.  The vector
``(c_n, c_(n-1))`` advances by the companion matrix
``A = [[p1, p2], [1, 0]]``, which has trace ``p1`` and determinant ``-p2``,
so ``(c_2k, c_(2k-1))`` advances by ``A^2``.  By Cayley-Hamilton
``A^4 = tr(A^2) A^2 - det(A^2) I``, with
``tr(A^2) = tr(A)^2 - 2 det(A) = p1^2 + 2 p2`` and ``det(A^2) = p2^2``.
Hence, exactly,

    e_0 = a / q0,   e_1 = c_2 = (p1^2 + p2) e_0,
    e_k = (p1^2 + 2 p2) e_(k-1) - p2^2 e_(k-2)   for k >= 2.

With ``a = an/ad``, ``b = bn/bd`` and ``c = p/q``, let
``N = bd q^2 + bn p^2``, so that ``q0 = N / (bd q^2)``,
``p1 = -2 bn p q / N`` and ``p2 = -bn q^2 / N``.  Then
``p1^2 + p2 = q^2 bn (3 bn p^2 - bd q^2) / N^2``,
``p1^2 + 2 p2 = 2 q^2 bn (bn p^2 - bd q^2) / N^2`` and
``p2^2 = q^4 bn^2 / N^2``, and dividing ``e_k`` by ``q^(2k)`` cancels every
``q^2``:

    g_0 = an bd q^2 / (ad N),   g_1 = g_0 bn (3 bn p^2 - bd q^2) / N^2,
    g_k = (2 bn (bn p^2 - bd q^2) g_(k-1) - bn^2 g_(k-2)) / N^2.

``N > 0`` for every built-in (``bn >= 0``), so nothing divides by zero.
The term's first two summands are one quotient of integers: with
``num = an bd q^2`` and ``h_1 = bn (3 bn p^2 - bd q^2)``, which is
``3 bn N - 4 bn bd q^2`` as ``bn p^2 = N - bd q^2``,

    g_0 + g_1 / 3 = num (3 N^2 + 3 bn N - 4 bn bd q^2) / (3 ad N^3),

so a term with K <= 1 is one quotient of two integers, which float mode
makes as such.  Its bind picks a term of its own for K = 0 and for
K = 1, which makes nothing but that quotient from ``N``.  At K = 0 it is
``floor(floor(num / ad) / N)``, with ``floor(num / ad)`` made once per
bind, as ``floor(floor(x / a) / b) = floor(x / (a b))`` for any integer
``x``, of either sign, and positive integers ``a`` and ``b``.  Beyond,
with ``T = 2 bn (bn p^2 - bd q^2)`` and ``D = bn^2``, the modes part.
Exact mode runs the recurrence fraction-free, on the integers
``X_k = ad N N^(2k) g_k``, for every ``K >= 1``,

    X_0 = an bd q^2,   X_1 = X_0 h_1,   X_k = T X_(k-1) - D N^2 X_(k-2),

and keeps the partial term as ``s / (ad N N^(2k) d)`` with
``d = lcm(1, 3, .., 2k + 1)``: from the K = 1 term, ``s = X_0 (3 N^2 + h_1)``
and ``d = 3``, each step takes ``m = (2k + 1) / gcd(d, 2k + 1)`` and sets

    s <- s N^2 m + X_k (d m / (2k + 1)),   d <- d m,

all exact operations on ints, and the term is one ``Fraction`` of ``s``
over ``ad N N^(2K) d``, with one gcd (integer recurrences and one
division at the end, as in Bareiss's fraction-free elimination, *Math.
Comp.* 22, 1968).  A step multiplies by the short ``T``, ``D N^2`` and
``N^2 m``, and ``X_k`` by ``d m / (2k + 1)``, whose length grows with k:
``d`` has about ``0.87 K`` digits, where the running product
``(2K + 1)!!`` would have about ``K log10(2K / e)``.

Float mode runs it on Python ints in fixed point, relative to the term's
own ``g_0``, with ``B = ceil(wp log2 10) + 8`` bits at working precision
``wp``:

    G_0 = 2^B,   G_1 = floor(2^B h_1 / N^2),
    G_k = floor((T G_(k-1) - D G_(k-2)) / N^2),
    acc = G_0 + floor(G_1 / 3) + sum over 2 <= k <= K of floor(G_k / (2k + 1)),

so ``G_k`` is ``2^B g_k / g_0`` up to the floors, and the term is
``g_0 acc / 2^B``.  Each step multiplies a B-bit integer by the short
``T`` and ``D`` and divides it by the short ``N^2`` and ``2k + 1``, all in
time linear in B (Brent & Zimmermann, *Modern Computer Arithmetic*,
sec. 1.3-1.4); a ``Decimal`` step would round about six times and convert
an int operand each time.  Each mode has its own loop on ints, float mode
flooring at each step and exact mode dividing only in its one
``Fraction``; :mod:`emi.quadrature` bounds the floors' error.

A float rational term is an int in units of ``2^-F``: the exact term
times ``2^F``, rounded down.  The kernel picks F at bind time from
``g_0 = num_1 / den_1`` at ``p = 1``, the largest ``|g_0|``, as ``g_0``
falls with ``|p|``:

    F = B + bits(q) + bits(den_1) - bits(num_1) + 1,

where ``bits`` is the bit length.  Then the ``q / 2 = L`` floors of a run
stay below ``2^-B`` of ``2 |g_0| / 3``, a lower bound on the sum of its
terms (see :mod:`emi.quadrature`).  As ``|g_0| <= max(4, q/2)`` for the
built-ins, ``F >= B``.  With ``an`` carrying ``2^F``, a term with K <= 1
is ``2^F`` times its quotient of integers above, rounded down (at K = 0
by the nested floor, the same integer), and one with K >= 2 is
``floor(2^(F-B) g_0 acc)``, each one floor division of integers.

Float mode rounds long parameters once, at bind time, so that the terms
run on integers of about ``width = B + 2 bits(q) + 3 bits(K)`` bits.  If
``bn`` or ``bd`` is longer, both shift right by the same ``s`` so that the
longer part, ``top``, keeps ``width`` bits.  ``N``, ``h_1``, ``T`` and
``D`` are homogeneous in ``(bn, bd)``, so their ratios keep, and
``g_0``'s factor ``bd / N`` is kept by folding the exact
``mu = (top >> s) / top`` into the pair ``(an bd, ad)``.  That
pair then shifts so that its shorter part keeps ``width`` bits: the ratio
is accurate to ``2^(1-width)``, and the longer part keeps, beyond
``width``, only the bits of the ratio's magnitude: about 13,000 for a
4,000-digit integer ``x``.  F grows by as many bits, so each term is a
floor division of integers that long, in time linear in their length,
and only the run's one quotient converts such an integer, ``2^F``, to a
``Decimal``.  Exact mode keeps every part exact.

A run binds its kernel once, as ``kernel(wp, q, order)``, where ``wp``
is the working precision in float mode and ``None`` in exact mode; no
kernel reads the caller's decimal context.  It returns ``(total, scale)``:
``total / scale`` is the sum of the run's terms over the midpoints
``p = 1, 3, .., q - 1``, and the scale is a positive integer.  The
rational and ``poly:k`` kernels come from a term binder,
``bind(wp, q, order)``, which returns ``(term, scale)``: ``term(p) /
scale`` is the term for the center ``c = p/q``, received exactly, over a
scale fixed at bind time.  :func:`_summed` adds a binder's terms: in exact
mode by :func:`pairwise_sum`, where the rational terms are ``Fraction``s
over the scale 1, and in float mode by the built-in ``sum``, exactly, as
every float term is an int: a rational term rounded down in units of
``2^-F`` and a ``poly:k`` term its exact numerator, as in exact mode.
``exp``'s total and scale are ints too (below).  So the engine makes one
correctly rounded quotient of the total by ``L scale`` at ``wp`` digits;
no kernel rounds the center, and no kernel makes a ``Decimal`` operation.

The ``exp`` total at working precision ``wp`` is made in binary fixed
point with ``P`` bits (Brent & Zimmermann, *Modern Computer Arithmetic*,
ch. 4): each quantity ``v`` below is an int approximating ``v 2^P`` from
below.  With ``q = 2L`` the midpoints' exponentials form a geometric sum,

    sum over l <= L of e^((2l - 1) / q) = (e - 1) / (2 sinh(1/q)),

and ``S_K = q sinh_K(1/q)``, where ``sinh_K`` is sinh's Maclaurin sum
through degree ``2K + 1``; so the run's L terms ``e^(p/q) S_K`` add up to
``L (e - 1) sinh_K(1/q) / sinh(1/q)``, in which nothing cancels.  One
series gives every constant: with ``t_0 = 2^P`` and
``t_k = floor(t_(k-1) / (k q))`` until ``t_n = 0``, as
``t_k ~ 2^P / (k! q^k)``,

    r = sum over k < n of t_k ~ e^(1/q) 2^P,
    odd = sum over odd k < n of t_k ~ sinh(1/q) 2^P,
    odd_K = sum over odd k < n, k <= 2K + 1, of t_k ~ sinh_K(1/q) 2^P,

and ``E ~ e 2^P`` is ``r^q`` by left-to-right binary powering, each square
and each multiply by ``r`` a product shifted right by ``P``.  The kernel
returns ``L (E - 2^P) odd_K`` over ``odd 2^P``.

Let ``u = 2^-P``.  Every quantity above is an underestimate, so its error
is a deficit, and deficits add: ``(1 - a)(1 - b) >= 1 - a - b`` and
``(1 - a)^m >= 1 - m a``.  Counting the floors, each of which loses less
than one unit:

- The series.  ``t_k`` falls short of ``2^P / (k! q^k)`` by less than
  2 units (by induction, as ``floor(x / (k q))`` loses less than one unit
  and divides the deficit carried in by ``k q``), and the terms left out
  from ``k = n`` on add up to less than 4, as ``t_n = 0`` and each is at
  most half the one before.  As ``r >= 2^P`` it falls short by less than
  ``(2n + 2) u`` relative.  ``odd`` and ``odd_K`` each lose less than 2
  units on each of at most ``n / 2`` odd terms and less than 4 on those
  left out, and the exact values of both are at least ``2^P / q``, so
  each falls short by less than ``q (n + 4) u`` relative.  As
  ``t_(n-1) >= 1``, ``(n - 1)! <= 2^P``, so ``n <= P + 2``.
- The powering.  Every product is at least ``2^P``, so its floor loses
  less than ``u`` relative.  With ``b = bits(q)``, a floor made at the
  j-th bit of q from the top is squared ``b - j`` more times, so it
  reaches ``E`` as a deficit below ``2^(b-j) u``; the first bit makes no
  floor, and each later one at most two, which add up to less than
  ``2^b u <= 2 q u``.  With ``r``'s deficit raised to the q-th power,
  ``E`` falls short of ``e 2^P`` by less than ``q (2n + 4) u`` relative,
  and ``E - 2^P`` short of ``(e - 1) 2^P`` by ``e / (e - 1) < 1.59``
  times that, less than ``q (3.2n + 6.4) u``.

A quotient of underestimates can land on either side.  The run's value
``(E - 2^P) odd_K / (odd 2^P)`` falls short of
``(e - 1) sinh_K(1/q) / sinh(1/q)`` by less than ``q (4.2n + 10.4) u``
relative, and exceeds it, through ``odd`` alone, by less than
``2 q (n + 4) u``; both are below ``delta = q (4.2n + 11) u``.  The kernel
takes ``X = B + bits(q)`` with ``B = ceil(wp log2 10)`` and
``P = X + 2 bits(X) + 10``.  Then ``2^(P - B - 6) > 16 q X^2``, while
``4.2n + 11 <= 4.2P + 20 <= 12.6X + 62 <= 16 X^2`` as ``X >= 5``, so
``delta < 2^(-B-6) <= 10^-wp / 64``.  A relative error ``x`` is at most
``x 10^wp`` ulp at ``wp``, so the run's one quotient lies within 0.516
ulp of the sum of ``e^(p/q) S_K`` over L.

A bind costs ``n <= P + 2`` divisions of a ``P``-bit int by a short one,
about ``2 bits(q)`` products of ``P``-bit ints, and one product for the
total, whose ``2P + bits(L)`` bits the engine converts by halves.
"""

from __future__ import annotations

from functools import partial
from math import ceil, comb, gcd, lcm, log2
from typing import Callable, NamedTuple

from .errors import EmiError, ExactModeUnsupportedError, UnknownIntegrandError
from .precision import Rat

#: ``kernel(wp, q, order)``, bound once per run at working precision ``wp``
#: (``None`` in exact mode), returns ``(total, scale)``: ``total / scale`` is
#: the sum over the midpoints ``p/q``, ``p = 1, 3, .., q - 1``, of the term
#: ``sum over k <= K of g_k / (2k + 1)``, ``g_k = c_2k / q^(2k)`` about
#: ``p/q``, ``K = order // 2``, which is L times the subinterval's integral
#: at ``q = 2L``; in float mode ``total`` is an int and ``scale`` a positive
#: int
Kernel = Callable[[int | None, int, int], tuple[object, int]]


#: Bits the float-mode fixed point carries beyond ``ceil(wp log2 10)``
_GUARD_BITS = 8


def _rational_kernel(a: Rat, b: Rat):  # a term binder
    # a / (1 + b t^2), on the integers of the module docstring's recurrence
    def bind(wp: int | None, q: int, order: int):
        (an, ad), (bn, bd) = a.as_integer_ratio(), b.as_integer_ratio()
        an *= bd  # g_0 = an q^2 / (ad N)
        exact, K, q2 = wp is None, order // 2, q * q
        scale = 1
        if not exact:
            B = ceil(wp * log2(10)) + _GUARD_BITS
            width = B + 2 * q.bit_length() + 3 * K.bit_length()
            an, ad, bn, bd = _round_parts(an, ad, bn, bd, width)
            # the unit 2^-F: q / 2 of them stay below 2^-B of 2 |g_0| / 3 at
            # p = 1, the largest |g_0|; F >= B (module docstring)
            num1, den1 = an * q2, ad * (bd * q2 + bn)  # g_0 at p = 1
            F = B + q.bit_length() + den1.bit_length() - num1.bit_length() + 1
            an, scale = an << F, 1 << F
        num, bq2, det = an * q2, bd * q2, bn * bn

        def term(p: int):  # exact mode, and float mode at K >= 2
            bp2 = bn * p * p
            n = bq2 + bp2  # N
            den = ad * n  # g_0 = num / den, times the scale
            if K == 0:
                return Rat(num, den)
            n2, h1 = n * n, bn * (3 * bp2 - bq2)
            trace = 2 * bn * (bp2 - bq2)
            if exact:  # X_k = den N^(2k) g_k; the sum is s / (den N^(2k) d)
                x0, x1, step = num, num * h1, det * n2
                s, d = num * (3 * n2 + h1), 3
                for k in range(2, K + 1):
                    x0, x1 = x1, trace * x1 - step * x0
                    odd = 2 * k + 1
                    m = odd // gcd(d, odd)  # d = lcm(1, 3, .., 2k + 1)
                    d *= m
                    s = s * n2 * m + x1 * (d // odd)
                return Rat(s, den * n2**K * d)
            g0, g1 = 1 << B, (h1 << B) // n2  # G_k = 2^B g_k / g_0, each rounded down
            acc = g0 + g1 // 3
            for k in range(2, K + 1):
                g0, g1 = g1, (trace * g1 - det * g0) // n2
                acc += g1 // (2 * k + 1)
            return (num * acc >> B) // den  # num carries 2^F, so >> B is exact

        if exact or K >= 2:
            return term, scale
        if K == 0:
            num_ad = num // ad  # floor(floor(num / ad) / N) = floor(num / (ad N))
            return (lambda p: num_ad // (bq2 + bn * p * p)), scale
        ad3, bn3, bn4q2 = 3 * ad, 3 * bn, 4 * bn * bq2

        def term1(p: int):  # g_0 + g_1 / 3 = num (3 N^2 + h_1) / (3 ad N^3)
            n = bq2 + bn * p * p  # 3 N^2 + h_1 = (3 N + 3 bn) N - 4 bn bd q^2
            return num * ((3 * n + bn3) * n - bn4q2) // (ad3 * n * n * n)

        return term1, scale

    return bind


def _round_parts(an: int, ad: int, bn: int, bd: int, width: int):
    # float mode: the parts of g_0 = an q^2 / (ad N) and of b = bn / bd,
    # rounded once to about ``width`` bits (module docstring)
    s = max(0, max(bn.bit_length(), bd.bit_length()) - width)
    if s:
        top = max(bn, bd)
        an, ad, bn, bd = an * (top >> s), ad * top, bn >> s, bd >> s
    s = max(0, min(abs(an).bit_length(), ad.bit_length()) - width)
    return an >> s, ad >> s, bn, bd


def pairwise_sum(term: Callable[[int], object], lo: int, hi: int):
    """Sum of ``term(lo), .., term(hi - 1)`` by a balanced tree in a fixed order.

    Every range of two or more terms splits at its midpoint, with no
    special two-leaf node, and each term is made at its one-term leaf, so
    the tree's shape depends only on ``hi - lo``: results are bit-identical
    however the terms are produced, the error of a rounded sum grows by
    O(log n) ulps, and at most O(log n) partial sums are alive at once.  It
    sums the exact-mode ``Fraction`` terms of a run, where its balanced
    operands spare a flat sum's long running total a gcd per term: at
    exact pi (1000, 6) the tree took 31 ms and a flat sum 133, against
    about 3 for the 1000 terms themselves (commit 5e90ebf, Python 3.11.7,
    2-vCPU Xeon VM).  It also sums :func:`emi.quadrature.closed_form_arctan`'s
    terms in both modes; float runs add ints with the built-in ``sum``.  A
    module-level function rather than a closure, whose self-reference would
    keep ``term`` alive until the next garbage collection.
    """
    if hi - lo == 1:
        return term(lo)
    mid = (lo + hi) // 2
    return pairwise_sum(term, lo, mid) + pairwise_sum(term, mid, hi)


def _summed(bind, wp: int | None, q: int, order: int):
    # partial(_summed, bind) is the kernel of the term binder ``bind``: its
    # terms at p = 1, 3, .., q - 1, added exactly, by the pairwise tree over
    # l = 1..q/2 in exact mode and as ints by the built-in sum in float mode
    term, scale = bind(wp, q, order)
    if wp is None:
        return pairwise_sum(lambda l: term(2 * l - 1), 1, q // 2 + 1), scale
    return sum(map(term, range(1, q, 2))), scale


def _exp_kernel(wp: int | None, q: int, order: int):
    if wp is None:
        raise ExactModeUnsupportedError(
            "integrand 'exp' does not support exact mode; use float mode"
        )
    # P bits: delta = q (4.2n + 11) 2^-P, with n <= P + 2 series floors,
    # stays below 10^-wp / 64 (module docstring)
    X = ceil(wp * log2(10)) + q.bit_length()
    P = X + 2 * X.bit_length() + 10
    return _exp_total(q, P, order // 2)


def _exp_total(q: int, P: int, K: int) -> tuple[int, int]:
    # the run's total and scale at P bits (module docstring), from the bind's
    # one series t_k = floor(t_(k-1) / (k q)), from t_0 = 2^P until it
    # reaches 0: the sums of every t_k, of the odd k and of the odd
    # k <= 2K + 1 are e^(1/q), sinh(1/q) and sinh_K(1/q), times 2^P
    t, k, r, odd, odd_k = 1 << P, 0, 0, 0, 0
    while t:
        r += t
        if k & 1:
            odd += t
            if k <= 2 * K + 1:
                odd_k += t
        k += 1
        t //= k * q
    e = r
    for bit in bin(q)[3:]:  # e = r^q ~ e 2^P, by binary powering
        e = e * e >> P
        if bit == "1":
            e = e * r >> P
    # the terms' sum L (e - 1) sinh_K(1/q) / sinh(1/q), times odd 2^P
    return q // 2 * (e - (1 << P)) * odd_k, odd << P


def _poly_kernel(k: int):  # a term binder
    def bind(wp: int | None, q: int, order: int):
        top = min(order, k) // 2  # c_2j is zero for 2j > k
        lam = lcm(*range(1, 2 * top + 2, 2))
        weights = [comb(k, 2 * j) * (lam // (2 * j + 1)) for j in range(top + 1)]
        low = k - 2 * top

        def term(p: int):
            p2, num = p * p, 0
            for w in weights:  # Horner in p^2
                num = num * p2 + w
            return num * p**low

        return term, lam * q**k

    return bind


class IntegrandSpec(NamedTuple):
    """A named integrand together with its run kernel.

    ``kernel(wp, q, order)`` binds the kernel to one run's working
    precision ``wp`` (``None`` in exact mode), denominator ``q = 2L`` and
    order, and returns ``(total, scale)``: ``total / scale`` is the sum
    over the midpoints ``p/q``, ``p = 1, 3, .., q - 1``, of the term
    ``sum over k <= K = order // 2 of g_k / (2k + 1)`` of the scaled even
    coefficients ``g_k = c_2k / q^(2k)`` about ``p/q``, which is L times
    the subinterval's integral, so ``total / (L scale)`` is the run's
    value.  In float mode both are ints: for ``poly:k`` the exact sum of
    exact terms, for the rational kernels the exact sum of terms each
    rounded down by less than one unit of the scale, and for ``exp`` a
    closed form within ``10^-wp / 64`` relative of the sum.  A bind
    depends on its arguments alone, so identical runs give identical
    totals.
    """

    name: str
    kernel: Kernel

    def __repr__(self) -> str:
        # leaves out the kernel, a closure whose repr is a memory address
        return f"IntegrandSpec(name={self.name!r})"


#: ``4 / (1 + t^2)``, whose integral over [0, 1] is pi; not in the registry
PI = IntegrandSpec("pi", partial(_summed, _rational_kernel(Rat(4), Rat(1))))


#: Largest ``k`` accepted in ``poly:k``.  In exact mode each term carries
#: about k times the center's digits, and so does the sum: at L = 50,
#: M = 2 an exact ``poly:10000`` run takes about a second and
#: ``poly:100000`` over a minute.
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
        return IntegrandSpec(name, partial(_summed, _rational_kernel(xr, xr * xr)))
    if x is not None:
        raise EmiError(f"integrand {name!r} takes no parameter x")
    if name == "exp":
        return IntegrandSpec(name, _exp_kernel)
    if name == "runge":
        return IntegrandSpec(name, partial(_summed, _rational_kernel(Rat(1), Rat(25))))
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
        return IntegrandSpec(name, partial(_summed, _poly_kernel(int(digits))))
    raise UnknownIntegrandError(f"unknown integrand {name!r}")
