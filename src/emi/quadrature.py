"""Composite midpoint quadrature with per-subinterval Taylor corrections.

The interval [0, 1] is split into L equal subintervals with midpoints
``(2l - 1) / (2L)``.  On each subinterval the integrand is replaced by its
order-M Taylor expansion about the midpoint and integrated analytically,
which collapses to the weighted coefficient sum

    sum over k <= M/2 of  c_2k * w_2k,   w_2k = 2 / ((2L)^(2k+1) (2k+1))

because the odd powers integrate to zero over the symmetric subinterval.
The kernels of :mod:`emi.jets` therefore make only the even coefficients
``c_0, c_2, .., c_2K`` (``K = M // 2``), and :func:`emi_subinterval` folds
them against the ``K + 1`` weights of :func:`emi_weights`, built once per
run.  M = 0 is exactly the classical composite midpoint rule; every
increase of M by 2 raises the convergence order by 2, and an odd M gives
the same sum as M - 1.

The weights come from the running product ``P_k = 1 / (L (4L^2)^k)``, as
``w_2k = P_k / (2k + 1)``: O(M) operations per run, none of them on the
integer ``(2L)^(2k+1)``.  In float mode at working precision ``wp`` the
product runs at ``W = wp + d + 3`` digits, where ``d`` is the digit count
of M, and each weight is then rounded once to ``wp``:

- ``P_k`` carries the roundings of ``1/L``, of ``1/(4L^2)`` (which enters
  k times) and of k products, and ``w_2k`` one more: ``2k + 2`` relative
  errors of at most ``10^(1-W) / 2`` each.  A relative error ``r`` is at
  most ``r 10^wp`` ulps at ``wp``, so the wide weight lies within
  ``(k + 1) 10^(1+wp-W) = (k + 1) 10^(-d-2)`` ulp of ``w_2k``.  As
  ``k + 1 <= M/2 + 1 <= (10^d + 1) / 2``, that is at most 0.0055 ulp.
- Rounding it once to ``wp`` adds at most 0.5 ulp, so every weight lies
  within 0.51 ulp of its exact value, against 0.5 ulp for a correctly
  rounded one.

Every formula is written once, with plain operators, over the run's number
type from :func:`~emi.precision.arithmetic`.  Exact mode evaluates it on
``Fraction``s and serves as the correctness oracle for float mode, which
evaluates it on raw ``Decimal`` values inside ``decimal.localcontext`` of
one context at a working precision of ``config.precision + GUARD_DIGITS``,
and wraps only the final result in :class:`~emi.precision.Real`.  The
engine hands each kernel its midpoint exactly, as the integers ``2l - 1``
and ``2L``; seeding the center, or ``e^center``, at working precision is
the kernel's job.  Runs are single-threaded.  Sums are reduced with a
balanced pairwise tree in a fixed order, so identical inputs give
bit-identical results.

For the arctangent kernel the sum has a closed form for every M, which
:func:`closed_form_arctan` evaluates without ``emi.jets``, so that the two
routes cross-check each other.  For real t, ``x / (1 + x^2 t^2)`` is
``x Re 1/(1 + i x t)``; about ``c = (2l - 1)/(2L)`` the geometric series gives
``1/(1 + i x (c + e)) = sum over n of (-i x e)^n / (1 + i x c)^(n+1)``, and
``e^(2k)`` integrates over ``|e| <= 1/(2L)`` to ``2 / ((2L)^(2k+1) (2k+1))``.
With ``z_l = 2L (1 + i x c) = 2L + i x (2l - 1)`` the order-M sum is

    2x * sum over l of  Re sum over k <= M/2 of  (-1)^k x^(2k) / ((2k+1) z_l^(2k+1))
      = 2 * sum over l of  Re T(x / z_l),

where ``T(y) = sum over k <= M/2 of (-1)^k y^(2k+1) / (2k+1)`` is arctan's
Maclaurin series cut after degree M + 1.  As ``|x / z_l| < 1``, letting M
grow gives the identity ``arctan x = 2 * sum over l of Re arctan(x / z_l)``.
Each l starts from ``y_0 = x / z_l = x conj(z_l) / |z_l|^2`` and each k
costs one complex multiply, ``y_k = -y_0^2 y_(k-1)``, and one division,
``Re y_k / (2k + 1)``, all on (re, im) pairs in the run's number type.  In
float mode every step rounds to working precision, so its cost grows
neither with k nor with the length of the numeral x.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import getcontext
from typing import Callable, Sequence, Union

from .jets import IntegrandSpec
from .precision import GUARD_DIGITS, MIN_PRECISION, Rat, Real, arithmetic

Scalar = Union[Rat, Real]


def _check_L_M(L: int, M: int) -> None:
    # the one statement of which (L, M) a run accepts
    if L < 1:
        raise ValueError(f"L must be >= 1, got {L}")
    if M < 0:
        raise ValueError(f"M must be >= 0, got {M}")


@dataclass(frozen=True)
class EmiConfig:
    """Parameters of one quadrature run.

    ``L`` subintervals, Taylor order ``M``, arithmetic ``mode`` ("exact" or
    "float"), and for float mode the significant-digit count ``precision``
    the result should be trusted to.
    """

    L: int
    M: int
    mode: str = "float"
    precision: int = 60

    def __post_init__(self):
        _check_L_M(self.L, self.M)
        if self.mode not in ("exact", "float"):
            raise ValueError(f"mode must be 'exact' or 'float', got {self.mode!r}")
        if self.mode == "float" and self.precision < MIN_PRECISION:
            raise ValueError(
                f"precision must be >= {MIN_PRECISION}, got {self.precision}"
            )

    @property
    def working_precision(self) -> int:
        return self.precision + GUARD_DIGITS

    def arithmetic(self):
        return arithmetic(self.working_precision if self.mode == "float" else None)


@dataclass(frozen=True)
class QuadResult:
    """Value of one quadrature run and its count of nonzero summands."""

    value: Scalar
    term_count: int


def term_count(L: int, M: int) -> int:
    """Nonzero summands in the truncated double sum: L * (floor(M/2) + 1)."""
    _check_L_M(L, M)
    return L * (M // 2 + 1)


def emi_weights(L: int, M: int, frac: Callable = Rat) -> list:
    """Weights ``w_0, w_2, .., w_2K`` of the even coefficients, ``K = M // 2``.

    ``w_2k = 2 / ((2L)^(2k+1) (2k+1))`` multiplies the Taylor coefficient
    ``c_2k = f^(2k)/(2k)!``, the factorial having been cancelled against the
    analytic subinterval integral.  ``frac`` is the run's, from
    :func:`~emi.precision.arithmetic`: ``Rat`` gives exact rationals, and a
    float-mode ``frac``, called inside the run's scope, gives ``Decimal``s
    within 0.51 ulp at working precision (see the module docstring).
    """
    _check_L_M(L, M)
    wide_frac, wide_scope = arithmetic(
        None if frac is Rat else getcontext().prec + len(str(M)) + 3
    )
    with wide_scope:
        product, step = wide_frac(1, L), wide_frac(1, 4 * L * L)
        wide = [product]
        for k in range(1, M // 2 + 1):
            product *= step
            wide.append(product / (2 * k + 1))
    return [+w for w in wide]  # each rounded once, to working precision


def emi_subinterval(coeffs: Sequence, weights: Sequence):
    """Analytic integral of one subinterval's Taylor expansion.

    Folds the even coefficients ``c_0, c_2, .., c_2K`` against the weights
    of :func:`emi_weights`, two lists of equal length, both already in the
    run's number type.  Float mode calls it inside the run's scope.
    """
    acc = coeffs[0] * weights[0]
    for k in range(1, len(coeffs)):
        acc += coeffs[k] * weights[k]
    return acc


def pairwise_sum(values: Sequence):
    """Balanced-tree reduction in a fixed order.

    Bounds float-mode error growth to O(log n) ulps and, because the tree
    shape depends only on the length, guarantees bit-identical results
    regardless of how the values were produced.  Float mode calls it inside
    the run's scope.
    """
    if not values:
        raise ValueError("cannot reduce an empty sequence")
    return _reduce(values, 0, len(values))


def _reduce(values: Sequence, lo: int, hi: int):
    # sum of values[lo:hi], split at the midpoint; a module-level function
    # rather than a closure, whose self-reference would keep `values` alive
    # until the next garbage collection
    if hi - lo == 1:
        return values[lo]
    mid = (lo + hi) // 2
    return _reduce(values, lo, mid) + _reduce(values, mid, hi)


def _evaluate(config: EmiConfig, terms: Callable[[Callable], list]) -> Scalar:
    # the run frame the engine and the closed form share: ``terms(frac)``
    # lists the L subinterval terms in the run's number type, reduced
    # inside the run's scope and, in float mode, rounded once to precision
    frac, scope = config.arithmetic()
    with scope:
        total = pairwise_sum(terms(frac))
    if config.mode == "float":
        total = Real(total, config.precision)
    return total


def emi_integrate(spec: IntegrandSpec, config: EmiConfig) -> QuadResult:
    """Integrate a registered integrand over [0, 1].

    The weights are built and the integrand's parameters converted into
    the run's number type once; each subinterval then costs one O(M) kernel
    call and one fold, over the even coefficients only.  The L terms are
    reduced pairwise in midpoint order.
    """
    L, M = config.L, config.M

    def terms(frac):
        coeffs = spec.kernel(frac)
        weights = emi_weights(L, M, frac)
        return [
            emi_subinterval(coeffs(2 * l - 1, 2 * L, M), weights)
            for l in range(1, L + 1)
        ]

    return QuadResult(_evaluate(config, terms), term_count(L, M))


def _closed_form_terms(x: Rat, L: int, M: int, frac) -> list:
    # 2 Re T(x / z_l) for l = 1..L, as derived in the module docstring
    xs = frac(x.numerator, x.denominator)
    two_lx, four_l2 = 2 * L * xs, 4 * L * L
    terms = []
    for l in range(1, L + 1):
        b = xs * (2 * l - 1)  # z_l = 2L + ib
        n = four_l2 + b * b  # |z_l|^2
        re, im = two_lx / n, -xs * b / n  # y_0 = x / z_l
        g_re, g_im = im * im - re * re, -2 * re * im  # -y_0^2
        term = re
        for k in range(1, M // 2 + 1):
            re, im = re * g_re - im * g_im, re * g_im + im * g_re
            term += re / (2 * k + 1)
        terms.append(2 * term)
    return terms


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
    exactly in exact mode.
    """
    config = EmiConfig(L=L, M=M, mode=mode, precision=precision)
    return _evaluate(config, lambda frac: _closed_form_terms(Rat(x), L, M, frac))
