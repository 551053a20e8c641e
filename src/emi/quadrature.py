"""Composite midpoint quadrature with per-subinterval Taylor corrections.

The interval [0, 1] is split into L equal subintervals with midpoints
``(2l - 1) / (2L)``.  On each subinterval the integrand is replaced by its
order-M Taylor expansion about the midpoint and integrated analytically,
which collapses to the weighted coefficient sum

    sum over even m of  c_m * 2 / ((2L)^(m+1) * (m + 1))

because the odd powers integrate to zero over the symmetric subinterval.
M = 0 is exactly the classical composite midpoint rule; every increase of M
by 2 raises the convergence order by 2.

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
from typing import Callable, Sequence, Union

from .jets import IntegrandSpec
from .precision import GUARD_DIGITS, MIN_PRECISION, Rat, Real, arithmetic

Scalar = Union[Rat, Real]


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
        if self.L < 1:
            raise ValueError(f"L must be >= 1, got {self.L}")
        if self.M < 0:
            raise ValueError(f"M must be >= 0, got {self.M}")
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
    """Value of one quadrature run plus the inputs that produced it."""

    value: Scalar
    config: EmiConfig
    term_count: int


def term_count(L: int, M: int) -> int:
    """Nonzero summands in the truncated double sum: L * (floor(M/2) + 1)."""
    if L < 1:
        raise ValueError(f"L must be >= 1, got {L}")
    if M < 0:
        raise ValueError(f"M must be >= 0, got {M}")
    return L * (M // 2 + 1)


def emi_weights(L: int, M: int) -> list[Rat]:
    """Per-coefficient weights w_0 .. w_M as exact rationals.

    ``w_m = 2 / ((2L)^(m+1) * (m+1))`` for even m and 0 for odd m.  The
    weight multiplies the Taylor coefficient ``c_m = f^(m)/m!``, the
    factorial having been cancelled against the analytic subinterval
    integral.
    """
    if L < 1:
        raise ValueError(f"L must be >= 1, got {L}")
    if M < 0:
        raise ValueError(f"M must be >= 0, got {M}")
    weights = []
    for m in range(M + 1):
        if m % 2:
            weights.append(Rat(0))
        else:
            weights.append(Rat(2, (2 * L) ** (m + 1) * (m + 1)))
    return weights


def emi_subinterval(coeffs: Sequence, weights: Sequence):
    """Analytic integral of one subinterval's Taylor expansion.

    Folds the coefficients ``c_0 .. c_M`` against the weights of
    :func:`emi_weights`, both already in the run's number type, over even m
    only.  Float mode calls it inside the run's scope.
    """
    acc = coeffs[0] * weights[0]
    for m in range(2, len(coeffs), 2):
        acc += coeffs[m] * weights[m]
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

    The weights and the integrand's parameters are converted into the
    run's number type once; each subinterval then costs one O(M) kernel
    call and one fold.  The L terms are reduced pairwise in midpoint order.
    """
    L, M = config.L, config.M

    def terms(frac):
        coeffs = spec.kernel(frac)
        weights = [frac(w.numerator, w.denominator) for w in emi_weights(L, M)]
        return [
            emi_subinterval(coeffs(2 * l - 1, 2 * L, M), weights)
            for l in range(1, L + 1)
        ]

    return QuadResult(_evaluate(config, terms), config, term_count(L, M))


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
