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
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from decimal import Decimal
from typing import Sequence, Union

from .errors import EmiError
from .jets import IntegrandSpec
from .precision import GUARD_DIGITS, MIN_PRECISION, Rat, Real, arithmetic

Scalar = Union[Rat, Real]
Number = Union[Rat, Decimal]

THREADS_ENV_VAR = "EMI_THREADS"


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


def thread_limit() -> int:
    """Validated value of the EMI_THREADS environment variable.

    Runs are single-threaded whatever it says; a value that is not a
    positive integer is still a usage error.
    """
    raw = os.environ.get(THREADS_ENV_VAR)
    if raw is None:
        return 1
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        raise EmiError(f"{THREADS_ENV_VAR} must be a positive integer, got {raw!r}")
    return n


def emi_integrate(spec: IntegrandSpec, config: EmiConfig) -> QuadResult:
    """Integrate a registered integrand over [0, 1].

    The weights and the integrand's parameters are converted into the
    run's number type once; each subinterval then costs one O(M) kernel
    call and one fold.  The L terms are reduced pairwise in midpoint order.
    """
    thread_limit()  # a bad EMI_THREADS is still a usage error
    L, M = config.L, config.M
    frac, scope = config.arithmetic()
    with scope:
        coeffs = spec.kernel(frac)
        weights = [frac(w.numerator, w.denominator) for w in emi_weights(L, M)]
        terms = [
            emi_subinterval(coeffs(2 * l - 1, 2 * L, M), weights)
            for l in range(1, L + 1)
        ]
        total = pairwise_sum(terms)
    if config.mode == "float":
        total = Real(total, config.precision)
    return QuadResult(total, config, term_count(L, M))


def _closed_form_term(x: Number, L: int, M: int, l: int) -> Number:
    # finite-L summand of the arctangent identities at M = 0, 2, 6,
    # evaluated term by term exactly as the identities group them
    o = 2 * l - 1
    o2 = o * o
    x2 = x * x
    big_l2 = 4 * L * L
    d = big_l2 + o2 * x2
    term = (4 * L) * x / d
    if M >= 2:
        term = term - (4 * L) * x ** 3 * (big_l2 - 3 * o2 * x2) / (3 * d ** 3)
    if M == 6:
        x4 = x2 * x2
        x6 = x4 * x2
        term = term + (4 * L) * x ** 5 * (
            16 * L ** 4 - 40 * o2 * L * L * x2 + 5 * o2 * o2 * x4
        ) / (5 * d ** 5)
        term = term - (4 * L) * x ** 7 * (
            64 * L ** 6
            - 336 * o2 * L ** 4 * x2
            + 140 * o2 * o2 * L * L * x4
            - 7 * o2 * o2 * o2 * x6
        ) / (7 * d ** 7)
    return term


def closed_form_arctan(
    x: Rat,
    L: int,
    M: int,
    mode: str = "float",
    precision: int = 60,
) -> Scalar:
    """Finite-L value of the closed-form arctangent identities.

    Closed forms are implemented for M in {0, 2, 6}, written out term by
    term rather than derived from the coefficient kernels, so they serve as
    an independent cross-check: for rational x the two routes agree exactly
    in exact mode.
    """
    if M not in (0, 2, 6):
        raise ValueError(f"closed form only available for M in (0, 2, 6), got {M}")
    config = EmiConfig(L=L, M=M, mode=mode, precision=precision)
    xr = Rat(x)
    thread_limit()  # a bad EMI_THREADS is still a usage error
    frac, scope = config.arithmetic()
    with scope:
        xs = frac(xr.numerator, xr.denominator)
        total = pairwise_sum([_closed_form_term(xs, L, M, l) for l in range(1, L + 1)])
    if mode == "float":
        total = Real(total, precision)
    return total
