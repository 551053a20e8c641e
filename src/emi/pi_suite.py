"""Pi computation via the arctangent identity pi = 4 * arctan(1).

Builds on the quadrature engine: ``pi_emi`` runs the generic
recurrence-based evaluation of the arctangent kernel at x = 1, and
``convergence_scan`` sweeps (L, M) grids, counting how many leading digits
of each result coincide with a reference expansion of pi and estimating
empirical convergence orders.

The reference expansion is embedded to 150 significant digits.  Its first
50 digits are checked at import time against an independently recorded
prefix; the full string is cross-checked in the test suite by an exact
rational arctangent-series evaluation with two-sided truncation bounds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from decimal import Decimal
from io import StringIO
import csv

from .errors import NumeralParseError, PrecisionExceededError
from .jets import get_integrand
from .precision import (
    GUARD_DIGITS,
    Rat,
    Real,
    context,
    rat_to_real,
    render,
    render_decimal,
)
from .quadrature import EmiConfig, Scalar, emi_integrate
from .quadrature import term_count  # noqa: F401  (re-exported)

#: First 150 significant digits of pi (decimal point removed).
_PI_150 = (
    "3141592653589793238462643383279502884197169399375105820974944592307816"
    "40628620899862803482534211706798214808651328230664709384460955058223172535940812"
)

#: Independently recorded 50-digit prefix used as a startup cross-check.
_FIFTY_DIGIT_CHECK = "31415926535897932384626433832795028841971693993751"


@dataclass(frozen=True)
class ReferencePi:
    """A reference decimal expansion of pi, significant digits only."""

    digits: str

    def __post_init__(self):
        if len(self.digits) < 120:
            raise ValueError("reference expansion must carry at least 120 digits")
        if not self.digits.isdigit():
            raise ValueError("reference expansion must be decimal digits only")

    def as_string(self, digits: int | None = None) -> str:
        """The expansion as a printable numeral, truncated to ``digits``."""
        d = self.digits if digits is None else self.digits[:digits]
        return d[0] + "." + d[1:]

    def as_decimal(self, digits: int) -> Decimal:
        return Decimal(self.as_string(min(digits, len(self.digits))))


REFERENCE_PI = ReferencePi(_PI_150)

if not _PI_150.startswith(_FIFTY_DIGIT_CHECK):  # pragma: no cover
    raise RuntimeError("embedded pi expansion fails its 50-digit startup check")


def pi_emi(L: int, M: int, mode: str = "float", precision: int = 60) -> Scalar:
    """Pi from the generic engine: 4 * integral of 1/(1 + t^2) over [0, 1]."""
    spec = get_integrand("arctan-kernel", Rat(1))
    config = EmiConfig(L=L, M=M, mode=mode, precision=precision)
    value = emi_integrate(spec, config).value
    if isinstance(value, Real):
        # rounded once to the float result's precision
        return Real(context(precision).multiply(4, value.value), precision)
    return 4 * value


def _significant_digits(numeral: str) -> str:
    s = numeral.strip()
    if s.startswith(("+", "-")):
        s = s[1:]
    if not s or s.count(".") > 1 or not s.replace(".", "").isdigit():
        raise NumeralParseError(f"not a decimal numeral: {numeral!r}")
    return s.replace(".", "").lstrip("0")


def matched_digits(value_string: str, reference: ReferencePi = REFERENCE_PI) -> int:
    """Leading significant digits shared with the reference expansion.

    The decimal point is ignored and does not count; counting stops at the
    first mismatching digit.  Raises :class:`PrecisionExceededError` when
    the value matches every reference digit and carries more, since its
    count would then be capped at the reference's length.
    """
    digits = _significant_digits(value_string)
    count = 0
    for a, b in zip(digits, reference.digits):
        if a != b:
            break
        count += 1
    if count == len(reference.digits) < len(digits):
        raise PrecisionExceededError(
            f"value matches all {count} reference digits of pi and carries "
            f"{len(digits)}; digits past {count} cannot be counted"
        )
    return count


@dataclass(frozen=True)
class ScanRow:
    L: int
    M: int
    value: str
    matched: int
    abs_error: str
    est_order: float | None


@dataclass(frozen=True)
class ConvergenceReport:
    """Rows of a (L, M) scan, sorted by (M, L), plus run metadata."""

    mode: str
    precision: int
    rows: tuple[ScanRow, ...]


def _row_error(value: Scalar, working: int, reference: ReferencePi) -> Decimal:
    ref = reference.as_decimal(working)
    if isinstance(value, Real):
        dec = value.value
    else:
        dec = rat_to_real(value, working).value
    return context(working).subtract(dec, ref).copy_abs()


def convergence_scan(
    L_values,
    M_values,
    mode: str = "float",
    precision: int = 60,
    reference: ReferencePi = REFERENCE_PI,
) -> ConvergenceReport:
    """Evaluate pi for every (L, M) pair and report digit counts and orders.

    Where an L value is exactly double its predecessor within the same M,
    the row carries the empirical order ``log2(error(L/2) / error(L))``.
    Raises :class:`PrecisionExceededError` when a row's result coincides
    with the reference through every rendered digit, since the first
    mismatch (and hence the true digit count) is then out of reach.
    """
    if not L_values or not M_values:
        raise ValueError("L_values and M_values must be non-empty")
    working = precision + GUARD_DIGITS
    ctx = context(working)
    ln2 = ctx.ln(Decimal(2))
    errors: dict[tuple[int, int], Decimal] = {}
    rows = []
    for M in sorted(set(M_values)):
        for L in sorted(set(L_values)):
            value = pi_emi(L, M, mode=mode, precision=precision)
            rendered = render(value, precision)
            # an exact rendering stops where a terminating expansion ends,
            # which continues with zeros; a float rendering shows all
            # `precision` digits, the last one rounded, so a mismatch there
            # (or none at all) is not resolvable
            padded = _significant_digits(rendered).ljust(precision, "0")
            matched = matched_digits(padded, reference)
            if matched >= precision - (mode == "float"):
                raise PrecisionExceededError(
                    f"row (L={L}, M={M}): first mismatch not resolvable within "
                    f"{precision} digits; raise precision above {precision}"
                )
            err = _row_error(value, working, reference)
            if err == 0:
                raise PrecisionExceededError(
                    f"row (L={L}, M={M}): error underflows working precision "
                    f"{working}; raise precision above {precision}"
                )
            errors[(M, L)] = err
            prev = errors.get((M, L // 2)) if L % 2 == 0 else None
            if prev is not None:
                order = ctx.divide(ctx.subtract(ctx.ln(prev), ctx.ln(err)), ln2)
                est_order: float | None = round(float(order), 4)
            else:
                est_order = None
            rows.append(
                ScanRow(
                    L=L,
                    M=M,
                    value=rendered,
                    matched=matched,
                    abs_error=render_decimal(Real(err, working), 6),
                    est_order=est_order,
                )
            )
    return ConvergenceReport(mode=mode, precision=precision, rows=tuple(rows))


def report_to_json(report: ConvergenceReport) -> str:
    """Canonical JSON form; parsing and re-rendering is byte-stable."""
    payload = {
        "mode": report.mode,
        "precision": report.precision,
        "rows": [
            {
                "L": row.L,
                "M": row.M,
                "value": row.value,
                "matchedDigits": row.matched,
                "absError": row.abs_error,
                "estOrder": row.est_order,
            }
            for row in report.rows
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def report_to_csv(report: ConvergenceReport) -> str:
    out = StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["L", "M", "value", "matchedDigits", "absError", "estOrder"])
    for row in report.rows:
        writer.writerow(
            [
                row.L,
                row.M,
                row.value,
                row.matched,
                row.abs_error,
                "" if row.est_order is None else row.est_order,
            ]
        )
    return out.getvalue()
