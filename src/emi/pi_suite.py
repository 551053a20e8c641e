"""Pi as the integral of 4/(1 + t^2) over [0, 1], that is, 4 * arctan(1).

Builds on the quadrature engine: ``pi_emi`` runs it on the integrand
:data:`~emi.jets.PI`, so a float result is the engine's sum rounded once to
``precision`` digits, like every other integral.  ``convergence_scan``
sweeps (L, M) grids, counting how many leading digits of each result
coincide with a reference expansion of pi and estimating empirical
convergence orders.  :func:`dump_json` and :func:`dump_csv` are the one
JSON and the one CSV writer of every ``emi`` subcommand.

The reference is the constant :data:`PI_DIGITS`, the first 150 significant
digits of pi.  Its first 50 digits are checked at import time against an
independently recorded prefix; the full string is cross-checked in the test
suite by an exact rational arctangent-series evaluation with two-sided
truncation bounds.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from decimal import Decimal
from io import StringIO
from typing import Collection, Iterable

from .errors import NumeralParseError, PrecisionExceededError
from .jets import PI
from .precision import (
    GUARD_DIGITS,
    Real,
    context,
    rat_to_real,
    render,
    render_decimal,
)
from .quadrature import EmiConfig, Scalar, emi_integrate
from .quadrature import term_count  # noqa: F401  (re-exported)

#: First 150 significant digits of pi (decimal point removed): the reference
#: every matched-digit count and absolute error is measured against.
PI_DIGITS = (
    "3141592653589793238462643383279502884197169399375105820974944592307816"
    "40628620899862803482534211706798214808651328230664709384460955058223172535940812"
)

#: Independently recorded 50-digit prefix used as a startup cross-check.
_FIFTY_DIGIT_CHECK = "31415926535897932384626433832795028841971693993751"

if not PI_DIGITS.startswith(_FIFTY_DIGIT_CHECK):  # pragma: no cover
    raise RuntimeError("embedded pi expansion fails its 50-digit startup check")


def pi_emi(L: int, M: int, mode: str = "float", precision: int = 60) -> Scalar:
    """Pi from the engine: the integral of 4/(1 + t^2) over [0, 1].

    One run on :data:`~emi.jets.PI`; in float mode its sum is rounded once,
    to ``precision`` digits.
    """
    return emi_integrate(PI, EmiConfig(L=L, M=M, mode=mode, precision=precision)).value


def _significant_digits(numeral: str) -> str:
    s = numeral.strip()
    if s.startswith(("+", "-")):
        s = s[1:]
    if not s or s.count(".") > 1 or not s.replace(".", "").isdigit():
        raise NumeralParseError(f"not a decimal numeral: {numeral!r}")
    return s.replace(".", "").lstrip("0")


def matched_digits(value_string: str) -> int:
    """Leading significant digits shared with :data:`PI_DIGITS`.

    The decimal point is ignored and does not count; counting stops at the
    first mismatching digit.  Raises :class:`PrecisionExceededError` when
    the value matches every reference digit and carries more, since its
    count would then be capped at the reference's length.
    """
    digits = _significant_digits(value_string)
    count = 0
    for a, b in zip(digits, PI_DIGITS):
        if a != b:
            break
        count += 1
    if count == len(PI_DIGITS) < len(digits):
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


def _row_error(value: Scalar, working: int) -> Decimal:
    ref = Decimal(PI_DIGITS[0] + "." + PI_DIGITS[1:working])
    if isinstance(value, Real):
        dec = value.value
    else:
        dec = rat_to_real(value, working).value
    return context(working).subtract(dec, ref).copy_abs()


def convergence_scan(
    L_values, M_values, mode: str = "float", precision: int = 60
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
            matched = matched_digits(padded)
            if matched >= precision - (mode == "float"):
                raise PrecisionExceededError(
                    f"row (L={L}, M={M}): first mismatch not resolvable within "
                    f"{precision} digits; raise precision above {precision}"
                )
            err = _row_error(value, working)
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


def dump_json(payload) -> str:
    """Canonical JSON: sorted keys, two-space indent and a final newline.

    Parsing the text and dumping it again gives the same bytes.
    """
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def dump_csv(header: Collection[str], rows: Iterable[dict]) -> str:
    """CSV text: the header line, then one line per row; ``None`` is an empty cell."""
    out = StringIO()
    writer = csv.DictWriter(out, header, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return out.getvalue()


_SCAN_COLUMNS = ("L", "M", "value", "matchedDigits", "absError", "estOrder")


def _scan_fields(row: ScanRow) -> dict:
    return dict(zip(_SCAN_COLUMNS, (row.L, row.M, row.value, row.matched,
                                    row.abs_error, row.est_order)))


def report_to_json(report: ConvergenceReport) -> str:
    """Canonical JSON form; parsing and re-rendering is byte-stable."""
    return dump_json({
        "mode": report.mode,
        "precision": report.precision,
        "rows": [_scan_fields(row) for row in report.rows],
    })


def report_to_csv(report: ConvergenceReport) -> str:
    return dump_csv(_SCAN_COLUMNS, map(_scan_fields, report.rows))
