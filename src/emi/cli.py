"""Command-line front end.

Subcommands: ``pi``, ``arctan``, ``integrate``, ``scan``, ``verify``.
Output formats: plain text (default), CSV, or canonical JSON.  The three
value subcommands, ``pi``, ``arctan`` and ``integrate``, take their run
flags from one parent parser, have ``--digits`` checked before anything
else, and make their one engine run and shared fields through
:func:`_run`.  Every subcommand builds its payload, CSV rows and text
lines once and hands them to :func:`_emit`, the one printer, so this
module alone turns a result into bytes; ``scan`` and ``verify`` build
their rows by zipping a column tuple with each record.  Exit codes are a
stable contract: 0 success, 1 verification failure, 2 usage error,
3 precision error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from . import __version__
from .errors import EmiError, PrecisionExceededError
from .jets import PI, get_integrand
from .pi_suite import convergence_scan, matched_digits
from .precision import as_rat, exact_text, render
from .precision import context as precision_context
from .quadrature import EmiConfig, QuadResult, closed_form_arctan, emi_integrate
from .selftest import group_names, run_selftest


def _int_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma list of integers: {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("list must not be empty")
    return values


def _add_common(parser: argparse.ArgumentParser, digits: bool = True) -> None:
    parser.add_argument("--mode", choices=("exact", "float"), default="float")
    parser.add_argument("--precision", type=int, default=60,
                        help="significant digits the result is trusted to (float mode)")
    if digits:
        parser.add_argument("--digits", type=int, default=50,
                            help="significant digits to print (must be <= precision)")
    parser.add_argument("--format", choices=("text", "csv", "json"), default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emi",
        description="Midpoint quadrature with Taylor-corrected subintervals",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    # pi, arctan and integrate share their run flags
    value = argparse.ArgumentParser(add_help=False)
    value.add_argument("--L", type=int, required=True, help="subinterval count")
    value.add_argument("--M", type=int, required=True, help="Taylor correction order")
    _add_common(value)

    p = sub.add_parser("pi", parents=[value], help="compute pi = 4 * arctan(1)")
    p.set_defaults(handler=_cmd_pi)

    p = sub.add_parser("arctan", parents=[value],
                       help="compute arctan(x) for rational x")
    p.add_argument("--x", required=True,
                   help="rational 'p/q' or decimal string; write a negative one "
                        "as --x=-5/3")
    p.set_defaults(handler=_cmd_arctan)

    p = sub.add_parser("integrate", parents=[value],
                       help="integrate a named integrand over [0, 1]")
    p.add_argument("--integrand", required=True,
                   help="arctan-kernel | exp | runge | poly:k")
    p.add_argument("--x", default=None,
                   help="parameter for arctan-kernel; write a negative one as --x=-5/3")
    p.set_defaults(handler=_cmd_integrate)

    p = sub.add_parser("scan", help="convergence scan over (L, M) grids")
    p.add_argument("--L", type=_int_list, required=True, help="comma list, e.g. 8,16,32")
    p.add_argument("--M", type=_int_list, required=True, help="comma list, e.g. 0,2,6")
    _add_common(p, digits=False)
    p.set_defaults(handler=_cmd_scan)

    p = sub.add_parser("verify", help="run the cross-module invariant suites")
    p.add_argument("--group", choices=group_names(), default=None,
                   help="run a single group instead of all of them")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=_cmd_verify)

    return parser


def _check_digits(args) -> None:
    if args.digits < 1:
        raise EmiError("--digits must be >= 1")
    if args.digits > args.precision:
        raise PrecisionExceededError(
            f"--digits {args.digits} exceeds --precision {args.precision}"
        )


def _run(args, spec, **inputs) -> tuple[QuadResult, dict]:
    # one engine run, and the fields every value subcommand shares, in
    # output order
    result = emi_integrate(spec, EmiConfig(L=args.L, M=args.M, mode=args.mode,
                                           precision=args.precision))
    return result, {
        **inputs,
        "L": args.L,
        "M": args.M,
        "mode": args.mode,
        "precision": args.precision,
        "exact": exact_text(result.value) if args.mode == "exact" else None,
        "value": render(result.value, args.digits),
    }


def _emit(payload, fmt: str, rows: list[dict], text) -> None:
    # the one printer: canonical JSON (sorted keys, two-space indent, a
    # final newline) that re-serializes byte-identically; CSV with the
    # first row's keys as header and None as an empty cell; or text lines
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif fmt == "csv":
        writer = csv.DictWriter(sys.stdout, rows[0], lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    else:
        for line in text:
            print(line)


def _emit_fields(args, result: QuadResult, fields: dict) -> None:
    fields["termCount"] = result.term_count
    _emit(fields, args.format, [fields],
          (f"{key} = {val}" for key, val in fields.items() if val is not None))


def _cmd_pi(args) -> int:
    result, fields = _run(args, PI)
    fields["matchedDigits"] = matched_digits(fields["value"])
    _emit_fields(args, result, fields)
    return 0


def _agreement_ok(value, closed, mode: str, precision: int) -> bool:
    # in float mode the routes may differ by |closed| * 10^(2 - precision),
    # 10 to 100 units in the last of `precision` digits
    if mode == "exact":
        return value == closed
    ctx = precision_context(precision)
    gap = ctx.subtract(value.value, closed.value).copy_abs()
    return gap <= closed.value.copy_abs().scaleb(2 - precision, ctx)


def _cmd_arctan(args) -> int:
    x = as_rat(args.x)
    result, fields = _run(args, get_integrand("arctan-kernel", x), x=exact_text(x))
    closed = closed_form_arctan(x, args.L, args.M, mode=args.mode,
                                precision=args.precision)
    agreed = _agreement_ok(result.value, closed, args.mode, args.precision)
    fields["closedForm"] = render(closed, args.digits)
    fields["agreement"] = "ok" if agreed else "mismatch"
    _emit_fields(args, result, fields)
    return 0 if agreed else 1


def _cmd_integrate(args) -> int:
    x = None if args.x is None else as_rat(args.x)
    result, fields = _run(args, get_integrand(args.integrand, x),
                          integrand=args.integrand, x=None if x is None else exact_text(x))
    _emit_fields(args, result, fields)
    return 0


_SCAN_COLUMNS = ("L", "M", "value", "matchedDigits", "absError", "estOrder")


def _cmd_scan(args) -> int:
    report = convergence_scan(args.L, args.M, mode=args.mode,
                              precision=args.precision)
    # the columns name ScanRow's fields in order
    rows = [dict(zip(_SCAN_COLUMNS, row)) for row in report.rows]
    lines = [f"{'L':>6} {'M':>4}  {'value':<34} {'matched':>7}  {'abs_error':<12} {'est_order':>9}"]
    for row in report.rows:
        shown = row.value if len(row.value) <= 34 else row.value[:31] + "..."
        order = "-" if row.est_order is None else f"{row.est_order:.4f}"
        lines.append(f"{row.L:>6} {row.M:>4}  {shown:<34} {row.matched:>7}  "
                     f"{row.abs_error:<12} {order:>9}")
    payload = {"mode": report.mode, "precision": report.precision, "rows": rows}
    _emit(payload, args.format, rows, lines)
    return 0


_VERIFY_COLUMNS = ("name", "passed", "cases", "firstFailure")


def _cmd_verify(args) -> int:
    results = run_selftest(None if args.group is None else [args.group])
    # the columns name GroupResult's fields in order
    rows = [dict(zip(_VERIFY_COLUMNS, r)) for r in results]
    lines = [f"{'PASS' if r.passed else 'FAIL'} {r.name} ({r.cases} cases)"
             + (f": {r.first_failure}" if r.first_failure else "") for r in results]
    _emit({"groups": rows}, args.format, rows, lines)
    return 0 if all(r.passed for r in results) else 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if "digits" in args:  # before --x is parsed: a bad --digits wins
            _check_digits(args)
        return args.handler(args)
    except PrecisionExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (EmiError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
