"""Command-line front end.

Subcommands: ``pi``, ``arctan``, ``integrate``, ``scan``, ``verify``.
Output formats: plain text (default), CSV, or canonical JSON.  Exit codes
are a stable contract: 0 success, 1 verification failure, 2 usage error,
3 precision error.
"""

from __future__ import annotations

import argparse
import sys
from decimal import Decimal

from . import __version__
from .errors import EmiError, PrecisionExceededError
from .jets import PI, get_integrand
from .pi_suite import (
    convergence_scan,
    dump_csv,
    dump_json,
    matched_digits,
    report_to_csv,
    report_to_json,
)
from .precision import as_rat, render
from .precision import context as precision_context
from .quadrature import EmiConfig, closed_form_arctan, emi_integrate
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

    p = sub.add_parser("pi", help="compute pi = 4 * arctan(1)")
    p.add_argument("--L", type=int, required=True, help="subinterval count")
    p.add_argument("--M", type=int, required=True, help="Taylor correction order")
    _add_common(p)
    p.set_defaults(handler=_cmd_pi)

    p = sub.add_parser("arctan", help="compute arctan(x) for rational x")
    p.add_argument("--x", required=True, help="rational 'p/q' or decimal string")
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--M", type=int, required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_arctan)

    p = sub.add_parser("integrate", help="integrate a named integrand over [0, 1]")
    p.add_argument("--integrand", required=True,
                   help="arctan-kernel | exp | runge | poly:k")
    p.add_argument("--x", default=None, help="parameter for arctan-kernel")
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--M", type=int, required=True)
    _add_common(p)
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


def _exact(q) -> str:
    # str(q) goes through int -> str, which Python caps at 4300 digits;
    # Decimal's int -> str conversion has no cap
    num = str(Decimal(q.numerator))
    return num if q.denominator == 1 else f"{num}/{Decimal(q.denominator)}"


def _config(args) -> EmiConfig:
    return EmiConfig(L=args.L, M=args.M, mode=args.mode, precision=args.precision)


def _result(args, value, **inputs) -> dict:
    # the fields every value-printing subcommand shares, in output order
    return {
        **inputs,
        "L": args.L,
        "M": args.M,
        "mode": args.mode,
        "precision": args.precision,
        "exact": _exact(value) if args.mode == "exact" else None,
        "value": render(value, args.digits),
    }


def _emit(fields: dict, fmt: str) -> None:
    if fmt == "json":
        print(dump_json(fields), end="")
    elif fmt == "csv":
        print(dump_csv(fields, [fields]), end="")
    else:
        for key, val in fields.items():
            if val is not None:
                print(f"{key} = {val}")


def _cmd_pi(args) -> int:
    _check_digits(args)
    result = emi_integrate(PI, _config(args))
    fields = _result(args, result.value)
    fields["matchedDigits"] = matched_digits(fields["value"])
    fields["termCount"] = result.term_count
    _emit(fields, args.format)
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
    _check_digits(args)
    x = as_rat(args.x)
    spec = get_integrand("arctan-kernel", x)
    result = emi_integrate(spec, _config(args))
    fields = _result(args, result.value, x=_exact(x))
    closed = closed_form_arctan(x, args.L, args.M, mode=args.mode,
                                precision=args.precision)
    agreed = _agreement_ok(result.value, closed, args.mode, args.precision)
    fields["closedForm"] = render(closed, args.digits)
    fields["agreement"] = "ok" if agreed else "mismatch"
    fields["termCount"] = result.term_count
    _emit(fields, args.format)
    return 0 if agreed else 1


def _cmd_integrate(args) -> int:
    _check_digits(args)
    x = as_rat(args.x) if args.x is not None else None
    spec = get_integrand(args.integrand, x)
    result = emi_integrate(spec, _config(args))
    fields = _result(args, result.value, integrand=spec.name,
                     x=None if x is None else _exact(x))
    fields["termCount"] = result.term_count
    _emit(fields, args.format)
    return 0


def _cmd_scan(args) -> int:
    report = convergence_scan(args.L, args.M, mode=args.mode,
                              precision=args.precision)
    if args.format == "json":
        print(report_to_json(report), end="")
    elif args.format == "csv":
        print(report_to_csv(report), end="")
    else:
        header = f"{'L':>6} {'M':>4}  {'value':<34} {'matched':>7}  {'abs_error':<12} {'est_order':>9}"
        print(header)
        for row in report.rows:
            shown = row.value if len(row.value) <= 34 else row.value[:31] + "..."
            order = "-" if row.est_order is None else f"{row.est_order:.4f}"
            print(f"{row.L:>6} {row.M:>4}  {shown:<34} {row.matched:>7}  "
                  f"{row.abs_error:<12} {order:>9}")
    return 0


def _cmd_verify(args) -> int:
    groups = None if args.group is None else [args.group]
    results = run_selftest(groups)
    if args.format == "json":
        payload = {
            "groups": [
                {
                    "name": r.name,
                    "passed": r.passed,
                    "cases": r.cases,
                    "firstFailure": r.first_failure,
                }
                for r in results
            ]
        }
        print(dump_json(payload), end="")
    else:
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            line = f"{status} {r.name} ({r.cases} cases)"
            if r.first_failure:
                line += f": {r.first_failure}"
            print(line)
    return 0 if all(r.passed for r in results) else 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except PrecisionExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (EmiError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
