"""The four workloads: their fixed case lists, how each case calls emi, and its checks.

A case is one call (or a short fixed sequence of calls) into emi's public
API, or one fresh ``python -m emi`` process.  Its output is checked against
the benchmark's own oracle (``oracle.py``) or against properties the
method must have; a check returns the list of what went wrong.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import cache
from math import gcd
from typing import Callable

import oracle

#: Digits of a float value beyond its precision carried by the oracle.
ORACLE_GUARD = 40

#: Frozen matched-digit counts of pi, from the acceptance criteria.
FROZEN_PI_MATCHES = {(1000, 6): 35, (46, 46): 105}


@dataclass
class Case:
    label: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]


def seeded_x(rng) -> Fraction:
    """The arctan-kernel parameter: a small ``p/q`` in (0, 2).

    ``q`` has a prime factor other than 2 and 5, so every choice has a
    non-terminating decimal expansion and float-mode cost does not depend
    on the seed.
    """
    q = rng.choice((3, 7, 9))
    return Fraction(rng.choice([p for p in range(1, 2 * q) if gcd(p, q) == 1]), q)


# -- oracle values, memoised so each is computed once per run ----------------

@cache
def _pi_exact(L: int, M: int) -> Fraction:
    return 4 * oracle.exact_sum(oracle.rational_terms(Fraction(1), Fraction(1), L, M))


@cache
def _pi_decimal(L: int, M: int, precision: int) -> Decimal:
    terms = [4 * t for t in oracle.rational_terms(Fraction(1), Fraction(1), L, M)]
    return oracle.decimal_sum(terms, precision + ORACLE_GUARD)


def _rational_args(name: str, x: Fraction) -> tuple[Fraction, Fraction]:
    # integrand a / (1 + b t^2)
    if name == "runge":
        return Fraction(1), Fraction(25)
    return x, x * x


@cache
def _rational_exact(name: str, x: Fraction, L: int, M: int) -> Fraction:
    return oracle.exact_sum(oracle.rational_terms(*_rational_args(name, x), L, M))


@cache
def _rational_decimal(name: str, x: Fraction, L: int, M: int, precision: int) -> Decimal:
    terms = oracle.rational_terms(*_rational_args(name, x), L, M)
    return oracle.decimal_sum(terms, precision + ORACLE_GUARD)


# -- checks shared by several cases ------------------------------------------

def _check_close(value: Decimal, reference: Decimal, precision: int) -> list[str]:
    if oracle.within_one_unit(value, reference, precision):
        return []
    return [f"{value} is more than one unit in digit {precision} from the oracle {reference}"]


def _check_pi_digits(L: int, M: int, value, rendered: str, matched: int,
                     digits: int) -> list[str]:
    errors = []
    if rendered.replace(".", "") != oracle.truncated_digits(value, digits):
        errors.append(f"rendering {rendered} is not the {digits}-digit truncation")
    recount = oracle.matched_count(rendered)
    if matched != recount:
        errors.append(f"matchedDigits {matched}, Machin digits give {recount}")
    frozen = FROZEN_PI_MATCHES.get((L, M))
    if frozen is not None and recount != frozen:
        errors.append(f"matched digits {recount}, frozen count is {frozen}")
    return errors


# -- in-process cases ---------------------------------------------------------

def _pi_case(emi, L: int, M: int, mode: str, precision: int, digits: int) -> Case:
    def run():
        value = emi.pi_emi(L, M, mode=mode, precision=precision)
        if mode == "exact":
            rendered = emi.render_rat(value, digits)
            scalar = value
        else:
            rendered = emi.render_decimal(value, digits)
            scalar = value.value
        return scalar, rendered, emi.matched_digits(rendered)

    def check(out):
        value, rendered, matched = out
        if mode == "exact":
            errors = [] if value == _pi_exact(L, M) else ["value differs from the exact oracle sum"]
        else:
            errors = _check_close(value, _pi_decimal(L, M, precision), precision)
        return errors + _check_pi_digits(L, M, value, rendered, matched, digits)

    suffix = "exact" if mode == "exact" else f"p={precision}"
    return Case(f"pi L={L} M={M} {suffix}", run, check)


def _float_case(emi, name: str, x: Fraction | None, L: int, M: int, precision: int) -> Case:
    def run():
        spec = emi.get_integrand(name, x)
        config = emi.EmiConfig(L=L, M=M, mode="float", precision=precision)
        return emi.emi_integrate(spec, config).value.value

    def check(value):
        if name == "exp":
            reference = oracle.exp_sum(L, M, precision + ORACLE_GUARD)
        else:
            reference = _rational_decimal(name, x, L, M, precision)
        return _check_close(value, reference, precision)

    shown = f"{name} x={x}" if x is not None else name
    return Case(f"{shown} L={L} M={M} p={precision}", run, check)


def _runge_exact_case(emi, L: int, M: int, same_as_M: int | None = None) -> Case:
    def run():
        spec = emi.get_integrand("runge")
        return emi.emi_integrate(spec, emi.EmiConfig(L=L, M=M, mode="exact")).value

    def check(value):
        errors = []
        if value != _rational_exact("runge", None, L, M):
            errors.append("value differs from the exact oracle sum")
        if same_as_M is not None and value != _rational_exact("runge", None, L, same_as_M):
            errors.append(f"value at M={M} differs from the sum at M={same_as_M}")
        return errors

    return Case(f"runge L={L} M={M} exact", run, check)


def _arctan_closed_case(emi, x: Fraction, L: int, M: int) -> Case:
    def run():
        spec = emi.get_integrand("arctan-kernel", x)
        value = emi.emi_integrate(spec, emi.EmiConfig(L=L, M=M, mode="exact")).value
        return value, emi.closed_form_arctan(x, L, M, mode="exact")

    def check(out):
        value, closed = out
        reference = _rational_exact("arctan-kernel", x, L, M)
        errors = []
        if value != reference:
            errors.append("engine value differs from the exact oracle sum")
        if closed != reference:
            errors.append("closed_form_arctan differs from the exact oracle sum")
        return errors

    return Case(f"arctan-kernel x={x} L={L} M={M} exact + closed form", run, check)


def _poly_case(emi, k: int, L: int, M: int) -> Case:
    def run():
        spec = emi.get_integrand(f"poly:{k}")
        return emi.emi_integrate(spec, emi.EmiConfig(L=L, M=M, mode="exact")).value

    def check(value):
        errors = []
        if value != Fraction(1, k + 1):
            errors.append(f"{value} != 1/{k + 1}")
        if value != oracle.exact_sum(oracle.poly_terms(k, L, M)):
            errors.append("value differs from the exact oracle sum")
        return errors

    return Case(f"poly:{k} L={L} M={M} exact", run, check)


def float_wide(emi, x: Fraction) -> list[Case]:
    return [
        _pi_case(emi, 1000, 0, "float", 60, 50),
        _pi_case(emi, 1000, 2, "float", 60, 50),
        _pi_case(emi, 4000, 2, "float", 60, 50),
        _float_case(emi, "runge", None, 2000, 0, 60),
        _float_case(emi, "exp", None, 2000, 2, 60),
        _float_case(emi, "arctan-kernel", x, 2000, 2, 60),
    ]


def float_deep(emi, x: Fraction) -> list[Case]:
    return [
        _pi_case(emi, 46, 46, "float", 130, 110),
        _float_case(emi, "runge", None, 16, 40, 100),
        _float_case(emi, "arctan-kernel", x, 24, 30, 100),
        _float_case(emi, "exp", None, 8, 40, 100),
    ]


def exact_oracle(emi, x: Fraction) -> list[Case]:
    return [
        _pi_case(emi, 46, 46, "exact", 0, 110),
        _pi_case(emi, 1000, 6, "exact", 0, 50),
        _arctan_closed_case(emi, x, 50, 6),
        _runge_exact_case(emi, 32, 8),
        _runge_exact_case(emi, 32, 9, same_as_M=8),
    ] + [_poly_case(emi, k, 7, 8) for k in range(10)]


# -- CLI cases ----------------------------------------------------------------

def process_runner(env: dict, cwd):
    """Runs ``python -m emi <argv>`` in a fresh process and waits for it to end."""

    def run(argv: list[str]) -> tuple[int, str]:
        proc = subprocess.run([sys.executable, "-m", "emi", *argv], cwd=cwd, env=env,
                              capture_output=True, text=True)
        return proc.returncode, proc.stdout

    return run


def in_process_runner(emi):
    """Runs ``emi.cli.main(argv)`` in this process, capturing what it prints."""

    def run(argv: list[str]) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = emi.cli.main(argv)
        return code, out.getvalue()

    return run


def _parse_cli(out) -> tuple[dict | None, list[str]]:
    code, text = out
    if code != 0:
        return None, [f"exit code {code}"]
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        return None, [f"output is not JSON: {exc}"]
    if json.dumps(payload, indent=2, sort_keys=True) + "\n" != text:
        return payload, ["JSON does not re-serialise byte-identically"]
    return payload, []


def _cli_case(label: str, argv: list[str], runner, check_payload) -> Case:
    def check(out):
        payload, errors = _parse_cli(out)
        if payload is None:
            return errors
        try:
            return errors + check_payload(payload)
        except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
            return errors + [f"malformed output: {exc!r}"]

    return Case(label, lambda: runner(argv), check)


SCAN_L = (8, 16, 32, 64, 128, 256)
SCAN_M = (0, 2, 6)


def _check_cli_pi(payload) -> list[str]:
    L, M, precision = 1000, 6, 60
    value = Decimal(payload["value"])
    errors = _check_close(value, _pi_decimal(L, M, precision), 50)
    errors += _check_pi_digits(L, M, value, payload["value"], payload["matchedDigits"], 50)
    if payload["termCount"] != L * (M // 2 + 1):
        errors.append(f"termCount {payload['termCount']}")
    return errors


def _check_cli_scan(payload) -> list[str]:
    errors = []
    rows = payload["rows"]
    cells = [(r["L"], r["M"]) for r in rows]
    if cells != [(L, M) for M in SCAN_M for L in SCAN_L]:
        errors.append(f"scan rows cover {cells}")
    for row in rows:
        L, M = row["L"], row["M"]
        where = f"row L={L} M={M}"
        errors += [f"{where}: {e}" for e in
                   _check_close(Decimal(row["value"]), _pi_decimal(L, M, 60), 60)]
        recount = oracle.matched_count(row["value"])
        if row["matchedDigits"] != recount:
            errors.append(f"{where}: matchedDigits {row['matchedDigits']}, "
                          f"Machin digits give {recount}")
        order = row["estOrder"]
        if order is not None and order < M + 2 - 0.3:
            errors.append(f"{where}: estOrder {order} below {M + 2} - 0.3")
    return errors


def _check_cli_arctan(x: Fraction, L: int, M: int):
    def check(payload) -> list[str]:
        errors = []
        if payload["agreement"] != "ok":
            errors.append(f"agreement {payload['agreement']!r}")
        if Fraction(payload["exact"]) != _rational_exact("arctan-kernel", x, L, M):
            errors.append("exact value differs from the exact oracle sum")
        return errors

    return check


def _check_cli_verify(payload) -> list[str]:
    groups = payload["groups"]
    if not groups:
        return ["no verify groups ran"]
    return [f"group {g['name']} failed: {g['firstFailure']}" for g in groups
            if not g["passed"]]


def cli_cold(runner, x: Fraction) -> list[Case]:
    scan_l = ",".join(map(str, SCAN_L))
    scan_m = ",".join(map(str, SCAN_M))
    return [
        _cli_case("cli pi --L 1000 --M 6", ["pi", "--L", "1000", "--M", "6", "--format", "json"],
                  runner, _check_cli_pi),
        _cli_case(f"cli scan --L {scan_l} --M {scan_m}",
                  ["scan", "--L", scan_l, "--M", scan_m, "--format", "json"],
                  runner, _check_cli_scan),
        _cli_case(f"cli arctan --x {x} --L 50 --M 6 exact",
                  ["arctan", "--x", str(x), "--L", "50", "--M", "6", "--mode", "exact",
                   "--format", "json"],
                  runner, _check_cli_arctan(x, 50, 6)),
        _cli_case("cli verify", ["verify", "--format", "json"], runner, _check_cli_verify),
    ]


IN_PROCESS = {
    "float-wide": float_wide,
    "float-deep": float_deep,
    "exact-oracle": exact_oracle,
}
NAMES = (*IN_PROCESS, "cli-cold")
