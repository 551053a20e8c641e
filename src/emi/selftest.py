"""Cross-module invariant suites behind the ``verify`` CLI subcommand.

Each group is a table of cases: a generator that yields ``(inputs, got,
want)``, with ``inputs`` a printable description of the case.  One runner
counts the cases and stops a group at its first ``got != want``, reporting
that case's inputs and both values so it can be reproduced directly.
Cases are computed lazily, so a failing group does no further work.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import pi_suite
from .errors import EmiError
from .jets import get_integrand
from .precision import Rat
from .quadrature import EmiConfig, closed_form_arctan, emi_integrate


@dataclass(frozen=True)
class GroupResult:
    name: str
    passed: bool
    cases: int
    first_failure: str | None = None


def _closed_form():
    for x in (Rat(1), Rat(1, 2), Rat(2)):
        spec = get_integrand("arctan-kernel", x)
        for L in (1, 2, 10, 50):
            for M in (0, 2, 6):
                engine = emi_integrate(spec, EmiConfig(L=L, M=M, mode="exact")).value
                closed = closed_form_arctan(x, L, M, mode="exact")
                yield f"x={x}, L={L}, M={M}", engine, closed


def _exactness():
    for M in (0, 2, 4, 6, 8):
        for k in range(M + 2):
            spec = get_integrand(f"poly:{k}")
            for L in (1, 3, 7):
                value = emi_integrate(spec, EmiConfig(L=L, M=M, mode="exact")).value
                yield f"poly:{k}, L={L}, M={M}", value, Rat(1, k + 1)


def _odd_collapse():
    pairs = [
        (get_integrand("arctan-kernel", Rat(1)), "exact"),
        (get_integrand("runge"), "exact"),
        (get_integrand("poly:4"), "exact"),
        (get_integrand("exp"), "float"),
    ]
    for spec, mode in pairs:
        for L in (1, 8, 32):
            for k in range(4):
                odd, even = (
                    emi_integrate(spec, EmiConfig(L, M, mode, precision=40)).value
                    for M in (2 * k + 1, 2 * k)
                )
                yield f"{spec.name}, L={L}, M={2 * k + 1} vs {2 * k}", odd, even


def _reference_pi():
    digits, check = pi_suite.PI_DIGITS, pi_suite._FIFTY_DIGIT_CHECK
    yield "embedded digits (at least 120)", min(len(digits), 120), 120
    # digit n + 1 is the first that differs from the check constant, or
    # digit 1 when none does
    n = next((i for i, (a, b) in enumerate(zip(digits, check)) if a != b), 0)
    yield f"digit {n + 1}", digits[n], check[n]


_GROUPS = {
    "closed-form": _closed_form,
    "exactness": _exactness,
    "odd-collapse": _odd_collapse,
    "reference-pi": _reference_pi,
}


def _run(name: str, cases) -> GroupResult:
    count = 0
    for inputs, got, want in cases:
        count += 1
        if got != want:
            return GroupResult(name, False, count, f"{inputs}: got {got}, want {want}")
    return GroupResult(name, True, count)


def group_names() -> list[str]:
    return list(_GROUPS)


def run_selftest(groups: list[str] | None = None) -> list[GroupResult]:
    """Run the named invariant groups (all of them by default)."""
    selected = group_names() if groups is None else list(groups)
    results = []
    for name in selected:
        table = _GROUPS.get(name)
        if table is None:
            raise EmiError(
                f"unknown verify group {name!r}; choose from {', '.join(_GROUPS)}"
            )
        results.append(_run(name, table()))
    return results
