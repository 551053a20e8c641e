"""High-precision midpoint quadrature with Taylor-corrected subintervals.

Two arithmetic modes run through the whole stack: exact rationals
(:data:`Rat`) as the correctness oracle, and arbitrary-precision decimals
(:class:`Real`) as the performance path.  On top of the quadrature engine
sits a pi/arctangent suite with digit matching against an embedded
reference expansion, plus a CLI (``emi``).
"""

from .errors import (
    EmiError,
    ExactModeUnsupportedError,
    NumeralParseError,
    PrecisionExceededError,
    UnknownIntegrandError,
)
from .precision import (
    GUARD_DIGITS,
    MIN_PRECISION,
    Rat,
    Real,
    as_rat,
    rat_to_real,
    render_decimal,
    render_rat,
)
from .jets import IntegrandSpec, get_integrand
from .quadrature import (
    EmiConfig,
    QuadResult,
    closed_form_arctan,
    emi_integrate,
    emi_subinterval,
    emi_weights,
    pairwise_sum,
    term_count,
)
from .pi_suite import (
    PI_DIGITS,
    ConvergenceReport,
    ScanRow,
    convergence_scan,
    matched_digits,
    pi_emi,
    report_to_csv,
    report_to_json,
)
from .selftest import GroupResult, group_names, run_selftest

__version__ = "0.1.0"

__all__ = [
    "EmiError",
    "ExactModeUnsupportedError",
    "NumeralParseError",
    "PrecisionExceededError",
    "UnknownIntegrandError",
    "GUARD_DIGITS",
    "MIN_PRECISION",
    "Rat",
    "Real",
    "as_rat",
    "rat_to_real",
    "render_decimal",
    "render_rat",
    "IntegrandSpec",
    "get_integrand",
    "EmiConfig",
    "QuadResult",
    "closed_form_arctan",
    "emi_integrate",
    "emi_subinterval",
    "emi_weights",
    "pairwise_sum",
    "PI_DIGITS",
    "ConvergenceReport",
    "ScanRow",
    "convergence_scan",
    "matched_digits",
    "pi_emi",
    "report_to_csv",
    "report_to_json",
    "term_count",
    "GroupResult",
    "group_names",
    "run_selftest",
    "__version__",
]
