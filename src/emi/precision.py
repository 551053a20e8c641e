"""Numbers for the two arithmetic modes.

Exact mode runs on :data:`Rat` (arbitrary-size rationals, never rounded) and
is the ground truth for everything whose inputs are rational.  Float mode
runs on raw ``Decimal`` and returns a :class:`Real`, the result record that
carries its own significant-digit count.  A float run's precision is an
int passed down explicitly: every rounded ``Decimal`` operation rounds in
a :func:`context` of that many digits, made afresh by each call and held
by no module state, or in a ``decimal.localcontext`` copy of it, never in
the caller's own decimal context.

Exact ints become decimal text in one place, :func:`exact_text`, through
:func:`to_decimal`: ``str(int)`` refuses more than 4300 digits, and
``Decimal(int)`` has no cap but takes time quadratic in the length, so
:func:`to_decimal` converts a long int by halves, in a context that rounds
nothing.  :func:`rat_to_real` converts both parts of its rational the same
way, and so does the engine's one float quotient.

Rendering is deliberately truncating, never rounding: digit-matching between
two long decimal expansions compares leading digits, and a rounded final
digit would corrupt that comparison.  :func:`render_rat` and
:func:`render_decimal` lay out their digits through one fixed-point
formatter.
"""

from __future__ import annotations

import re
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, ROUND_HALF_EVEN, Context, Decimal
from fractions import Fraction

from .errors import NumeralParseError, PrecisionExceededError

#: Exact rational scalar.  ``fractions.Fraction`` already guarantees the
#: normalization we need: gcd(|num|, den) == 1 and den > 0 after every
#: operation, with no rounding anywhere.
Rat = Fraction

MIN_PRECISION = 10

#: Largest ``precision`` a run accepts, checked before any decimal context
#: is built.  A 5,000-digit pi run stays legal; a far larger precision
#: overflows ``decimal.Context``, or runs for minutes.
MAX_PRECISION = 10**5

#: Extra working digits used by the quadrature engine on top of the digits
#: requested by the caller.  A float run adds its int terms exactly and
#: rounds their quotient once, at working precision, so its value lies
#: within ``0.504 + 0.006 A`` ulp there of the exact sum for the rational
#: kernels (``A`` counts a deep term's fixed-point floors) and, with its
#: closed-form total within ``10^-wp / 64`` relative, 0.516 ulp for
#: ``exp``; the guard digits keep that far inside the half ulp of the final
#: rounding to ``precision``.  The account is in :mod:`emi.quadrature`.
GUARD_DIGITS = 15

def context(precision: int) -> Context:
    """A new decimal context of ``precision`` significant digits.

    It rounds half-even and has the widest exponent range; callers use its
    methods directly, or run plain operators under ``decimal.localcontext``.
    """
    return Context(prec=precision, rounding=ROUND_HALF_EVEN,
                   Emin=-999999999, Emax=999999999)


#: Rounds nothing: :func:`to_decimal` joins exact integers in it.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)


def to_decimal(n: int) -> Decimal:
    """``Decimal(n)``, in time subquadratic in the length of ``n``.

    Up to 3000 bits it is ``Decimal(n)``.  A longer n is split at half its
    bit length, ``n = hi 2^k + lo``, and the converted halves are joined by
    one exact ``fma`` (radix conversion by halving, Brent and Zimmermann,
    *Modern Computer Arithmetic*, ch. 1; CPython 3.12's ``_pylong``).
    """
    if n.bit_length() <= 3000:
        return Decimal(n)
    k = n.bit_length() // 2
    return _EXACT.fma(to_decimal(n >> k), _EXACT.power(2, k),
                      to_decimal(n & ((1 << k) - 1)))


def exact_text(q: Rat | int) -> str:
    """``q`` in full, as ``"num"`` or ``"num/den"``, at any length.

    ``str(q)`` goes through int -> str, which Python caps at 4300 digits;
    :func:`to_decimal` has no cap.
    """
    num = str(to_decimal(q.numerator))
    return num if q.denominator == 1 else f"{num}/{to_decimal(q.denominator)}"


def check_precision(precision: int, exact: bool = False) -> None:
    """Raise ``ValueError`` for a ``precision`` no run accepts.

    That is one above :data:`MAX_PRECISION`, or in float mode one below
    :data:`MIN_PRECISION`; exact mode uses ``precision`` only as a count of
    digits to print, so it has no floor.
    """
    if precision > MAX_PRECISION:
        raise ValueError(f"precision must be <= {MAX_PRECISION}, got {precision}")
    if not exact and precision < MIN_PRECISION:
        raise ValueError(f"precision must be >= {MIN_PRECISION}, got {precision}")


#: Largest exponent magnitude accepted in a decimal numeral such as
#: ``"1e999"``; ``Fraction`` would build ``10**exponent`` first.
MAX_EXPONENT = 1000

#: Most digit characters accepted in a numeral; ``int`` refuses to convert
#: more than 4300 digits from a string.
MAX_DIGITS = 4000

_EXPONENT = re.compile(r"[eE][+-]?0*(\d+)$")


def as_rat(value: int | str | Rat) -> Rat:
    """Parse a rational from an int, a ``p/q`` string, or a decimal string."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        # from Python 3.11 on, Fraction reads "1e1_001" as 1e1001
        exponent = _EXPONENT.search(text.replace("_", ""))
        if exponent and (len(exponent[1]) > 4 or int(exponent[1]) > MAX_EXPONENT):
            raise NumeralParseError(
                f"exponent of {text[:20]!r}... exceeds {MAX_EXPONENT} in magnitude"
            )
        if sum(map(str.isdigit, text)) > MAX_DIGITS:
            raise NumeralParseError(
                f"numeral {text[:20]!r}... has more than {MAX_DIGITS} digits"
            )
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise NumeralParseError(f"not a rational: {value!r}") from exc
    raise NumeralParseError(f"cannot interpret {type(value).__name__} as a rational")


class Real:
    """A float-mode result: a decimal value and the digit count it is trusted to.

    ``precision`` must lie in [:data:`MIN_PRECISION`, :data:`MAX_PRECISION`].
    The constructor rounds ``value`` half-even to ``precision`` digits: for
    an engine result this is the run's final rounding from working
    precision.  Instances are immutable and have no arithmetic; the engine
    computes on raw ``Decimal``.
    """

    __slots__ = ("value", "precision")

    value: Decimal
    precision: int

    def __init__(self, value: Decimal | int | str, precision: int):
        check_precision(precision)
        if not isinstance(value, Decimal):
            value = Decimal(value)
        object.__setattr__(self, "value", context(precision).plus(value))
        object.__setattr__(self, "precision", precision)

    def __setattr__(self, name, val):
        raise AttributeError("Real is immutable")

    def __eq__(self, other):
        if isinstance(other, Real):
            return self.value == other.value
        if isinstance(other, int):
            return self.value == other
        return NotImplemented

    def __hash__(self):
        return hash(self.value)

    def __repr__(self):
        return f"Real({str(self.value)!r}, precision={self.precision})"

    def __str__(self):
        return str(self.value)


def rat_to_real(q: Rat, precision: int) -> Real:
    """Convert an exact rational to a ``Real``, correctly rounded.

    The conversion is a single division of two exact integers under the
    target context, so the result is within half an ulp of ``q`` at
    ``precision`` significant digits.
    """
    check_precision(precision)  # before the context, which would overflow
    return Real(context(precision).divide(to_decimal(q.numerator),
                                          to_decimal(q.denominator)), precision)


def _fixed_point(digits: str, adjusted: int, sign: str) -> str:
    # adjusted = exponent of the leading significant digit (0 for 1 <= v < 10)
    if adjusted >= 0:
        if len(digits) <= adjusted + 1:
            return sign + digits.ljust(adjusted + 1, "0")
        return sign + digits[: adjusted + 1] + "." + digits[adjusted + 1 :]
    return sign + "0." + "0" * (-adjusted - 1) + digits


def render_decimal(r: Real, digits: int) -> str:
    """Render ``r`` truncated (never rounded) to ``digits`` significant digits.

    Values in [0.001, 10000) are rendered in plain fixed-point notation;
    anything outside that range uses scientific notation.  Asking for more
    digits than ``r`` carries raises :class:`PrecisionExceededError`.
    """
    if digits < 1:
        raise ValueError("digits must be >= 1")
    if digits > r.precision:
        raise PrecisionExceededError(
            f"requested {digits} digits but value carries only {r.precision}"
        )
    value = r.value
    if value == 0:
        return "0"
    sign = "-" if value < 0 else ""
    tup = value.as_tuple()
    digstr = "".join(map(str, tup.digits))[:digits].ljust(digits, "0")
    adjusted = value.adjusted()
    if -3 <= adjusted <= 3:
        return _fixed_point(digstr, adjusted, sign)
    return _fixed_point(digstr, 0, sign) + f"e{adjusted}"


def render_rat(q: Rat, digits: int) -> str:
    """Render an exact rational truncated to at most ``digits`` significant digits.

    Terminating expansions stop early instead of being zero-padded, so
    ``16/5`` renders as ``"3.2"`` rather than ``"3.2000..."``.  Non-terminating
    expansions are truncated exactly like :func:`render_decimal`.
    """
    if digits < 1:
        raise ValueError("digits must be >= 1")
    if q == 0:
        return "0"
    sign = "-" if q < 0 else ""
    ip, rem = divmod(abs(q.numerator), q.denominator)
    text = exact_text(ip) if ip else ""
    adjusted = len(text) - 1  # exponent of the leading significant digit
    text = text[:digits]
    while len(text) < digits and rem:
        d, rem = divmod(rem * 10, q.denominator)
        if text or d:
            text += str(d)
        else:  # a leading zero is not significant
            adjusted -= 1
    return _fixed_point(text, adjusted, sign)


def render(value: Rat | Real, digits: int) -> str:
    """Render either mode's result truncated to ``digits`` significant digits."""
    if isinstance(value, Real):
        return render_decimal(value, digits)
    return render_rat(value, digits)
