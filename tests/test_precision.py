import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from emi import precision
from emi.errors import NumeralParseError, PrecisionExceededError
from emi.precision import (
    MAX_DIGITS,
    MAX_EXPONENT,
    MAX_PRECISION,
    MIN_PRECISION,
    Rat,
    Real,
    as_rat,
    exact_text,
    rat_to_real,
    render_decimal,
    render_rat,
    to_decimal,
)

from oracles import long_division_digits

small_rats = st.fractions(
    min_value=Fraction(-1000), max_value=Fraction(1000), max_denominator=999
)
positive_rats = st.fractions(
    min_value=Fraction(1, 999), max_value=Fraction(1000), max_denominator=999
)


class TestRatToReal:
    def test_repeating_decimal(self):
        r = rat_to_real(Rat(1, 3), 12)
        assert render_decimal(r, 12) == "0.333333333333"

    def test_identity(self):
        r = rat_to_real(Rat(1), 10)
        assert render_decimal(r, 10) == "1.000000000"

    def test_pi_convergent_rounds_down(self):
        # long-division oracle: 355/113 = 3.1415929203..., 11th digit 3 -> no bump
        digits = long_division_digits(Rat(355, 113), 11)
        assert digits == "31415929203"
        r = rat_to_real(Rat(355, 113), 10)
        assert render_decimal(r, 10) == "3.141592920"

    def test_rounds_half_even_up(self):
        # 2/3 = 0.666..., rounding at digit 10 bumps the last digit
        r = rat_to_real(Rat(2, 3), 10)
        assert r.value == Decimal("0.6666666667")

    def test_minimum_precision_enforced(self):
        with pytest.raises(ValueError):
            rat_to_real(Rat(1, 3), 9)

    @given(q=positive_rats, p1=st.integers(10, 30), extra=st.integers(1, 20))
    def test_prefix_stable_across_precisions(self, q, p1, extra):
        # Correct rounding at P can carry through a run of 9s and rewrite
        # earlier digits; exclude exactly those boundary cases, detected
        # from the true expansion.
        p2 = p1 + extra
        true = long_division_digits(q, p2 + 1)
        assume("9" not in true[p1 - 1 : p2 + 1])
        r1 = rat_to_real(q, p1)
        r2 = rat_to_real(q, p2)
        assert render_decimal(r1, p1 - 1) == render_decimal(r2, p1 - 1)

    @given(q=positive_rats, p=st.integers(10, 40))
    def test_conversion_within_one_ulp(self, q, p):
        r = rat_to_real(q, p)
        got = Fraction(str(r.value))
        # scale = weight of q's leading significant digit
        scale = Fraction(1)
        lead = q
        while lead >= 10:
            lead /= 10
            scale *= 10
        while lead < 1:
            lead *= 10
            scale /= 10
        assert abs(got - q) <= scale * Fraction(1, 10 ** (p - 1))


class TestRenderDecimal:
    def test_truncates_pi_prefix(self):
        r = Real(Decimal("3.14159265358979"), 15)
        assert render_decimal(r, 7) == "3.141592"

    def test_pads_terminating_value(self):
        assert render_decimal(Real(1, 10), 3) == "1.00"

    def test_truncates_not_rounds(self):
        assert render_decimal(Real(Decimal("0.999999"), 10), 3) == "0.999"

    def test_requesting_too_many_digits_fails(self):
        r = rat_to_real(Rat(1, 3), 12)
        with pytest.raises(PrecisionExceededError):
            render_decimal(r, 13)

    def test_small_magnitude_stays_fixed_point(self):
        assert render_decimal(Real(Decimal("0.001234"), 10), 3) == "0.00123"

    def test_large_magnitude_stays_fixed_point(self):
        assert render_decimal(Real(Decimal("9999.5"), 10), 5) == "9999.5"
        assert render_decimal(Real(Decimal("1234.5"), 10), 3) == "1230"

    def test_out_of_range_uses_scientific(self):
        assert render_decimal(Real(Decimal("12345678"), 10), 3) == "1.23e7"
        assert render_decimal(Real(Decimal("0.000083301"), 10), 3) == "8.33e-5"
        assert render_decimal(Real(Decimal("56789012"), 10), 1) == "5e7"

    def test_zero(self):
        assert render_decimal(Real(0, 10), 5) == "0"

    def test_negative(self):
        assert render_decimal(Real(Decimal("-2.5"), 10), 2) == "-2.5"

    @given(q=positive_rats, p=st.integers(10, 30), d=st.integers(1, 9))
    def test_never_rounds_up(self, q, p, d):
        # the rendered string is always a prefix of the longer rendering
        r = rat_to_real(q, p)
        full = render_decimal(r, p).replace(".", "").lstrip("0")
        short = render_decimal(r, d).replace(".", "").lstrip("0")
        trimmed = short.rstrip("0")
        assert full.startswith(trimmed)


def _render_rat_reference(q, digits):
    # the same digit loop with a layout of its own, the reference for
    # render_rat's layout through the formatter render_decimal uses
    if q == 0:
        return "0"
    sign = "-" if q < 0 else ""
    ip, rem = divmod(abs(q.numerator), q.denominator)
    head = str(Decimal(ip))
    significant = len(head) if ip else 0
    if significant > digits:
        return sign + head[:digits].ljust(len(head), "0")
    frac = []
    while significant < digits and rem:
        d, rem = divmod(rem * 10, q.denominator)
        frac.append(str(d))
        if significant or d:
            significant += 1
    return sign + head + ("." + "".join(frac) if frac else "")


# numerators past 10^80 give integer parts longer than any digit count
# drawn, and denominators past the numerator give leading zeros; the
# denominators 2^a 5^b give terminating expansions
_render_rats = st.builds(
    Rat,
    st.integers(-(10**120), 10**120),
    st.one_of(
        st.integers(1, 10**40),
        st.builds(lambda a, b: 2**a * 5**b, st.integers(0, 200), st.integers(0, 200)),
    ),
)


class TestRenderRat:
    def test_terminating_expansion_stops_early(self):
        assert render_rat(Rat(16, 5), 50) == "3.2"

    def test_nonterminating_truncates(self):
        assert render_rat(Rat(1, 3), 5) == "0.33333"
        assert render_rat(Rat(355, 113), 11) == "3.1415929203"

    def test_integer(self):
        assert render_rat(Rat(4), 10) == "4"
        assert render_rat(Rat(0), 5) == "0"
        # an integer part longer than the request is truncated and padded
        assert render_rat(Rat(123456), 3) == "123000"

    def test_integer_part_beyond_int_str_limit(self):
        # Python converts at most 4300 digits of an int to str, a limit that
        # Decimal's conversion does not have
        big = Rat(10**4400 + 7 * 10**4397 + 3)
        assert render_rat(big, 3) == "100" + "0" * 4398
        assert render_rat(-big / 10, 5) == "-10070" + "0" * 4395

    def test_negative(self):
        assert render_rat(Rat(-1, 8), 3) == "-0.125"

    def test_leading_zeros_not_significant(self):
        assert render_rat(Rat(1, 300), 3) == "0.00333"

    @settings(max_examples=300, deadline=None)
    @given(q=_render_rats, digits=st.integers(1, 80))
    @example(q=Rat(1, 3 * 10**45), digits=80)
    @example(q=Rat(-7, 2**60 * 5**3), digits=80)
    def test_layout_matches_the_reference_loop(self, q, digits):
        assert render_rat(q, digits) == _render_rat_reference(q, digits)

    @pytest.mark.parametrize("digits", [1, 80, 4401, 4500])
    def test_layout_matches_the_reference_loop_past_int_str_limit(self, digits):
        # a hypothesis example this long fails to print: repr(Fraction)
        # goes through int -> str
        for q in (Rat(10**4400 + 7 * 10**4397 + 3, 7), -Rat(10**4400 + 1, 3)):
            assert render_rat(q, digits) == _render_rat_reference(q, digits)


class TestToDecimal:
    @settings(deadline=None)
    @given(bits=st.integers(0, 20_000), negative=st.booleans(), data=st.data())
    @example(bits=3000, negative=False, data=None)
    @example(bits=3001, negative=True, data=None)
    def test_text_matches_decimal(self, bits, negative, data):
        # bit lengths on both sides of the 3000-bit base case
        if data is None:
            n = 2**bits - 1
        else:
            n = data.draw(st.integers(2**bits >> 1, 2**bits - 1))
        n = -n if negative else n
        assert str(to_decimal(n)) == str(Decimal(n))

    @pytest.mark.parametrize("bits", [10**5, 10**6])
    def test_long_ints(self, bits):
        n = random.Random(bits).getrandbits(bits)
        text = str(Decimal(n))
        assert str(to_decimal(n)) == text
        assert str(to_decimal(-n)) == "-" + text

    def test_long_parts_reach_decimal_only_in_short_pieces(self, monkeypatch):
        # Decimal(int) takes time quadratic in the int's length: printing
        # a rational with parts of about 600,000 bits hands Decimal() no
        # int longer than the base case
        ints = []

        def recording(value="0", context=None):
            ints.append(value)
            return Decimal(value, context)

        monkeypatch.setattr(precision, "Decimal", recording)
        num, den = 3**380_000 + 1, 7**214_000
        q = Rat(num, den)
        assert min(num.bit_length(), den.bit_length()) > 600_000
        num_text, den_text = exact_text(q).split("/")
        assert num_text[-30:] == str(num % 10**30).zfill(30)
        assert den_text[-30:] == str(den % 10**30).zfill(30)
        assert render_rat(q * den, 5) == num_text[:5] + "0" * (len(num_text) - 5)
        assert ints and max(abs(n).bit_length() for n in ints) <= 3000


@pytest.mark.parametrize("render_fn,value", [
    (render_decimal, Real(1, 10)), (render_rat, Rat(1)),
], ids=["decimal", "rat"])
def test_fewer_than_one_digit_rejected(render_fn, value):
    with pytest.raises(ValueError, match="^digits must be >= 1$"):
        render_fn(value, 0)


class TestRatFieldAxioms:
    @given(a=small_rats, b=small_rats, c=small_rats)
    def test_associativity_and_distributivity(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c

    @given(a=small_rats, b=small_rats)
    def test_division_inverts_multiplication(self, a, b):
        assume(b != 0)
        assert (a / b) * b == a

    @given(a=small_rats)
    def test_normalized_representation(self, a):
        import math

        assert a.denominator > 0
        assert math.gcd(abs(a.numerator), a.denominator) == 1


class TestReal:
    def test_immutable(self):
        r = Real(1, 10)
        with pytest.raises(AttributeError):
            r.precision = 20

    def test_minimum_precision(self):
        with pytest.raises(ValueError):
            Real(1, MIN_PRECISION - 1)

    @pytest.mark.parametrize("make", [Real, lambda v, p: rat_to_real(Rat(v), p)])
    def test_maximum_precision(self, make):
        assert make(1, MAX_PRECISION).precision == MAX_PRECISION
        for precision in (MAX_PRECISION + 1, 9999999999999999999):
            message = f"^precision must be <= {MAX_PRECISION}, got {precision}$"
            with pytest.raises(ValueError, match=message):
                make(1, precision)

    def test_constructor_rounds_half_even_to_precision(self):
        # the run's final rounding, whatever the caller's decimal context
        with localcontext() as caller:
            caller.prec = 5
            assert Real(Decimal("1.2345678905"), 10).value == Decimal("1.234567890")
            assert Real(Decimal("1.2345678915"), 10).value == Decimal("1.234567892")

    def test_hash_agrees_with_equality(self):
        assert len({Real(Decimal("1.5"), 10), Real(Decimal("1.5"), 20)}) == 1
        assert Real(3, 10) == 3
        assert hash(Real(3, 10)) == hash(3)

    def test_never_equals_a_string(self):
        assert (Real(1, 10) == "1") is False


class TestAsRat:
    def test_fraction_string(self):
        assert as_rat("3/4") == Rat(3, 4)

    def test_decimal_string(self):
        assert as_rat("0.25") == Rat(1, 4)

    def test_int(self):
        assert as_rat(7) == Rat(7)

    def test_fraction_is_returned_unchanged(self):
        q = Rat(22, 7)
        assert as_rat(q) is q

    def test_rejects_float(self):
        # a float is already rounded; its exact value is not what was written
        with pytest.raises(NumeralParseError, match="float"):
            as_rat(0.1)

    @pytest.mark.parametrize("bad", ["abc", "1/0", "1//2", ""])
    def test_rejects_garbage(self, bad):
        with pytest.raises(NumeralParseError):
            as_rat(bad)

    @pytest.mark.parametrize("numeral,value", [
        ("1e1000", Rat(10) ** MAX_EXPONENT),
        ("2.5E-1000", Rat(5, 2) / Rat(10) ** MAX_EXPONENT),
        ("1e+0001000", Rat(10) ** MAX_EXPONENT),
        ("3e0", Rat(3)),
    ])
    def test_exponent_at_limit_accepted(self, numeral, value):
        assert as_rat(numeral) == value

    @pytest.mark.parametrize("numeral", [
        "1e999999999", "1e-999999999", "1E+1001", "-7.5e-1001", " 1e1001 ",
        "1e" + "9" * 5000, "1e1_001", "1e-1_001", "2.5E+9_999_999",
    ])
    def test_exponent_beyond_limit_rejected(self, numeral):
        # Fraction would build 10**exponent before returning; from Python
        # 3.11 on it reads underscores between the exponent's digits
        with pytest.raises(NumeralParseError, match=str(MAX_EXPONENT)) as info:
            as_rat(numeral)
        assert len(str(info.value)) < 100

    def test_exponent_with_underscores_at_limit(self):
        # the guard reads the exponent with its underscores and leading
        # zeros dropped; whether the numeral parses is then Fraction's call,
        # and Python 3.10's Fraction refuses underscores
        try:
            want = Fraction("1_0")
        except ValueError:
            with pytest.raises(NumeralParseError, match="^not a rational"):
                as_rat("1e0_000_1000")
        else:
            assert want == 10 and as_rat("1e0_000_1000") == 10**MAX_EXPONENT
        with pytest.raises(NumeralParseError):
            as_rat("1e1__001")  # malformed, and refused whichever way

    @pytest.mark.parametrize("numeral", [
        "0." + "1" * 5000, "1" * 5000 + "/3", "1" * (MAX_DIGITS + 1),
    ], ids=["decimal", "ratio", "one-over-limit"])
    def test_too_many_digits_rejected(self, numeral):
        # int() refuses to convert more than 4300 digits from a string
        with pytest.raises(NumeralParseError, match=str(MAX_DIGITS)) as info:
            as_rat(numeral)
        assert len(str(info.value)) < 100

    def test_digits_at_limit_accepted(self):
        ones = "1" * (MAX_DIGITS - 1)
        assert as_rat("0." + ones) == Rat(int(ones), 10 ** len(ones))
        assert as_rat(ones + "/3") == Rat(int(ones), 3)
        assert as_rat("1" * MAX_DIGITS) == int("1" * MAX_DIGITS)
