import json
from decimal import Decimal

import pytest

from emi import pi_suite
from emi.errors import NumeralParseError, PrecisionExceededError
from emi.jets import get_integrand
from emi.pi_suite import (
    PI_DIGITS,
    convergence_scan,
    matched_digits,
    pi_emi,
    report_to_csv,
    report_to_json,
    term_count,
)
from emi.precision import Rat, rat_to_real, render_rat
from emi.quadrature import EmiConfig, closed_form_arctan, emi_integrate

from oracles import machin_pi_digits


def _pi_numeral(digits: int = len(PI_DIGITS)) -> str:
    return PI_DIGITS[0] + "." + PI_DIGITS[1:digits]


class TestReference:
    def test_embedded_length(self):
        assert len(PI_DIGITS) == 150

    def test_full_expansion_against_machin_oracle(self):
        assert PI_DIGITS == machin_pi_digits(150)


class TestMatchedDigits:
    def test_decimal_point_not_counted(self):
        assert matched_digits("3.15") == 2

    def test_self_comparison_spans_everything(self):
        assert matched_digits(_pi_numeral()) == 150

    def test_matching_past_the_reference_is_a_precision_error(self):
        with pytest.raises(PrecisionExceededError, match="150 reference digits"):
            matched_digits(_pi_numeral() + "0")

    def test_first_mismatch_stops_counting(self):
        assert matched_digits("3.1415999") == 6

    def test_leading_zeros_are_not_significant(self):
        assert matched_digits("0.5") == 0

    @pytest.mark.parametrize("bad", ["3.1.4", "abc", "", "1e5"])
    def test_malformed_numeral(self, bad):
        with pytest.raises(NumeralParseError):
            matched_digits(bad)


class TestTermCount:
    def test_values(self):
        assert term_count(46, 46) == 1104
        assert term_count(1000, 0) == 1000
        assert term_count(10, 7) == 40

    def test_validation(self):
        with pytest.raises(ValueError):
            term_count(0, 2)


class TestPiValues:
    def test_single_interval_exact(self):
        assert pi_emi(1, 0, mode="exact") == Rat(16, 5)
        assert 4 * closed_form_arctan(Rat(1), 1, 0, mode="exact") == Rat(16, 5)
        assert render_rat(pi_emi(1, 0, mode="exact"), 10) == "3.2"

    @pytest.mark.parametrize("L", [1, 7, 64, 100])
    @pytest.mark.parametrize("M", [0, 2, 6])
    def test_closed_form_equals_engine_exactly(self, L, M):
        closed = 4 * closed_form_arctan(Rat(1), L, M, mode="exact")
        assert closed == pi_emi(L, M, mode="exact")

    @pytest.mark.parametrize("L", [1, 2, 3, 7, 10, 46, 100])
    @pytest.mark.parametrize("M", [0, 2, 6, 10])
    def test_float_is_the_exact_value_rounded_once(self, L, M):
        exact = pi_emi(L, M, mode="exact")
        for p in (10, 20, 30, 60):
            assert pi_emi(L, M, mode="float", precision=p).value == rat_to_real(exact, p).value

    @pytest.mark.parametrize("L", [1, 2, 3, 7, 10, 46, 100, 1000])
    def test_exact_is_four_times_arctan_one(self, L):
        spec = get_integrand("arctan-kernel", Rat(1))
        for M in [*range(11), 46]:
            arctan = emi_integrate(spec, EmiConfig(L=L, M=M, mode="exact")).value
            assert pi_emi(L, M, mode="exact") == 4 * arctan

    def test_never_hits_pi_exactly(self):
        # the truncation is a rational number; pi is not
        for L, M in [(1, 0), (10, 2), (25, 6)]:
            value = pi_emi(L, M, mode="exact")
            approx = rat_to_real(value, 60)
            ref = Decimal(_pi_numeral(60))
            assert approx.value != ref

    def test_error_shrinks_with_order(self):
        ref = Decimal(_pi_numeral(75))
        errors = []
        for M in (0, 2, 6):
            value = pi_emi(50, M, mode="float", precision=60)
            errors.append(abs(value.value - ref))
        assert errors[0] > errors[1] > errors[2]


class TestScan:
    def test_midpoint_order_near_two(self):
        report = convergence_scan([8, 16], [0], precision=60)
        assert report.mode == "float"
        orders = [row.est_order for row in report.rows]
        assert orders[0] is None
        assert abs(orders[1] - 2) <= 0.3

    def test_rows_sorted_by_order_then_subintervals(self):
        report = convergence_scan([16, 8], [2, 0], precision=60)
        assert [(r.M, r.L) for r in report.rows] == [(0, 8), (0, 16), (2, 8), (2, 16)]

    def test_matched_digits_improve_with_order(self):
        report = convergence_scan([50], [0, 2, 6], precision=60)
        matched = [row.matched for row in report.rows]
        assert matched == sorted(matched)
        assert matched[0] < matched[-1]

    def test_exact_mode(self):
        report = convergence_scan([4, 8], [0], mode="exact", precision=60)
        assert report.precision == 60
        assert abs(report.rows[1].est_order - 2) <= 0.3

    def test_terminating_exact_expansion_continues_with_zeros(self, monkeypatch):
        # pi at L=1, M=0 is exactly 16/5, rendered "3.2"
        monkeypatch.setattr(pi_suite, "PI_DIGITS", "32" + "0" * 118)
        with pytest.raises(PrecisionExceededError, match="not resolvable"):
            convergence_scan([1], [0], mode="exact", precision=10)
        monkeypatch.setattr(pi_suite, "PI_DIGITS", "320" + "1" * 117)
        report = convergence_scan([1], [0], mode="exact", precision=10)
        assert report.rows[0].matched == 3

    def test_insufficient_precision_names_the_row(self):
        with pytest.raises(PrecisionExceededError) as exc:
            convergence_scan([46], [46], precision=10)
        assert "L=46" in str(exc.value)
        assert "M=46" in str(exc.value)

    def test_empty_lists_rejected(self):
        with pytest.raises(ValueError):
            convergence_scan([], [0])

    def test_json_round_trip_is_byte_stable(self):
        report = convergence_scan([8, 16], [0, 2], precision=40)
        text = report_to_json(report)
        parsed = json.loads(text)
        assert json.dumps(parsed, indent=2, sort_keys=True) + "\n" == text
        assert parsed["mode"] == "float"
        assert parsed["precision"] == 40
        row = parsed["rows"][0]
        assert set(row) == {"L", "M", "value", "matchedDigits", "absError", "estOrder"}
        assert row["estOrder"] is None
        assert parsed["rows"][1]["estOrder"] is not None

    def test_csv_shape(self):
        report = convergence_scan([8], [0, 2], precision=40)
        lines = report_to_csv(report).strip().split("\n")
        assert lines[0] == "L,M,value,matchedDigits,absError,estOrder"
        assert len(lines) == 3
        # no est_order column value when L does not double
        assert lines[1].endswith(",")

    def test_timestamp_metadata_present_but_not_serialized(self):
        report = convergence_scan([8], [0], precision=40)
        assert "generated_at" not in report_to_json(report)

    def test_thousand_subinterval_digit_counts(self):
        report = convergence_scan([1000], [0, 2, 6], precision=60)
        assert [row.matched for row in report.rows] == [7, 21, 35]

    def test_high_order_row_reaches_105_digits(self):
        report = convergence_scan([46], [46], precision=130)
        assert report.rows[0].matched == 105
