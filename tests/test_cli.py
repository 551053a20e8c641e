import json
import subprocess
import sys
from decimal import Decimal

import pytest

from emi import cli
from emi.pi_suite import convergence_scan, pi_emi, report_to_csv
from emi.precision import Real
from emi.selftest import GroupResult


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


@pytest.mark.parametrize("argv,header", [
    (["pi", "--L", "5", "--M", "0"],
     "L,M,mode,precision,exact,value,matchedDigits,termCount"),
    (["arctan", "--x", "1/2", "--L", "5", "--M", "4"],
     "x,L,M,mode,precision,exact,value,closedForm,agreement,termCount"),
    (["integrate", "--integrand", "runge", "--L", "5", "--M", "0", "--mode", "exact"],
     "integrand,x,L,M,mode,precision,exact,value,termCount"),
])
def test_csv_header_lists_fields_in_output_order(capsys, argv, header):
    code, out = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    assert out.split("\n")[0] == header


@pytest.mark.parametrize("argv", [
    ["arctan", "--x", "1/3", "--L", "5", "--M", "4"],
    ["arctan", "--x", "2/7", "--L", "3", "--M", "6", "--mode", "exact"],
    ["integrate", "--integrand", "exp", "--L", "4", "--M", "2"],
    ["integrate", "--integrand", "arctan-kernel", "--x", "1/2", "--L", "3",
     "--M", "2", "--mode", "exact"],
    ["verify"],
    ["verify", "--group", "exactness"],
])
def test_json_round_trips_byte_identically(capsys, argv):
    code, out = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    assert json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n" == out


class TestPiCommand:
    def test_single_interval_exact(self, capsys):
        code, out = run_cli(capsys, "pi", "--L", "1", "--M", "0", "--mode", "exact")
        assert code == 0
        assert "exact = 16/5" in out
        assert "value = 3.2" in out
        assert "termCount = 1" in out

    def test_exact_value_beyond_int_string_limit(self, capsys):
        # numerator and denominator of this pi have more than 4300 digits,
        # the default cap on Python's int -> str conversion
        code, out = run_cli(capsys, "pi", "--L", "46", "--M", "46", "--mode", "exact")
        assert code == 0
        exact = next(l for l in out.splitlines() if l.startswith("exact = "))
        num, den = exact[len("exact = "):].split("/")
        value = pi_emi(46, 46, mode="exact")
        assert len(num) > 4300
        assert Decimal(num) == Decimal(value.numerator)
        assert Decimal(den) == Decimal(value.denominator)

    def test_float_defaults_render_fifty_digits(self, capsys):
        code, out = run_cli(capsys, "pi", "--L", "10", "--M", "2")
        assert code == 0
        value_line = next(l for l in out.splitlines() if l.startswith("value"))
        digits = value_line.split(" = ")[1].replace(".", "")
        assert len(digits) == 50

    def test_json_round_trips_byte_identically(self, capsys):
        code, out = run_cli(
            capsys, "pi", "--L", "5", "--M", "2", "--format", "json"
        )
        assert code == 0
        parsed = json.loads(out)
        assert json.dumps(parsed, indent=2, sort_keys=True) + "\n" == out
        assert parsed["matchedDigits"] >= 3
        assert parsed["termCount"] == 10

    def test_csv_format(self, capsys):
        code, out = run_cli(capsys, "pi", "--L", "5", "--M", "0", "--format", "csv")
        assert code == 0
        header, row = out.strip().split("\n")
        assert header.split(",")[:2] == ["L", "M"]
        assert row.split(",")[:2] == ["5", "0"]

    def test_digits_beyond_precision_is_a_precision_error(self, capsys):
        code, _ = run_cli(capsys, "pi", "--L", "2", "--M", "0",
                          "--precision", "50", "--digits", "60")
        assert code == 3

    def test_digits_past_the_reference_are_a_precision_error(self, capsys):
        # all 150 embedded digits of pi match, so the count would be capped
        code = cli.main(["pi", "--L", "100", "--M", "200",
                         "--precision", "320", "--digits", "300"])
        assert code == 3
        assert "150 reference digits" in capsys.readouterr().err

    def test_deep_order_is_fast(self):
        # the weights come from an O(M) running product at working
        # precision; dividing by each exact (2L)^(m+1) made this run take
        # more than 20 s
        proc = subprocess.run(
            [sys.executable, "-m", "emi", "pi", "--L", "1", "--M", "40000",
             "--precision", "60", "--digits", "50"],
            capture_output=True, text=True, timeout=10,
        )
        assert proc.returncode == 0, proc.stderr

    def test_unknown_flag_is_usage_error(self, capsys):
        assert cli.main(["pi", "--L", "1", "--M", "0", "--bogus"]) == 2

    def test_missing_subcommand_is_usage_error(self):
        assert cli.main([]) == 2

    def test_bad_mode_value(self):
        assert cli.main(["pi", "--L", "1", "--M", "0", "--mode", "fancy"]) == 2


class TestArctanCommand:
    def test_zero(self, capsys):
        code, out = run_cli(capsys, "arctan", "--x", "0", "--L", "10", "--M", "4")
        assert code == 0
        assert "value = 0" in out

    def test_exact_mode_agreement_with_closed_form(self, capsys):
        code, out = run_cli(capsys, "arctan", "--x", "1/2", "--L", "50",
                            "--M", "6", "--mode", "exact")
        assert code == 0
        assert "agreement = ok" in out

    def test_float_mode_agreement(self, capsys):
        code, out = run_cli(capsys, "arctan", "--x", "1", "--L", "100", "--M", "2")
        assert code == 0
        assert "agreement = ok" in out
        assert "closedForm = " in out

    @pytest.mark.parametrize("M", ["4", "5"])
    def test_closed_form_for_every_order(self, capsys, M):
        code, out = run_cli(capsys, "arctan", "--x", "1", "--L", "10", "--M", M)
        assert code == 0
        assert "closedForm = " in out
        assert "agreement = ok" in out

    @pytest.mark.parametrize("x", ["7" * 4000, "1e1000", "0." + "3" * 3999],
                             ids=["4000-digit-integer", "1e1000", "4000-digit-decimal"])
    def test_long_numeral_at_deep_order_is_fast(self, x):
        # the closed form must round every step to working precision: on
        # exact Gaussian integers this run takes minutes, not milliseconds
        proc = subprocess.run(
            [sys.executable, "-m", "emi", "arctan", "--x", x, "--L", "2", "--M", "200"],
            capture_output=True, text=True, timeout=10,
        )
        assert proc.returncode == 0, proc.stderr
        assert "agreement = ok" in proc.stdout

    def test_float_agreement_is_relative_to_the_value(self):
        # 10^-40 and a value that differs from it in the 21st significant
        # digit are 10^-60 apart, well inside an absolute 10^-58
        closed = Real("1e-40", 60)
        assert cli._agreement_ok(closed, closed, "float", 60)
        near = Real("1.00000000000000000000000000000000000000000000000000000000001e-40", 60)
        assert cli._agreement_ok(near, closed, "float", 60)
        off = Real("1.00000000000000000001e-40", 60)
        assert not cli._agreement_ok(off, closed, "float", 60)

    def test_tiny_x_agrees(self, capsys):
        code, out = run_cli(capsys, "arctan", "--x", "1e-40", "--L", "7", "--M", "6")
        assert code == 0
        assert "agreement = ok" in out

    def test_unparsable_x(self, capsys):
        code, _ = run_cli(capsys, "arctan", "--x", "one", "--L", "10", "--M", "0")
        assert code == 2

    def test_huge_exponent_error_is_short(self, capsys):
        code = cli.main(["arctan", "--x", "1e" + "9" * 5000, "--L", "2", "--M", "0"])
        assert code == 2
        assert 0 < len(capsys.readouterr().err) < 200

    def test_decimal_x_stays_exact(self, capsys):
        code, out = run_cli(capsys, "arctan", "--x", "0.5", "--L", "5",
                            "--M", "0", "--mode", "exact")
        assert code == 0
        assert "x = 1/2" in out


class TestIntegrateCommand:
    def test_polynomial_exact(self, capsys):
        code, out = run_cli(capsys, "integrate", "--integrand", "poly:3",
                            "--L", "1", "--M", "2", "--mode", "exact")
        assert code == 0
        assert "exact = 1/4" in out
        assert "value = 0.25" in out

    def test_unknown_integrand(self, capsys):
        code, _ = run_cli(capsys, "integrate", "--integrand", "sin",
                          "--L", "1", "--M", "0")
        assert code == 2

    def test_arctan_kernel_requires_x(self, capsys):
        code, _ = run_cli(capsys, "integrate", "--integrand", "arctan-kernel",
                          "--L", "1", "--M", "0")
        assert code == 2

    def test_exp_in_exact_mode_is_rejected(self, capsys):
        code, _ = run_cli(capsys, "integrate", "--integrand", "exp",
                          "--L", "4", "--M", "0", "--mode", "exact")
        assert code == 2

    def test_x_on_a_parameterless_integrand_is_rejected(self, capsys):
        code = cli.main(["integrate", "--integrand", "runge", "--x", "5",
                         "--L", "2", "--M", "0"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "'runge' takes no parameter x" in captured.err


class TestScanCommand:
    def test_text_table(self, capsys):
        code, out = run_cli(capsys, "scan", "--L", "8,16", "--M", "0")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 3
        assert "est_order" in lines[0]

    def test_json(self, capsys):
        code, out = run_cli(capsys, "scan", "--L", "8,16", "--M", "0,2",
                            "--format", "json")
        assert code == 0
        parsed = json.loads(out)
        assert len(parsed["rows"]) == 4
        assert json.dumps(parsed, indent=2, sort_keys=True) + "\n" == out

    def test_csv(self, capsys):
        code, out = run_cli(capsys, "scan", "--L", "8", "--M", "0",
                            "--format", "csv")
        assert code == 0
        assert out.startswith("L,M,value,matchedDigits,absError,estOrder\n")

    def test_csv_is_the_report_writer(self, capsys):
        code, out = run_cli(capsys, "scan", "--L", "8,16,32", "--M", "0,2",
                            "--precision", "40", "--format", "csv")
        assert code == 0
        assert out == report_to_csv(convergence_scan([8, 16, 32], [0, 2], precision=40))

    def test_insufficient_precision_maps_to_exit_three(self, capsys):
        code, _ = run_cli(capsys, "scan", "--L", "46", "--M", "46",
                          "--precision", "10")
        assert code == 3

    def test_digits_past_the_reference_are_a_precision_error(self, capsys):
        code = cli.main(["scan", "--L", "100", "--M", "200", "--precision", "320"])
        assert code == 3
        assert "150 reference digits" in capsys.readouterr().err

    def test_bad_list_is_usage_error(self):
        assert cli.main(["scan", "--L", "8;16", "--M", "0"]) == 2


class TestVerifyCommand:
    def test_all_groups_pass(self, capsys):
        code, out = run_cli(capsys, "verify")
        assert code == 0
        assert out.count("PASS") == 4
        assert "FAIL" not in out

    def test_group_filter(self, capsys):
        code, out = run_cli(capsys, "verify", "--group", "exactness")
        assert code == 0
        assert out.count("PASS") == 1
        assert "exactness" in out

    def test_json_format(self, capsys):
        code, out = run_cli(capsys, "verify", "--group", "reference-pi",
                            "--format", "json")
        assert code == 0
        parsed = json.loads(out)
        assert parsed["groups"][0]["passed"] is True

    def test_failure_exits_one_and_reports_counterexample(self, capsys, monkeypatch):
        def failing(groups=None):
            return [GroupResult("exactness", False, 3, "poly:2, L=1, M=0: got 0")]

        monkeypatch.setattr(cli, "run_selftest", failing)
        code, out = run_cli(capsys, "verify")
        assert code == 1
        assert "FAIL exactness" in out
        assert "poly:2" in out

    def test_unknown_group_rejected_by_parser(self):
        assert cli.main(["verify", "--group", "nonsense"]) == 2


class TestEnvironment:
    def test_repeated_runs_print_identical_output(self, capsys):
        code, out = run_cli(capsys, "pi", "--L", "32", "--M", "2")
        assert code == 0
        code2, out2 = run_cli(capsys, "pi", "--L", "32", "--M", "2")
        assert code2 == 0
        assert out == out2

    def test_version_flag(self, capsys):
        code = cli.main(["--version"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.strip()
