import csv
import json
import subprocess
import sys
from decimal import Decimal

import pytest

from emi import cli
from emi.pi_suite import convergence_scan, pi_emi
from emi.precision import MAX_PRECISION, Real
from emi.quadrature import MAX_TERMS, MAX_WORK
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


@pytest.mark.parametrize("argv", [
    ["arctan"],
    ["integrate", "--integrand", "arctan-kernel"],
])
def test_negative_fraction_x_in_equals_form(capsys, argv):
    # argparse takes a separate "-5/3" for an option, so README and the
    # --x help show the --x=-5/3 form
    code, out = run_cli(capsys, *argv, "--x=-5/3", "--L", "1", "--M", "0",
                        "--mode", "exact")
    assert code == 0
    assert "x = -5/3" in out


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

    def test_digits_below_one_is_a_usage_error(self, capsys):
        assert cli.main(["pi", "--L", "1", "--M", "0", "--digits", "0"]) == 2
        assert capsys.readouterr().err == "error: --digits must be >= 1\n"

    def test_digits_past_the_reference_are_a_precision_error(self, capsys):
        # all 150 embedded digits of pi match, so the count would be capped
        code = cli.main(["pi", "--L", "100", "--M", "200",
                         "--precision", "320", "--digits", "300"])
        assert code == 3
        assert "150 reference digits" in capsys.readouterr().err

    def test_deep_order_is_fast(self):
        # each order's step multiplies or divides by a short integer; with
        # weights that divided by each exact (2L)^(m+1), this run took more
        # than 20 s
        proc = subprocess.run(
            [sys.executable, "-m", "emi", "pi", "--L", "1", "--M", "40000",
             "--precision", "60", "--digits", "50"],
            capture_output=True, text=True, timeout=10,
        )
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("L,M", [("1000000000000", "0"), ("1", "1000000000")])
    def test_huge_term_count_fails_fast(self, L, M):
        # the term budget refuses both before any allocation; without it the
        # first runs for weeks
        proc = subprocess.run(
            [sys.executable, "-m", "emi", "pi", "--L", L, "--M", M],
            capture_output=True, text=True, timeout=10,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == (
            f"error: L * (M // 2 + 1) must be <= {MAX_TERMS}, got L = {L}, M = {M}\n"
        )

    def test_huge_work_fails_fast(self):
        # MAX_TERMS admits (10^7, 0), but at precision 10^5 the work budget
        # refuses it before any allocation; it would run for about 22 minutes
        proc = subprocess.run(
            [sys.executable, "-m", "emi", "pi", "--L", "10000000", "--M", "0",
             "--precision", "100000"],
            capture_output=True, text=True, timeout=10,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == (
            f"error: L * (M // 2 + 1) * working precision must be <= {MAX_WORK}, "
            "got L = 10000000, M = 0, working precision = 100015\n"
        )

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

    def test_long_numeral_exact_at_deep_order_is_fast(self):
        # the exact closed form steps on Gaussian ints and makes one
        # Fraction per subinterval: on Fraction pairs this run took 3 s
        proc = subprocess.run(
            [sys.executable, "-m", "emi", "arctan", "--x", "7" * 300, "--L", "3",
             "--M", "60", "--mode", "exact", "--format", "json"],
            capture_output=True, text=True, timeout=10,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["agreement"] == "ok"

    @pytest.mark.parametrize("x", ["7" * 4000, "1e1000", "0." + "3" * 3999],
                             ids=["4000-digit-integer", "1e1000", "4000-digit-decimal"])
    def test_long_numeral_at_wide_L_is_fast(self, x):
        # the engine's kernel rounds a parameter longer than the working
        # precision once per run: carried exactly into every subinterval's
        # integers, it made this run take about 25 s
        proc = subprocess.run(
            [sys.executable, "-m", "emi", "arctan", "--x", x, "--L", "2000", "--M", "2"],
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

    def test_digits_are_checked_before_x_is_parsed(self, capsys):
        # a bad --digits is a precision error whatever --x holds
        code = cli.main(["arctan", "--x", "1/0", "--L", "3", "--M", "2",
                         "--digits", "70"])
        assert code == 3
        assert capsys.readouterr().err == "error: --digits 70 exceeds --precision 60\n"

    def test_exponent_with_underscores_fails_fast(self):
        # Fraction reads 9_999_999 as the exponent 9999999 and would build
        # 10**9999999 first: this run was still going after 10 s
        proc = subprocess.run(
            [sys.executable, "-m", "emi", "arctan", "--x", "1e9_999_999",
             "--L", "1", "--M", "0"],
            capture_output=True, text=True, timeout=5,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == (
            "error: exponent of '1e9_999_999'... exceeds 1000 in magnitude\n"
        )

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

    def test_exp_at_largest_precision_is_fast(self):
        # the kernel sums one integer series at about 3.3 10^5 bits, where a
        # 10^5-digit Decimal exponential runs for over a minute
        proc = subprocess.run(
            [sys.executable, "-m", "emi", "integrate", "--integrand", "exp",
             "--L", "1", "--M", "0", "--precision", str(MAX_PRECISION),
             "--digits", "10"],
            capture_output=True, text=True, timeout=10,
        )
        assert proc.returncode == 0, proc.stderr
        assert "value = 1.648721270" in proc.stdout

    def test_exp_at_largest_admitted_L_is_fast(self):
        # the largest L that MAX_WORK admits at MAX_PRECISION: the kernel sums
        # the L terms in closed form, with about log2(2L) squarings of
        # 3.3 10^5-bit ints, so the run's cost does not grow with L
        proc = subprocess.run(
            [sys.executable, "-m", "emi", "integrate", "--integrand", "exp",
             "--L", "9998", "--M", "0", "--precision", str(MAX_PRECISION),
             "--digits", "10"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "value = 1.718281827" in proc.stdout


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
        header, *cells = csv.reader(out.splitlines())
        assert header == ["L", "M", "value", "matchedDigits", "absError", "estOrder"]
        report = convergence_scan([8, 16, 32], [0, 2], precision=40)
        assert cells == [["" if v is None else str(v) for v in row] for row in report.rows]

    def test_text_table_bytes(self, capsys):
        code, out = run_cli(capsys, "scan", "--L", "8,16", "--M", "0,2",
                            "--precision", "20")
        assert code == 0
        assert out == (
            "     L    M  value                              matched  abs_error    est_order\n"
            "     8    0  3.1428947295916887799                    3  0.00130207           -\n"
            "    16    0  3.1419181743085599718                    4  3.25520e-4      2.0000\n"
            "     8    2  3.1415926578467046350                    9  4.25691e-9           -\n"
            "    16    2  3.1415926536563157291                   10  6.65224e-11     5.9998\n"
        )

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

    def test_empty_list_is_usage_error(self, capsys):
        assert cli.main(["scan", "--L", ",", "--M", "0"]) == 2
        assert "list must not be empty" in capsys.readouterr().err

    def test_largest_precision_is_fast(self):
        # the error and order are made at most at the reference's 150 digits
        # plus the guard; at precision + 15 digits Decimal.ln, about
        # quadratic in the digits, kept this scan running far past the
        # timeout, and the error's Real was over MAX_PRECISION
        proc = subprocess.run(
            [sys.executable, "-m", "emi", "scan", "--L", "8,16", "--M", "0",
             "--precision", str(MAX_PRECISION), "--format", "csv"],
            capture_output=True, text=True, timeout=10,
        )
        assert proc.returncode == 0, proc.stderr
        rows = list(csv.DictReader(proc.stdout.splitlines()))
        assert [row["matchedDigits"] for row in rows] == ["3", "4"]
        assert [row["absError"] for row in rows] == ["0.00130207", "3.25520e-4"]
        assert rows[1]["estOrder"] == "2.0"


class TestVerifyCommand:
    def test_all_groups_pass(self, capsys):
        code, out = run_cli(capsys, "verify")
        assert code == 0
        assert out.count("PASS") == 3
        assert "FAIL" not in out

    def test_group_filter(self, capsys):
        code, out = run_cli(capsys, "verify", "--group", "exactness")
        assert code == 0
        assert out.count("PASS") == 1
        assert "exactness" in out

    def test_text_bytes(self, capsys):
        code, out = run_cli(capsys, "verify", "--group", "exactness")
        assert code == 0
        assert out == "PASS exactness (90 cases)\n"

    def test_json_format(self, capsys):
        code, out = run_cli(capsys, "verify", "--group", "exactness",
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


class TestHostilePrecision:
    COMMANDS = [
        ["pi", "--L", "1", "--M", "0", "--digits", "10"],
        ["arctan", "--x", "1", "--L", "1", "--M", "0", "--digits", "10"],
        ["integrate", "--integrand", "exp", "--L", "1", "--M", "0", "--digits", "10"],
        ["scan", "--L", "1", "--M", "0"],
    ]

    @pytest.mark.parametrize("precision",
                             ["9999999999999999999", str(MAX_PRECISION + 1)])
    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[0])
    def test_refused_with_one_line(self, capsys, argv, precision):
        code = cli.main([*argv, "--precision", precision])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        message = f"precision must be <= {MAX_PRECISION}, got {precision}"
        assert captured.err == f"error: {message}\n"

    def test_no_traceback_from_a_fresh_process(self):
        proc = subprocess.run(
            [sys.executable, "-m", "emi", "pi", "--L", "1", "--M", "0",
             "--precision", "9999999999999999999", "--digits", "10"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr

    def test_largest_precision_is_accepted(self, capsys):
        code, out = run_cli(capsys, "pi", "--L", "1", "--M", "0",
                            "--precision", str(MAX_PRECISION), "--digits", "10")
        assert code == 0
        assert "value = 3.2" in out


class TestEnvironment:
    def test_repeated_runs_print_identical_output(self, capsys):
        code, out = run_cli(capsys, "pi", "--L", "32", "--M", "2")
        assert code == 0
        code2, out2 = run_cli(capsys, "pi", "--L", "32", "--M", "2")
        assert code2 == 0
        assert out == out2

    def test_import_path_loads_no_dataclasses(self):
        # pytest itself imports dataclasses, so only a fresh interpreter
        # shows what importing emi and running a command loads
        script = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import emi, emi.cli\n"
            "code = emi.cli.main(['pi', '--L', '10', '--M', '2', '--format', 'json'])\n"
            "heavy = {'dataclasses', 'inspect', 'dis', 'ast', 'tokenize', 'copy'}\n"
            "print(sorted(heavy & (set(sys.modules) - before)), file=sys.stderr)\n"
            "sys.exit(code)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["termCount"] == 20
        assert proc.stderr == "[]\n"

    def test_only_the_cli_loads_json_and_csv(self):
        # pytest itself imports json, so only a fresh interpreter shows that
        # the math modules leave every output format to emi.cli
        script = (
            "import sys\n"
            "import emi\n"
            "print(sorted({'json', 'csv'} & set(sys.modules)))\n"
            "import emi.cli\n"
            "print(sorted({'json', 'csv'} & set(sys.modules)))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n['csv', 'json']\n"

    def test_version_flag(self, capsys):
        code = cli.main(["--version"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.strip()
