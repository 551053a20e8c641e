"""A checked-in CLI byte grid: every call's exit code and stdout, byte for byte.

``cli_bytes.json`` holds, for each argv in :data:`GRID`, the exit code and
stdout of an in-process ``emi.cli.main`` call.  A change that means to keep
every printed byte passes this test unchanged; a change that means to move
bytes rewrites the file and says which calls moved, with

    PYTHONPATH=src python tests/test_cli_bytes.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from emi import cli

DATA = Path(__file__).with_name("cli_bytes.json")

GRID = [
    ["pi", "--L", "1", "--M", "0", "--precision", "10", "--digits", "10"],
    ["pi", "--L", "46", "--M", "46", "--precision", "130", "--digits", "100",
     "--format", "json"],
    ["pi", "--L", "1000", "--M", "6", "--format", "csv"],
    ["pi", "--L", "3", "--M", "2", "--mode", "exact", "--format", "json"],
    ["pi", "--L", "10", "--M", "6", "--mode", "exact", "--digits", "40"],
    ["pi", "--L", "2", "--M", "1", "--precision", "20", "--digits", "21"],
    ["arctan", "--x", "1", "--L", "4", "--M", "6"],
    ["arctan", "--x=-5/3", "--L", "5", "--M", "6", "--format", "json"],
    ["arctan", "--x=-5/3", "--L", "5", "--M", "6", "--mode", "exact",
     "--format", "csv"],
    ["arctan", "--x", "1/3", "--L", "2000", "--M", "6", "--precision", "40",
     "--digits", "30", "--format", "csv"],
    ["arctan", "--x", "7", "--L", "4", "--M", "60", "--precision", "100",
     "--digits", "80", "--format", "json"],
    ["arctan", "--x", "1e-40", "--L", "3", "--M", "2"],
    ["arctan", "--x", "1/0", "--L", "3", "--M", "2"],
    ["integrate", "--integrand", "exp", "--L", "1", "--M", "0"],
    ["integrate", "--integrand", "exp", "--L", "1", "--M", "13", "--precision",
     "130", "--digits", "120", "--format", "json"],
    ["integrate", "--integrand", "exp", "--L", "7", "--M", "2", "--format", "csv"],
    ["integrate", "--integrand", "exp", "--L", "7", "--M", "6", "--precision",
     "25", "--digits", "25", "--format", "json"],
    ["integrate", "--integrand", "exp", "--L", "2000", "--M", "2", "--format", "json"],
    ["integrate", "--integrand", "exp", "--L", "2000", "--M", "0", "--precision",
     "10", "--digits", "10"],
    ["integrate", "--integrand", "exp", "--L", "2000", "--M", "6", "--precision",
     "145", "--digits", "145", "--format", "csv"],
    ["integrate", "--integrand", "exp", "--L", "3", "--M", "2", "--mode", "exact"],
    ["integrate", "--integrand", "runge", "--L", "8", "--M", "40", "--precision",
     "100", "--digits", "90", "--format", "json"],
    ["integrate", "--integrand", "runge", "--L", "5", "--M", "4", "--mode", "exact",
     "--format", "csv"],
    ["integrate", "--integrand", "runge", "--L", "100", "--M", "2"],
    ["integrate", "--integrand", "poly:9", "--L", "3", "--M", "8", "--mode",
     "exact", "--format", "json"],
    ["integrate", "--integrand", "poly:9", "--L", "3", "--M", "4"],
    ["integrate", "--integrand", "poly:9", "--L", "7", "--M", "2", "--precision",
     "40", "--digits", "40", "--format", "csv"],
    ["integrate", "--integrand", "poly:1000", "--L", "5", "--M", "2",
     "--format", "json"],
    ["integrate", "--integrand", "poly:1000", "--L", "1", "--M", "4", "--mode",
     "exact", "--digits", "30"],
    ["integrate", "--integrand", "poly:1000", "--L", "50", "--M", "2",
     "--precision", "30", "--digits", "30", "--format", "csv"],
    ["integrate", "--integrand", "arctan-kernel", "--x", "2/7", "--L", "6",
     "--M", "6", "--format", "json"],
    ["scan", "--L", "8,16", "--M", "0,2", "--precision", "20"],
    ["scan", "--L", "4,8,16", "--M", "0,2,6", "--format", "json"],
    ["scan", "--L", "2,4", "--M", "0,2", "--mode", "exact", "--precision", "30",
     "--format", "csv"],
    ["scan", "--L", "46", "--M", "46", "--precision", "100"],
    ["verify"],
    ["verify", "--format", "json"],
    ["verify", "--group", "reference-pi"],  # not a group: a usage error, exit 2
    ["verify", "--group", "closed-form", "--format", "json"],
    ["verify", "--group", "exactness", "--format", "csv"],
    ["pi", "--L", "2", "--M", "1618", "--precision", "1020", "--digits", "150",
     "--format", "json"],
    ["pi", "--L", "1", "--M", "2850", "--precision", "1020", "--digits", "150"],
    ["integrate", "--integrand", "runge", "--L", "3", "--M", "300", "--precision",
     "500", "--digits", "500", "--format", "csv"],
    ["integrate", "--integrand", "poly:57", "--L", "2", "--M", "60", "--format",
     "json"],
    ["integrate", "--integrand", "exp", "--L", "1", "--M", "600", "--precision",
     "1000", "--digits", "1000", "--format", "json"],
    ["arctan", "--x", "1/3", "--L", "4", "--M", "300", "--precision", "400",
     "--digits", "400", "--format", "json"],
    ["integrate", "--integrand", "exp", "--L", "2000", "--M", "6", "--format",
     "json"],
    ["integrate", "--integrand", "poly:57", "--L", "2000", "--M", "60",
     "--format", "json"],
    ["integrate", "--integrand", "poly:1000", "--L", "10", "--M", "1000",
     "--format", "csv"],
    ["arctan", "--x=-5/3", "--L", "2000", "--M", "3", "--format", "json"],
    ["integrate", "--integrand", "runge", "--L", "64", "--M", "4", "--precision",
     "130", "--digits", "130", "--format", "json"],
    ["arctan", "--x", "1000000", "--L", "1", "--M", "120"],
    ["arctan", "--x=-7/3", "--L", "33", "--M", "41", "--precision", "200"],
    ["arctan", "--x", "3.141592653589793238462643383279502884197", "--L", "7",
     "--M", "13", "--precision", "20", "--digits", "20"],
    ["pi", "--L", "1", "--M", "14500", "--precision", "5020", "--digits", "150"],
]


def run(argv: list[str]) -> dict:
    """Exit code and stdout of one in-process ``emi.cli.main`` call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return {"argv": argv, "exit": code, "stdout": out.getvalue()}


@pytest.fixture(scope="module")
def recorded() -> dict:
    entries = json.loads(DATA.read_text(encoding="utf-8"))
    return {tuple(entry["argv"]): entry for entry in entries}


def test_data_file_covers_the_grid(recorded):
    assert list(recorded) == [tuple(argv) for argv in GRID]


@pytest.mark.parametrize("argv", GRID, ids=" ".join)
def test_bytes_unchanged(argv, recorded):
    assert run(argv) == recorded[tuple(argv)]


if __name__ == "__main__":
    DATA.write_text(json.dumps([run(argv) for argv in GRID], indent=1) + "\n",
                    encoding="utf-8")
