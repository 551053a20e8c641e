import pytest

from emi import selftest
from emi.errors import EmiError
from emi.pi_suite import REFERENCE_PI, ReferencePi
from emi.selftest import GroupResult, group_names, run_selftest


def test_group_names():
    assert group_names() == ["closed-form", "exactness", "odd-collapse", "reference-pi"]


def test_default_run_all_groups_pass():
    results = run_selftest()
    assert [r.name for r in results] == group_names()
    assert all(r.passed for r in results)
    assert [r.cases for r in results] == [36, 90, 48, 2]


def test_group_stops_at_first_mismatch(monkeypatch):
    def cases(reference):
        yield "case 1", 1, 1
        yield "case 2", 2, 3
        yield "case 3", 4, 4

    monkeypatch.setitem(selftest._GROUPS, "exactness", cases)
    [result] = run_selftest(["exactness"])
    assert result == GroupResult("exactness", False, 2, "case 2: got 2, want 3")


def test_single_group_filter():
    results = run_selftest(["exactness"])
    assert len(results) == 1
    assert results[0].name == "exactness"
    assert results[0].passed


def test_corrupted_reference_fails_with_counterexample():
    # negative control: flip one digit inside the checked prefix
    corrupted = "9" + REFERENCE_PI.digits[1:]
    results = run_selftest(["reference-pi"], reference=ReferencePi(corrupted))
    assert not results[0].passed
    assert "digit 1" in results[0].first_failure


def test_corruption_beyond_prefix_is_not_this_groups_job():
    tail_corrupted = REFERENCE_PI.digits[:-1] + "0"
    results = run_selftest(["reference-pi"], reference=ReferencePi(tail_corrupted))
    assert results[0].passed  # prefix check only; full check lives in the tests


def test_unknown_group_rejected():
    with pytest.raises(EmiError):
        run_selftest(["frobnication"])
