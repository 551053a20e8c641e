import pytest

from emi import selftest
from emi.errors import EmiError
from emi.precision import Rat
from emi.selftest import GroupResult, group_names, run_selftest

#: What a negative control adds to one case's value; the groups compare
#: exactly, so any nonzero amount makes that case fail
NUDGE = Rat(1, 10**40)


def test_group_names():
    assert group_names() == ["closed-form", "exactness", "odd-collapse"]


def test_default_run_all_groups_pass():
    results = run_selftest()
    assert [r.name for r in results] == group_names()
    assert all(r.passed for r in results)
    assert [r.cases for r in results] == [36, 90, 48]


def test_group_stops_at_first_mismatch(monkeypatch):
    def cases():
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


def test_closed_form_group_fails_on_one_off_case(monkeypatch):
    # negative control: the closed form is off at one case, the 20th
    closed_form_arctan = selftest.closed_form_arctan

    def off(x, L, M, mode):
        value = closed_form_arctan(x, L, M, mode=mode)
        return value + NUDGE if (x, L, M) == (Rat(1, 2), 10, 2) else value

    monkeypatch.setattr(selftest, "closed_form_arctan", off)
    [result] = run_selftest(["closed-form"])
    assert result.passed is False
    assert result.cases == 20
    assert result.first_failure.startswith("x=1/2, L=10, M=2: got ")


@pytest.mark.parametrize(
    "group, name, L, M, case, inputs",
    [
        ("exactness", "poly:3", 3, 4, 29, "poly:3, L=3, M=4"),
        ("odd-collapse", "runge", 8, 5, 19, "runge, L=8, M=5 vs 4"),
    ],
)
def test_engine_group_fails_on_one_off_case(
    monkeypatch, group, name, L, M, case, inputs
):
    # negative control: the engine is off at one run, and so at one case
    emi_integrate = selftest.emi_integrate

    def off(spec, config):
        result = emi_integrate(spec, config)
        if (spec.name, config.L, config.M) == (name, L, M):
            return result._replace(value=result.value + NUDGE)
        return result

    monkeypatch.setattr(selftest, "emi_integrate", off)
    [result] = run_selftest([group])
    assert result.passed is False
    assert result.cases == case
    assert result.first_failure.startswith(f"{inputs}: got ")


def test_unknown_group_rejected():
    with pytest.raises(EmiError):
        run_selftest(["frobnication"])
