"""Acceptance suite: every criterion at its stated tolerance, one
pass/fail line printed per criterion (run with -s to see them live), and
the run plan behind them."""

import collections

import pytest

from scnls import nls, studies, wkb
from scnls.acceptance import CRITERIA, AcceptanceSuite
from scnls.studies import RunCache

from conftest import bit_identical

STACK_SOLVERS = ((nls, "solve_nls_stack"), (wkb, "solve_grenier_stack"),
                 (wkb, "solve_limit_stack"))
SINGLE_SOLVERS = ((nls, "solve_nls"), (wkb, "solve_grenier"),
                  (wkb, "solve_limit_with_corrector"))


@pytest.fixture(scope="session")
def suite():
    return AcceptanceSuite()


@pytest.mark.parametrize(
    "number", range(1, 10), ids=[f"{i}-{name}" for i, name in enumerate(CRITERIA, 1)]
)
def test_criterion(suite, number):
    result = suite.run_criterion(number)
    mark = "PASS" if result.passed else "FAIL"
    print(f"[{result.criterion}] {result.name:<28} {mark}  ({result.detail})")
    assert result.passed, f"criterion {result.criterion} ({result.name}): {result.detail}"


@pytest.fixture(scope="module")
def planned():
    """A fresh suite whose runs are planned, with the arguments of every
    stack the planner ran, per solver name.  No single-run solver may be
    called while planning."""
    stacks = collections.defaultdict(list)
    with pytest.MonkeyPatch.context() as mp:
        for module, name in STACK_SOLVERS:
            def recording(*args, solve=getattr(module, name), name=name):
                stacks[name].append(args)
                return solve(*args)
            mp.setattr(module, name, recording)
        for module, name in SINGLE_SOLVERS:
            mp.setattr(module, name, lambda *a, name=name: pytest.fail(f"{name} called"))
        s = AcceptanceSuite()
        s.plan_runs()
    return s, stacks


def test_plan_is_five_wavefunction_three_grenier_and_two_limit_stacks(planned):
    _, stacks = planned
    assert {name: len(calls) for name, calls in stacks.items()} == {
        "solve_nls_stack": 5, "solve_grenier_stack": 3, "solve_limit_stack": 2}
    # a phase-amplitude member's run config is the last item of its tuple
    rk4_steps = [max(1, round(members[0][-1].T / members[0][-1].dt))
                 for (members,) in stacks["solve_grenier_stack"] + stacks["solve_limit_stack"]]
    assert sum(rk4_steps) == 140


def test_criteria_make_no_solver_call_once_planned(planned, monkeypatch):
    s, _ = planned
    for module, name in STACK_SOLVERS + SINGLE_SOLVERS:
        monkeypatch.setattr(module, name, lambda *a, name=name: pytest.fail(f"{name} called"))
    assert all(result.passed for result in s.run_all())


def test_every_cached_run_equals_its_single_run(planned):
    s, _ = planned
    runs = list(s.cache._data)
    assert collections.Counter(run.kind for run in runs) == {"nls": 15, "grenier": 7, "limit": 7}
    for run in runs:
        assert bit_identical(s.cache._data[run], studies._trajectory(RunCache(), run)), run


# The study checks each study-backed criterion names, per report attribute.
CRITERION_CHECKS = {
    2: {"error_report": ["profile_plain_slope", "profile_perturbed_slope"]},
    3: {"error_report": ["expansion_gap_slope"]},
    4: {"smalltime_report": ["phase_residual_slope", "corrector_phase_residual_slope"]},
    5: {"ghost_report": ["stabilized", "above_floor"], "control_report": ["control_null"]},
    9: {"higher_order_report": ["stabilized", "above_floor"]},
}


def stub_suite(number, failing=None):
    """A suite whose reports hold only the checks criterion number names,
    all passing with value 0.125 except failing, plus one failing check it
    does not name."""
    s = AcceptanceSuite()
    for attr, prefixes in CRITERION_CHECKS[number].items():
        checks = {f"{prefix}_s{x:g}": {"passed": f"{prefix}_s{x:g}" != failing, "value": 0.125}
                  for prefix in prefixes for x in s.config.s_list}
        checks["unnamed_s0"] = {"passed": False, "value": 0.0}
        s.__dict__[attr] = studies.StudyReport("stub", {}, [], [], checks)
    return s


@pytest.mark.parametrize("number", CRITERION_CHECKS)
def test_study_criterion_passes_when_every_check_it_names_does(number):
    named = [f"{prefix}_s{x:g}" for prefixes in CRITERION_CHECKS[number].values()
             for prefix in prefixes for x in (0.0, 1.0, 2.0)]
    criterion = getattr(AcceptanceSuite, f"criterion_{number}")
    assert criterion(stub_suite(number)).passed
    for name in named:
        assert not criterion(stub_suite(number, name)).passed, name


def test_ghost_criteria_details():
    assert AcceptanceSuite.criterion_5(stub_suite(5)).detail == (
        "s=0: spread 0.125, floor ok=True; s=1: spread 0.125, floor ok=True; "
        "s=2: spread 0.125, floor ok=True; control run null to 1e-10")
    assert AcceptanceSuite.criterion_9(stub_suite(9, "above_floor_s1")).detail == (
        "s=0: spread 0.125; s=1: spread 0.125; s=2: spread 0.125")
