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
