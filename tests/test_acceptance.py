"""Acceptance suite: every criterion at its stated tolerance, one
pass/fail line printed per criterion (run with -s to see them live), and
the run plan behind them."""

import collections
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import scnls
from scnls import nls, studies, wkb
from scnls.acceptance import (
    CRITERIA_TABLE, conservation_checks, low_mode_datum, plan_runs, run_suite, scaling_checks,
    verdicts,
)
from scnls.grid import make_grid

from conftest import alone, bit_identical

STACK_SOLVERS = ((nls, "solve_nls_stack"), (wkb, "solve_grenier_stack"),
                 (wkb, "solve_limit_stack"))


@pytest.fixture(scope="session")
def results():
    return verdicts(run_suite()[1])


@pytest.mark.parametrize(
    "number", range(1, 10), ids=[f"{i}-{row[0]}" for i, row in enumerate(CRITERIA_TABLE, 1)]
)
def test_criterion(results, number):
    _, name, passed, detail = results[number - 1]
    mark = "PASS" if passed else "FAIL"
    print(f"[{number}] {name:<28} {mark}  ({detail})")
    assert passed, f"criterion {number} ({name}): {detail}"


@pytest.fixture(scope="module")
def planned():
    """A run cache freshly planned by plan_runs, with the arguments of
    every stack the planner ran, per solver name."""
    stacks = collections.defaultdict(list)
    with pytest.MonkeyPatch.context() as mp:
        for module, name in STACK_SOLVERS:
            def recording(*args, solve=getattr(module, name), name=name):
                stacks[name].append(args)
                return solve(*args)
            mp.setattr(module, name, recording)
        cache = {}
        plan_runs(cache)
    return cache, stacks


def test_plan_is_two_wavefunction_one_grenier_and_two_limit_stacks(planned):
    _, stacks = planned
    # every Grenier run takes the transport step, whatever its eps, and the
    # wavefunction runs at one grid size share one run config
    assert {name: len(calls) for name, calls in stacks.items()} == {
        "solve_nls_stack": 2, "solve_grenier_stack": 1, "solve_limit_stack": 2}
    # a phase-amplitude stack's arguments are its members and keep; a
    # member's run config is the last item of its tuple
    rk4_steps = [members[0][-1].steps
                 for members, _ in stacks["solve_grenier_stack"] + stacks["solve_limit_stack"]]
    assert sum(rk4_steps) == 50


def test_criteria_make_no_solver_call_once_planned(planned, monkeypatch):
    cache, _ = planned
    for module, name in STACK_SOLVERS + ((studies, "solve_runs"),):
        monkeypatch.setattr(module, name, lambda *a, name=name: pytest.fail(f"{name} called"))
    assert all(passed for _, _, passed, _ in verdicts(run_suite(cache=cache)[1]))


def test_every_cached_run_equals_its_single_run(planned):
    cache, _ = planned
    assert collections.Counter(run.kind for run in cache) == {"nls": 15, "grenier": 7, "limit": 7}
    for run, traj in cache.items():
        assert bit_identical(traj, alone(run)), run


def per_s(*names):
    return [f"{name}_s{s:g}" for name in names for s in (0.0, 1.0, 2.0)]


# The checks each criterion names; a study report's as <CSV stem>/<check>.
CRITERION_CHECKS = {
    1: ["oracle"],
    2: per_s("wkb_error_study/profile_plain_slope", "wkb_error_study/profile_perturbed_slope"),
    3: per_s("wkb_error_study/expansion_gap_slope"),
    4: per_s("smalltime_study/phase_residual_slope",
             "smalltime_study/corrector_phase_residual_slope"),
    5: per_s("ghost_study/stabilized", "ghost_study/above_floor",
             "ghost_control_study/control_null"),
    6: ["corrector_phase"],
    7: ["conservation_runs", "mass_drift", "energy_drift"],
    8: ["rescaling_identity", "threshold_sign_flips"],
    9: per_s("ghost_n_study/stabilized", "ghost_n_study/above_floor"),
}


def stub_suite(failing=None, checks=None):
    """Only the checks the criteria name, all passing with value 0.125
    except failing, plus one failing check no criterion names; checks, when
    given, replace stubs of the same name."""
    stubs = {name: {"passed": name != failing, "value": 0.125, "bound": "stub", "note": "stub"}
             for names in CRITERION_CHECKS.values() for name in names}
    stubs["ghost_study/unnamed_s0"] = {"passed": False, "value": 0.0}
    return stubs | (checks or {})


def failed(checks):
    return {number for number, _, passed, _ in verdicts(checks) if not passed}


@pytest.mark.parametrize("number", CRITERION_CHECKS)
def test_study_criterion_passes_when_every_check_it_names_does(number):
    assert number not in failed(stub_suite())
    for name in CRITERION_CHECKS[number]:
        assert failed(stub_suite(name)) == {number}, name


def test_conservation_needs_ten_runs(planned):
    cache, _ = planned
    runs = [run for run in cache if run.kind == "nls"]
    for n, verdict in ((9, {7}), (10, set())):
        checks = conservation_checks({run: cache[run] for run in runs[:n]})
        assert failed(stub_suite(checks=checks)) == verdict, n


def test_ghost_criteria_details():
    assert verdicts(stub_suite())[4][3] == (
        "s=0: spread 0.125, floor ok=True; s=1: spread 0.125, floor ok=True; "
        "s=2: spread 0.125, floor ok=True; control run null to 1e-10")
    assert verdicts(stub_suite("ghost_n_study/above_floor_s1"))[8][3] == (
        "s=0: spread 0.125; s=1: spread 0.125; s=2: spread 0.125")


def test_scaling_checks_leave_numpy_random_unimported():
    # criterion 8's random datum comes from the standard library generator
    code = ("import sys\n"
            "from scnls import acceptance\n"
            "assert all(c['passed'] for c in acceptance.scaling_checks(0).values())\n"
            "assert 'numpy.random' not in sys.modules, 'numpy.random imported'\n")
    env = {**os.environ, "PYTHONPATH": str(Path(scnls.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_scaling_checks_datum_follows_the_seed():
    assert scaling_checks(3) == scaling_checks(3)
    g = make_grid(1, 12.0, 512)
    assert np.array_equal(low_mode_datum(g, 3).values, low_mode_datum(g, 3).values)
    assert not np.array_equal(low_mode_datum(g, 3).values, low_mode_datum(g, 4).values)
    with pytest.raises(ValueError, match="seed"):
        scaling_checks(-1)


def test_negative_seed_raises_before_any_run(monkeypatch):
    # run_suite refuses the seed before it plans or integrates any run
    for module, name in STACK_SOLVERS + ((studies, "solve_runs"),):
        monkeypatch.setattr(module, name, lambda *a, name=name: pytest.fail(f"{name} called"))
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        run_suite(seed=-1)
