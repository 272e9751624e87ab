"""Desk-scale acceptance suite.

Nine verdicts covering the whole pipeline: solver cross-validation,
profile/expansion orders, small-time expansions, ghost separation and its
higher-order variant, the corrector-phase degeneracy, conservation, and
the exact rescaling identities.  Each verdict is a row of CRITERIA_TABLE
that names the checks it reduces; the reports of the studies in
SUITE_STUDIES hold most of them, the four *_checks functions below the
rest.  run_suite plans every run once into one run cache (plan_runs) and
computes the reports and checks from it; verdicts reduces the checks to
the nine verdicts.  All tolerances are fixed here and in the studies.
"""

from __future__ import annotations

import random
from dataclasses import replace

import numpy as np

from . import nls, studies, wkb
from .grid import SPECTRAL, Field, SobolevIndex, inverse_transform, make_grid, norm, resample
from .studies import GaussianSpec, ScalingParams, SweepConfig, _check

FULL_EPS_SWEEP = (0.25, 0.125, 0.0625, 0.03125, 0.015625)
S_LIST = (0.0, 1.0, 2.0)
SUITE_CONFIG = SweepConfig(eps_list=FULL_EPS_SWEEP, s_list=S_LIST)
# CSV name -> (study function and its run plan, both of `studies` and looked
# up on each call so that a wrapper bound on the module runs, e.g.
# perfbench's tracer; sweep config), in the order the reports are built
SUITE_STUDIES = {
    "wkb_error_study.csv": ("wkb_error_study", "wkb_error_runs", SUITE_CONFIG),
    "smalltime_study.csv": ("small_time_study", "small_time_runs", SUITE_CONFIG),
    "ghost_study.csv": ("ghost_separation_study", "ghost_runs", SUITE_CONFIG),
    "ghost_control_study.csv": ("ghost_separation_study", "ghost_runs", replace(
        SUITE_CONFIG, eps_list=FULL_EPS_SWEEP[-2:], a1_mode="zero")),
    "ghost_n_study.csv": ("ghost_higher_order_study", "ghost_runs", replace(
        SUITE_CONFIG, a1_mode="scaled", scaled_order=2)),
}
# The oracle comparison's sweep points and perturbations, and the
# degeneracy run's coefficient c of a1 = c a0.
ORACLE_EPS = (0.125, 0.0625)
ORACLE_MODES = ("zero", "equal_a0")
DEGENERACY_C = studies.A1_COEFFICIENTS["imaginary"](0.0, 1)


def _per_s(names, template):
    """One detail part per s in S_LIST: the checks <name>_s<s> and template
    with {s} filled in."""
    return [([f"{name}_s{s:g}" for name in names], template.replace("{s}", f"{s:g}"))
            for s in S_LIST]


def _slopes(band, labels):
    """Head and parts of a criterion over slope checks, one per
    (report/family -> label prefix) entry of labels and s."""
    return ("slopes in [{}, {}]: ".format(*band), ", ", [
        part for name, label in labels.items()
        for part in _per_s([f"{name}_slope"], label + "s={s}: {0[value]:.3f}")])


# Each criterion: its name, then the detail's head and separator and its
# parts.  A part is the check names it reduces (a study report's check is
# <CSV stem>/<check>) and a template formatted with those checks in order;
# the detail is the head followed by the formatted parts joined by the
# separator.  A criterion passes when every check its parts name passes.
CRITERIA_TABLE = (
    ("oracle-equivalence", "", "", [
        (["oracle"], "max relative L2 discrepancy {0[value]:.3e} {0[bound]} ({0[note]})")]),
    ("profile-error-order", *_slopes(studies.SLOPE_BAND_ORDER1, {
        "wkb_error_study/profile_plain": "plain/",
        "wkb_error_study/profile_perturbed": "perturbed/"})),
    ("corrector-order", *_slopes(studies.SLOPE_BAND_ORDER2, {
        "wkb_error_study/expansion_gap": ""})),
    ("small-time-expansions", *_slopes(studies.SLOPE_BAND_CUBIC, {
        "smalltime_study/phase_residual": "phase/",
        "smalltime_study/corrector_phase_residual": "corrector/"})),
    ("ghost-separation", "", "; ", [
        *_per_s(["ghost_study/stabilized", "ghost_study/above_floor"],
                "s={s}: spread {0[value]:.3f}, floor ok={1[passed]}"),
        ([f"ghost_control_study/control_null_s{s:g}" for s in S_LIST],
         "control run null to 1e-10")]),
    ("corrector-phase-degeneracy", "", "", [
        (["corrector_phase"], "sup_t |phi1|_inf = {0[value]:.3e} {0[bound]}")]),
    ("conservation", "", "", [
        (["conservation_runs", "mass_drift", "energy_drift"],
         "{0[value]} runs: max mass drift {1[value]:.3e} {1[bound]}, "
         "max energy drift {2[value]:.3e} {2[bound]}")]),
    ("scaling-identities", "", "", [
        (["rescaling_identity", "threshold_sign_flips"],
         "rescaling identity max rel error {0[value]:.3e} {0[bound]}; "
         "threshold sign flips exact on n in 3..8 lattice: {1[passed]}")]),
    ("higher-order-ghost", "", "; ", _per_s(
        ["ghost_n_study/stabilized", "ghost_n_study/above_floor"], "s={s}: spread {0[value]:.3f}")),
)


def _oracle_runs(eps, mode, scales):
    """The wavefunction and phase-amplitude runs the oracle check compares."""
    c = studies.A1_COEFFICIENTS[mode](eps, SUITE_CONFIG.scaled_order)
    return (studies._nls_run(SUITE_CONFIG, eps, c, scales),
            studies._grenier_run(SUITE_CONFIG, eps, c))


def oracle_checks(cache):
    """L2 agreement of the wavefunction solver with the reconstructed
    phase-amplitude solution: discrepancy <= 1e-4 relative at every saved
    time, for eps in ORACLE_EPS and both data choices.  Each trajectory is
    read as one stack over its saved times."""
    worst, where = 0.0, ""
    scales = studies.grid_scales(SUITE_CONFIG, cache)
    for eps in ORACLE_EPS:
        for mode in ORACLE_MODES:
            u_traj, g_traj = (cache[run] for run in _oracle_runs(eps, mode, scales))
            u = studies.snapshots(u_traj, "u")
            n_fine = u.grid.points_per_axis
            a, phi = resample(studies.snapshots(g_traj, "a", "phi"), n_fine).values
            profile = wkb.reconstruct(Field(u.grid, a), Field(u.grid, phi), eps)
            rels = norm(Field(u.grid, u.values - profile.values)) / norm(u_traj[0].u)
            for us, rel in zip(u_traj, rels.tolist()):
                if rel > worst:
                    worst, where = rel, f"eps={eps}, a1={mode}, t={us.t:g}"
    checks = {}
    _check(checks, "oracle", worst <= 1e-4, worst, "<= 0.0001", where)
    return checks


def degeneracy_checks(cache):
    """A purely imaginary perturbation keeps the corrector phase below 1e-8
    in sup norm at every saved time."""
    traj = cache[studies._limit_run(SUITE_CONFIG, DEGENERACY_C)]
    worst = max(float(np.abs(state.phi1.values).max()) for state in traj)
    checks = {}
    _check(checks, "corrector_phase", worst <= 1e-8, worst, "<= 1e-8")
    return checks


def conservation_checks(cache):
    """Mass drift < 1e-10 relative and energy drift < 1e-6 relative on
    every wavefunction run in cache with nonzero mass, of which there must
    be at least 10.  Each trajectory is read as one stack over its saved
    times."""
    worst_mass, worst_energy, n_runs = 0.0, 0.0, 0
    for run, traj in cache.items():
        if run.kind != "nls":
            continue
        u = studies.snapshots(traj, "u")
        masses = nls.mass(u).tolist()
        m0 = masses[0]
        if m0 == 0.0:
            continue
        n_runs += 1
        energies = nls._energy(u, run.eps).tolist()
        e0 = energies[0]
        worst_mass = max(worst_mass, max(abs(m - m0) for m in masses) / m0)
        worst_energy = max(worst_energy, max(abs(e - e0) for e in energies) / abs(e0))
    checks = {}
    _check(checks, "conservation_runs", n_runs >= 10, n_runs, ">= 10")
    _check(checks, "mass_drift", worst_mass < 1e-10, worst_mass, "< 1e-10")
    _check(checks, "energy_drift", worst_energy < 1e-6, worst_energy, "< 1e-6")
    return checks


def _check_seed(seed):
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


def low_mode_datum(grid, seed):
    """The random field on the 1-D grid whose modes |m| <= 8 have standard
    normal real and imaginary parts, drawn from random.Random(seed) for a
    seed >= 0: the standard library's generator, which spares importing
    numpy.random."""
    _check_seed(seed)
    rng = random.Random(seed)
    spec = np.zeros(grid.shape, dtype=complex)
    low = np.arange(-8, 9) % grid.points_per_axis
    spec[low] = [complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in low]
    return inverse_transform(Field(grid, spec, SPECTRAL))


def scaling_checks(seed):
    """Two-grid realization of the frequency-rescaling identity to 1e-8
    relative for j in {2, 4}, on the Gaussian and on low_mode_datum(seed),
    and the exact sign flip of the growth exponent at k = s/(1 + s_c - s)
    over a dimension lattice."""
    s_datum = 0.7
    big = make_grid(1, 12.0, 512)
    worst = 0.0
    for f in (GaussianSpec().realize(big), low_mode_datum(big, seed)):
        for j in (2, 4):
            fj = Field(make_grid(1, 12.0 / j, 512), float(j) ** (0.5 - s_datum) * f.values)
            for m in (0.0, 0.5, 1.0, 2.0):
                idx = SobolevIndex(m, homogeneous=True)
                rhs = float(j) ** (m - s_datum) * norm(f, idx)
                worst = max(worst, abs(norm(fj, idx) - rhs) / rhs)

    flips = True
    for n in range(3, 9):
        for frac in (0.2, 0.5, 0.8):
            p = ScalingParams(n=n, s=frac * (n / 2 - 1), sigma=0.0, k=1.0)
            k_star = p.k_threshold
            flips = flips and (p.growth_exponent(k_star * (1 + 1e-6)) > 0
                               and p.growth_exponent(k_star * (1 - 1e-6)) < 0
                               and abs(p.growth_exponent(k_star)) <= 1e-12)
    checks = {}
    _check(checks, "rescaling_identity", worst <= 1e-8, worst, "<= 1e-8")
    _check(checks, "threshold_sign_flips", flips, flips, "exact on n in 3..8")
    return checks


def plan_runs(cache):
    """Cache every run the checks read, each group of runs that can share
    one integration as one stack (studies.stack_runs).  First the degeneracy
    run and the limit run whose scales size the wavefunction grids
    (studies.grid_scales), as one stack; then the run plan of each study in
    SUITE_STUDIES and the oracle runs, built from those scales."""
    studies.stack_runs(cache, [studies._limit_run(SUITE_CONFIG, DEGENERACY_C),
                               studies._limit_run(SUITE_CONFIG)])
    scales = studies.grid_scales(SUITE_CONFIG, cache)
    studies.stack_runs(cache, [
        *(run for _, plan, config in SUITE_STUDIES.values()
          for run in getattr(studies, plan)(config, studies.grid_scales(config, cache))),
        *(run for eps in ORACLE_EPS for mode in ORACLE_MODES
          for run in _oracle_runs(eps, mode, scales)),
    ])


def run_suite(seed=0, cache: dict | None = None):
    """(reports, checks): the study reports backing the verdicts, by the CSV
    name each is written under, and every check a criterion can name, the
    suite's own and each report's as <CSV stem>/<check>.  The runs come from
    cache, planned into a new one when not given."""
    _check_seed(seed)
    cache = {} if cache is None else cache
    plan_runs(cache)
    # the reports first: built after the suite's own checks, they raise
    # selftest's peak RSS by about 0.5 MiB
    reports = {name: getattr(studies, study)(config, cache)
               for name, (study, _, config) in SUITE_STUDIES.items()}
    return reports, {
        **oracle_checks(cache), **degeneracy_checks(cache), **conservation_checks(cache),
        **scaling_checks(seed),
        **{f"{name.removesuffix('.csv')}/{check}": result
           for name, rep in reports.items() for check, result in rep.checks.items()}}


def verdicts(checks, printer=None):
    """(number, name, passed, detail) of every criterion of CRITERIA_TABLE,
    reduced from checks (run_suite); printer, when given, gets one line per
    criterion."""
    results = []
    for number, (name, head, sep, parts) in enumerate(CRITERIA_TABLE, 1):
        named = [([checks[check] for check in names], template) for names, template in parts]
        passed = all(check["passed"] for found, _ in named for check in found)
        detail = head + sep.join(template.format(*found) for found, template in named)
        results.append((number, name, passed, detail))
        if printer is not None:
            printer(f"[{number}] {name:<28} {'PASS' if passed else 'FAIL'}  ({detail})")
    return results
