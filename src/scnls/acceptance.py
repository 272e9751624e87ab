"""Desk-scale acceptance suite.

Nine verdicts covering the whole pipeline: solver cross-validation,
profile/expansion orders, small-time expansions, ghost separation and its
higher-order variant, the corrector-phase degeneracy, conservation, and
the exact rescaling identities.  All tolerances are fixed here; the heavy
eps-sweeps are shared across criteria through one run cache.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import nls, studies, wkb
from .grid import Field, SobolevIndex, make_grid, norm, resample
from .studies import (
    GaussianSpec,
    RunCache,
    ScalingParams,
    SweepConfig,
    ghost_higher_order_study,
    ghost_separation_study,
    small_time_study,
    wkb_error_study,
)

FULL_EPS_SWEEP = (0.25, 0.125, 0.0625, 0.03125, 0.015625)
# Criterion 1's sweep points and perturbations, and criterion 6's.
ORACLE_EPS = (0.125, 0.0625)
ORACLE_MODES = ("zero", "equal_a0")
DEGENERACY_MODE = "imaginary"

CRITERIA = (
    "oracle-equivalence",
    "profile-error-order",
    "corrector-order",
    "small-time-expansions",
    "ghost-separation",
    "corrector-phase-degeneracy",
    "conservation",
    "scaling-identities",
    "higher-order-ghost",
)


@dataclass
class CheckResult:
    criterion: int
    name: str
    passed: bool
    detail: str


class AcceptanceSuite:
    """Shared-state runner for the nine acceptance criteria."""

    def __init__(self, seed=0):
        self.cache = RunCache()
        self.seed = seed
        self.config = SweepConfig(
            eps_list=FULL_EPS_SWEEP,
            s_list=(0.0, 1.0, 2.0),
            tau=0.2,
            horizon=0.25,
        )
        self.control_config = replace(
            self.config, eps_list=self.config.eps_list[-2:], a1_mode="zero")
        self.higher_order_config = replace(self.config, a1_mode="scaled", scaled_order=2)

    # -- shared heavy computations ------------------------------------

    def _oracle_runs(self, eps, mode):
        """The wavefunction and phase-amplitude runs criterion 1 compares."""
        multiplier, _ = studies.A1_FACTORS[mode](eps, self.config.scaled_order)
        return (studies._nls_run(self.config, eps, multiplier),
                studies._grenier_run(self.config, eps, mode))

    def plan_runs(self):
        """Cache every run the criteria read: the studies' run lists, the
        degeneracy run and the oracle runs, each group of runs that can
        share one integration as one stack (studies.stack_runs)."""
        c = self.config
        studies.stack_runs(self.cache, [
            studies._limit_run(c, DEGENERACY_MODE),
            *studies.wkb_error_runs(c),
            *studies.small_time_runs(c),
            *(run for cfg in (c, self.control_config, self.higher_order_config)
              for run in studies.ghost_runs(cfg)),
            *(run for eps in ORACLE_EPS for mode in ORACLE_MODES
              for run in self._oracle_runs(eps, mode)),
        ])

    @cached_property
    def ghost_report(self):
        return ghost_separation_study(self.config, self.cache)

    @cached_property
    def control_report(self):
        return ghost_separation_study(self.control_config, self.cache)

    @cached_property
    def higher_order_report(self):
        return ghost_higher_order_study(self.higher_order_config, self.cache)

    @cached_property
    def error_report(self):
        return wkb_error_study(self.config, self.cache)

    @cached_property
    def smalltime_report(self):
        return small_time_study(self.config, self.cache)

    # -- criteria -------------------------------------------------------

    def criterion_1(self):
        """L2 agreement of the wavefunction solver with the reconstructed
        phase-amplitude solution: discrepancy <= 1e-4 relative at every
        saved time, for eps in {1/8, 1/16} and both data choices."""
        bound = 1e-4
        worst, where = 0.0, ""
        for eps in ORACLE_EPS:
            for mode in ORACLE_MODES:
                u_traj, g_traj = (studies._trajectory(self.cache, run)
                                  for run in self._oracle_runs(eps, mode))
                n_fine = u_traj[0].u.grid.points_per_axis
                u0_l2 = norm(u_traj[0].u)
                for us, gs in zip(u_traj, g_traj):
                    profile = wkb.reconstruct(
                        resample(gs.a, n_fine), resample(gs.phi, n_fine), eps
                    )
                    rel = norm(Field(us.u.grid, us.u.values - profile.values)) / u0_l2
                    if rel > worst:
                        worst, where = rel, f"eps={eps}, a1={mode}, t={us.t:g}"
        return CheckResult(
            1, CRITERIA[0], worst <= bound,
            f"max relative L2 discrepancy {worst:.3e} <= {bound} ({where})",
        )

    def _criterion(self, number, named, head="", sep="; ", tail=()):
        """Criterion number from study checks; it passes when every check it
        names passes.  Each (report, prefixes, template) entry of named
        names report's checks <prefix>_s<s> at every s; a non-empty template
        formats them (in prefix order, and s) into one part of the detail.
        The detail is head, then the parts and tail joined by sep."""
        ok, parts = True, []
        for report, prefixes, template in named:
            for s in self.config.s_list:
                checks = [report.checks[f"{prefix}_s{s:g}"] for prefix in prefixes]
                ok = ok and all(check["passed"] for check in checks)
                if template:
                    parts.append(template.format(*checks, s=s))
        return CheckResult(number, CRITERIA[number - 1], ok, head + sep.join([*parts, *tail]))

    def _slope_criterion(self, number, report, band, labels):
        """Criterion number from report's slope checks, one per family in
        labels (family -> label prefix) and s."""
        named = [(report, [f"{family}_slope"], label + "s={s:g}: {0[value]:.3f}")
                 for family, label in labels.items()]
        return self._criterion(number, named, "slopes in [{}, {}]: ".format(*band), ", ")

    def criterion_2(self):
        """Profile error slopes vs eps in [0.8, 1.2] for both profiles and
        s in {0, 1, 2}."""
        return self._slope_criterion(2, self.error_report, studies.SLOPE_BAND_ORDER1,
                                     {"profile_plain": "plain/", "profile_perturbed": "perturbed/"})

    def criterion_3(self):
        """Expansion error slope (corrector subtracted) in [1.7, 2.3]."""
        return self._slope_criterion(3, self.error_report, studies.SLOPE_BAND_ORDER2,
                                     {"expansion_gap": ""})

    def criterion_4(self):
        """Small-time residual slopes in [2.7, 3.3] for both expansions."""
        return self._slope_criterion(
            4, self.smalltime_report, studies.SLOPE_BAND_CUBIC,
            {"phase_residual": "phase/", "corrector_phase_residual": "corrector/"})

    def criterion_5(self):
        """Ghost separation: the two finest-eps values of
        eps^s |u - u~|_{Hdot^s}(tau) agree within 25% and exceed
        1e-3 |a0|_L2; the identical-data control vanishes to 1e-10."""
        return self._criterion(5, [
            (self.ghost_report, ["stabilized", "above_floor"],
             "s={s:g}: spread {0[value]:.3f}, floor ok={1[passed]}"),
            (self.control_report, ["control_null"], ""),
        ], tail=["control run null to 1e-10"])

    def criterion_6(self):
        """Purely imaginary perturbation keeps the corrector phase below
        1e-8 in sup norm for all computed times."""
        traj = studies._trajectory(self.cache, studies._limit_run(self.config, DEGENERACY_MODE))
        worst = max(float(np.abs(corr.phi1.values).max()) for _, corr in traj)
        return CheckResult(
            6, CRITERIA[5], worst <= 1e-8,
            f"sup_t |phi1|_inf = {worst:.3e} <= 1e-8",
        )

    def criterion_7(self):
        """Mass drift < 1e-10 relative and energy drift < 1e-6 relative on
        every wavefunction run the suite performed."""
        worst_mass, worst_energy, n_runs = 0.0, 0.0, 0
        for traj in self.cache.runs("nls"):
            masses = [nls.mass(s.u) for s in traj]
            m0 = masses[0]
            if m0 == 0.0:
                continue
            n_runs += 1
            energies = [nls.semiclassical_energy(s) for s in traj]
            e0 = energies[0]
            worst_mass = max(worst_mass, max(abs(m - m0) for m in masses) / m0)
            worst_energy = max(worst_energy, max(abs(e - e0) for e in energies) / abs(e0))
        ok = worst_mass < 1e-10 and worst_energy < 1e-6 and n_runs >= 10
        return CheckResult(
            7, CRITERIA[6], ok,
            f"{n_runs} runs: max mass drift {worst_mass:.3e} < 1e-10, "
            f"max energy drift {worst_energy:.3e} < 1e-6",
        )

    def criterion_8(self):
        """Two-grid realization of the frequency-rescaling identity to
        1e-8 relative for j in {2, 4}, and the exact sign flip of the
        growth exponent at k = s/(1 + s_c - s) over a dimension lattice."""
        s_datum = 0.7
        big = make_grid(1, 12.0, 512)
        rng = np.random.default_rng(self.seed)
        spec = np.zeros(big.shape, dtype=complex)
        low = np.arange(-8, 9) % big.points_per_axis
        spec[low] = rng.normal(size=low.size) + 1j * rng.normal(size=low.size)
        data = [GaussianSpec().realize(big), Field(big, np.fft.ifftn(spec))]
        worst = 0.0
        for f in data:
            for j in (2, 4):
                small = make_grid(1, 12.0 / j, 512)
                fj = Field(small, float(j) ** (0.5 - s_datum) * f.values)
                for m in (0.0, 0.5, 1.0, 2.0):
                    idx = SobolevIndex(m, homogeneous=True)
                    lhs = norm(fj, idx)
                    rhs = float(j) ** (m - s_datum) * norm(f, idx)
                    worst = max(worst, abs(lhs - rhs) / rhs)
        identity_ok = worst <= 1e-8

        lattice_ok = True
        for n in range(3, 9):
            s_c = n / 2 - 1
            for frac in (0.2, 0.5, 0.8):
                s = frac * s_c
                p = ScalingParams(n=n, s=s, sigma=0.0, k=1.0)
                k_star = p.k_threshold
                lattice_ok = lattice_ok and (
                    p.growth_exponent(k_star * (1 + 1e-6)) > 0
                    and p.growth_exponent(k_star * (1 - 1e-6)) < 0
                    and abs(p.growth_exponent(k_star)) <= 1e-12
                )
        return CheckResult(
            8, CRITERIA[7], identity_ok and lattice_ok,
            f"rescaling identity max rel error {worst:.3e} <= 1e-8; "
            f"threshold sign flips exact on n in 3..8 lattice: {lattice_ok}",
        )

    def criterion_9(self):
        """Higher-order ghost with datum (1 + eps^2) a0: the rescaled
        separation stabilizes within 30% across the two finest eps."""
        return self._criterion(9, [(self.higher_order_report, ["stabilized", "above_floor"],
                                    "s={s:g}: spread {0[value]:.3f}")])

    # -- driver ---------------------------------------------------------

    def run_criterion(self, number):
        self.plan_runs()
        return getattr(self, f"criterion_{number}")()

    def run_all(self, printer=None):
        results = []
        for number in range(1, 10):
            res = self.run_criterion(number)
            results.append(res)
            if printer is not None:
                mark = "PASS" if res.passed else "FAIL"
                printer(f"[{res.criterion}] {res.name:<28} {mark}  ({res.detail})")
        return results

    def reports(self):
        """Study reports backing the verdicts (for CSV emission)."""
        return [
            self.error_report,
            self.smalltime_report,
            self.ghost_report,
            self.control_report,
            self.higher_order_report,
        ]
