from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scnls import report as rpt
from scnls import acceptance, nls, studies, wkb
from scnls.errors import ResolutionError, SingularityError
from scnls.grid import SPECTRAL, Field, SobolevIndex, lp_norm, make_grid, norm, resample
from scnls.studies import (
    GaussianSpec,
    ScalingParams,
    SweepConfig,
    corollary_bookkeeping,
    fit_loglog,
    ghost_higher_order_study,
    ghost_separation_study,
    inflation_bookkeeping,
    small_time_study,
    wkb_error_study,
)

from conftest import alone, bit_identical, count_ffts, ref_gradient


@pytest.fixture(scope="module")
def cache():
    return {}


@pytest.fixture(scope="module")
def short_cfg():
    return SweepConfig(eps_list=(0.25, 0.125, 0.0625), s_list=(0.0, 1.0))


@pytest.fixture(scope="module")
def ghost_report(short_cfg, cache):
    return ghost_separation_study(short_cfg, cache)


# Each range rule fails on NaN, and the grid sizes must be integers; the
# CLI rejects these inputs itself, but a config built in Python does not
# pass through it.
@pytest.mark.parametrize("cls, field, value", [
    (ScalingParams, "s", float("nan")), (ScalingParams, "k", float("nan")),
    (SweepConfig, "s_list", (0.0, float("nan"))),
    (SweepConfig, "max_points_per_axis", float("nan")), (SweepConfig, "max_points_per_axis", 8.5),
    (SweepConfig, "smalltime_points", float("nan")), (SweepConfig, "smalltime_points", 3.5),
    (SweepConfig, "points_base", 8.5), (SweepConfig, "wkb_points", 8.5),
])
def test_range_rules_reject_nan_and_non_integers(cls, field, value):
    kwargs = {"eps_list": (0.25, 0.125)} if cls is SweepConfig else {}
    with pytest.raises(studies.FieldError) as exc:
        cls(**kwargs, **{field: value})
    assert exc.value.field == field


class TestSweepConfig:
    def test_rejects_increasing_eps(self):
        with pytest.raises(ValueError, match="decreasing"):
            SweepConfig(eps_list=(0.125, 0.25))

    def test_rejects_eps_out_of_range(self):
        with pytest.raises(ValueError, match="eps_list"):
            SweepConfig(eps_list=(2.0, 1.0))

    def test_rejects_misaligned_tau(self):
        with pytest.raises(ValueError, match="save grid"):
            SweepConfig(eps_list=(0.25, 0.125), tau=0.21)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="a1_mode"):
            SweepConfig(eps_list=(0.25,), a1_mode="sideways")

    @pytest.mark.parametrize("field, value", [
        ("n_saves", 0), ("n_saves", 2.5), ("nls_dt_safety", 0.0),
        ("wkb_dt_safety", -0.25), ("tail_tol", 0.0),
    ])
    def test_rejects_degenerate_parameters_by_name(self, field, value):
        with pytest.raises(ValueError, match=field):
            SweepConfig(eps_list=(0.25, 0.125), **{field: value})

    def test_rejects_repeated_s(self):
        # every study reads its columns back by (family, quantity, s), and
        # names its checks by s to 6 significant digits
        for s_list in ((0.0, 1.0, 1.0), (0.0, 1.0, 1.0000001)):
            with pytest.raises(ValueError, match="distinct"):
                SweepConfig(eps_list=(0.25,), s_list=s_list)

    def test_grid_growth_and_cap(self):
        # the canonical limit run's scales: G = 0.289, and K_a = 8.90, its
        # wavenumber 34 pi/L on the L = 12 grid.  N holds 1.5 (K_a + G/eps)
        # below (2/3) k_max = pi N / 36, and never falls under points_base.
        cfg = SweepConfig(eps_list=(0.25, 0.125), points_base=256)
        scales = studies.grid_scales(cfg, {})
        assert scales == (pytest.approx(0.28921, rel=1e-4),
                          pytest.approx(34 * np.pi / 12, rel=1e-15))
        assert [cfg.grid_for(eps, scales).points_per_axis
                for eps in (1.0, 0.25, 0.0625, 0.03125, 0.0078125, 0.001)] == [
            256, 256, 256, 512, 1024, 8192]
        assert replace(cfg, points_base=1024).grid_for(0.25, scales).points_per_axis == 1024
        small_cap = SweepConfig(eps_list=(0.25,), max_points_per_axis=512)
        with pytest.raises(ValueError, match="eps = 0.001 needs N >= 1024 > configured cap 512"):
            small_cap.grid_for(0.001, scales)

    def test_grid_rule_is_a_function_of_the_scales(self, monkeypatch):
        # the canonical scales, given as values: no run is solved
        monkeypatch.setattr(studies, "solve_runs", lambda *a: pytest.fail("solve_runs called"))
        cfg = SweepConfig(eps_list=(0.25, 0.125), points_base=256)
        scales = (0.28921, 34 * np.pi / 12)
        assert [cfg.grid_for(eps, scales).points_per_axis
                for eps in (1.0, 0.25, 0.0625, 0.03125, 0.0078125, 0.001)] == [
            256, 256, 256, 512, 1024, 8192]
        assert cfg.grid_rule(scales) == {
            "phase_gradient_max": 0.28921, "amplitude_extent": 34 * np.pi / 12,
            "margin": studies.GRID_MARGIN, "points_per_axis": [256, 256]}

    def test_refine_doubles_every_grid(self):
        # the points_base floor must not swallow the refinement, also where
        # it binds (eps = 1 and 1/2)
        cfg = SweepConfig(eps_list=(0.25, 0.125))
        scales = studies.grid_scales(cfg, {})
        for eps in (1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625):
            assert (cfg.grid_for(eps, scales, 2).points_per_axis
                    == 2 * cfg.grid_for(eps, scales).points_per_axis)

    def test_canonical_sweep_grids(self):
        cfg = acceptance.SUITE_CONFIG
        scales = studies.grid_scales(cfg, {})
        assert [cfg.grid_for(eps, scales).points_per_axis
                for eps in acceptance.FULL_EPS_SWEEP] == [256, 256, 256, 512, 512]

    def test_limit_run_solved_once_into_the_cache(self, monkeypatch):
        # grid_scales solves the limit run into the run cache, the run plan
        # finds it there, and a second call reads it back
        cfg = SweepConfig(eps_list=(0.25, 0.125), s_list=(0.0,))
        solved = []
        solve_runs = studies.solve_runs
        monkeypatch.setattr(studies, "solve_runs",
                            lambda runs, keep=None: solved.extend(runs) or solve_runs(runs, keep))
        cache = {}
        scales = studies.grid_scales(cfg, cache)
        studies.stack_runs(cache, studies.ghost_runs(cfg, scales))
        assert [run.kind for run in solved].count("limit") == 1
        assert solved[0] == studies._limit_run(cfg)
        assert bit_identical(cache[solved[0]], alone(solved[0]))
        solved.clear()
        assert studies.grid_scales(cfg, cache) == scales and not solved
        assert cfg.grid_rule(scales)["points_per_axis"] == [256, 256]
        # a study leaves the config its fields alone, and a replaced config
        # reads its own limit run
        ghost_separation_study(cfg, cache)
        assert not solved
        assert cfg == SweepConfig(eps_list=(0.25, 0.125), s_list=(0.0,))
        assert set(vars(cfg)) == {f.name for f in fields(SweepConfig)}
        wider = replace(cfg, a0=GaussianSpec(amplitude=2.0))
        assert studies.grid_scales(wider, cache)[0] > 3 * scales[0]

    def test_tau_index(self, short_cfg):
        assert short_cfg.tau_index == 8  # tau = 0.2 on a 0.025 save grid

    @pytest.mark.parametrize("horizon", [0.25, -0.25])
    def test_run_config_aligned_to_save_grid(self, horizon):
        rc = studies.aligned_run_config(nls.NlsRunConfig, 0.0176, horizon, 10)
        assert (rc.dt, rc.T, rc.save_every) == (horizon / 20, horizon, 2)

    @staticmethod
    def assert_default_step_accurate(eps, dt, refine, bound, points=None):
        """The default step at eps, with datum (1 + eps) a0, is dt and agrees
        with a refine times finer one to bound at every save, on the grid of
        the given points or, by default, the sweep's grid at eps."""
        cfg = SweepConfig(eps_list=(eps,))
        grid = (cfg.grid_for(eps, studies.grid_scales(cfg, {})) if points is None
                else make_grid(1, cfg.half_width, points))
        rc = cfg.nls_run_config(grid, eps)
        assert rc.dt == pytest.approx(dt)
        fine = nls.NlsRunConfig(dt=rc.dt / refine, T=rc.T, save_every=refine * rc.save_every,
                                tail_tol=rc.tail_tol)
        u0 = cfg.a0.realize(grid, 1 + eps)
        coarse_traj, fine_traj = (nls.solve_nls_stack([u0], eps, c)[0] for c in (rc, fine))
        assert [s.t for s in coarse_traj] == pytest.approx([s.t for s in fine_traj])
        for a, b in zip(coarse_traj, fine_traj, strict=True):
            diff = Field(grid, a.u.values - b.u.values)
            assert norm(diff) <= bound * norm(b.u)

    def test_default_step_accurate_at_largest_drift_point(self):
        # eps = 1/4 with datum (1 + eps) a0 carries the suite's largest energy
        # drift; the save interval 0.025 caps the step there.
        self.assert_default_step_accurate(0.25, 0.025, 8, 3e-7)

    def test_default_step_accurate_where_dx2_over_eps_binds(self):
        # On an N = 2048 grid at eps = 1/32 the step rule's dx^2/(2 eps) term
        # binds: 2 dx^2/(2 eps) = 0.0044, aligned to 60 steps of 1/240.  (On
        # the sweep's own grid there, N = 512, it is 0.070 > 2 eps.)
        self.assert_default_step_accurate(1 / 32, 1 / 240, 4, 1e-9, points=2048)


# A fixed datum family, (amplitude, width) -> the rule's N at eps = 1/64.
# There each N but amplitude 3's is the smallest power of two on which the
# pair keeps its tail within tail_tol; amplitude 3 holds on N/2 as well.
DATUM_FAMILY = {(1.0, 1.0): 512, (1.0, 0.7): 1024, (1.0, 0.5): 1024, (2.0, 1.0): 2048,
                (0.5, 1.0): 256, (1.0, 1.5): 512, (3.0, 1.0): 4096}


@pytest.mark.parametrize("amplitude, width", DATUM_FAMILY)
def test_datum_family_runs_on_the_rule_grids(amplitude, width):
    # each pair c = 0, 1 at eps = 1/4 ... 1/128 passes the tail guard on the
    # rule's grid (stack_runs raises ResolutionError otherwise)
    cfg = SweepConfig(eps_list=tuple(2.0**-m for m in range(2, 8)), s_list=(0.0,),
                      a0=GaussianSpec(amplitude, width))
    cache = {}
    scales = studies.grid_scales(cfg, cache)
    studies.stack_runs(cache, studies.ghost_runs(cfg, scales))
    assert sum(run.kind == "nls" for run in cache) == 2 * len(cfg.eps_list)
    eps = 1 / 64
    n = cfg.grid_for(eps, scales).points_per_axis
    assert n == DATUM_FAMILY[amplitude, width]
    half = make_grid(1, cfg.half_width, n // 2)
    pair = [studies.Run("nls", half, eps, cfg.nls_run_config(half, eps), cfg.a0, c)
            for c in (0.0, 1.0)]
    if amplitude == 3.0:
        studies.stack_runs({}, pair)
    else:
        with pytest.raises(ResolutionError):
            studies.stack_runs({}, pair)


def test_run_plans_are_built_from_given_scales(monkeypatch):
    # A plan is a function of its config and the scales: with no solver, every
    # plan of the suite, a certified ghost plan and the oracle runs build,
    # each wavefunction run on the rule's grid for the given scales.
    monkeypatch.setattr(studies, "solve_runs", lambda *a: pytest.fail("solve_runs called"))
    scales = (0.28921, 34 * np.pi / 12)
    certified = replace(acceptance.SUITE_CONFIG, certify_refinement=True)
    plans = [(getattr(studies, plan), config)
             for _, plan, config in acceptance.SUITE_STUDIES.values()]
    for plan, config in [*plans, (studies.ghost_runs, certified)]:
        runs = plan(config, scales)
        assert runs[0].kind == "limit"
        for run in runs[1:]:
            if run.kind == "nls":
                n = config.grid_for(run.eps, scales).points_per_axis
                assert run.grid.points_per_axis in (n, 2 * n)
    refined = [run for run in studies.ghost_runs(certified, scales) if run.kind == "nls"]
    assert len(refined) == 4 * len(certified.eps_list)
    oracle = [run for eps in acceptance.ORACLE_EPS for mode in acceptance.ORACLE_MODES
              for run in acceptance._oracle_runs(eps, mode, scales)]
    assert [(run.kind, run.grid.points_per_axis) for run in oracle] == [
        ("nls", 256), ("grenier", 256)] * 4


class TestStackedRuns:
    # copies = 2 asks for every run twice: the stacks must not grow.
    @pytest.mark.parametrize("copies", [1, 2])
    def test_stacks_equal_single_runs_under_their_keys(self, monkeypatch, copies):
        # both sweep points get N = 256 and one save per step: one stack,
        # its members in the order the runs are listed
        cfg = SweepConfig(eps_list=(0.25, 0.125), s_list=(0.0,))
        scales = studies.grid_scales(cfg, {})
        runs = [studies._nls_run(cfg, eps, c, scales) for eps in cfg.eps_list
                for c in (0.0, 1.0, 0.0, eps)]
        expected = {run: alone(run) for run in runs}
        stacks = []
        solve_stack = nls.solve_nls_stack

        def recording(u0s, eps, rc, keep=None):
            stacks.append(list(eps))
            return solve_stack(u0s, eps, rc, keep)

        monkeypatch.setattr(nls, "solve_nls_stack", recording)
        cache = {}
        studies.stack_runs(cache, runs * copies)
        assert stacks == [[0.25] * 3 + [0.125] * 3]
        # a second call over cached runs adds no stack
        studies.stack_runs(cache, runs)
        assert len(stacks) == 1
        for run, ref in expected.items():
            traj = cache[studies._nls_run(cfg, run.eps, run.datum, scales)]
            assert [s.t for s in traj] == [s.t for s in ref]
            assert all(np.array_equal(a.u.values, b.u.values) for a, b in zip(traj, ref))
        assert len(cache) == len(expected)

    def test_tripped_stack_raises_its_runs_error_keeps_earlier_stacks(self):
        # Over the horizon 0.025 the limit run of a0 = 30 exp(-x^2) stays
        # healthy, and the grids read off it hold 1e-3 a0 at every eps.
        # (1 + eps) a0 outgrows the eps = 1/4 grid and trips the tail guard
        # at t = 0.025.  The sweep points 1/2, 1/4 and 1/8 get three grid
        # and run config pairs, so three stacks, each spanning eps: the
        # first holds 1e-3 a0 at eps = 1/2 and 1/4 and is stored; the second
        # holds 1e-3 a0 at eps = 1/8 and the tripping run, which raises its
        # own error; neither it nor the third stack stores a run.
        cfg = SweepConfig(eps_list=(0.25, 0.125), s_list=(0.0,), horizon=0.025, tau=0.025,
                          a0=GaussianSpec(amplitude=30.0))
        scales = studies.grid_scales(cfg, {})

        def run(point, eps, c=None):
            """The run at eps from (1 + eps c) a0, by default 1e-3 a0, on the
            grid and run config of the sweep point point."""
            c = (1e-3 - 1) / eps if c is None else c
            return studies._nls_run(cfg, point, c, scales)._replace(eps=eps)

        stored = [run(0.5, 0.5), run(0.5, 0.25)]
        tripping = run(0.25, 0.25, 1.0)
        later = [run(0.25, 0.125), tripping, run(0.125, 0.125, 1.0)]
        assert len({(r.grid, r.config) for r in stored + later}) == 3
        refs = [alone(r) for r in stored]
        with pytest.raises(ResolutionError) as ref_error:
            alone(tripping)
        cache = {}
        with pytest.raises(ResolutionError) as error:
            studies.stack_runs(cache, stored + later)
        assert str(error.value) == str(ref_error.value)
        assert list(cache) == stored
        for r, ref in zip(stored, refs):
            assert len(cache[r]) == cfg.n_saves + 1
            assert bit_identical(cache[r], ref)

    def test_phase_amplitude_runs_stack_by_steps_and_cadence(self, monkeypatch):
        cfg = SweepConfig(eps_list=(0.25, 0.125, 0.0625, 0.03125), s_list=(0.0,))
        runs = [*(studies._grenier_run(cfg, eps, c) for eps in cfg.eps_list for c in (0.0, 1.0)),
                *(studies._limit_run(cfg, c) for c in (1.0, 1j)),
                *studies.small_time_runs(cfg)[1:],
                # 20 steps like the full-horizon limit runs, saved every step
                studies._limit_run(replace(cfg, n_saves=20))]
        expected = {run: alone(run) for run in runs}
        stacks = []
        for name in ("solve_grenier_stack", "solve_limit_stack"):
            def recording(members, keep=None, solve=getattr(wkb, name), name=name):
                stacks.append((name, len(members), members[0][-1].save_every))
                return solve(members, keep)
            monkeypatch.setattr(wkb, name, recording)
        cache = {}
        studies.stack_runs(cache, runs)
        # Grenier runs take the transport step at every eps, 2 steps per
        # save; the limit runs 2 at the full horizon and 1 at the shorter ones.
        assert sorted(stacks) == [("solve_grenier_stack", 8, 2), ("solve_limit_stack", 1, 1),
                                  ("solve_limit_stack", 2, 2), ("solve_limit_stack", 5, 1)]
        for run, ref in expected.items():
            assert bit_identical(cache[run], ref)

    def test_grenier_runs_share_one_run_config_at_every_eps(self):
        # the RK4 step is the transport step, safety * dx, whatever eps
        cfg = SweepConfig(eps_list=(0.25, 0.125, 0.0625, 0.03125), s_list=(0.0,))
        configs = {studies._grenier_run(cfg, eps, 0.0).config for eps in cfg.eps_list}
        assert configs == {cfg.wkb_run_config(cfg.wkb_grid())}

    def test_tripped_phase_amplitude_stack_caches_nothing(self):
        # a0 = 6 exp(-x^2) trips the singularity guard before t = 2 and not
        # before t = 1.  The healthy stack runs first and keeps its run; both
        # members of the tripping stack trip at one step, and the first raises.
        cfg = SweepConfig(eps_list=(0.25, 0.125), s_list=(0.0,), horizon=2.0,
                          a0=GaussianSpec(amplitude=6.0))
        tripping = [studies._limit_run(cfg, c) for c in (1.0, 1j)]
        healthy = studies._limit_run(cfg, horizon=1.0)

        def single(run):
            a0 = run.a0.realize(run.grid)
            a1 = Field(run.grid, run.datum * a0.values)
            return wkb.solve_limit_stack([(a0, a1, run.config)])[0]

        ref = single(healthy)
        ref_errors = []
        for run in tripping:
            with pytest.raises(SingularityError) as ref_error:
                single(run)
            ref_errors.append(ref_error.value)
        assert ref_errors[0].t == ref_errors[1].t
        cache = {}
        with pytest.raises(SingularityError) as error:
            studies.stack_runs(cache, [healthy, *tripping])
        assert str(error.value) == str(ref_errors[0])
        assert list(cache) == [healthy]
        assert bit_identical(cache[healthy], ref)


class TestA1Datum:
    @pytest.mark.parametrize("order, scaled", [(2, (1.015625, 0.125)),
                                               (3, (1.001953125, 0.015625))],
                             ids=["order2", "order3"])
    def test_mode_factors(self, order, scaled):
        # (datum multiplier 1 + eps c, corrector phase scale Re c) at eps = 1/8
        eps = 0.125
        assert studies.A1_MODES == ("zero", "equal_a0", "scaled", "imaginary")
        coefficients = {mode: f(eps, order) for mode, f in studies.A1_COEFFICIENTS.items()}
        assert {mode: (1 + eps * c, c.real) for mode, c in coefficients.items()} == {
            "zero": (1.0, 0.0),
            "equal_a0": (1.125, 1.0),
            "scaled": scaled,
            "imaginary": (1 + 0.125j, 0.0),
        }

    def test_a_datum_whose_quartic_sum_overflows_is_refused(self):
        # 5e76 exp(-x^2) keeps sum |a0|^4 finite on 512 points; twice it does not
        grid, spec = make_grid(1, 12.0, 512), GaussianSpec(amplitude=5e76)
        assert np.isfinite(lp_norm(spec.realize(grid), 4.0))
        box = "the 512^1 grid of half-width 12: its sum |a0|^4 passes the largest float"
        for multiplier, what in ((2.0, "5e+76 times 2"), (1.0, "1e+160")):
            datum = spec if multiplier == 2.0 else GaussianSpec(amplitude=1e160)
            with pytest.raises(ValueError) as exc:
                datum.realize(grid, multiplier)
            assert str(exc.value) == f"a datum of amplitude {what} is too large for {box}"

    def test_grenier_run_takes_its_datum(self, short_cfg):
        zero, imaginary = (alone(studies._grenier_run(short_cfg, 0.25, c)) for c in (0.0, 1j))
        assert not np.array_equal(zero[-1].a.values, imaginary[-1].a.values)
        a0 = short_cfg.a0.realize(short_cfg.wkb_grid())
        assert np.array_equal(imaginary[0].a.values, (1 + 0.25j) * a0.values)


class TestWkbErrorStudy:
    def test_slopes_within_bands(self, short_cfg, cache):
        rep = wkb_error_study(short_cfg, cache)
        for family, band in (
            ("profile_plain", (0.8, 1.2)),
            ("profile_perturbed", (0.8, 1.2)),
            ("hyperbolic_gap", (0.8, 1.2)),
            ("expansion_gap", (1.7, 2.3)),
        ):
            for s in short_cfg.s_list:
                slope = rep.checks[f"{family}_slope_s{s:g}"]["value"]
                assert band[0] <= slope <= band[1], (family, s, slope)
        assert rep.passed()

    def test_zero_datum_gives_zero_errors(self, cache):
        cfg = SweepConfig(
            eps_list=(0.25, 0.125, 0.0625), s_list=(0.0, 1.0), a0=GaussianSpec(amplitude=0.0)
        )
        rep = wkb_error_study(cfg, cache)
        assert all(r["value"] == 0.0 for r in rep.rows)
        assert rep.passed()

    def test_h0_eps_error_is_plain_l2_error(self, short_cfg, cache):
        # weight (1 + |eps k|^2)^0 == 1, so the s = 0 column must be the
        # L2 distance; recompute one entry directly from the cached runs.
        rep = wkb_error_study(short_cfg, cache)
        eps = short_cfg.eps_list[0]
        scales = studies.grid_scales(short_cfg, cache)
        fine = short_cfg.grid_for(eps, scales)
        u = cache[studies._nls_run(short_cfg, eps, 0.0, scales)]
        limit = cache[studies._limit_run(short_cfg, 1.0)]
        sup = 0.0
        for bg, us in zip(limit, u):
            a_f, phi_f = (f[0] for f in resample(
                studies.snapshots([bg], "a", "phi"), fine.points_per_axis).values)
            diff = Field(fine, us.u.values - a_f * np.exp(1j * phi_f.real / eps))
            sup = max(sup, norm(diff))
        study_val = [
            r["value"]
            for r in rep.rows
            if r["family"] == "profile_plain" and r["eps"] == eps and r["s"] == 0.0
        ][0]
        assert study_val == pytest.approx(sup, rel=1e-12)


class TestSmallTimeStudy:
    def test_cubic_slopes(self, short_cfg, cache):
        rep = small_time_study(short_cfg, cache)
        for family in ("phase_residual", "corrector_phase_residual"):
            for s in short_cfg.s_list:
                assert 2.7 <= rep.checks[f"{family}_slope_s{s:g}"]["value"] <= 3.3
        assert rep.passed()

    def test_constant_datum_flat_phase_is_exact(self):
        # phi(t) = -c^2 t solves the limit system for a constant datum, and
        # RK4 integrates the constant rate exactly.
        g = make_grid(1, 4.0, 32)
        c = 0.8
        const = Field(g, np.full(g.shape, c, dtype=complex))
        cfg = wkb.WkbRunConfig(dt=1e-2, T=0.2, save_every=5, enforce_decay=False)
        traj = wkb.solve_limit_stack([(const, const, cfg)])[0]
        for bg in traj:
            t = bg.t
            assert np.abs(bg.phi.values.real + c**2 * t).max() < 1e-13
            assert np.abs(bg.phi1.values.real + 2 * c**2 * t).max() < 1e-13


class TestGhostStudy:
    def test_control_run_vanishes(self, cache):
        cfg = SweepConfig(eps_list=(0.25, 0.125), s_list=(0.0, 1.0), a1_mode="zero")
        rep = ghost_separation_study(cfg, cache)
        for s in cfg.s_list:
            assert rep.checks[f"control_null_s{s:g}"]["passed"]
        assert max(abs(v) for v in rep.values("ghost", "separation_scaled", 0.0)) <= 1e-10

    def test_rows_and_floor(self, short_cfg, ghost_report):
        d0 = ghost_report.values("ghost", "separation_scaled", 0.0)
        assert len(d0) == len(short_cfg.eps_list)
        assert all(v > 0 for v in d0)
        assert ghost_report.checks["above_floor_s0"]["passed"]
        l4 = ghost_report.values("ghost", "diff_l4")
        assert len(l4) == len(short_cfg.eps_list)

    def test_l2_separation_approaches_profile_limit(self, ghost_report):
        # The L2 norm is oscillation-blind, so D_0 tends to the profile
        # value computed purely from the limit fields; at the finest eps of
        # the short sweep they already agree to ~10%.
        ratios = ghost_report.values("ghost", "ratio_to_profile", 0.0)
        assert abs(ratios[-1] - 1.0) < 0.15

    def test_refinement_certificate(self, cache):
        cfg = SweepConfig(
            eps_list=(0.25, 0.125), s_list=(0.0, 1.0), certify_refinement=True
        )
        rep = ghost_separation_study(cfg, cache)
        changes = rep.values("ghost", "refined_rel_change", 0.0)
        assert changes and all(c < 0.05 for c in changes)
        assert rep.checks["grid_independent_s0"]["passed"]

    def test_difference_norms_symmetric_under_swap(self, grid_1d):
        rng = np.random.default_rng(3)
        f = Field(grid_1d, rng.normal(size=grid_1d.shape) + 1j * rng.normal(size=grid_1d.shape))
        g = Field(grid_1d, rng.normal(size=grid_1d.shape) + 1j * rng.normal(size=grid_1d.shape))
        for s in (0.0, 1.0, 2.0):
            idx = SobolevIndex(s, homogeneous=True)
            a = norm(Field(grid_1d, f.values - g.values), idx)
            b = norm(Field(grid_1d, g.values - f.values), idx)
            assert a == pytest.approx(b, rel=1e-14)

    def test_needs_two_sweep_points(self, cache):
        cfg = SweepConfig(eps_list=(0.25,), s_list=(0.0,))
        with pytest.raises(ValueError, match="two sweep points"):
            ghost_separation_study(cfg, cache)


class TestGhostHigherOrder:
    def test_order_one_reduces_to_plain_ghost(self, cache, short_cfg, ghost_report):
        cfg = SweepConfig(
            eps_list=short_cfg.eps_list, s_list=short_cfg.s_list,
            a1_mode="scaled", scaled_order=1,
        )
        rep = ghost_higher_order_study(cfg, cache)
        for s in cfg.s_list:
            base = ghost_report.values("ghost", "separation_scaled", s)
            higher = rep.values("ghost", "higher_order_scaled", s)
            assert higher == pytest.approx(base, rel=1e-12)

    def test_zero_datum_zero_for_all_orders(self, cache):
        cfg = SweepConfig(
            eps_list=(0.25, 0.125), s_list=(0.0,), a0=GaussianSpec(amplitude=0.0),
            a1_mode="scaled", scaled_order=3,
        )
        rep = ghost_higher_order_study(cfg, cache)
        assert all(v == 0.0 for v in rep.values("ghost", "higher_order_scaled", 0.0))

    def test_requires_scaled_mode(self, short_cfg, cache):
        with pytest.raises(ValueError, match="scaled"):
            ghost_higher_order_study(short_cfg, cache)


class TestScalingParams:
    def test_threshold_and_exponent(self):
        p = ScalingParams(n=6, s=1.0, sigma=1.5, k=1.0)
        assert p.s_c == pytest.approx(2.0)
        assert p.k_threshold == pytest.approx(0.5)
        assert p.growth_exponent() == pytest.approx(1.0)
        assert p.growth_exponent(p.k_threshold) == pytest.approx(0.0, abs=1e-14)

    def test_rejects_supercritical_s(self):
        # n = 4 gives s_c = 1, so s = 1 is excluded
        with pytest.raises(ValueError, match="s_c"):
            ScalingParams(n=4, s=1.0, sigma=0.5, k=0.5)

    def test_rejects_bad_k_and_sigma(self):
        with pytest.raises(ValueError, match="k"):
            ScalingParams(n=6, s=1.0, sigma=1.0, k=0.0)
        with pytest.raises(ValueError, match="sigma"):
            ScalingParams(n=6, s=1.0, sigma=2.5, k=1.0)

    def test_j_at_least_one(self):
        p = ScalingParams(n=6, s=1.0, sigma=1.0, k=1.0)
        for eps in (1.0, 0.5, 0.01):
            assert p.j_for(eps) >= 1.0

    def test_sign_flip_lattice(self):
        # the growth exponent changes sign exactly at the threshold
        for n in range(3, 9):
            s_c = n / 2 - 1
            for s in np.linspace(0.1, 0.9, 5) * s_c:
                p = ScalingParams(n=n, s=float(s), sigma=0.0, k=1.0)
                k_star = p.k_threshold
                assert p.growth_exponent(k_star * (1 + 1e-6)) > 0
                assert p.growth_exponent(k_star * (1 - 1e-6)) < 0
                assert abs(p.growth_exponent(k_star)) <= 1e-12


class TestInflationBookkeeping:
    def test_rows_follow_exact_rescaling(self, ghost_report):
        p = ScalingParams(n=6, s=1.0, sigma=1.5, k=1.0)
        rep = inflation_bookkeeping(p, ghost_report)
        eps_list = ghost_report.config.eps_list
        raws = ghost_report.values("ghost", "diff_hs_raw", 1.0)
        js = rep.values("inflation", "j")
        phys = rep.values("inflation", "physical_diff_hk")
        for eps, raw, j, val in zip(eps_list, raws, js, phys):
            assert j == pytest.approx(eps ** (1 / (1.0 - 2.0)))
            assert val == pytest.approx(j ** (p.k - p.s) * raw, rel=1e-12)
        tjs = rep.values("inflation", "t_j")
        assert all(a > b for a, b in zip(tjs, tjs[1:]))  # t_j -> 0
        assert rep.checks["data_differences_vanish"]["passed"]
        assert rep.checks["exponent_matches_threshold_side"]["passed"]
        assert rep.checks["measured_growth_sign"]["passed"]
        assert rep.header["limitation"]

    def test_datum_norms_shrink(self, ghost_report):
        p = ScalingParams(n=6, s=1.0, sigma=1.5, k=1.0)
        rep = inflation_bookkeeping(p, ghost_report)
        h = rep.values("inflation", "data_diff_hsigma_bound")
        assert all(a > b for a, b in zip(h, h[1:]))

    def test_datum_comes_from_the_measured_config(self, ghost_report):
        p = ScalingParams(n=6, s=1.0, sigma=1.5, k=1.0)
        assert ghost_report.config.a0.amplitude == 1.0
        doubled = replace(ghost_report, config=replace(
            ghost_report.config, a0=replace(ghost_report.config.a0, amplitude=2.0)))
        base = inflation_bookkeeping(p, ghost_report).values("inflation", "data_diff_l2")
        twice = inflation_bookkeeping(p, doubled).values("inflation", "data_diff_l2")
        assert twice == pytest.approx([2 * v for v in base], rel=1e-14)

    def test_missing_k_rejected(self, ghost_report):
        p = ScalingParams(n=6, s=1.0, sigma=1.5, k=0.7)
        with pytest.raises(ValueError, match="difference rows"):
            inflation_bookkeeping(p, ghost_report)


class TestCorollaryBookkeeping:
    def test_rejects_small_dimension(self, ghost_report):
        with pytest.raises(ValueError, match="n >= 5"):
            corollary_bookkeeping(4, ghost_report)

    def test_unreachable_band_named(self, ghost_report):
        # The perturbed data energy approaches C0 only like j^{-1/2}, so a
        # band this narrow is never entered below the j = 1e12 search cap.
        with pytest.raises(ValueError, match="no j <= 1e12 .* delta = 1e-12"):
            corollary_bookkeeping(6, ghost_report, delta=1e-12)

    def test_scaled_data_quantities_match_two_grid_quadrature(self):
        # Oracle: realize lam * a0(jx) on the shrunken grid and integrate;
        # the mass, gradient, and quartic terms must follow the exact j
        # exponents used by the bookkeeping (checked here at n = 1, where
        # the volume factor j^{-n} is numerically accessible).
        n_dim = 1
        s = 0.6
        big = make_grid(1, 12.0, 512)
        a0 = GaussianSpec().realize(big)
        l2_sq = norm(a0) ** 2
        grad_sq = norm(a0, SobolevIndex(1.0, homogeneous=True)) ** 2
        quart = lp_norm(a0, 4.0) ** 4
        for j in (2.0, 4.0):
            lam = j ** (n_dim / 2 - s)
            small = make_grid(1, 12.0 / j, 512)
            fj = Field(small, lam * a0.values)
            mass_direct = norm(fj) ** 2
            grad_direct = norm(fj, SobolevIndex(1.0, homogeneous=True)) ** 2
            quart_direct = lp_norm(fj, 4.0) ** 4
            assert mass_direct == pytest.approx(lam**2 * j**-n_dim * l2_sq, rel=1e-10)
            assert grad_direct == pytest.approx(
                lam**2 * j ** (2 - n_dim) * grad_sq, rel=1e-10
            )
            assert quart_direct == pytest.approx(lam**4 * j**-n_dim * quart, rel=1e-10)

    def test_report_structure_and_vanishing_checks(self, cache):
        # j reaches eps^{-2} = 1024 here, past the delta-band threshold,
        # and the extrapolated difference energy has stabilized.
        cfg = SweepConfig(eps_list=(0.25, 0.125, 0.0625, 0.03125), s_list=(0.0, 1.0))
        measured = ghost_separation_study(cfg, cache)
        rep = corollary_bookkeeping(6, measured, delta=0.2)
        assert rep.checks["mass_vanishes"]["passed"]
        assert rep.checks["data_energy_difference_vanishes"]["passed"]
        assert rep.checks["data_energies_in_band"]["passed"]
        assert rep.checks["solution_energy_bounded_below"]["passed"]
        masses = rep.values("corollary", "mass_data")
        assert all(a > b for a, b in zip(masses, masses[1:]))
        # leading energy term is j-independent for s = n/4
        energies = rep.values("corollary", "energy_data")
        c0 = rep.header["leading_energy"]
        assert all(e >= c0 for e in energies)
        assert energies[-1] - c0 < energies[0] - c0
        assert rep.header["limitation"]


def layout(rep):
    """(family, quantity, sweep point, s) of each row, in row order; the sweep
    point is eps, or t for the small-time study."""
    return [(r["family"], r["quantity"], r.get("eps", r.get("t")), r["s"]) for r in rep.rows]


def ghost_layout(cfg, quantities):
    return [row for eps in cfg.eps_list
            for row in [("ghost", q, eps, s) for s in cfg.s_list for q in quantities]
            + [("ghost", "diff_l4", eps, None)]]


GHOST_QUANTITIES = ["diff_hs_raw", "separation_scaled", "profile_prediction", "ratio_to_profile"]


class TestRowLayout:
    """Rows come in the order docs/formats.md states: sweep point major, then
    as listed there for each study."""

    def test_wkb_error(self, short_cfg, cache):
        families = ["profile_plain", "profile_perturbed", "hyperbolic_gap", "expansion_gap"]
        assert layout(wkb_error_study(short_cfg, cache)) == [
            (f, "sup_error", eps, s)
            for eps in short_cfg.eps_list for f in families for s in short_cfg.s_list]

    def test_small_time(self, short_cfg, cache):
        times = [short_cfg.horizon * 0.5**m for m in range(short_cfg.smalltime_points)]
        assert layout(small_time_study(short_cfg, cache)) == [
            (f, "residual", t, s) for t in times for s in short_cfg.s_list
            for f in ("phase_residual", "corrector_phase_residual")]

    def test_ghost_separation(self, short_cfg, ghost_report):
        assert layout(ghost_report) == ghost_layout(short_cfg, GHOST_QUANTITIES)

    def test_ghost_separation_certified(self, cache):
        cfg = SweepConfig(eps_list=(0.25, 0.125), s_list=(0.0, 1.0), certify_refinement=True)
        assert layout(ghost_separation_study(cfg, cache)) == ghost_layout(
            cfg, GHOST_QUANTITIES + ["refined_rel_change"])

    def test_ghost_without_prediction_has_no_ratio_rows(self, cache):
        # the control pair's profile prediction vanishes at every eps
        cfg = SweepConfig(eps_list=(0.25, 0.125), s_list=(0.0, 1.0), a1_mode="zero")
        rep = ghost_separation_study(cfg, cache)
        assert layout(rep) == ghost_layout(cfg, GHOST_QUANTITIES[:3])
        assert not any(name.startswith("profile_ratio") for name in rep.checks)

    def test_ghost_higher_order(self, short_cfg, cache):
        cfg = replace(short_cfg, a1_mode="scaled")
        assert layout(ghost_higher_order_study(cfg, cache)) == ghost_layout(
            cfg, GHOST_QUANTITIES + ["higher_order_scaled"])

    def test_inflation(self, short_cfg, ghost_report):
        p = ScalingParams(n=6, s=1.0, sigma=1.5, k=1.0)
        table = [("j", p.k), ("t_j", p.k), ("physical_diff_hk", p.k), ("data_diff_l2", None),
                 ("data_diff_hsigma", p.sigma), ("data_diff_hsigma_bound", p.sigma)]
        assert layout(inflation_bookkeeping(p, ghost_report)) == [
            ("inflation", q, eps, s) for eps in short_cfg.eps_list for q, s in table]

    def test_corollary(self, short_cfg, ghost_report):
        quantities = ["j", "t_j", "mass_data", "mass_data_tilde", "energy_data",
                      "energy_data_tilde", "energy_data_diff", "energy_solution_diff"]
        assert layout(corollary_bookkeeping(6, ghost_report)) == [
            ("corollary", q, eps, None) for eps in short_cfg.eps_list for q in quantities]


class TestFitAndReportPlumbing:
    def test_fit_requires_three_points(self):
        with pytest.raises(ValueError, match="3 points"):
            fit_loglog([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(ValueError, match="positive"):
            fit_loglog([1.0, 2.0, 3.0], [1.0, 0.0, 2.0])

    @settings(max_examples=50, deadline=None)
    @given(ks=st.lists(st.integers(0, 12), min_size=3, max_size=6, unique=True),
           ys=st.lists(st.floats(1e-6, 1e6), min_size=6, max_size=6))
    def test_fit_is_the_least_squares_line_without_lapack(self, ks, ys):
        xs = [0.5**k for k in ks]
        ys = ys[:len(xs)]
        reference = np.polyfit(np.log(xs), np.log(ys), 1)
        with pytest.MonkeyPatch.context() as mp:
            for module, name in ((np, "polyfit"), (np.linalg, "lstsq")):
                mp.setattr(module, name, lambda *a, name=name, **k: pytest.fail(f"{name} called"))
            slope, intercept, _ = fit_loglog(xs, ys)
        # relative, with a floor at the scale of log(y) for slopes that
        # vanish up to roundoff (a constant y gives 0 here, ~1e-15 there)
        floor = 1e-12 * np.abs(np.log(ys)).max()
        assert slope == pytest.approx(reference[0], rel=1e-12, abs=floor)
        assert intercept == pytest.approx(reference[1], rel=1e-12, abs=floor)

    def test_fit_needs_two_distinct_x(self):
        with pytest.raises(ValueError, match="distinct"):
            fit_loglog([0.5, 0.5, 0.5], [1.0, 2.0, 3.0])

    def test_fit_recovers_power_law(self):
        xs = [1.0, 0.5, 0.25, 0.125]
        ys = [3.0 * x**1.7 for x in xs]
        slope, intercept, resid = fit_loglog(xs, ys)
        assert slope == pytest.approx(1.7, abs=1e-12)
        assert resid < 1e-12

    def test_csv_and_summary_deterministic(self, ghost_report, tmp_path):
        p1 = rpt.write_study_csv(ghost_report, tmp_path / "a.csv")
        p2 = rpt.write_study_csv(ghost_report, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        rpt.write_summary_json([ghost_report], tmp_path / "a.json")
        rpt.write_summary_json([ghost_report], tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        header = (tmp_path / "a.csv").read_text().splitlines()[0]
        assert header.split(",") == rpt.STUDY_COLUMNS

    def test_trajectory_rows(self, grid_1d, gaussian_1d):
        from scnls import nls

        cfg = nls.NlsRunConfig(dt=1e-2, T=0.1, save_every=5)
        # a row reads the lent spectrum during the keep call, as the CLI's do
        rows = nls.solve_nls_stack([gaussian_1d], 0.5, cfg,
                                   keep=lambda snap: rpt.nls_row(snap, norm_orders=(1.0,)))[0]
        assert [r["t"] for r in rows] == pytest.approx([0.0, 0.05, 0.1])
        assert all("h1" in r and "mass" in r and "energy" in r for r in rows)

        wcfg = wkb.WkbRunConfig(dt=1e-2, T=0.1, save_every=5)
        wrows = wkb.solve_limit_stack([(gaussian_1d, gaussian_1d, wcfg)],
                                      keep=lambda snap: rpt.wkb_row(snap, norm_orders=(1.0,)))[0]
        assert len(wrows) == 3
        assert all("grad_phi_max" in r and "phi1_linf" in r for r in wrows)

    @pytest.mark.parametrize("g", [make_grid(1, 12.0, 256), make_grid(2, 6.0, 64)],
                             ids=["1d", "2d"])
    def test_trajectory_rows_transform_each_snapshot_once(self, monkeypatch, g):
        # the one transform is the step loop's: 10 steps saved every 5 make
        # its one FFT pair per stage, one forward FFT of the datum and one
        # inverse FFT per save after t = 0, rows included
        u0, orders = GaussianSpec().realize(g), (0.0, 1.0, 2.0)
        counts = count_ffts(monkeypatch)
        (traj,) = nls.solve_nls_stack([u0], 0.5, nls.NlsRunConfig(dt=1e-2, T=0.1, save_every=5),
                                      keep=lambda snap: (snap[0], rpt.nls_row(snap, orders)))
        stages = len(nls.NONLINEAR) * 10
        assert counts == {"forward": stages + 1, "inverse": stages + 2}
        monkeypatch.undo()
        assert len(traj) == 3
        for state, row in traj:  # against a transform of the saved field
            assert row["energy"] == pytest.approx(nls.semiclassical_energy(state), rel=1e-13)
            for s in orders:
                assert row[f"h{s:g}"] == pytest.approx(norm(state.u, SobolevIndex(s)), rel=1e-13)

    @pytest.mark.parametrize("g", [make_grid(1, 12.0, 256), make_grid(2, 6.0, 64)],
                             ids=["1d", "2d"])
    def test_wkb_rows_read_the_lent_spectra(self, monkeypatch, g):
        a0 = GaussianSpec().realize(g)
        # the spectra are lent for the keep call alone: copies outlive it
        (traj,) = wkb.solve_limit_stack([(a0, a0, wkb.WkbRunConfig(dt=1e-2, T=0.1, save_every=5))],
                                        keep=lambda snap: (snap[0], snap[1].copy()))
        orders = (0.0, 1.0)
        counts = count_ffts(monkeypatch)
        rows = [rpt.wkb_row(pair, norm_orders=orders) for pair in traj]
        # no forward FFT: the norms read the lent spectra of a, phi and a1,
        # and one batched inverse gives every gradient component of a and of
        # phi, which the energy and the phase-gradient sup share
        assert counts == {"forward": 0, "inverse": len(traj)}
        assert counts.rows == {"forward": 0, "inverse": 2 * g.dim * len(traj)}
        monkeypatch.undo()
        for row, (state, spectra) in zip(rows, traj, strict=True):
            a_hat, phi_hat, a1_hat, _ = (Field(g, f, SPECTRAL) for f in spectra.values)
            grad_a = ref_gradient(g, spectrum=a_hat.values)
            grad_phi = ref_gradient(g, spectrum=phi_hat.values)
            assert row["energy"] == wkb.wkb_energy(state, grad_a, grad_phi)
            assert row["grad_phi_max"] == max(np.abs(gp.real).max() for gp in grad_phi)
            assert row["a1_l2"] == norm(a1_hat)
            for s in orders:
                assert row[f"a_h{s:g}"] == norm(a_hat, SobolevIndex(s))
                assert row[f"phi_h{s:g}"] == norm(phi_hat, SobolevIndex(s))
            # the lent spectra are the saved fields' transforms up to roundoff
            fresh = {"a1_l2": norm(state.a1),
                     **{f"{name}_h{s:g}": norm(getattr(state, name), SobolevIndex(s))
                        for name in ("a", "phi") for s in orders}}
            assert {k: row[k] for k in fresh} == pytest.approx(fresh, rel=1e-13)
