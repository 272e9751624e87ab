import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scnls import grid as sg
from scnls import nls
from scnls.errors import NonFiniteError, ResolutionError
from scnls.grid import Field, SobolevIndex, make_grid, make_gaussian, norm
from scnls.nls import (
    NlsRunConfig, NlsState, mass, semiclassical_energy, solve_nls_stack,
)

from conftest import bit_identical, count_ffts, random_field, traced_peak


# Yoshida's triple jump of Strang steps (Phys. Lett. A 150, 1990), the
# fourth-order splitting the engine's is measured against.
_W1 = 1 / (2 - 2 ** (1 / 3))
_W0 = 1 - 2 * _W1
YOSHIDA_KINETIC = (_W1 / 2, (_W1 + _W0) / 2, (_W1 + _W0) / 2, _W1 / 2)
YOSHIDA_NONLINEAR = (_W1, _W0, _W1)


def plane_wave_state(k0=1.0, eps=1.0, n=64):
    g = make_grid(1, np.pi, n)
    return NlsState(0.0, Field(g, np.exp(1j * k0 * g.x_axes[0])), eps)


def kinetic_substep(state, tau):
    """Exact flow of i*eps*du/dt = -(eps^2/2) Lap(u) over tau, through the
    step loop's transforms; substeps do not advance the clock."""
    g = state.u.grid
    spectrum = sg._fft(state.u.values, g.dim)
    spectrum *= np.exp(-0.5j * state.eps * tau * g.k_squared)
    return NlsState(state.t, Field(g, sg._ifft(spectrum, g.dim)), state.eps)


def nonlinear_substep(state, tau):
    """Exact flow of i*eps*du/dt = |u|^2 u over tau, through the step loop's
    rotation kernel; |u| is pointwise invariant."""
    u = state.u.values.copy()
    nls._rotate(u, np.empty_like(u), tau / state.eps, None)
    return NlsState(state.t, Field(state.u.grid, u), state.eps)


class TestSubsteps:
    def test_kinetic_plane_wave_phase(self):
        k0, eps, tau = 3.0, 0.5, 0.1
        state = plane_wave_state(k0, eps)
        out = kinetic_substep(state, tau)
        expected = state.u.values * np.exp(-0.5j * eps * k0**2 * tau)
        np.testing.assert_allclose(out.u.values, expected, atol=1e-13)

    def test_kinetic_constant_unchanged(self):
        g = make_grid(1, 2.0, 32)
        state = NlsState(0.0, Field(g, np.full(g.shape, 1.2 - 0.7j)), 0.25)
        out = kinetic_substep(state, 0.3)
        np.testing.assert_allclose(out.u.values, state.u.values, atol=1e-14)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_kinetic_preserves_mass(self, seed):
        g = make_grid(1, 4.0, 64)
        f = random_field(g, seed)
        state = NlsState(0.0, f, 0.5)
        out = kinetic_substep(state, 0.17)
        assert mass(out.u) == pytest.approx(mass(f), rel=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_nonlinear_preserves_modulus_pointwise(self, seed):
        g = make_grid(1, 4.0, 64)
        f = random_field(g, seed)
        out = nonlinear_substep(NlsState(0.0, f, 0.25), 0.2)
        np.testing.assert_allclose(np.abs(out.u.values), np.abs(f.values), atol=1e-13)

    def test_nonlinear_constant_exact_ode(self):
        g = make_grid(1, 2.0, 32)
        c, eps, tau = 1.5 + 0.5j, 0.5, 0.3
        state = NlsState(0.0, Field(g, np.full(g.shape, c)), eps)
        out = nonlinear_substep(state, tau)
        expected = c * np.exp(-1j * abs(c) ** 2 * tau / eps)
        np.testing.assert_allclose(out.u.values, np.full(g.shape, expected), atol=1e-14)

    def test_nonlinear_zero_field(self):
        g = make_grid(1, 2.0, 32)
        out = nonlinear_substep(NlsState(0.0, Field(g, np.zeros(g.shape)), 0.5), 0.1)
        assert np.abs(out.u.values).max() == 0.0


def strang_chain(u0, eps, dt, n_steps):
    """States after 0..n_steps unfused Strang steps K(dt/2) N(dt) K(dt/2)."""
    return composition_chain(u0, eps, dt, n_steps, (0.5, 0.5), (1.0,))


def composition_chain(u0, eps, dt, n_steps, kinetic=nls.KINETIC, nonlinear=nls.NONLINEAR):
    """States after 0..n_steps unfused steps of a composition table, built
    from the substeps (the default table is the engine's)."""
    state = NlsState(0.0, u0, eps)
    out = [state.u.values]
    for _ in range(n_steps):
        for a, b in zip(kinetic, nonlinear):
            state = nonlinear_substep(kinetic_substep(state, a * dt), b * dt)
        state = kinetic_substep(state, kinetic[-1] * dt)
        out.append(state.u.values)
    return out


class TestStrang:
    """A stack of one against compositions of the exact substeps."""

    def test_plane_wave_closed_form(self):
        # For eps = 1 and u0 = e^{ix} on [-pi, pi): Lap u = -u and |u| = 1,
        # so u(t, x) = e^{i x - 3 i t / 2} exactly.
        state = plane_wave_state(1.0, 1.0)
        cfg = NlsRunConfig(dt=1e-3, T=0.5, save_every=100)
        traj = solve_nls_stack([state.u], 1.0, cfg)[0]
        final = traj[-1]
        assert final.t == pytest.approx(0.5)
        g = final.u.grid
        expected = np.exp(1j * g.x_axes[0] - 1.5j * final.t)
        np.testing.assert_allclose(np.abs(final.u.values), 1.0, atol=1e-12)
        np.testing.assert_allclose(final.u.values, expected, atol=1e-5)

    def test_second_order_self_convergence(self):
        # A Strang step is second order; the engine's own fine run is the
        # reference.
        g = make_grid(1, 12.0, 256)
        u0 = make_gaussian(g)
        eps, T = 0.5, 0.2
        cfg = NlsRunConfig(dt=T / 512, T=T, save_every=10**6)
        ref = solve_nls_stack([u0], eps, cfg)[0][-1].u.values
        err_coarse = np.abs(strang_chain(u0, eps, T / 64, 64)[-1] - ref).max()
        err_fine = np.abs(strang_chain(u0, eps, T / 128, 128)[-1] - ref).max()
        assert err_coarse / err_fine == pytest.approx(4.0, rel=0.2)

    def test_fourth_order_self_convergence(self):
        g = make_grid(1, 12.0, 256)
        u0 = make_gaussian(g)
        eps = 0.5

        def run(dt):
            cfg = NlsRunConfig(dt=dt, T=0.2, save_every=10**6)
            return solve_nls_stack([u0], eps, cfg)[0][-1].u.values

        ref = run(0.2 / 512)
        err_coarse = np.abs(run(0.2 / 16) - ref).max()
        err_fine = np.abs(run(0.2 / 32) - ref).max()
        assert err_fine > 1e3 * np.finfo(float).eps * np.abs(ref).max()
        assert err_coarse / err_fine == pytest.approx(16.0, rel=0.2)

    def test_mass_conserved_to_roundoff(self):
        g = make_grid(1, 12.0, 256)
        u0 = make_gaussian(g)
        cfg = NlsRunConfig(dt=1e-3, T=0.25, save_every=50)
        traj = solve_nls_stack([u0], 0.25, cfg)[0]
        m0 = mass(traj[0].u)
        drift = max(abs(mass(s.u) - m0) for s in traj) / m0
        assert drift < 1e-10

    def test_energy_drift_small(self):
        g = make_grid(1, 12.0, 512)
        u0 = make_gaussian(g)
        eps = 0.25
        cfg = NlsRunConfig(dt=nls.default_dt(g, eps), T=0.25, save_every=10)
        traj = solve_nls_stack([u0], eps, cfg)[0]
        e0 = semiclassical_energy(traj[0])
        drift = max(abs(semiclassical_energy(s) - e0) for s in traj) / abs(e0)
        assert drift < 1e-6

    def test_default_step_keeps_the_tail_at_roundoff(self):
        # 2 exp(-x^2) at eps = 1/128 on 4096 points, where dx^2/(2 eps)
        # binds.  A step of 2 dx^2/eps, which turns the fastest kinetic
        # phase by pi^2, let the modes above the two-thirds cut grow from
        # roundoff to a tail fraction of 0.18 by t = 0.25.
        g = make_grid(1, 12.0, 4096)
        eps = 1 / 128
        dt = nls.default_dt(g, eps)
        assert dt == pytest.approx(g.spacing**2 / eps)
        cfg = NlsRunConfig(dt=dt, T=0.25, save_every=3, tail_tol=1e-20)
        traj = solve_nls_stack([make_gaussian(g, 2.0)], eps, cfg)[0]
        assert traj[-1].t == 0.25 and max(sg.tail_fraction(s.u) for s in traj) < 1e-20

    def test_time_reversibility(self):
        g = make_grid(1, 12.0, 256)
        u0 = make_gaussian(g)
        eps = 0.5
        fwd = solve_nls_stack([u0], eps, NlsRunConfig(dt=1e-3, T=0.1, save_every=10**6))[0]
        half = solve_nls_stack([u0], eps, NlsRunConfig(dt=5e-4, T=0.1, save_every=10**6))[0]
        fwd_err = np.abs(fwd[-1].u.values - half[-1].u.values).max()
        back = solve_nls_stack([fwd[-1].u], eps,
                               NlsRunConfig(dt=-1e-3, T=-0.1, save_every=10**6))[0]
        return_err = np.abs(back[-1].u.values - u0.values).max()
        assert return_err <= 10 * max(fwd_err, 1e-14)


class TestFusedEngine:
    N_STEPS = 10

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("save_every", [1, 3, 4, 10, 25])
    @pytest.mark.parametrize("sign", [1, -1])
    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 10_000), amplitude=st.floats(0.1, 2.0))
    def test_matches_unfused_substep_chain(self, dim, save_every, sign, seed, amplitude):
        g = make_grid(dim, 4.0, 32)
        u0 = random_field(g, seed, scale=amplitude)
        eps, T = 0.5, sign * 0.05
        cfg = NlsRunConfig(dt=T / self.N_STEPS, T=T, save_every=save_every, tail_tol=1.0)
        traj = solve_nls_stack([u0], eps, cfg)[0]
        ref = composition_chain(u0, eps, T / self.N_STEPS, self.N_STEPS)
        saved = sorted(set(range(0, self.N_STEPS + 1, save_every)) | {self.N_STEPS})
        assert [s.t for s in traj] == pytest.approx([k * T / self.N_STEPS for k in saved])
        for state, k in zip(traj, saved, strict=True):
            err = np.abs(state.u.values - ref[k]).max() / np.abs(ref[k]).max()
            assert err <= 1e-12

    @pytest.mark.parametrize("save_every", [1, 3, 4, 10, 25])
    def test_two_ffts_per_step_plus_two_per_segment(self, monkeypatch, save_every):
        # The engine's own transforms, with the tail guard stubbed out: one
        # FFT pair per stage, len(NONLINEAR) stages per step, one forward FFT
        # of the datum and one inverse FFT per save after t = 0. Since the
        # spectrum carries across saves, a save segment no longer costs the
        # pair of the name; the count below is the exact one.
        counts = count_ffts(monkeypatch)
        monkeypatch.setattr(nls, "tail_fraction", lambda f: 0.0)
        g = make_grid(1, 12.0, 128)
        n_steps = 10
        solve_nls_stack([make_gaussian(g)], 0.5, NlsRunConfig(dt=1e-3, T=n_steps * 1e-3,
                                                              save_every=save_every))
        saves = -(-n_steps // save_every)
        assert counts["forward"] == len(nls.NONLINEAR) * n_steps + 1
        assert counts["inverse"] == len(nls.NONLINEAR) * n_steps + saves

    @pytest.mark.parametrize("save_every", [1, 3, 4, 10, 25])
    def test_save_point_guard_adds_one_fft_in_total(self, monkeypatch, save_every):
        # One FFT pair per stage, len(NONLINEAR) stages per step, one inverse
        # FFT per save after t = 0 and one forward FFT of the datum: every
        # tail guard, at t = 0 too, reads the spectrum the loop holds.
        counts = count_ffts(monkeypatch)
        g = make_grid(1, 12.0, 128)
        n_steps = 10
        (traj,) = solve_nls_stack([make_gaussian(g)], 0.5,
                                  NlsRunConfig(dt=1e-3, T=n_steps * 1e-3, save_every=save_every))
        saves = -(-n_steps // save_every)
        assert len(traj) == saves + 1
        assert counts["forward"] == len(nls.NONLINEAR) * n_steps + 1
        assert counts["inverse"] == len(nls.NONLINEAR) * n_steps + saves

    def test_blanes_moan_coefficients(self):
        # symmetric (so time-reversible), consistent, one more kinetic piece
        # than nonlinear ones, and the published six-stage values
        for table in (nls.KINETIC, nls.NONLINEAR):
            assert table == table[::-1]
            assert sum(table) == pytest.approx(1.0, abs=1e-15)
        assert len(nls.KINETIC) == len(nls.NONLINEAR) + 1
        assert nls.KINETIC[:3] == (0.0792036964311957, 0.353172906049774, -0.0420650803577195)
        assert nls.NONLINEAR[:2] == (0.209515106613362, -0.143851773179818)
        assert nls.KINETIC[3] == 1 - 2 * sum(nls.KINETIC[:3])
        assert nls.NONLINEAR[2] == 0.5 - sum(nls.NONLINEAR[:2])

    def test_more_accurate_than_yoshida_at_equal_fft_count(self):
        # 20 engine steps make as many FFTs as 40 Yoshida steps; each is
        # measured against its own run at 8x the steps.
        g = make_grid(1, 12.0, 1024)
        u0 = make_gaussian(g)
        eps, T = 1 / 16, 0.25

        def error(n, *table):
            coarse, fine = (composition_chain(u0, eps, T / m, m, *table)[-1] for m in (n, 8 * n))
            return np.abs(coarse - fine).max()

        assert 20 * len(nls.NONLINEAR) == 40 * len(YOSHIDA_NONLINEAR)
        assert 10 * error(20) <= error(40, YOSHIDA_KINETIC, YOSHIDA_NONLINEAR)


class TestStackedEngine:
    N_STEPS = 10

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("save_every", [1, 3, 10])
    @pytest.mark.parametrize("sign", [1, -1])
    @settings(max_examples=4, deadline=None)
    @given(members=st.integers(1, 3), seed=st.integers(0, 10_000),
           amplitude=st.floats(0.1, 2.0))
    def test_members_equal_their_single_runs(self, dim, save_every, sign, members, seed,
                                             amplitude):
        g = make_grid(dim, 4.0, 32)
        data = [random_field(g, seed + m, scale=amplitude * (1 + m)) for m in range(members)]
        T = sign * 0.05
        cfg = NlsRunConfig(dt=T / self.N_STEPS, T=T, save_every=save_every, tail_tol=1.0)
        stacked = solve_nls_stack(data, 0.5, cfg)
        assert len(stacked) == members
        for u0, traj in zip(data, stacked, strict=True):
            single = solve_nls_stack([u0], 0.5, cfg)[0]
            assert [s.t for s in traj] == [s.t for s in single]
            for a, b in zip(traj, single, strict=True):
                assert np.array_equal(a.u.values, b.u.values)
                assert a.u.values.shape == g.shape and a.eps == b.eps

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("save_every", [1, 3, 10])
    def test_stack_makes_the_ffts_of_one_run(self, monkeypatch, dim, save_every):
        # The real tail guard runs, at a bound these coarse grids meet.
        g = make_grid(dim, 6.0, 32)
        cfg = NlsRunConfig(dt=1e-3, T=self.N_STEPS * 1e-3, save_every=save_every, tail_tol=1.0)
        counts = count_ffts(monkeypatch)
        solve_nls_stack([make_gaussian(g)], 0.5, cfg)
        single = dict(counts)
        counts.update(forward=0, inverse=0)
        solve_nls_stack([make_gaussian(g, amplitude=a) for a in (1.0, 1.5, 2.0)], 0.5, cfg)
        assert counts == single
        assert single["forward"] > 0

    @staticmethod
    def keep_run(dim, keep=None):
        g = make_grid(dim, 8.0, 16 if dim == 3 else 64)
        data = [make_gaussian(g), make_gaussian(g, amplitude=1.5, width=0.8)]
        cfg = NlsRunConfig(dt=1e-2, T=0.1, save_every=3, tail_tol=1.0)
        return g, solve_nls_stack(data, 0.5, cfg, keep)

    @pytest.mark.parametrize("dim", [1, 3])
    def test_keep_gets_the_transform_of_each_saved_state(self, dim):
        # the spectrum handed on is read off the loop's, member by member,
        # after the per-axis kinetic factors; it is valid only during the
        # keep call, where a fresh transform agrees
        grids = []

        def check(snap):
            state, spectrum = snap
            ref = sg.transform(state.u).values
            assert spectrum.space == sg.SPECTRAL
            assert np.allclose(spectrum.values, ref, rtol=1e-13,
                               atol=1e-13 * np.abs(ref).max())
            grids.append(spectrum.grid)
            return state

        g, kept = self.keep_run(dim, check)
        assert [len(traj) for traj in kept] == [5, 5]
        assert grids == [g] * 10

    @pytest.mark.parametrize("dim", [1, 3])
    def test_kept_states_outlive_the_lent_spectrum(self, dim):
        # the spectrum is the one the loop holds, which the next stage
        # overwrites; the states keep holds are copies that nothing touches
        _, kept = self.keep_run(dim, lambda snap: snap[0])
        g, plain = self.keep_run(dim)
        for kept_traj, plain_traj in zip(kept, plain, strict=True):
            assert [s.t for s in kept_traj] == [s.t for s in plain_traj]
            for a, b in zip(kept_traj, plain_traj, strict=True):
                assert a.u.space == sg.PHYSICAL and a.u.grid == g
                assert np.array_equal(a.u.values, b.u.values)

    def test_member_data_untouched(self):
        g = make_grid(1, 12.0, 64)
        data = [make_gaussian(g), make_gaussian(g, amplitude=2.0)]
        before = [f.values.copy() for f in data]
        solve_nls_stack(data, 0.5, NlsRunConfig(dt=1e-3, T=0.01, tail_tol=1.0))
        assert all(np.array_equal(f.values, b) for f, b in zip(data, before))

    @staticmethod
    def _tripping_runs():
        """(datum that trips a guard, config, error type) on one 1-D grid."""
        g = make_grid(1, 12.0, 128)
        nan_datum = make_gaussian(g).values
        nan_datum[3] = np.nan
        rough = Field(g, np.exp(1j * 0.9 * g.k_max * g.x_axes[0]))
        return g, [
            # tail above 1e-4 at the save at t = 0.05 (see TestGuards)
            (make_gaussian(g, amplitude=6.0),
             NlsRunConfig(dt=1e-3, T=0.2, save_every=10, tail_tol=1e-4), ResolutionError),
            (rough, NlsRunConfig(dt=1e-3, T=0.01), ResolutionError),
            (Field(g, nan_datum), NlsRunConfig(dt=1e-3, T=0.01), NonFiniteError),
            # |u|^2 overflows in the first nonlinear phase, between saves
            (make_gaussian(g, amplitude=1e155),
             NlsRunConfig(dt=1e-3, T=0.01, save_every=10), NonFiniteError),
        ]

    @pytest.mark.parametrize("case", range(4))
    @pytest.mark.parametrize("position", [0, 1, 2])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_tripping_member_raises_its_single_run_error(self, case, position):
        g, runs = self._tripping_runs()
        bad, cfg, kind = runs[case]
        with pytest.raises(kind) as single:
            solve_nls_stack([bad], 0.5, cfg)
        data = [make_gaussian(g, amplitude=0.5), make_gaussian(g, amplitude=0.7)]
        data.insert(position, bad)
        with pytest.raises(kind) as stacked:
            solve_nls_stack(data, 0.5, cfg)
        assert str(stacked.value) == str(single.value)
        assert stacked.value.t == single.value.t
        if kind is ResolutionError:
            assert stacked.value.tail_fraction == single.value.tail_fraction
        else:
            last, ref = stacked.value.last_state, single.value.last_state
            assert (last is None) == (ref is None)
            if ref is not None:
                assert last.t == ref.t and np.array_equal(last.u.values, ref.u.values)

    # eps per member: the kinetic factors hold one vector per member on each
    # axis and the rotation rates one value per member
    MIXED_EPS = (0.5, 0.125, 1.0, 0.25)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("save_every", [1, 3])
    def test_mixed_eps_members_equal_their_single_runs(self, dim, save_every):
        g = make_grid(dim, 4.0, 32)
        data = [random_field(g, seed, scale=0.5 + 0.4 * seed) for seed in range(4)]
        cfg = NlsRunConfig(dt=0.05 / self.N_STEPS, T=0.05, save_every=save_every, tail_tol=1.0)
        stacked = solve_nls_stack(data, self.MIXED_EPS, cfg)
        for u0, eps, traj in zip(data, self.MIXED_EPS, stacked, strict=True):
            single = solve_nls_stack([u0], eps, cfg)[0]
            assert bit_identical(traj, single)
            assert {s.eps for s in traj} == {eps}
        # the eps do act: a member's trajectory moves with its own eps
        assert not np.array_equal(stacked[0][-1].u.values,
                                  solve_nls_stack([data[0]], 0.125, cfg)[0][-1].u.values)

    @pytest.mark.parametrize("case", range(4))
    @pytest.mark.parametrize("position", [0, 1, 2])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_tripping_member_of_a_mixed_eps_stack_raises_its_single_run_error(
            self, case, position):
        # the tripping datum at eps = 1/2, the healthy ones at 1/4 and 1
        g, runs = self._tripping_runs()
        bad, cfg, kind = runs[case]
        with pytest.raises(kind) as single:
            solve_nls_stack([bad], 0.5, cfg)
        data = [make_gaussian(g, amplitude=0.5), make_gaussian(g, amplitude=0.7)]
        eps = [0.25, 1.0]
        data.insert(position, bad)
        eps.insert(position, 0.5)
        with pytest.raises(kind) as stacked:
            solve_nls_stack(data, eps, cfg)
        assert str(stacked.value) == str(single.value)
        assert stacked.value.t == single.value.t
        if kind is ResolutionError:
            assert stacked.value.tail_fraction == single.value.tail_fraction
        else:
            assert bit_identical(stacked.value.last_state, single.value.last_state)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_first_member_to_trip_in_step_order_raises(self):
        # the member at eps = 1/2 trips the tail guard at t = 0.05 and the
        # overflowing one at step 1: the overflow raises, wherever it sits
        g, runs = self._tripping_runs()
        (late, cfg, _), (early, _, _) = runs[0], runs[3]
        for data in ([late, early], [early, late]):
            with pytest.raises(NonFiniteError, match="step 1 "):
                solve_nls_stack(data, [0.5, 0.25], cfg)

    def test_stack_validation(self):
        g = make_grid(1, 12.0, 64)
        cfg = NlsRunConfig(dt=1e-3, T=0.01)
        with pytest.raises(ValueError, match="2 values of eps for 1 data"):
            solve_nls_stack([make_gaussian(g)], [0.5, 0.25], cfg)
        with pytest.raises(ValueError, match=r"eps must lie in \(0, 1\], got 1.5"):
            solve_nls_stack([make_gaussian(g)] * 2, [0.5, 1.5], cfg)
        with pytest.raises(ValueError, match="at least one"):
            solve_nls_stack([], 0.5, cfg)
        with pytest.raises(ValueError, match="one grid"):
            solve_nls_stack([make_gaussian(g), make_gaussian(make_grid(1, 12.0, 128))], 0.5, cfg)
        with pytest.raises(ValueError, match="physical-space"):
            solve_nls_stack([make_gaussian(g), sg.transform(make_gaussian(g))], 0.5, cfg)
        for eps in (0.0, -0.5, np.nan, 1.5):
            with pytest.raises(ValueError, match=r"eps must lie in \(0, 1\], got"):
                solve_nls_stack([make_gaussian(g)], eps, cfg)


class TestPiecedRotation:
    """The phase rotation runs over pieces of the flattened stack through a
    scratch of at most ROTATE_POINTS points; with that bound made small,
    both ways of cutting a stack into pieces keep every bit."""

    RATE = 0.37
    # (grid, members, piece points): three whole members of 16 points per
    # piece and two in the last; or 2-D members of 256 points in pieces of
    # 48, the last of 16
    CASES = {"members_per_piece": ((1, 16), 5, 48), "pieces_per_member": ((2, 16), 3, 48)}

    @classmethod
    def case(cls, name):
        (dim, points), members, piece = cls.CASES[name]
        g = make_grid(dim, 4.0, points)
        return g, [random_field(g, seed, smooth_width=2) for seed in range(members)], piece

    @pytest.mark.parametrize("name", CASES)
    def test_equals_one_whole_array_rotation(self, name):
        _, data, piece = self.case(name)
        w = np.stack([f.values for f in data])
        ref = w.copy()
        nls._rotate(ref, np.empty_like(ref), self.RATE, None)
        rates = np.full((len(data), 1), self.RATE)
        finite = nls._rotate_stack(w, np.empty(piece, dtype=complex), rates)
        assert bit_identical(w, ref)
        assert finite.tolist() == [True] * len(data)

    @pytest.mark.parametrize("name", CASES)
    def test_runs_keep_their_bits(self, monkeypatch, name):
        g, data, piece = self.case(name)
        cfg = NlsRunConfig(dt=1e-2, T=0.05, save_every=2, tail_tol=1.0)
        whole = solve_nls_stack(data, 0.5, cfg)
        monkeypatch.setattr(nls, "ROTATE_POINTS", piece)
        assert bit_identical(solve_nls_stack(data, 0.5, cfg), whole)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_in_a_later_piece_raises_with_its_member_snapshot(self, monkeypatch):
        # a NaN planted, at step 2's first stage, in member 1's second piece
        g, data, piece = self.case("pieces_per_member")
        cfg = NlsRunConfig(dt=1e-2, T=0.05, save_every=1, tail_tol=1.0)
        clean = solve_nls_stack(data, 0.5, cfg)
        monkeypatch.setattr(nls, "ROTATE_POINTS", piece)
        rotate, calls = nls._rotate_stack, []

        def planting(w, scratch, rate):
            calls.append(rate)
            if len(calls) == len(nls.NONLINEAR) + 1:
                w[1].reshape(-1)[piece + 5] = np.nan
            finite = rotate(w, scratch, rate)
            if len(calls) == len(nls.NONLINEAR) + 1:
                assert finite.tolist() == [True, False, True]
            return finite

        monkeypatch.setattr(nls, "_rotate_stack", planting)
        with pytest.raises(NonFiniteError, match="step 2 ") as exc:
            solve_nls_stack(data, 0.5, cfg)
        assert bit_identical(exc.value.last_state, clean[1][1])
        assert not np.array_equal(exc.value.last_state.u.values, clean[0][1].u.values)


def plain_stack_run(data, eps, cfg):
    """The step loop written plainly, per member m at eps[m]: contiguous
    np.fft.fftn/ifftn over the grid axes, each kinetic piece one factor per
    axis, and a rotation by cos + i sin of the phase; the values after every
    step, from t = 0."""
    g = data[0].grid
    axes = tuple(range(-g.dim, 0))
    dt, column = cfg.step, (-1,) + (1,) * g.dim

    def kinetic(w, a):
        theta = np.reshape([0.5 * e * a * dt for e in eps], column)
        for ax, k in enumerate(g.k_axes):
            w = w * np.exp(-1j * (theta * g.axis_view(k**2, ax)))
        return w

    u = np.stack([f.values for f in data])
    out, w = [u], np.fft.fftn(u, axes=axes)
    for _ in range(cfg.steps):
        for a, b in zip(nls.KINETIC, nls.NONLINEAR):
            u = np.fft.ifftn(kinetic(w, a), axes=axes)
            phase = np.abs(u) ** 2 * -np.reshape([b * dt / e for e in eps], column)
            rotation = np.empty_like(u)
            rotation.real, rotation.imag = np.cos(phase), np.sin(phase)
            w = np.fft.fftn(u * rotation, axes=axes)
        w = kinetic(w, nls.KINETIC[-1])
        out.append(np.fft.ifftn(w, axes=axes))
    return out


class TestPaddedStage:
    """On a grid of dim >= 2 the loop keeps the spectrum in storage whose
    last axis PAD zeros extend, and a rotation piece whose phases are
    bounded by TINY_PHASE skips sin and cos; neither changes a bit."""

    def test_sin_and_cos_are_exact_below_tiny_phase(self):
        # the premise of the skip, for the installed numpy: sin x == x and
        # cos x == 1 bit for bit for |x| <= TINY_PHASE, on 512 mantissas of
        # every binade from the subnormals up, both signs and zero, written
        # to a contiguous array and into a complex one's parts, as _rotate does
        binades = np.ldexp(1 + np.arange(512) / 512, np.arange(-1074, -26).reshape(-1, 1)).ravel()
        x = np.concatenate([[0.0, 5e-324, np.nextafter(2.0**-1022, 0), nls.TINY_PHASE],
                            binades[binades <= nls.TINY_PHASE]])
        x = np.concatenate([x, -x])
        buf = np.empty(len(x), dtype=complex)
        np.sin(x, out=buf.imag)
        np.cos(x, out=buf.real)
        for sin, cos in ((np.sin(x), np.cos(x)), (buf.imag, buf.real)):
            assert bit_identical(sin, x)
            assert bit_identical(cos, np.ones_like(x))

    # (dim, points, member scales, sign of dt, ROTATE_POINTS): a unit member
    # and one of amplitude 1e-6, forward and backward, in one rotation piece
    # (in 3-D, each member a piece of its own, the tiny one's skipping); the
    # tiny member alone, which skips every sin and cos; a Gaussian in pieces
    # of 128 points, which skip at its edges only
    CASES = {
        "2d-mixed": (2, 32, (1.0, 1e-6), 1, nls.ROTATE_POINTS),
        "2d-mixed-backward": (2, 32, (1.0, 1e-6), -1, nls.ROTATE_POINTS),
        "2d-tiny": (2, 32, (1e-6,), 1, nls.ROTATE_POINTS),
        "2d-gaussian-in-pieces": (2, 32, None, 1, 128),
        "3d-mixed": (3, 16, (1.0, 1e-6), 1, nls.ROTATE_POINTS),
        "3d-mixed-backward": (3, 16, (1.0, 1e-6), -1, nls.ROTATE_POINTS),
        "1d-mixed": (1, 64, (1.0, 1e-6), 1, nls.ROTATE_POINTS),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_matches_a_plain_loop(self, monkeypatch, name):
        dim, points, scales, sign, piece = self.CASES[name]
        if scales is None:
            g = make_grid(dim, 8.0, points)
            data = [make_gaussian(g)]
        else:
            g = make_grid(dim, 4.0, points)
            data = [random_field(g, 7 + m, scale=c, smooth_width=2) for m, c in enumerate(scales)]
        eps = [0.5, 0.25][:len(data)]
        cfg = NlsRunConfig(dt=sign * 0.01, T=sign * 0.02, save_every=1, tail_tol=1.0)
        monkeypatch.setattr(nls, "ROTATE_POINTS", piece)
        stores, rotate_stack = [], nls._rotate_stack

        def watching(w, scratch, rate):  # w is the storage the loop rotates
            stores.append(w)
            assert not w[..., points:].any()
            finite = rotate_stack(w, scratch, rate)
            assert not w[..., points:].any()
            return finite

        monkeypatch.setattr(nls, "_rotate_stack", watching)
        sines, sin = [], np.sin

        def counting_sin(*args, **kwargs):
            sines.append(1)
            return sin(*args, **kwargs)

        monkeypatch.setattr(np, "sin", counting_sin)
        trajectories = solve_nls_stack(data, eps, cfg)
        monkeypatch.undo()

        reference = plain_stack_run(data, eps, cfg)
        for m, trajectory in enumerate(trajectories):
            assert [s.t for s in trajectory] == [0.0, sign * 0.01, sign * 0.02]
            for state, values in zip(trajectory, reference, strict=True):
                assert bit_identical(state.u.values, values[m])
                assert state.u.values.flags.c_contiguous
        store = stores[0]
        assert all(s is store for s in stores) and len(stores) == 2 * len(nls.NONLINEAR)
        assert store.shape == (len(data),) + g.shape[:-1] + (points + (nls.PAD if dim > 1 else 0),)
        assert not store[..., points:].any()  # after the closing kinetic piece too
        pieces = len(stores) * -(-store.size // min(piece, store.size))
        if name == "2d-tiny":
            assert not sines
        elif name == "2d-gaussian-in-pieces":
            assert 0 < len(sines) < pieces
        else:
            assert len(sines) == len(stores)


    @pytest.mark.parametrize("name", ["2d-mixed", "3d-mixed-backward"])
    def test_any_band_count_keeps_the_bits(self, bands, name):
        # three steps saved every two, in 1, 2, 3 or 5 bands of grid lines
        dim, points, scales, sign, _ = self.CASES[name]
        g = make_grid(dim, 4.0, points)
        data = [random_field(g, 7 + m, scale=c, smooth_width=2) for m, c in enumerate(scales)]
        eps = [0.5, 0.25]
        cfg = NlsRunConfig(dt=sign * 0.01, T=sign * 0.03, save_every=2, tail_tol=1.0)
        reference = plain_stack_run(data, eps, cfg)
        for m, trajectory in enumerate(solve_nls_stack(data, eps, cfg)):
            for state, values in zip(trajectory, [reference[k] for k in (0, 2, 3)], strict=True):
                assert bit_identical(state.u.values, values[m])

    def test_rotation_straddling_tiny_phase_keeps_the_bits(self, monkeypatch):
        # one piece whose phases straddle TINY_PHASE, among them NaN and -inf
        # (|u|^2 overflows or u is inf): sin and cos run just where a phase
        # is not at most TINY_PHASE, with the bits of running them everywhere
        radius = np.sqrt(nls.TINY_PHASE) * np.array([0.0, 0.5, 1 - 1e-9, 1 + 1e-9, 2.0, 1e3])
        u0 = np.concatenate([radius * np.exp(1j * (0.3 + np.arange(6))), [np.nan, 1e200, np.inf, 1j]])
        u0 = u0.reshape(1, -1)
        with np.errstate(over="ignore", invalid="ignore"):
            phase = np.square(np.abs(u0)) * -1.0
            ref_buf = np.empty_like(u0)
            np.sin(phase, out=ref_buf.imag)
            np.cos(phase, out=ref_buf.real)
            reference = u0 * ref_buf
            masks, sin = [], np.sin

            def recording_sin(*args, **kwargs):
                masks.append(kwargs["where"])
                return sin(*args, **kwargs)

            monkeypatch.setattr(np, "sin", recording_sin)
            u = u0.copy()
            nls._rotate(u, np.empty_like(u), np.array([[1.0]]), 1)
        assert bit_identical(u, reference)
        (mask,) = masks
        assert bit_identical(mask, ~(np.abs(phase) <= nls.TINY_PHASE))
        assert mask.tolist() == [[False, False, False, True, True, True, True, True, True, True]]


class TestStackMemory:
    def test_stack_peaks_below_two_and_a_half_of_its_fields(self):
        # The loop holds the spectrum w, the last snapshots and a rotation
        # scratch of a sixteenth of this stack; a save drops the old snapshots
        # before its tail guard, which sums slab by slab, and the one
        # inverse transform that makes the new ones.
        g = make_grid(2, 10.25, 256)  # a key no other test holds
        data = [make_gaussian(g), make_gaussian(g, amplitude=1.5, width=0.8)]
        cfg = NlsRunConfig(dt=1e-3, T=0.01, save_every=1)
        saves = []

        def keep(snap):
            saves.append(snap[0].t)
            return mass(snap[0].u)

        stack_fields = traced_peak(lambda: solve_nls_stack(data, 0.5, cfg, keep)) / (
            len(data) * g.num_points * 16)
        assert len(saves) == 2 * 11
        assert stack_fields < 2.5, f"peak of {stack_fields:.2f} of the stack's fields"


band_limited_runs = dict(
    dim=st.integers(1, 3),
    seed=st.integers(0, 10_000),
    amplitude=st.floats(0.1, 2.0),
    eps=st.sampled_from([1.0, 0.5, 0.25]),
    n_steps=st.integers(1, 8),
)


def small_grid(dim):
    return make_grid(dim, 4.0, {1: 64, 2: 32, 3: 16}[dim])


class TestEngineProperties:
    @settings(max_examples=15, deadline=None)
    @given(**band_limited_runs)
    def test_reversible_under_dt_sign_flip(self, dim, seed, amplitude, eps, n_steps):
        u0 = random_field(small_grid(dim), seed, scale=amplitude, smooth_width=3)
        T = 0.02 * n_steps
        fwd = solve_nls_stack([u0], eps, NlsRunConfig(dt=T / n_steps, T=T, save_every=3,
                                                      tail_tol=1.0))[0]
        back = solve_nls_stack([fwd[-1].u], eps,
                               NlsRunConfig(dt=-T / n_steps, T=-T, save_every=3, tail_tol=1.0))[0]
        assert back[-1].t == pytest.approx(-T)
        err = np.abs(back[-1].u.values - u0.values).max() / np.abs(u0.values).max()
        assert err <= 1e-12

    @settings(max_examples=15, deadline=None)
    @given(**band_limited_runs)
    def test_mass_conserved(self, dim, seed, amplitude, eps, n_steps):
        u0 = random_field(small_grid(dim), seed, scale=amplitude, smooth_width=3)
        T = 0.05 * n_steps
        cfg = NlsRunConfig(dt=T / n_steps, T=T, save_every=2, tail_tol=1.0)
        traj = solve_nls_stack([u0], eps, cfg)[0]
        m0 = mass(u0)
        assert max(abs(mass(s.u) - m0) for s in traj) <= 1e-12 * m0

    # Galilean covariance: if u solves the equation, so does
    # e^{i(k0.x - eps |k0|^2 t/2)} u(t, x - eps k0 t).  Both substeps keep it
    # for any step, so the boosted run, demodulated and translated back,
    # is the plain run up to the aliasing of the translation, which is
    # roundoff on these grids (it reads 2e-6 on a 128^2 grid).
    @pytest.mark.parametrize("dim, points, eps", [(1, 512, 0.125), (2, 512, 0.25)])
    def test_galilean_boost(self, dim, points, eps):
        g = make_grid(dim, 12.0, points)
        T = 0.25
        # a different lattice wavenumber per axis: mode m + 1 on axis m
        k0 = [np.pi * (ax + 1) / g.half_width for ax in range(dim)]
        phase = sum(g.axis_view(k * x, ax) for ax, (k, x) in enumerate(zip(k0, g.x_axes)))
        u0 = make_gaussian(g)
        boosted = Field(g, u0.values * np.exp(1j * phase))
        cfg = NlsRunConfig(dt=0.025, T=T, save_every=10, tail_tol=1.0)
        plain, moved = (traj[-1].u.values
                        for traj in solve_nls_stack([u0, boosted], eps, cfg))
        spectrum = sg._fft(moved * np.exp(-1j * (phase - eps * T / 2 * sum(k * k for k in k0))),
                           dim)
        for ax, (k, kx) in enumerate(zip(k0, g.k_axes)):
            spectrum *= g.axis_view(np.exp(1j * eps * k * T * kx), ax)
        back = sg._ifft(spectrum, dim)
        err = np.linalg.norm(back - plain) / np.linalg.norm(plain)
        assert err <= 1e-12

    # Every axis has the same N and L, so permuting the axes of a datum must
    # permute its trajectory and keep its norms.  The datum is off centre by
    # a different amount on each axis, so a per-axis mix-up shows: a kinetic
    # factor applied along the wrong axis, or a norm slab's |k|^2 built from
    # the wrong axis.  Only roundoff differs, the transforms and sums running
    # over the axes in another order: measured 2.6e-15 on the states and
    # 5.6e-16 on the norms.
    @pytest.mark.parametrize("points, center, perm", [
        (64, (0.75, -0.5), (1, 0)),
        (32, (0.75, -0.5, 0.25), (2, 0, 1)),
    ], ids=["2d", "3d"])
    def test_axis_permutation(self, points, center, perm):
        g = make_grid(len(center), 7.0, points)  # 16 slabs per norm
        u0 = make_gaussian(g, center=center)
        swapped = Field(g, np.ascontiguousarray(np.transpose(u0.values, perm)))
        cfg = NlsRunConfig(dt=0.01, T=0.1, save_every=5, tail_tol=1.0)
        plain, moved = solve_nls_stack([u0, swapped], 0.5, cfg)
        for a, b in zip(plain, moved):
            expected = np.transpose(a.u.values, perm)
            assert np.linalg.norm(b.u.values - expected) <= 1e-13 * np.linalg.norm(expected)
        indices = [SobolevIndex(), SobolevIndex(1.5), SobolevIndex(1.0, homogeneous=True),
                   SobolevIndex(2.0, eps_scaled=0.25)]
        for a, b in [(u0, swapped), (plain[-1].u, moved[-1].u)]:
            for index in indices:
                assert norm(b, index) == pytest.approx(norm(a, index), rel=1e-14, abs=0)


class TestGuards:
    def test_resolution_guard_at_start(self):
        g = make_grid(1, np.pi, 32)
        rough = Field(g, np.exp(1j * 0.9 * g.k_max * g.x_axes[0]))
        with pytest.raises(ResolutionError, match="tail"):
            solve_nls_stack([rough], 1.0, NlsRunConfig(dt=1e-3, T=0.01))

    def test_guard_reports_tail_fraction(self):
        g = make_grid(1, np.pi, 32)
        rough = Field(g, np.exp(1j * 0.9 * g.k_max * g.x_axes[0]))
        with pytest.raises(ResolutionError) as exc:
            solve_nls_stack([rough], 1.0, NlsRunConfig(dt=1e-3, T=0.01))
        assert exc.value.tail_fraction > 0.5

    def test_overflowing_spectrum_trips_tail_guard(self):
        # A finite datum whose tail and total spectral power both overflow:
        # the tail fraction is inf/inf = NaN, which must not read as resolved.
        g = make_grid(1, np.pi, 32)
        rough = Field(g, 1e160 * np.exp(1j * 0.9 * g.k_max * g.x_axes[0]))
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isnan(sg.tail_fraction(rough))
            with pytest.raises(ResolutionError, match="at t = 0;") as exc:
                solve_nls_stack([rough], 1.0, NlsRunConfig(dt=1e-3, T=0.01))
        assert exc.value.t == 0.0

    def test_mid_run_trip_reads_the_loop_spectrum(self):
        # Resolved at t = 0 (tail 7e-29); the nonlinear phase steepens the
        # field until the tail first exceeds 1e-4 at the save at t = 0.05.
        g = make_grid(1, 12.0, 128)
        u0 = make_gaussian(g, amplitude=6.0)
        tol, eps = 1e-4, 0.5

        def run(tail_tol):
            return solve_nls_stack([u0], eps, NlsRunConfig(dt=1e-3, T=0.2, save_every=10,
                                                           tail_tol=tail_tol))[0]

        with pytest.raises(ResolutionError, match="at t = 0.05;") as exc:
            run(tol)
        ref = run(1.0)
        fracs = [sg.tail_fraction(s.u) for s in ref]
        first_trip = next(i for i, f in enumerate(fracs) if f > tol)
        assert first_trip == 5
        assert exc.value.t == ref[first_trip].t
        assert exc.value.tail_fraction == pytest.approx(fracs[first_trip], rel=1e-12)

    def test_non_finite_datum_rejected_at_start(self):
        g = make_grid(1, 12.0, 64)
        values = make_gaussian(g).values
        values[3] = np.nan
        with pytest.raises(NonFiniteError, match="step 0") as exc:
            solve_nls_stack([Field(g, values)], 0.5, NlsRunConfig(dt=1e-3, T=0.01))
        assert exc.value.t == 0.0
        assert exc.value.last_state is None

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_caught_at_the_step_with_last_good_snapshot(self):
        # |u|^2 overflows in the first nonlinear phase; the datum itself is
        # finite. The next save point is nine steps later.
        g = make_grid(1, 12.0, 64)
        u0 = make_gaussian(g, amplitude=1e155)
        with pytest.raises(NonFiniteError, match="step 1 ") as exc:
            solve_nls_stack([u0], 0.5, NlsRunConfig(dt=1e-3, T=0.01, save_every=10))
        assert exc.value.t == pytest.approx(1e-3)
        assert exc.value.last_state.t == 0.0
        assert np.all(np.isfinite(exc.value.last_state.u.values))

    def test_overflowing_save_transform_carries_no_snapshot(self, monkeypatch):
        # The spectrum held passed the finiteness check, so the old snapshots
        # have gone when the save's own inverse transform overflows.
        g = make_grid(1, 12.0, 64)
        ifft = nls._ifft

        def overflowing(a, dim, out=None, **kwargs):
            values = ifft(a, dim, out=out, **kwargs)
            if out is None:  # the save's transform, not a stage's in place
                values[0, 3] = np.inf
            return values

        monkeypatch.setattr(nls, "_ifft", overflowing)
        with pytest.raises(NonFiniteError, match="step 2 ") as exc:
            solve_nls_stack([make_gaussian(g), make_gaussian(g, amplitude=2.0)], 0.5,
                            NlsRunConfig(dt=1e-3, T=0.004, save_every=2))
        assert exc.value.last_state is None

    def test_config_validation(self):
        with pytest.raises(ValueError, match="dt"):
            NlsRunConfig(dt=-1e-3, T=1.0)
        with pytest.raises(ValueError, match="horizon"):
            NlsRunConfig(dt=2.0, T=1.0)
        with pytest.raises(ValueError, match="budget"):
            NlsRunConfig(dt=1e-9, T=10.0)
        with pytest.raises(ValueError, match="eps"):
            NlsState(0.0, Field(make_grid(1, 1.0, 8), np.zeros(8)), 1.5)


class TestFunctionals:
    def test_mass_of_constant(self):
        g = make_grid(1, 5.0, 64)
        c = 1.3 - 0.4j
        assert mass(Field(g, np.full(g.shape, c))) == pytest.approx(abs(c) ** 2 * 10.0)

    def test_energy_of_plane_wave(self):
        k0, eps = 2.0, 0.5
        state = plane_wave_state(k0, eps)
        expected = (eps**2 * k0**2 + 1.0) * 2 * np.pi
        assert semiclassical_energy(state) == pytest.approx(expected, rel=1e-12)
