import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scnls import grid as sg
from scnls import nls
from scnls.errors import NonFiniteError, ResolutionError
from scnls.grid import Field, make_grid, make_gaussian
from scnls.nls import NlsRunConfig, NlsState, mass, semiclassical_energy, solve_nls

from conftest import random_field


def plane_wave_state(k0=1.0, eps=1.0, n=64):
    g = make_grid(1, np.pi, n)
    return NlsState(0.0, Field(g, np.exp(1j * k0 * g.x_axes[0])), eps)


class TestSubsteps:
    def test_kinetic_plane_wave_phase(self):
        k0, eps, tau = 3.0, 0.5, 0.1
        state = plane_wave_state(k0, eps)
        out = nls.kinetic_substep(state, tau)
        expected = state.u.values * np.exp(-0.5j * eps * k0**2 * tau)
        np.testing.assert_allclose(out.u.values, expected, atol=1e-13)

    def test_kinetic_constant_unchanged(self):
        g = make_grid(1, 2.0, 32)
        state = NlsState(0.0, Field(g, np.full(g.shape, 1.2 - 0.7j)), 0.25)
        out = nls.kinetic_substep(state, 0.3)
        np.testing.assert_allclose(out.u.values, state.u.values, atol=1e-14)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_kinetic_preserves_mass(self, seed):
        g = make_grid(1, 4.0, 64)
        f = random_field(g, seed)
        state = NlsState(0.0, f, 0.5)
        out = nls.kinetic_substep(state, 0.17)
        assert mass(out.u) == pytest.approx(mass(f), rel=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_nonlinear_preserves_modulus_pointwise(self, seed):
        g = make_grid(1, 4.0, 64)
        f = random_field(g, seed)
        out = nls.nonlinear_substep(NlsState(0.0, f, 0.25), 0.2)
        np.testing.assert_allclose(np.abs(out.u.values), np.abs(f.values), atol=1e-13)

    def test_nonlinear_constant_exact_ode(self):
        g = make_grid(1, 2.0, 32)
        c, eps, tau = 1.5 + 0.5j, 0.5, 0.3
        state = NlsState(0.0, Field(g, np.full(g.shape, c)), eps)
        out = nls.nonlinear_substep(state, tau)
        expected = c * np.exp(-1j * abs(c) ** 2 * tau / eps)
        np.testing.assert_allclose(out.u.values, np.full(g.shape, expected), atol=1e-14)

    def test_nonlinear_zero_field(self):
        g = make_grid(1, 2.0, 32)
        out = nls.nonlinear_substep(NlsState(0.0, Field(g, np.zeros(g.shape)), 0.5), 0.1)
        assert np.abs(out.u.values).max() == 0.0


class TestStrang:
    def test_plane_wave_closed_form(self):
        # For eps = 1 and u0 = e^{ix} on [-pi, pi): Lap u = -u and |u| = 1,
        # so u(t, x) = e^{i x - 3 i t / 2} exactly.
        state = plane_wave_state(1.0, 1.0)
        cfg = NlsRunConfig(dt=1e-3, T=0.5, save_every=100)
        traj = solve_nls(state.u, 1.0, cfg)
        final = traj[-1]
        assert final.t == pytest.approx(0.5)
        g = final.u.grid
        expected = np.exp(1j * g.x_axes[0] - 1.5j * final.t)
        np.testing.assert_allclose(np.abs(final.u.values), 1.0, atol=1e-12)
        np.testing.assert_allclose(final.u.values, expected, atol=1e-5)

    def test_second_order_self_convergence(self):
        g = make_grid(1, 12.0, 256)
        u0 = make_gaussian(g)
        eps = 0.5

        def run(dt):
            cfg = NlsRunConfig(dt=dt, T=0.2, save_every=10**6)
            return solve_nls(u0, eps, cfg)[-1].u.values

        ref = run(0.2 / 2048)
        err_coarse = np.abs(run(0.2 / 64) - ref).max()
        err_fine = np.abs(run(0.2 / 128) - ref).max()
        assert err_coarse / err_fine == pytest.approx(4.0, rel=0.2)

    def test_mass_conserved_to_roundoff(self):
        g = make_grid(1, 12.0, 256)
        u0 = make_gaussian(g)
        cfg = NlsRunConfig(dt=1e-3, T=0.25, save_every=50)
        traj = solve_nls(u0, 0.25, cfg)
        m0 = mass(traj[0].u)
        drift = max(abs(mass(s.u) - m0) for s in traj) / m0
        assert drift < 1e-10

    def test_energy_drift_small(self):
        g = make_grid(1, 12.0, 512)
        u0 = make_gaussian(g)
        eps = 0.25
        dt = nls.default_dt(g, eps, safety=0.25)
        cfg = NlsRunConfig(dt=dt, T=0.25, save_every=200)
        traj = solve_nls(u0, eps, cfg)
        e0 = semiclassical_energy(traj[0])
        drift = max(abs(semiclassical_energy(s) - e0) for s in traj) / abs(e0)
        assert drift < 1e-6

    def test_time_reversibility(self):
        g = make_grid(1, 12.0, 256)
        u0 = make_gaussian(g)
        eps = 0.5
        fwd = solve_nls(u0, eps, NlsRunConfig(dt=1e-3, T=0.1, save_every=10**6))
        half = solve_nls(u0, eps, NlsRunConfig(dt=5e-4, T=0.1, save_every=10**6))
        fwd_err = np.abs(fwd[-1].u.values - half[-1].u.values).max()
        back = solve_nls(fwd[-1].u, eps, NlsRunConfig(dt=-1e-3, T=-0.1, save_every=10**6))
        return_err = np.abs(back[-1].u.values - u0.values).max()
        assert return_err <= 10 * max(fwd_err, 1e-14)


def reference_chain(u0, eps, dt, n_steps):
    """States after 0..n_steps unfused Strang steps built from the substeps."""
    state = NlsState(0.0, u0, eps)
    out = [state.u.values]
    for _ in range(n_steps):
        state = nls.kinetic_substep(state, dt / 2)
        state = nls.nonlinear_substep(state, dt)
        state = nls.kinetic_substep(state, dt / 2)
        out.append(state.u.values)
    return out


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
        traj = solve_nls(u0, eps, cfg)
        ref = reference_chain(u0, eps, T / self.N_STEPS, self.N_STEPS)
        saved = sorted(set(range(0, self.N_STEPS + 1, save_every)) | {self.N_STEPS})
        assert [s.t for s in traj] == pytest.approx([k * T / self.N_STEPS for k in saved])
        for state, k in zip(traj, saved, strict=True):
            err = np.abs(state.u.values - ref[k]).max() / np.abs(ref[k]).max()
            assert err <= 1e-12

    @pytest.mark.parametrize("save_every", [1, 3, 4, 10, 25])
    def test_two_ffts_per_step_plus_two_per_segment(self, monkeypatch, save_every):
        counts = {"fftn": 0, "ifftn": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        for name in counts:
            monkeypatch.setattr(np.fft, name, counting(name, getattr(np.fft, name)))
        # The tail guard's transforms are the grid layer's, not the engine's.
        monkeypatch.setattr(nls, "tail_fraction", lambda f: 0.0)
        g = make_grid(1, 12.0, 128)
        n_steps = 10
        solve_nls(make_gaussian(g), 0.5, NlsRunConfig(dt=1e-3, T=n_steps * 1e-3,
                                                      save_every=save_every))
        segments = -(-n_steps // save_every)
        assert counts["fftn"] == counts["ifftn"] == n_steps + segments


class TestGuards:
    def test_resolution_guard_at_start(self):
        g = make_grid(1, np.pi, 32)
        rough = Field(g, np.exp(1j * 0.9 * g.k_max * g.x_axes[0]))
        with pytest.raises(ResolutionError, match="tail"):
            solve_nls(rough, 1.0, NlsRunConfig(dt=1e-3, T=0.01))

    def test_guard_reports_tail_fraction(self):
        g = make_grid(1, np.pi, 32)
        rough = Field(g, np.exp(1j * 0.9 * g.k_max * g.x_axes[0]))
        with pytest.raises(ResolutionError) as exc:
            solve_nls(rough, 1.0, NlsRunConfig(dt=1e-3, T=0.01))
        assert exc.value.tail_fraction > 0.5

    def test_overflowing_spectrum_trips_tail_guard(self):
        # A finite datum whose tail and total spectral power both overflow:
        # the tail fraction is inf/inf = NaN, which must not read as resolved.
        g = make_grid(1, np.pi, 32)
        rough = Field(g, 1e160 * np.exp(1j * 0.9 * g.k_max * g.x_axes[0]))
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isnan(sg.tail_fraction(rough))
            with pytest.raises(ResolutionError, match="at t = 0;") as exc:
                solve_nls(rough, 1.0, NlsRunConfig(dt=1e-3, T=0.01))
        assert exc.value.t == 0.0

    def test_non_finite_datum_rejected_at_start(self):
        g = make_grid(1, 12.0, 64)
        values = make_gaussian(g).values
        values[3] = np.nan
        with pytest.raises(NonFiniteError, match="step 0") as exc:
            solve_nls(Field(g, values), 0.5, NlsRunConfig(dt=1e-3, T=0.01))
        assert exc.value.t == 0.0
        assert exc.value.last_state is None

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_caught_at_the_step_with_last_good_snapshot(self):
        # |u|^2 overflows in the first nonlinear phase; the datum itself is
        # finite. The next save point is nine steps later.
        g = make_grid(1, 12.0, 64)
        u0 = make_gaussian(g, amplitude=1e155)
        with pytest.raises(NonFiniteError, match="step 1 ") as exc:
            solve_nls(u0, 0.5, NlsRunConfig(dt=1e-3, T=0.01, save_every=10))
        assert exc.value.t == pytest.approx(1e-3)
        assert exc.value.last_state.t == 0.0
        assert np.all(np.isfinite(exc.value.last_state.u.values))

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

    def test_observer_called_at_saves(self):
        g = make_grid(1, 12.0, 128)
        seen = []
        cfg = NlsRunConfig(dt=0.01, T=0.1, save_every=5)
        solve_nls(make_gaussian(g), 0.5, cfg, observer=lambda t, s: seen.append(t))
        assert seen == pytest.approx([0.0, 0.05, 0.1])
