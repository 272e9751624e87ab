import numpy as np
import pytest

from scnls import grid as sg
from scnls import nls, wkb
from scnls.errors import ResolutionError, SingularityError
from scnls.grid import Field, SobolevIndex, make_grid, make_gaussian, norm, resample
from scnls.wkb import (
    CorrectorState,
    GrenierState,
    WkbRunConfig,
    corrector_rhs,
    grenier_rhs,
    reconstruct,
    solve_grenier,
    solve_limit_with_corrector,
)

from conftest import count_ffts


def fresh_state(grid, a_values, eps=0.0, t=0.0, phi_values=None):
    phi = np.zeros(grid.shape, dtype=complex) if phi_values is None else phi_values
    return GrenierState(t, Field(grid, a_values), Field(grid, phi), eps)


class TestGrenierRhs:
    def test_initial_phase_rate_is_minus_amplitude_squared(self, grid_1d, gaussian_1d):
        state = fresh_state(grid_1d, gaussian_1d.values)
        _, dphi = grenier_rhs(state)
        np.testing.assert_allclose(
            dphi.values.real, -np.abs(gaussian_1d.values) ** 2, atol=1e-12
        )

    def test_vacuum_is_stationary(self, grid_1d):
        state = fresh_state(grid_1d, np.zeros(grid_1d.shape, dtype=complex))
        da, dphi = grenier_rhs(state)
        assert np.abs(da.values).max() == 0.0
        assert np.abs(dphi.values).max() == 0.0

    def test_constant_amplitude_flat_phase_drop(self):
        g = make_grid(1, 4.0, 32)
        c = 1.3
        state = fresh_state(g, np.full(g.shape, c, dtype=complex), eps=0.0)
        da, dphi = grenier_rhs(state)
        assert np.abs(da.values).max() < 1e-13
        np.testing.assert_allclose(dphi.values.real, -(c**2), atol=1e-13)

    def test_singularity_guard_raises(self, grid_1d):
        x = grid_1d.x_axes[0]
        phi = np.sin(np.pi * x / 12.0).astype(complex)
        state = fresh_state(grid_1d, np.zeros(grid_1d.shape, dtype=complex), t=1.0,
                            phi_values=phi)
        with pytest.raises(SingularityError):
            grenier_rhs(state, sing_tol=1e-3)

    def test_state_validation(self, grid_1d):
        with pytest.raises(ValueError, match="eps"):
            fresh_state(grid_1d, np.zeros(grid_1d.shape, dtype=complex), eps=-0.1)
        with pytest.raises(ValueError, match="vanish"):
            fresh_state(
                grid_1d,
                np.zeros(grid_1d.shape, dtype=complex),
                phi_values=np.ones(grid_1d.shape, dtype=complex),
            )

    def test_nan_imaginary_phase_rejected(self, grid_1d):
        phi = np.zeros(grid_1d.shape, dtype=complex)
        phi[5] = np.nan * 1j
        with pytest.raises(ValueError, match="imaginary"):
            fresh_state(grid_1d, np.zeros(grid_1d.shape, dtype=complex), t=0.1, phi_values=phi)


class TestCorrectorRhs:
    def test_initial_corrector_phase_rate(self, grid_1d, gaussian_1d):
        background = fresh_state(grid_1d, gaussian_1d.values)
        corr = CorrectorState(
            0.0, gaussian_1d.copy(), Field(grid_1d, np.zeros(grid_1d.shape))
        )
        _, dphi1 = corrector_rhs(background, corr)
        np.testing.assert_allclose(
            dphi1.values.real, -2 * np.abs(gaussian_1d.values) ** 2, atol=1e-12
        )

    def test_nan_imaginary_corrector_phase_rejected(self, grid_1d, gaussian_1d):
        phi1 = np.zeros(grid_1d.shape, dtype=complex)
        phi1[5] = np.nan * 1j
        with pytest.raises(ValueError, match="corrector phase .* imaginary"):
            CorrectorState(0.1, gaussian_1d.copy(), Field(grid_1d, phi1))

    def test_imaginary_perturbation_gives_zero_phase_rate(self, grid_1d, gaussian_1d):
        background = fresh_state(grid_1d, gaussian_1d.values)
        corr = CorrectorState(
            0.0,
            Field(grid_1d, 1j * gaussian_1d.values),
            Field(grid_1d, np.zeros(grid_1d.shape)),
        )
        _, dphi1 = corrector_rhs(background, corr)
        assert np.abs(dphi1.values).max() < 1e-13

    def test_zero_background_amplitude_drops_terms(self):
        g = make_grid(1, 6.0, 64)
        x = g.x_axes[0]
        phi = np.cos(np.pi * x / 6.0)
        background = GrenierState(
            0.5,
            Field(g, np.zeros(g.shape, dtype=complex)),
            Field(g, phi.astype(complex)),
            0.0,
        )
        a1 = np.exp(-(x**2)) * (1 + 0.5j)
        phi1 = np.sin(np.pi * x / 6.0)
        corr = CorrectorState(0.5, Field(g, a1), Field(g, phi1.astype(complex)))
        da1, dphi1 = corrector_rhs(background, corr)

        mask = g.dealias_mask
        gphi = np.fft.ifftn(g.grad_multipliers[0] * np.fft.fftn(phi)).real
        ga1 = np.fft.ifftn(g.grad_multipliers[0] * np.fft.fftn(a1))
        gphi1 = np.fft.ifftn(g.grad_multipliers[0] * np.fft.fftn(phi1)).real
        lphi = np.fft.ifftn(-g.k_squared * np.fft.fftn(phi)).real
        dealias = lambda v: np.fft.ifftn(np.fft.fftn(v) * mask)
        expect_da1 = dealias(-(gphi * ga1) - 0.5 * a1 * lphi)
        expect_dphi1 = dealias(-(gphi * gphi1)).real
        np.testing.assert_allclose(da1.values, expect_da1, atol=1e-12)
        np.testing.assert_allclose(dphi1.values.real, expect_dphi1, atol=1e-12)

    def test_mismatched_times_rejected(self, grid_1d, gaussian_1d):
        background = fresh_state(grid_1d, gaussian_1d.values)
        corr = CorrectorState(
            0.5, gaussian_1d.copy(), Field(grid_1d, np.zeros(grid_1d.shape))
        )
        with pytest.raises(ValueError, match="time"):
            corrector_rhs(background, corr)

    def test_nonzero_eps_background_rejected(self, grid_1d, gaussian_1d):
        background = fresh_state(grid_1d, gaussian_1d.values, eps=0.5)
        corr = CorrectorState(
            0.0, gaussian_1d.copy(), Field(grid_1d, np.zeros(grid_1d.shape))
        )
        with pytest.raises(ValueError, match="eps = 0"):
            corrector_rhs(background, corr)


class TestSolveGrenier:
    def test_eps_zero_ignores_perturbation_with_warning(self, grid_1d, gaussian_1d):
        cfg = WkbRunConfig(dt=5e-3, T=0.05, save_every=10)
        with pytest.warns(UserWarning, match="ignored"):
            traj = solve_grenier(gaussian_1d, gaussian_1d, 0.0, cfg)
        np.testing.assert_allclose(traj[0].a.values, gaussian_1d.values, atol=0)

    def test_zero_datum_stays_zero(self, grid_1d):
        zero = Field(grid_1d, np.zeros(grid_1d.shape, dtype=complex))
        cfg = WkbRunConfig(dt=5e-3, T=0.1, save_every=10)
        traj = solve_grenier(zero, None, 0.25, cfg)
        assert np.abs(traj[-1].a.values).max() == 0.0
        assert np.abs(traj[-1].phi.values).max() == 0.0

    def test_fourth_order_self_convergence(self, grid_1d, gaussian_1d):
        eps = 0.25

        def run(dt):
            cfg = WkbRunConfig(dt=dt, T=0.2, save_every=10**6)
            final = solve_grenier(gaussian_1d, gaussian_1d, eps, cfg)[-1]
            return final.a.values, final.phi.values.real

        a_ref, phi_ref = run(0.2 / 512)
        a_c, phi_c = run(0.2 / 16)
        a_f, phi_f = run(0.2 / 32)
        err_c = np.abs(a_c - a_ref).max() + np.abs(phi_c - phi_ref).max()
        err_f = np.abs(a_f - a_ref).max() + np.abs(phi_f - phi_ref).max()
        assert err_c / err_f == pytest.approx(16.0, rel=0.3)

    def test_mass_of_limit_flow_conserved(self, grid_1d, gaussian_1d):
        cfg = WkbRunConfig(dt=2e-3, T=0.25, save_every=25)
        traj = solve_grenier(gaussian_1d, None, 0.0, cfg)
        m0 = nls.mass(traj[0].a)
        drift = max(abs(nls.mass(s.a) - m0) for s in traj) / m0
        assert drift < 1e-8

    def test_decay_check_on_data(self):
        g = make_grid(1, 2.0, 32)
        wide = Field(g, np.exp(-g.x_axes[0] ** 2).astype(complex))
        with pytest.raises(ValueError, match="decay"):
            solve_grenier(wide, None, 0.1, WkbRunConfig(dt=1e-3, T=0.01))
        traj = solve_grenier(
            wide, None, 0.1, WkbRunConfig(dt=1e-3, T=0.01, enforce_decay=False)
        )
        assert traj[-1].t == pytest.approx(0.01)

    def test_singularity_guard_aborts_run(self, grid_1d, gaussian_1d):
        cfg = WkbRunConfig(dt=2e-3, T=0.25, save_every=10, sing_tol=0.05)
        with pytest.raises(SingularityError) as exc:
            solve_grenier(gaussian_1d, None, 0.0, cfg)
        assert exc.value.grad_max > 0.05


class TestCorrectorFlow:
    def test_no_perturbation_keeps_corrector_imaginary(self, grid_1d, gaussian_1d):
        cfg = WkbRunConfig(dt=2e-3, T=0.25, save_every=25)
        traj = solve_limit_with_corrector(gaussian_1d, None, cfg)
        for _, corr in traj:
            assert np.abs(corr.a1.values.real).max() < 1e-10
            assert np.abs(corr.phi1.values).max() < 1e-8

    def test_equal_perturbation_small_time_phase(self, grid_1d, gaussian_1d):
        t_small = 0.01
        cfg = WkbRunConfig(dt=t_small / 32, T=t_small, save_every=10**6)
        (_, corr) = solve_limit_with_corrector(gaussian_1d, gaussian_1d, cfg)[-1]
        target = -2 * t_small * np.abs(gaussian_1d.values) ** 2
        assert np.abs(corr.phi1.values.real - target).max() < 5e-4 * t_small

    def test_zero_background_transports_nothing(self, grid_1d, gaussian_1d):
        zero = Field(grid_1d, np.zeros(grid_1d.shape, dtype=complex))
        cfg = WkbRunConfig(dt=5e-3, T=0.2, save_every=10)
        traj = solve_limit_with_corrector(zero, gaussian_1d, cfg)
        (_, corr) = traj[-1]
        np.testing.assert_allclose(corr.a1.values, gaussian_1d.values, atol=1e-13)
        assert np.abs(corr.phi1.values).max() < 1e-13

    def test_imaginary_perturbation_degeneracy(self, grid_1d, gaussian_1d):
        # purely imaginary a1 against a real background never builds phase
        a1 = Field(grid_1d, 1j * gaussian_1d.values)
        cfg = WkbRunConfig(dt=2e-3, T=0.25, save_every=25)
        traj = solve_limit_with_corrector(gaussian_1d, a1, cfg)
        worst = max(np.abs(corr.phi1.values).max() for _, corr in traj)
        assert worst <= 1e-8


@pytest.mark.parametrize("dim", [1, 2])
def test_corrector_stage_computes_only_the_derivatives_it_uses(monkeypatch, dim):
    # Per RK4 stage: the background needs gradient and Laplacian of a and
    # phi, the corrector the gradient of a1 and both of phi1, and the four
    # quadratic terms are dealiased once each.
    g = make_grid(dim, 6.0, 32)
    a0 = make_gaussian(g)
    n_steps = 3
    counts = count_ffts(monkeypatch)
    solve_limit_with_corrector(a0, a0, WkbRunConfig(dt=1e-2, T=n_steps * 1e-2, sing_tol=1e3))
    stages = 4 * n_steps
    assert counts["fftn"] == 8 * stages
    assert counts["ifftn"] == (4 * dim + 7) * stages


class TestReconstruct:
    def test_zero_phase_returns_amplitude(self, grid_1d, gaussian_1d):
        out = reconstruct(gaussian_1d, Field(grid_1d, np.zeros(grid_1d.shape)), 0.5)
        np.testing.assert_allclose(out.values, gaussian_1d.values, atol=0)

    def test_modulus_equals_amplitude(self, grid_1d, gaussian_1d):
        phi = Field(grid_1d, (0.3 * np.sin(np.pi * grid_1d.x_axes[0] / 12)).astype(complex))
        out = reconstruct(gaussian_1d, phi, 0.25)
        np.testing.assert_allclose(np.abs(out.values), np.abs(gaussian_1d.values), atol=1e-14)

    def test_constant_phase_is_global_rotation(self, grid_1d, gaussian_1d):
        c = 0.7
        phi = Field(grid_1d, np.full(grid_1d.shape, c, dtype=complex))
        out = reconstruct(gaussian_1d, phi, 0.35)
        np.testing.assert_allclose(
            out.values, gaussian_1d.values * np.exp(1j * c / 0.35), atol=1e-14
        )

    def test_requires_positive_eps(self, grid_1d, gaussian_1d):
        with pytest.raises(ValueError, match="eps"):
            reconstruct(gaussian_1d, Field(grid_1d, np.zeros(grid_1d.shape)), 0.0)

    def test_unresolved_oscillation_trips_guard(self, grid_1d, gaussian_1d):
        phi = Field(grid_1d, (5.0 * np.sin(np.pi * grid_1d.x_axes[0] / 12)).astype(complex))
        with pytest.raises(ResolutionError, match="unresolved"):
            reconstruct(gaussian_1d, phi, 1e-3)

    def test_nan_imaginary_phase_rejected(self, grid_1d, gaussian_1d):
        phi = np.zeros(grid_1d.shape, dtype=complex)
        phi[5] = np.nan * 1j
        with pytest.raises(ValueError, match="imaginary"):
            reconstruct(gaussian_1d, Field(grid_1d, phi), 0.5)

    def test_non_finite_amplitude_trips_guard(self, grid_1d, gaussian_1d):
        a = gaussian_1d.copy()
        a.values[7] = np.nan
        with pytest.raises(ResolutionError, match="tail fraction nan"):
            reconstruct(a, Field(grid_1d, np.zeros(grid_1d.shape)), 0.5)


class TestExactReformulation:
    @pytest.mark.parametrize("a1_mode", ["zero", "equal"])
    def test_nls_matches_reconstructed_grenier(self, a1_mode):
        # The phase-amplitude system is an exact change of unknowns, so the
        # two independent solvers must agree up to discretization error.
        eps = 0.125
        fine = make_grid(1, 12.0, 512)
        coarse = make_grid(1, 12.0, 256)
        a0_f = make_gaussian(fine)
        a0_c = make_gaussian(coarse)
        a1_c = a0_c if a1_mode == "equal" else None
        u0 = Field(fine, a0_f.values * (1 + eps if a1_mode == "equal" else 1.0))

        n_cfg = nls.NlsRunConfig(
            dt=nls.default_dt(fine, eps, safety=0.1), T=0.2, save_every=10**9
        )
        u_traj = nls.solve_nls(u0, eps, n_cfg)
        w_cfg = WkbRunConfig(dt=wkb.default_dt(coarse, eps), T=0.2, save_every=10**9)
        g_traj = solve_grenier(a0_c, a1_c, eps, w_cfg)

        u_final = u_traj[-1]
        g_final = g_traj[-1]
        assert u_final.t == pytest.approx(g_final.t)
        profile = reconstruct(
            resample(g_final.a, 512), resample(g_final.phi, 512), eps
        )
        err = norm(Field(fine, u_final.u.values - profile.values))
        assert err <= 1e-4 * norm(u0)


class TestEpsilonConvergence:
    def test_hyperbolic_and_expansion_orders(self, grid_1d, gaussian_1d):
        # O(eps) distance to the limit system and O(eps^2) once the
        # corrector is subtracted.
        T = 0.2
        cfg = WkbRunConfig(dt=2e-3, T=T, save_every=10**6)
        (bg, corr) = solve_limit_with_corrector(gaussian_1d, gaussian_1d, cfg)[-1]
        h1 = SobolevIndex(1.0)
        errs1, errs2 = [], []
        eps_list = [0.25, 0.125, 0.0625, 0.03125]
        for eps in eps_list:
            fin = solve_grenier(gaussian_1d, gaussian_1d, eps, cfg)[-1]
            d_a = Field(grid_1d, fin.a.values - bg.a.values)
            d_phi = Field(grid_1d, fin.phi.values - bg.phi.values)
            errs1.append(norm(d_a, h1) + norm(d_phi, h1))
            d2_a = Field(grid_1d, fin.a.values - bg.a.values - eps * corr.a1.values)
            d2_phi = Field(grid_1d, fin.phi.values - bg.phi.values - eps * corr.phi1.values)
            errs2.append(norm(d2_a, h1) + norm(d2_phi, h1))
        slope1 = np.polyfit(np.log(eps_list), np.log(errs1), 1)[0]
        slope2 = np.polyfit(np.log(eps_list), np.log(errs2), 1)[0]
        assert 0.8 <= slope1 <= 1.2
        assert 1.7 <= slope2 <= 2.3


def test_grad_phi_max_matches_direct_computation(grid_1d):
    x = grid_1d.x_axes[0]
    phi = Field(grid_1d, (0.4 * np.sin(np.pi * x / 12)).astype(complex))
    state = GrenierState(1.0, Field(grid_1d, np.zeros(grid_1d.shape, dtype=complex)), phi, 0.0)
    expected = np.abs(0.4 * np.pi / 12 * np.cos(np.pi * x / 12)).max()
    assert wkb.grad_phi_max(state) == pytest.approx(expected, rel=1e-6)
