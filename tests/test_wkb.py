import inspect
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scnls import grid as sg
from scnls import nls, wkb
from scnls.errors import NonFiniteError, ResolutionError, SingularityError
from scnls.grid import Field, SobolevIndex, make_grid, make_gaussian, norm, resample
from scnls.report import wkb_row
from scnls.wkb import (
    GrenierState,
    WkbRunConfig,
    reconstruct,
    solve_grenier_stack,
    solve_limit_stack,
)

from conftest import (
    bit_identical, count_ffts, kept_modes, random_field, ref_gradient, ref_symbols,
)


def perturbed(a0, eps, c=1.0):
    """The phase-amplitude datum (1 + eps c) a0 of the perturbation a1 = c a0."""
    return Field(a0.grid, (1 + eps * c) * a0.values)


# Per-field reference of the right-hand sides and the Lawson RK4 loop in
# spectral space: one FFT per field and derivative, phases carried as real
# arrays, a new list of arrays per stage.  The stacked engine must reproduce
# it bit for bit.

def ref_derivs(g, vhat):
    """The gradient components and minus the Laplacian of the field whose
    spectrum is vhat."""
    grads, lap = ref_symbols(g)
    return [np.fft.ifftn(m * vhat) for m in grads], np.fft.ifftn(-lap * vhat)


def ref_dealias(g, values):
    """The spectrum of values with the modes the two-thirds rule drops zeroed."""
    spectrum = np.fft.fftn(values.astype(complex))
    spectrum[~kept_modes(g)] = 0.0
    return spectrum


def ref_grenier_rates(g, a_hat, phi_hat):
    """The spectra of (da/dt, dphi/dt) less the dispersive term, and the
    physical fields the corrector's rates read."""
    a = np.fft.ifftn(a_hat)
    grad_a = [np.fft.ifftn(m * a_hat) for m in ref_symbols(g)[0]]
    grad_phi, klap_phi = ref_derivs(g, phi_hat)
    grad_phi, klap_phi = [x.real for x in grad_phi], klap_phi.real
    quad_a = 0.5 * (a * klap_phi)
    for gp, ga in zip(grad_phi, grad_a):
        quad_a = quad_a - gp * ga
    quad_phi = -(np.abs(a) ** 2)
    for gp in grad_phi:
        quad_phi = quad_phi - 0.5 * (gp * gp)
    return [ref_dealias(g, quad_a), ref_dealias(g, quad_phi)], (a, grad_a, grad_phi, klap_phi)


def ref_corrector_rates(g, a_hat, phi_hat, a1_hat, phi1_hat):
    (da, dphi), (a, grad_a, grad_phi, klap_phi) = ref_grenier_rates(g, a_hat, phi_hat)
    a1 = np.fft.ifftn(a1_hat)
    grad_a1 = [np.fft.ifftn(m * a1_hat) for m in ref_symbols(g)[0]]
    grad_phi1, klap_phi1 = ref_derivs(g, phi1_hat)
    grad_phi1, klap_phi1 = [x.real for x in grad_phi1], klap_phi1.real
    quad_a1 = 0.5 * (a1 * klap_phi + a * klap_phi1)
    for gp, g1, gp1, ga in zip(grad_phi, grad_a1, grad_phi1, grad_a):
        quad_a1 = quad_a1 - gp * g1 - gp1 * ga
    quad_phi1 = -2.0 * (np.conj(a) * a1).real
    for gp, gp1 in zip(grad_phi, grad_phi1):
        quad_phi1 = quad_phi1 - gp * gp1
    forcing = -0.5j * (-ref_symbols(g)[1] * a_hat)  # i Lap(a) / 2
    return [da, dphi, ref_dealias(g, quad_a1) + forcing, ref_dealias(g, quad_phi1)]


def ref_half_step(g, eps, dt):
    """exp(-i eps |kappa|^2 dt / 4), one factor per axis."""
    return [g.axis_view(np.exp(-1j * (0.25 * eps * dt * k**2)), ax)
            for ax, k in enumerate(g.k_axes)]


def physical(spectra):
    """The fields of spectra [a, phi, ...], the phases real."""
    return [np.fft.ifftn(s) if i % 2 == 0 else np.fft.ifftn(s).real
            for i, s in enumerate(spectra)]


def ref_rk4(fields, rhs, config, half=()):
    """(t, fields) at the saved steps of Lawson's RK4 on the spectra of
    fields, the factors half twisting the first field over half a step;
    stops after the first step that leaves a non-finite spectrum and returns
    that step's fields last."""
    n_steps = max(1, round(config.T / config.dt))
    dt = config.T / n_steps

    def twist(y):
        first = y[0]
        for factor in half:
            first = first * factor
        return [first, *y[1:]]

    y = [np.fft.fftn(np.asarray(f, dtype=complex)) for f in fields]
    saved = [(0.0, list(fields))]
    for step in range(1, n_steps + 1):
        k1 = rhs(y)
        k2 = rhs(twist([yi + 0.5 * dt * ki for yi, ki in zip(y, k1)]))
        y, k1 = twist(y), twist(k1)
        k3 = rhs([yi + 0.5 * dt * ki for yi, ki in zip(y, k2)])
        k4 = rhs(twist([yi + dt * ki for yi, ki in zip(y, k3)]))
        acc = twist([a + 2 * b + 2 * c for a, b, c in zip(k1, k2, k3)])
        y = [yi + (dt / 6.0) * (a + d) for yi, a, d in zip(twist(y), acc, k4)]
        if not all(np.isfinite(yi).all() for yi in y):
            saved.append((step * dt, physical(y)))
            break
        if step % config.save_every == 0 or step == n_steps:
            saved.append((step * dt, physical(y)))
    return saved


def ref_solve_grenier(a0, eps, config):
    g = a0.grid
    half = ref_half_step(g, eps, config.T / max(1, round(config.T / config.dt)))
    return ref_rk4([a0.values, np.zeros(g.shape)],
                   lambda y: ref_grenier_rates(g, *y)[0], config, half)


def ref_solve_limit_with_corrector(a0, a1, config):
    g = a0.grid
    zero = np.zeros(g.shape)
    return ref_rk4([a0.values, zero, a1.values, zero],
                   lambda y: ref_corrector_rates(g, *y), config)


# Today's classical RK4, the dispersive term among the rates, all in physical
# space: an oracle independent of the integrating factor.

def oracle_grenier_rates(g, a, phi, eps):
    a_hat, phi_hat = np.fft.fftn(a), np.fft.fftn(phi)
    grads, lap = ref_symbols(g)
    grad_a = [np.fft.ifftn(m * a_hat) for m in grads]
    lap_a = np.fft.ifftn(lap * a_hat)
    grad_phi = [np.fft.ifftn(m * phi_hat).real for m in grads]
    lap_phi = np.fft.ifftn(lap * phi_hat).real
    quad_a = -(sum(gp * ga for gp, ga in zip(grad_phi, grad_a)) + 0.5 * a * lap_phi)
    quad_phi = -(0.5 * sum(gp * gp for gp in grad_phi) + np.abs(a) ** 2)
    dealias = lambda v: np.fft.ifftn(np.fft.fftn(v) * kept_modes(g))
    return [dealias(quad_a) + 0.5j * eps * lap_a, dealias(quad_phi).real]


def oracle_solve_grenier(a0, eps, dt, T):
    """(a, phi) at T from classical RK4 in T / dt steps."""
    g = a0.grid
    n_steps = round(T / dt)
    h = T / n_steps
    rhs = lambda y: oracle_grenier_rates(g, *y, eps)
    y = [a0.values, np.zeros(g.shape)]
    for _ in range(n_steps):
        k1 = rhs(y)
        k2 = rhs([yi + 0.5 * h * ki for yi, ki in zip(y, k1)])
        k3 = rhs([yi + 0.5 * h * ki for yi, ki in zip(y, k2)])
        k4 = rhs([yi + h * ki for yi, ki in zip(y, k3)])
        y = [yi + (h / 6.0) * (a + 2 * b + 2 * c + d) for yi, a, b, c, d in zip(y, k1, k2, k3, k4)]
    return y


def snapshot_fields(state):
    corr = [] if state.a1 is None else [state.a1, state.phi1]
    return [field.values for field in [state.a, state.phi, *corr]]


def fresh_state(grid, a_values, eps=0.0, t=0.0, phi_values=None):
    phi = np.zeros(grid.shape, dtype=complex) if phi_values is None else phi_values
    return GrenierState(t, Field(grid, a_values), Field(grid, phi), eps)


def stage_rates(g, spectra, sing_tol=np.inf, t=0.0):
    """The RK4 loop's rates of the spectra [a, phi] or [a, phi, a1, phi1] on
    a stack of one: spectra in, spectra out."""
    y = np.stack(spectra)[:, None]
    rates = wkb._Rates(g, corrector=len(spectra) == 4, sing_tol=sing_tol)
    return rates(y, [t], np.empty_like(y))[:, 0]


def state_rates(state, sing_tol=np.inf):
    """The physical rates of every field of state, from stage_rates."""
    g = state.a.grid
    fields = [state.a, state.phi] + ([] if state.a1 is None else [state.a1, state.phi1])
    spectra = [np.fft.fftn(f.values) for f in fields]
    return [Field(g, np.fft.ifftn(r)) for r in stage_rates(g, spectra, sing_tol, state.t)]


def grenier_rhs(state, sing_tol=np.inf):
    """(da/dt, dphi/dt), less the dispersive term, as Fields; sing_tol is
    checked against the phase gradient."""
    return tuple(state_rates(state, sing_tol))


def corrector_rhs(state):
    """(da1/dt, dphi1/dt) as Fields of a state with an eps = 0 background
    and a corrector."""
    return tuple(state_rates(state)[2:])


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
        with pytest.raises(ValueError, match="corrector phase must vanish"):
            replace(fresh_state(grid_1d, np.zeros(grid_1d.shape, dtype=complex)),
                    a1=Field(grid_1d, np.zeros(grid_1d.shape)),
                    phi1=Field(grid_1d, np.ones(grid_1d.shape)))

    def test_nan_imaginary_phase_rejected(self, grid_1d):
        phi = np.zeros(grid_1d.shape, dtype=complex)
        phi[5] = np.nan * 1j
        with pytest.raises(ValueError, match="imaginary"):
            fresh_state(grid_1d, np.zeros(grid_1d.shape, dtype=complex), t=0.1, phi_values=phi)


class TestCorrectorRhs:
    def test_initial_corrector_phase_rate(self, grid_1d, gaussian_1d):
        state = replace(fresh_state(grid_1d, gaussian_1d.values), a1=gaussian_1d.copy(),
                        phi1=Field(grid_1d, np.zeros(grid_1d.shape)))
        _, dphi1 = corrector_rhs(state)
        np.testing.assert_allclose(
            dphi1.values.real, -2 * np.abs(gaussian_1d.values) ** 2, atol=1e-12
        )

    def test_nan_imaginary_corrector_phase_rejected(self, grid_1d, gaussian_1d):
        phi1 = np.zeros(grid_1d.shape, dtype=complex)
        phi1[5] = np.nan * 1j
        with pytest.raises(ValueError, match="corrector phase .* imaginary"):
            GrenierState(0.1, gaussian_1d.copy(), Field(grid_1d, np.zeros(grid_1d.shape)), 0.0,
                         a1=gaussian_1d.copy(), phi1=Field(grid_1d, phi1))

    def test_imaginary_perturbation_gives_zero_phase_rate(self, grid_1d, gaussian_1d):
        state = replace(fresh_state(grid_1d, gaussian_1d.values),
                        a1=Field(grid_1d, 1j * gaussian_1d.values),
                        phi1=Field(grid_1d, np.zeros(grid_1d.shape)))
        _, dphi1 = corrector_rhs(state)
        assert np.abs(dphi1.values).max() < 1e-13

    def test_zero_background_amplitude_drops_terms(self):
        g = make_grid(1, 6.0, 64)
        x = g.x_axes[0]
        phi = np.cos(np.pi * x / 6.0)
        a1 = np.exp(-(x**2)) * (1 + 0.5j)
        phi1 = np.sin(np.pi * x / 6.0)
        state = GrenierState(
            0.5,
            Field(g, np.zeros(g.shape, dtype=complex)),
            Field(g, phi.astype(complex)),
            0.0,
            a1=Field(g, a1),
            phi1=Field(g, phi1.astype(complex)),
        )
        da1, dphi1 = corrector_rhs(state)

        (gphi,), klap_phi = ref_derivs(g, np.fft.fftn(phi))
        (ga1,) = ref_gradient(g, a1)
        (gphi1,) = ref_gradient(g, phi1)
        expect_da1 = np.fft.ifftn(ref_dealias(g, -(gphi.real * ga1) + 0.5 * a1 * klap_phi.real))
        expect_dphi1 = np.fft.ifftn(ref_dealias(g, -(gphi.real * gphi1.real))).real
        np.testing.assert_allclose(da1.values, expect_da1, atol=1e-12)
        np.testing.assert_allclose(dphi1.values.real, expect_dphi1, atol=1e-12)


class TestSolveGrenier:
    def test_zero_datum_stays_zero(self, grid_1d):
        zero = Field(grid_1d, np.zeros(grid_1d.shape, dtype=complex))
        cfg = WkbRunConfig(dt=5e-3, T=0.1, save_every=10)
        traj = solve_grenier_stack([(zero, 0.25, cfg)])[0]
        assert np.abs(traj[-1].a.values).max() == 0.0
        assert np.abs(traj[-1].phi.values).max() == 0.0

    def test_fourth_order_self_convergence(self, grid_1d, gaussian_1d):
        eps = 0.25

        def run(dt):
            cfg = WkbRunConfig(dt=dt, T=0.2, save_every=10**6)
            final = solve_grenier_stack([(perturbed(gaussian_1d, eps), eps, cfg)])[0][-1]
            return final.a.values, final.phi.values.real

        a_ref, phi_ref = run(0.2 / 512)
        a_c, phi_c = run(0.2 / 16)
        a_f, phi_f = run(0.2 / 32)
        err_c = np.abs(a_c - a_ref).max() + np.abs(phi_c - phi_ref).max()
        err_f = np.abs(a_f - a_ref).max() + np.abs(phi_f - phi_ref).max()
        assert err_c / err_f == pytest.approx(16.0, rel=0.3)

    def test_mass_of_limit_flow_conserved(self, grid_1d, gaussian_1d):
        cfg = WkbRunConfig(dt=2e-3, T=0.25, save_every=25)
        traj = solve_grenier_stack([(gaussian_1d, 0.0, cfg)])[0]
        m0 = nls.mass(traj[0].a)
        drift = max(abs(nls.mass(s.a) - m0) for s in traj) / m0
        assert drift < 1e-8

    def test_decay_check_on_data(self):
        g = make_grid(1, 2.0, 32)
        wide = Field(g, np.exp(-g.x_axes[0] ** 2).astype(complex))
        with pytest.raises(ValueError, match="decay"):
            solve_grenier_stack([(wide, 0.1, WkbRunConfig(dt=1e-3, T=0.01))])
        traj = solve_grenier_stack(
            [(wide, 0.1, WkbRunConfig(dt=1e-3, T=0.01, enforce_decay=False))])[0]
        assert traj[-1].t == pytest.approx(0.01)

    def test_singularity_guard_aborts_run(self, grid_1d, gaussian_1d):
        cfg = WkbRunConfig(dt=2e-3, T=0.25, save_every=10, sing_tol=0.05)
        with pytest.raises(SingularityError) as exc:
            solve_grenier_stack([(gaussian_1d, 0.0, cfg)])
        assert exc.value.grad_max > 0.05


class TestIntegratingFactor:
    """Lawson's RK4 against the classical RK4 oracle above, which keeps the
    dispersive term i (eps/2) Lap(a) among its rates."""

    def test_fourth_order_convergence_to_the_classical_oracle(self, gaussian_1d):
        eps, T = 0.25, 0.2
        a0 = perturbed(gaussian_1d, eps)
        # the oracle at 512 steps is 7e-14 from its own run at 1024
        oracle_a, oracle_phi = oracle_solve_grenier(a0, eps, T / 512, T)

        def error(n_steps):
            cfg = WkbRunConfig(dt=T / n_steps, T=T, save_every=10**6)
            final = solve_grenier_stack([(a0, eps, cfg)])[0][-1]
            return (np.abs(final.a.values - oracle_a).max()
                    + np.abs(final.phi.values.real - oracle_phi).max())

        errors = [error(n) for n in (8, 16, 32)]
        for coarse, fine in zip(errors, errors[1:]):
            assert coarse / fine == pytest.approx(16.0, rel=0.2)

    def test_eps_one_at_the_transport_step_matches_a_fine_step_oracle(self, grid_1d, gaussian_1d):
        eps, T = 1.0, 0.25
        a0 = perturbed(gaussian_1d, eps)
        dt = wkb.default_dt(grid_1d)
        # classical RK4 needs the step below 2.8 over the fastest dispersive rate
        dispersive_cap = 0.25 * 2.8 / (0.5 * eps * grid_1d.k_max**2)
        assert dt > 15 * dispersive_cap
        final = solve_grenier_stack([(a0, eps, WkbRunConfig(dt=dt, T=T, save_every=10**6))])[0][-1]
        assert final.t == T
        assert np.isfinite(final.a.values).all() and np.isfinite(final.phi.values).all()
        oracle_a, oracle_phi = oracle_solve_grenier(a0, eps, dispersive_cap, T)
        # measured 1.2e-5 and 1.4e-6 against peaks of 1.7 and 0.88
        assert np.abs(final.a.values - oracle_a).max() <= 1e-4 * np.abs(oracle_a).max()
        assert np.abs(final.phi.values.real - oracle_phi).max() <= 1e-4 * np.abs(oracle_phi).max()

    def test_default_step_is_the_transport_step(self, grid_1d):
        assert list(inspect.signature(wkb.default_dt).parameters) == ["grid", "safety"]
        assert wkb.default_dt(grid_1d) == 0.25 * grid_1d.spacing
        assert wkb.default_dt(grid_1d, 0.5) == 0.5 * grid_1d.spacing


class TestCorrectorFlow:
    def test_no_perturbation_keeps_corrector_imaginary(self, grid_1d, gaussian_1d):
        cfg = WkbRunConfig(dt=2e-3, T=0.25, save_every=25)
        traj = solve_limit_stack([(gaussian_1d, None, cfg)])[0]
        for state in traj:
            assert np.abs(state.a1.values.real).max() < 1e-10
            assert np.abs(state.phi1.values).max() < 1e-8

    def test_equal_perturbation_small_time_phase(self, grid_1d, gaussian_1d):
        t_small = 0.01
        cfg = WkbRunConfig(dt=t_small / 32, T=t_small, save_every=10**6)
        final = solve_limit_stack([(gaussian_1d, gaussian_1d, cfg)])[0][-1]
        target = -2 * t_small * np.abs(gaussian_1d.values) ** 2
        assert np.abs(final.phi1.values.real - target).max() < 5e-4 * t_small

    def test_zero_background_transports_nothing(self, grid_1d, gaussian_1d):
        zero = Field(grid_1d, np.zeros(grid_1d.shape, dtype=complex))
        cfg = WkbRunConfig(dt=5e-3, T=0.2, save_every=10)
        traj = solve_limit_stack([(zero, gaussian_1d, cfg)])[0]
        final = traj[-1]
        np.testing.assert_allclose(final.a1.values, gaussian_1d.values, atol=1e-13)
        assert np.abs(final.phi1.values).max() < 1e-13

    def test_imaginary_perturbation_degeneracy(self, grid_1d, gaussian_1d):
        # purely imaginary a1 against a real background never builds phase
        a1 = Field(grid_1d, 1j * gaussian_1d.values)
        cfg = WkbRunConfig(dt=2e-3, T=0.25, save_every=25)
        traj = solve_limit_stack([(gaussian_1d, a1, cfg)])[0]
        worst = max(np.abs(state.phi1.values).max() for state in traj)
        assert worst <= 1e-8


class TestSnapshotRecord:
    """A snapshot is one GrenierState; only a limit run's carries a1 and phi1."""

    def test_grenier_snapshots_carry_no_corrector(self, gaussian_1d):
        cfg = WkbRunConfig(dt=5e-3, T=0.05, save_every=2)
        traj = solve_grenier_stack([(perturbed(gaussian_1d, 0.25), 0.25, cfg)])[0]
        assert len(traj) == 6
        assert all(state.a1 is None and state.phi1 is None for state in traj)

    def test_limit_snapshots_carry_the_reference_corrector(self, gaussian_1d):
        a1 = Field(gaussian_1d.grid, (1 + 0.5j) * gaussian_1d.values)
        cfg = WkbRunConfig(dt=5e-3, T=0.05, save_every=2)
        traj = solve_limit_stack([(gaussian_1d, a1, cfg)])[0]
        ref = ref_solve_limit_with_corrector(gaussian_1d, a1, cfg)
        assert len(traj) == len(ref) == 6
        for state, (t, (_, _, ref_a1, ref_phi1)) in zip(traj, ref, strict=True):
            assert state.t == t and state.eps == 0.0
            assert np.array_equal(state.a1.values, ref_a1)
            assert np.array_equal(state.phi1.values, ref_phi1)


def ffts_per_stage(monkeypatch, dim, solve, fields):
    """FFT calls and rows per RK4 stage of a 3-step run of solve(a0, config)
    saved at its end, less its two transforms of the whole state of fields:
    the data's forward one and the save's inverse one."""
    g = make_grid(dim, 6.0, 32)
    a0 = make_gaussian(g)
    n_steps = 3
    counts = count_ffts(monkeypatch)
    solve(a0, WkbRunConfig(dt=1e-2, T=n_steps * 1e-2, save_every=n_steps, sing_tol=1e3))
    stages = 4 * n_steps
    return ({name: (n - 1) / stages for name, n in counts.items()},
            {name: (n - fields) / stages for name, n in counts.rows.items()})


# Per RK4 stage, one batched inverse transform of the state's spectra gives
# every value and derivative the rates read, and one forward transform of
# the rates, dealiased in place, hands them back as spectra.

@pytest.mark.parametrize("dim", [1, 2])
def test_corrector_stage_computes_only_the_derivatives_it_uses(monkeypatch, dim):
    # Rows: the value and gradient of a and a1, the gradient and Laplacian of
    # phi and phi1, and the four rates.
    calls, rows = ffts_per_stage(monkeypatch, dim,
                                 lambda a0, cfg: solve_limit_stack([(a0, a0, cfg)]), 4)
    assert calls == {"forward": 1, "inverse": 1}
    assert rows == {"forward": 4, "inverse": 4 * dim + 4}


@pytest.mark.parametrize("dim", [1, 2])
def test_grenier_stage_computes_only_the_derivatives_it_uses(monkeypatch, dim):
    calls, rows = ffts_per_stage(
        monkeypatch, dim,
        lambda a0, cfg: solve_grenier_stack([(perturbed(a0, 0.25), 0.25, cfg)]), 2)
    assert calls == {"forward": 1, "inverse": 1}
    assert rows == {"forward": 2, "inverse": 2 * dim + 2}


class TestBitIdentity:
    """The stacked engine against the per-field reference above."""

    @pytest.mark.parametrize("dim", [1, 2])
    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 10_000), amplitude=st.floats(0.1, 2.0), t=st.floats(0.0, 1.0))
    def test_rhs(self, dim, seed, amplitude, t):
        g = make_grid(dim, 4.0, 32)
        a, a1 = (random_field(g, seed + m, scale=amplitude).values for m in (0, 1))
        phi, phi1 = (random_field(g, seed + m, scale=amplitude).values.real * (t > 0)
                     for m in (2, 3))
        spectra = [np.fft.fftn(f.astype(complex)) for f in (a, phi, a1, phi1)]
        da, dphi = stage_rates(g, spectra[:2], t=t)
        ref_da, ref_dphi = ref_grenier_rates(g, *spectra[:2])[0]
        assert np.array_equal(da, ref_da)
        assert np.array_equal(dphi, ref_dphi)

        rates = stage_rates(g, spectra, t=t)
        ref = ref_corrector_rates(g, *spectra)
        for got, want in zip(rates, ref, strict=True):
            assert np.array_equal(got, want)
        # the phase rates are real up to the roundoff of their transforms
        for rate in rates[1::2]:
            values = np.fft.ifftn(rate)
            assert np.abs(values.imag).max() <= 1e-14 * max(np.abs(values.real).max(), 1.0)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("corrector", [False, True], ids=["grenier", "corrector"])
    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 10_000), amplitude=st.floats(0.1, 2.0),
           eps=st.sampled_from([0.0, 0.125, 0.5]), save_every=st.integers(1, 4))
    def test_solvers(self, dim, sign, corrector, seed, amplitude, eps, save_every):
        g = make_grid(dim, 4.0, 32)
        a0, a1 = (random_field(g, seed + m, scale=amplitude) for m in (0, 1))
        config = WkbRunConfig(dt=sign * 0.01, T=sign * 0.06, save_every=save_every,
                              sing_tol=1e6, enforce_decay=False)
        if corrector:
            traj = solve_limit_stack([(a0, a1, config)])[0]
            ref = ref_solve_limit_with_corrector(a0, a1, config)
        else:
            traj = solve_grenier_stack([(a0, eps, config)])[0]
            ref = ref_solve_grenier(a0, eps, config)
        assert len(traj) == len(ref)
        for snap, (t, fields) in zip(traj, ref):
            assert snap.t == t
            for got, want in zip(snapshot_fields(snap), fields, strict=True):
                assert np.array_equal(got, want)


class TestGuards:
    @pytest.mark.parametrize("case", ["grenier", "corrector", "corrector-only"])
    def test_overflow_raises_at_its_step_with_the_last_saved_snapshot(self, case):
        g = make_grid(1, 6.0, 64)
        if case == "corrector-only":
            # the background stays finite; the corrector overflows at t = 0.48
            a0, a1 = make_gaussian(g), make_gaussian(g, amplitude=1e306)
            config = WkbRunConfig(dt=1e-2, T=1.0, save_every=5, sing_tol=np.inf)
        else:
            # everything overflows at t = 0.004
            a0 = a1 = make_gaussian(g, amplitude=1e3)
            config = WkbRunConfig(dt=1e-3, T=0.05, save_every=3, sing_tol=np.inf)
        with np.errstate(over="ignore", invalid="ignore"):
            if case == "grenier":
                ref = ref_solve_grenier(a0, 0.25, config)
                run = lambda: solve_grenier_stack([(a0, 0.25, config)])[0]
            else:
                ref = ref_solve_limit_with_corrector(a0, a1, config)
                run = lambda: solve_limit_stack([(a0, a1, config)])[0]
            with pytest.raises(NonFiniteError) as exc:
                run()
        (t_last, last), (t_bad, bad) = ref[-2:]
        step = round(t_bad / config.dt)
        # the reference overflows between two save points, after the first
        assert step % config.save_every != 0 and step > config.save_every
        assert not all(np.isfinite(field).all() for field in bad)
        assert np.isfinite(bad[0]).all() == (case == "corrector-only")
        assert exc.value.t == t_bad
        assert str(exc.value).startswith(f"non-finite values at step {step} ")
        snap = exc.value.last_state
        assert snap.t == t_last
        for got, want in zip(snapshot_fields(snap), last, strict=True):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("solver, datum", [("nls", "a0"), ("grenier", "a0"),
                                               ("limit", "a0"), ("limit", "a1")])
    def test_non_finite_datum_raises_at_step_0_with_no_snapshot(self, gaussian_1d, solver, datum):
        # both engines' shared t = 0 save applies the finiteness guard
        values = gaussian_1d.values.copy()
        values[3] = np.nan
        bad = Field(gaussian_1d.grid, values)
        a0, a1 = (bad, gaussian_1d) if datum == "a0" else (gaussian_1d, bad)
        with pytest.raises(NonFiniteError) as exc:
            if solver == "nls":
                nls.solve_nls_stack([a0], 0.5, nls.NlsRunConfig(dt=1e-3, T=0.01))
            elif solver == "grenier":
                solve_grenier_stack([(a0, 0.25, WkbRunConfig(dt=1e-3, T=0.01))])
            else:
                solve_limit_stack([(a0, a1, WkbRunConfig(dt=1e-3, T=0.01))])
        assert str(exc.value) == "non-finite values at step 0 (t = 0)"
        assert exc.value.t == 0
        assert exc.value.last_state is None

    @pytest.mark.parametrize("corrector", [False, True], ids=["grenier", "corrector"])
    def test_singularity_abort_is_unchanged(self, gaussian_1d, corrector):
        cfg = WkbRunConfig(dt=2e-3, T=0.25, save_every=10, sing_tol=0.05)
        with pytest.raises(SingularityError) as exc:
            if corrector:
                solve_limit_stack([(gaussian_1d, gaussian_1d, cfg)])
            else:
                solve_grenier_stack([(gaussian_1d, 0.0, cfg)])
        assert exc.value.t == 0.042
        assert exc.value.grad_max == 0.050639861334559826


class TestStackedEngine:
    """Each member of a stack against its own single run."""

    @pytest.mark.parametrize("dim", [1, 2])
    def test_grenier_members_equal_their_single_runs(self, dim):
        g = make_grid(dim, 4.0, 32)
        data = [random_field(g, 10 + m, scale=0.5 + 0.5 * m) for m in range(3)]
        # one step count (6) and cadence, three step sizes
        members = [
            (perturbed(a0, eps, c), eps, WkbRunConfig(dt=0.01 * (m + 1), T=0.06 * (m + 1),
                                                      save_every=2, sing_tol=1e6,
                                                      enforce_decay=False))
            for m, (a0, c, eps) in enumerate(zip(data, (0.0, 1.0, 1j), (0.0, 0.125, 0.5)))
        ]
        stacked = solve_grenier_stack(members)
        assert len(stacked) == len(members)
        for member, traj in zip(members, stacked, strict=True):
            single = solve_grenier_stack([member])[0]
            assert len(traj) == 4 and bit_identical(traj, single)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_limit_members_with_different_horizons_equal_their_single_runs(self, dim):
        g = make_grid(dim, 6.0, 32)
        a0 = make_gaussian(g)
        members = [
            (a0, a1, WkbRunConfig(dt=T / 4, T=T, save_every=2))
            for a1, T in ((None, 0.04), (a0, 0.02), (Field(g, 1j * a0.values), 0.01))
        ]
        stacked = solve_limit_stack(members)
        for member, traj in zip(members, stacked, strict=True):
            single = solve_limit_stack([member])[0]
            assert traj[-1].t == member[2].T and bit_identical(traj, single)

    @pytest.mark.parametrize("corrector", [False, True], ids=["grenier", "corrector"])
    @pytest.mark.parametrize("position", [0, 1])
    def test_member_with_small_sing_tol_raises_its_single_run_error(
            self, gaussian_1d, corrector, position):
        healthy = WkbRunConfig(dt=2e-3, T=0.25, save_every=10, sing_tol=10.0)
        tight = WkbRunConfig(dt=2e-3, T=0.25, save_every=10, sing_tol=0.05)
        if corrector:
            stack = solve_limit_stack
            members = [(gaussian_1d, gaussian_1d, rc) for rc in (healthy, healthy)]
            members[position] = (gaussian_1d, gaussian_1d, tight)
        else:
            stack = solve_grenier_stack
            members = [(gaussian_1d, eps, healthy) for eps in (0.0, 0.25)]
            members[position] = (gaussian_1d, 0.0, tight)
        for m, member in enumerate(members):
            if m != position:
                assert len(stack([member])[0]) == 14  # 125 steps, saved every 10 and at the end
        with pytest.raises(SingularityError) as single:
            stack([members[position]])
        with pytest.raises(SingularityError) as stacked:
            stack(members)
        assert str(stacked.value) == str(single.value)
        assert stacked.value.t == single.value.t == 0.042
        assert stacked.value.grad_max == single.value.grad_max == 0.050639861334559826

    def test_non_finite_member_raises_with_its_own_last_snapshot(self):
        g = make_grid(1, 6.0, 64)
        config = WkbRunConfig(dt=1e-3, T=0.05, save_every=3, sing_tol=np.inf)
        # the second member overflows at t = 0.004; the first stays finite
        members = [(make_gaussian(g), 0.25, config),
                   (make_gaussian(g, amplitude=1e3), 0.25, config)]
        assert np.isfinite(solve_grenier_stack([members[0]])[0][-1].a.values).all()
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteError) as single:
                solve_grenier_stack([members[1]])
            with pytest.raises(NonFiniteError) as stacked:
                solve_grenier_stack(members)
        assert str(stacked.value) == str(single.value)
        assert stacked.value.t == single.value.t
        assert stacked.value.last_state.t == 0.003
        assert bit_identical(stacked.value.last_state, single.value.last_state)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("corrector", [False, True], ids=["grenier", "corrector"])
    def test_keep_gets_the_transform_of_each_saved_state(self, dim, corrector):
        # as in solve_nls_stack: keep gets the pair (snapshot, the loop's
        # spectra of its fields, one stack), which agree with a fresh
        # transform during the call; the snapshots keep holds equal the
        # plain trajectory's bit for bit
        g = make_grid(dim, 6.0, 32)
        a0 = make_gaussian(g)
        cfg = WkbRunConfig(dt=1e-2, T=0.05, save_every=2)
        stack = solve_limit_stack if corrector else solve_grenier_stack
        members = [(a0, a0 if corrector else eps, cfg) for eps in (0.0, 0.25)]
        lent = []

        def check(snap):
            state, spectra = snap
            names = ("a", "phi", "a1", "phi1") if corrector else ("a", "phi")
            ref = sg.transform(Field(g, np.stack([getattr(state, n).values for n in names])))
            assert spectra.space == sg.SPECTRAL and spectra.grid == g
            assert np.allclose(spectra.values, ref.values, rtol=1e-13,
                               atol=1e-13 * np.abs(ref.values).max())
            lent.append(spectra.values)
            return state

        kept = stack(members, keep=check)
        assert [len(traj) for traj in kept] == [4, 4]
        # every save lends each member its part of the one buffer the loop
        # steps in place
        assert all(np.shares_memory(spectra, lent[m]) for m in (0, 1) for spectra in lent[m::2])
        assert bit_identical(kept, stack(members))

    @pytest.mark.parametrize("other", [dict(dt=1e-2, T=0.05), dict(dt=1e-2, T=0.04, save_every=1)],
                             ids=["steps", "cadence"])
    def test_members_must_share_steps_and_cadence(self, gaussian_1d, other):
        base = WkbRunConfig(dt=1e-2, T=0.04, save_every=2)
        odd = WkbRunConfig(**{"save_every": 2, **other})
        with pytest.raises(ValueError, match="step count and save cadence"):
            solve_grenier_stack([(gaussian_1d, 0.0, base), (gaussian_1d, 0.0, odd)])
        with pytest.raises(ValueError, match="step count and save cadence"):
            solve_limit_stack([(gaussian_1d, None, base), (gaussian_1d, None, odd)])

    def test_stack_validation(self, gaussian_1d):
        with pytest.raises(ValueError, match="at least one member"):
            solve_grenier_stack([])
        other = make_gaussian(make_grid(1, 12.0, 128))
        cfg = WkbRunConfig(dt=1e-2, T=0.04)
        with pytest.raises(ValueError, match="share one grid"):
            solve_limit_stack([(gaussian_1d, None, cfg), (other, None, cfg)])
        spectral = sg.transform(gaussian_1d)
        with pytest.raises(ValueError, match="physical-space"):
            solve_grenier_stack([(gaussian_1d, 0.0, cfg), (spectral, 0.0, cfg)])
        with pytest.raises(ValueError, match="physical-space"):
            solve_limit_stack([(gaussian_1d, None, cfg), (gaussian_1d, spectral, cfg)])


class TestEngineProperties:
    # Every axis has the same N and L, so permuting the axes of the data must
    # permute the trajectory.  The data sit off centre by a different amount
    # on each axis, so a gradient factor applied along the wrong axis shows.
    # Only roundoff differs, the transforms running over the axes in another
    # order: measured 3.7e-16 (2-D) and 1.5e-16 (3-D) on the four fields.
    @pytest.mark.parametrize("points, center, perm", [
        (64, (0.75, -0.5), (1, 0)),
        (32, (0.75, -0.5, 0.25), (2, 0, 1)),
    ], ids=["2d", "3d"])
    def test_axis_permutation(self, points, center, perm):
        g = make_grid(len(center), 7.0, points)
        a0 = make_gaussian(g, center=center)
        a1 = make_gaussian(g, width=0.8, center=tuple(-c for c in center))

        def permuted(f):
            return Field(g, np.ascontiguousarray(np.transpose(f.values, perm)))

        cfg = WkbRunConfig(dt=0.01, T=0.1, save_every=5)
        plain, moved = solve_limit_stack([(a0, a1, cfg), (permuted(a0), permuted(a1), cfg)])
        assert len(plain) == 3
        for snap, moved_snap in zip(plain, moved, strict=True):
            for f, h in zip(snapshot_fields(snap), snapshot_fields(moved_snap), strict=True):
                expected = np.transpose(f, perm)
                assert np.linalg.norm(h - expected) <= 1e-13 * np.linalg.norm(expected)


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
        c = 1.0 if a1_mode == "equal" else 0.0
        u0 = Field(fine, a0_f.values * (1 + eps if a1_mode == "equal" else 1.0))

        n_cfg = nls.NlsRunConfig(
            dt=nls.default_dt(fine, eps, safety=0.1), T=0.2, save_every=10**9
        )
        u_traj = nls.solve_nls_stack([u0], eps, n_cfg)[0]
        w_cfg = WkbRunConfig(dt=wkb.default_dt(coarse), T=0.2, save_every=10**9)
        g_traj = solve_grenier_stack([(perturbed(a0_c, eps, c), eps, w_cfg)])[0]

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
        bg = solve_limit_stack([(gaussian_1d, gaussian_1d, cfg)])[0][-1]
        h1 = SobolevIndex(1.0)
        errs1, errs2 = [], []
        eps_list = [0.25, 0.125, 0.0625, 0.03125]
        for eps in eps_list:
            fin = solve_grenier_stack([(perturbed(gaussian_1d, eps), eps, cfg)])[0][-1]
            d_a = Field(grid_1d, fin.a.values - bg.a.values)
            d_phi = Field(grid_1d, fin.phi.values - bg.phi.values)
            errs1.append(norm(d_a, h1) + norm(d_phi, h1))
            d2_a = Field(grid_1d, fin.a.values - bg.a.values - eps * bg.a1.values)
            d2_phi = Field(grid_1d, fin.phi.values - bg.phi.values - eps * bg.phi1.values)
            errs2.append(norm(d2_a, h1) + norm(d2_phi, h1))
        slope1 = np.polyfit(np.log(eps_list), np.log(errs1), 1)[0]
        slope2 = np.polyfit(np.log(eps_list), np.log(errs2), 1)[0]
        assert 0.8 <= slope1 <= 1.2
        assert 1.7 <= slope2 <= 2.3


def test_grad_phi_max_matches_direct_computation(grid_1d):
    x = grid_1d.x_axes[0]
    phi = Field(grid_1d, (0.4 * np.sin(np.pi * x / 12)).astype(complex))
    state = GrenierState(1.0, Field(grid_1d, np.zeros(grid_1d.shape, dtype=complex)), phi, 0.0)
    spectra = sg.transform(Field(grid_1d, np.stack([state.a.values, phi.values])))
    expected = np.abs(0.4 * np.pi / 12 * np.cos(np.pi * x / 12)).max()
    assert wkb_row((state, spectra))["grad_phi_max"] == pytest.approx(expected, rel=1e-6)
