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
    CorrectorState,
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


# Per-field reference of the right-hand sides and the RK4 loop: one FFT per
# field and derivative, phases carried as real arrays, a new list of arrays
# per stage.  The stacked engine must reproduce it bit for bit.

def ref_derivs(g, values):
    vhat = np.fft.fftn(values)
    grads, lap = ref_symbols(g)
    return [np.fft.ifftn(m * vhat) for m in grads], np.fft.ifftn(lap * vhat)


def ref_dealias(g, values):
    return np.fft.ifftn(np.fft.fftn(values) * kept_modes(g))


def ref_grenier_rates(g, a, phi, eps):
    grad_a, lap_a = ref_derivs(g, a)
    grad_phi, lap_phi = ref_derivs(g, phi)
    grad_phi = [x.real for x in grad_phi]
    lap_phi = lap_phi.real
    quad_phi = -(0.5 * sum(x * x for x in grad_phi) + np.abs(a) ** 2)
    quad_a = -(sum(gp * ga for gp, ga in zip(grad_phi, grad_a)) + 0.5 * a * lap_phi)
    rates = [ref_dealias(g, quad_a) + 0.5j * eps * lap_a, ref_dealias(g, quad_phi).real]
    return rates, (grad_phi, grad_a, lap_a, lap_phi)


def ref_corrector_rates(g, a, phi, a1, phi1):
    (da, dphi), (grad_phi, grad_a, lap_a, lap_phi) = ref_grenier_rates(g, a, phi, 0.0)
    grad_a1 = ref_gradient(g, a1)
    grad_phi1, lap_phi1 = ref_derivs(g, phi1)
    grad_phi1 = [x.real for x in grad_phi1]
    lap_phi1 = lap_phi1.real
    quad_phi1 = -(
        sum(gp * g1 for gp, g1 in zip(grad_phi, grad_phi1)) + 2.0 * (np.conj(a) * a1).real
    )
    quad_a1 = -(
        sum(gp * g1 for gp, g1 in zip(grad_phi, grad_a1))
        + sum(g1 * ga for g1, ga in zip(grad_phi1, grad_a))
        + 0.5 * a1 * lap_phi
        + 0.5 * a * lap_phi1
    )
    return [da, dphi, ref_dealias(g, quad_a1) + 0.5j * lap_a, ref_dealias(g, quad_phi1).real]


def ref_rk4(fields, rhs, config):
    """(t, fields) at the saved steps; stops after the first step that
    leaves a non-finite value and returns that step's fields last."""
    n_steps = max(1, round(config.T / config.dt))
    dt = config.T / n_steps
    y = list(fields)
    saved = [(0.0, y)]
    for step in range(1, n_steps + 1):
        k1 = rhs(y)
        k2 = rhs([yi + 0.5 * dt * ki for yi, ki in zip(y, k1)])
        k3 = rhs([yi + 0.5 * dt * ki for yi, ki in zip(y, k2)])
        k4 = rhs([yi + dt * ki for yi, ki in zip(y, k3)])
        y = [yi + (dt / 6.0) * (a + 2 * b + 2 * c + d) for yi, a, b, c, d in zip(y, k1, k2, k3, k4)]
        if not all(np.isfinite(yi).all() for yi in y):
            saved.append((step * dt, y))
            break
        if step % config.save_every == 0 or step == n_steps:
            saved.append((step * dt, y))
    return saved


def ref_solve_grenier(a0, eps, config):
    g = a0.grid
    return ref_rk4([a0.values, np.zeros(g.shape)],
                   lambda y: ref_grenier_rates(g, *y, eps)[0], config)


def ref_solve_limit_with_corrector(a0, a1, config):
    g = a0.grid
    zero = np.zeros(g.shape)
    return ref_rk4([a0.values, zero, a1.values, zero],
                   lambda y: ref_corrector_rates(g, *y), config)


def snapshot_fields(snap):
    states = snap if isinstance(snap, tuple) else (snap,)
    out = []
    for state in states:
        out += [state.a.values, state.phi.values] if isinstance(state, GrenierState) else [
            state.a1.values, state.phi1.values]
    return out


def fresh_state(grid, a_values, eps=0.0, t=0.0, phi_values=None):
    phi = np.zeros(grid.shape, dtype=complex) if phi_values is None else phi_values
    return GrenierState(t, Field(grid, a_values), Field(grid, phi), eps)


def grenier_rhs(state, sing_tol=None):
    """(da/dt, dphi/dt) as Fields, from the RK4 loop's rates on a stack of
    one; sing_tol, when given, is checked against the phase gradient."""
    g = state.a.grid
    y = np.stack([state.a.values, state.phi.values.real])[:, None]
    k = wkb._Rates(g, corrector=False, eps=state.eps, sing_tol=sing_tol)(
        y, [state.t], np.empty_like(y))
    return Field(g, k[0, 0]), Field(g, k[1, 0])


def corrector_rhs(background, corr):
    """(da1/dt, dphi1/dt) as Fields around an eps = 0 background, from the
    RK4 loop's rates on a stack of one."""
    g = background.a.grid
    y = np.stack([background.a.values, background.phi.values.real,
                  corr.a1.values, corr.phi1.values.real])[:, None]
    k = wkb._Rates(g, corrector=True)(y, [corr.t], np.empty_like(y))
    return Field(g, k[2, 0]), Field(g, k[3, 0])


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

        (gphi,), lphi = ref_derivs(g, phi)
        (ga1,) = ref_gradient(g, a1)
        (gphi1,) = ref_gradient(g, phi1)
        expect_da1 = ref_dealias(g, -(gphi.real * ga1) - 0.5 * a1 * lphi.real)
        expect_dphi1 = ref_dealias(g, -(gphi.real * gphi1.real)).real
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


class TestCorrectorFlow:
    def test_no_perturbation_keeps_corrector_imaginary(self, grid_1d, gaussian_1d):
        cfg = WkbRunConfig(dt=2e-3, T=0.25, save_every=25)
        traj = solve_limit_stack([(gaussian_1d, None, cfg)])[0]
        for _, corr in traj:
            assert np.abs(corr.a1.values.real).max() < 1e-10
            assert np.abs(corr.phi1.values).max() < 1e-8

    def test_equal_perturbation_small_time_phase(self, grid_1d, gaussian_1d):
        t_small = 0.01
        cfg = WkbRunConfig(dt=t_small / 32, T=t_small, save_every=10**6)
        (_, corr) = solve_limit_stack([(gaussian_1d, gaussian_1d, cfg)])[0][-1]
        target = -2 * t_small * np.abs(gaussian_1d.values) ** 2
        assert np.abs(corr.phi1.values.real - target).max() < 5e-4 * t_small

    def test_zero_background_transports_nothing(self, grid_1d, gaussian_1d):
        zero = Field(grid_1d, np.zeros(grid_1d.shape, dtype=complex))
        cfg = WkbRunConfig(dt=5e-3, T=0.2, save_every=10)
        traj = solve_limit_stack([(zero, gaussian_1d, cfg)])[0]
        (_, corr) = traj[-1]
        np.testing.assert_allclose(corr.a1.values, gaussian_1d.values, atol=1e-13)
        assert np.abs(corr.phi1.values).max() < 1e-13

    def test_imaginary_perturbation_degeneracy(self, grid_1d, gaussian_1d):
        # purely imaginary a1 against a real background never builds phase
        a1 = Field(grid_1d, 1j * gaussian_1d.values)
        cfg = WkbRunConfig(dt=2e-3, T=0.25, save_every=25)
        traj = solve_limit_stack([(gaussian_1d, a1, cfg)])[0]
        worst = max(np.abs(corr.phi1.values).max() for _, corr in traj)
        assert worst <= 1e-8


def ffts_per_stage(monkeypatch, dim, solve):
    """FFT calls and rows per RK4 stage of a 3-step run of solve(a0, config)."""
    g = make_grid(dim, 6.0, 32)
    a0 = make_gaussian(g)
    n_steps = 3
    counts = count_ffts(monkeypatch)
    solve(a0, WkbRunConfig(dt=1e-2, T=n_steps * 1e-2, sing_tol=1e3))
    stages = 4 * n_steps
    return ({name: n / stages for name, n in counts.items()},
            {name: n / stages for name, n in counts.rows.items()})


# Per RK4 stage, one FFT of the stacked state and one batched inverse give
# every derivative, and one more pair dealiases every quadratic term.

@pytest.mark.parametrize("dim", [1, 2])
def test_corrector_stage_computes_only_the_derivatives_it_uses(monkeypatch, dim):
    # Rows: the background needs gradient and Laplacian of a and phi, the
    # corrector the gradient of a1 and both of phi1, and each of the four
    # quadratic terms is dealiased once.
    calls, rows = ffts_per_stage(monkeypatch, dim,
                                 lambda a0, cfg: solve_limit_stack([(a0, a0, cfg)]))
    assert calls == {"forward": 2, "inverse": 2}
    assert rows == {"forward": 8, "inverse": 4 * dim + 7}


@pytest.mark.parametrize("dim", [1, 2])
def test_grenier_stage_computes_only_the_derivatives_it_uses(monkeypatch, dim):
    calls, rows = ffts_per_stage(
        monkeypatch, dim, lambda a0, cfg: solve_grenier_stack([(perturbed(a0, 0.25), 0.25, cfg)]))
    assert calls == {"forward": 2, "inverse": 2}
    assert rows == {"forward": 4, "inverse": 2 * dim + 4}


class TestBitIdentity:
    """The stacked engine against the per-field reference above."""

    @pytest.mark.parametrize("dim", [1, 2])
    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 10_000), amplitude=st.floats(0.1, 2.0),
           eps=st.sampled_from([0.0, 0.125, 0.5]), t=st.floats(0.0, 1.0))
    def test_rhs(self, dim, seed, amplitude, eps, t):
        g = make_grid(dim, 4.0, 32)
        a, a1 = (random_field(g, seed + m, scale=amplitude).values for m in (0, 1))
        phi, phi1 = (random_field(g, seed + m, scale=amplitude).values.real for m in (2, 3))
        state = GrenierState(t, Field(g, a), Field(g, phi if t else 0 * phi), eps)
        da, dphi = grenier_rhs(state)
        ref_da, ref_dphi = ref_grenier_rates(g, a, state.phi.values.real, eps)[0]
        assert np.array_equal(da.values, ref_da)
        assert np.array_equal(dphi.values, ref_dphi)
        assert not dphi.values.imag.any()

        background = GrenierState(t, Field(g, a), state.phi, 0.0)
        corr = CorrectorState(t, Field(g, a1), Field(g, phi1 if t else 0 * phi1))
        da1, dphi1 = corrector_rhs(background, corr)
        ref = ref_corrector_rates(g, a, state.phi.values.real, a1, corr.phi1.values.real)
        assert np.array_equal(da1.values, ref[2])
        assert np.array_equal(dphi1.values, ref[3])
        assert not dphi1.values.imag.any()

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
            states = snap if isinstance(snap, tuple) else (snap,)
            assert all(state.t == t for state in states)
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
        assert (snap if case == "grenier" else snap[0]).t == t_last
        for got, want in zip(snapshot_fields(snap), last, strict=True):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("corrector", [False, True], ids=["grenier", "corrector"])
    def test_singularity_abort_is_unchanged(self, gaussian_1d, corrector):
        cfg = WkbRunConfig(dt=2e-3, T=0.25, save_every=10, sing_tol=0.05)
        with pytest.raises(SingularityError) as exc:
            if corrector:
                solve_limit_stack([(gaussian_1d, gaussian_1d, cfg)])
            else:
                solve_grenier_stack([(gaussian_1d, 0.0, cfg)])
        assert exc.value.t == 0.042
        assert exc.value.grad_max == 0.05063986133455971


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
            assert traj[-1][0].t == member[2].T and bit_identical(traj, single)

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
        assert stacked.value.grad_max == single.value.grad_max == 0.05063986133455971

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
        w_cfg = WkbRunConfig(dt=wkb.default_dt(coarse, eps), T=0.2, save_every=10**9)
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
        (bg, corr) = solve_limit_stack([(gaussian_1d, gaussian_1d, cfg)])[0][-1]
        h1 = SobolevIndex(1.0)
        errs1, errs2 = [], []
        eps_list = [0.25, 0.125, 0.0625, 0.03125]
        for eps in eps_list:
            fin = solve_grenier_stack([(perturbed(gaussian_1d, eps), eps, cfg)])[0][-1]
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
    assert wkb_row(state)["grad_phi_max"] == pytest.approx(expected, rel=1e-6)
