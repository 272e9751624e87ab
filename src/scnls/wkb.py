"""Pseudo-spectral RK4 integrator for the phase-amplitude formulation of
semiclassical NLS and its first-order corrector.

The unknowns are a complex amplitude a and a real phase phi with

    d(phi)/dt = -|grad phi|^2 / 2 - |a|^2,            phi(0) = 0,
    d(a)/dt   = -grad phi . grad a - a Lap(phi)/2 + i (eps/2) Lap(a),

which is an exact change of unknowns for u = a exp(i phi / eps) when
eps > 0, and the compressible limit system when eps = 0.  The fields stay
smooth uniformly in eps, so this solver can run on grids far coarser than
the oscillatory wavefunction needs.

The corrector pair (a1, phi1) solves the linearization of the limit
system around (a, phi) forced by i Lap(a) / 2, and is co-integrated with
the eps = 0 background inside one RK4 flow so no stage interpolation is
ever needed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError, ResolutionError, SingularityError
from .grid import (
    PHYSICAL,
    Field,
    check_boundary_decay,
    tail_fraction,
)
from .nls import MAX_STEPS

PHI_IMAG_TOL = 1e-12

# Fallback phase-gradient scale for data whose early-time estimate is
# degenerate (e.g. a zero amplitude).
_SING_RATE_FLOOR = 0.2


def _require_real_phase(phi: Field, what):
    """Reject a phase whose imaginary part exceeds PHI_IMAG_TOL or is NaN."""
    if not np.abs(phi.values.imag).max() <= PHI_IMAG_TOL:
        raise ValueError(f"{what} has a non-negligible imaginary part")


@dataclass
class GrenierState:
    t: float
    a: Field
    phi: Field
    eps: float

    def __post_init__(self):
        if self.eps < 0:
            raise ValueError(f"eps must be >= 0, got {self.eps!r}")
        _require_real_phase(self.phi, "phase field")
        if self.t == 0 and np.abs(self.phi.values).max() != 0.0:
            raise ValueError("the phase must vanish identically at t = 0")


@dataclass
class CorrectorState:
    t: float
    a1: Field
    phi1: Field

    def __post_init__(self):
        _require_real_phase(self.phi1, "corrector phase")
        if self.t == 0 and np.abs(self.phi1.values).max() != 0.0:
            raise ValueError("the corrector phase must vanish identically at t = 0")


@dataclass(frozen=True)
class WkbRunConfig:
    dt: float
    T: float
    save_every: int = 1
    tail_tol: float = 1e-6
    sing_tol: float | None = None
    enforce_decay: bool = True

    def __post_init__(self):
        if self.dt == 0 or not np.isfinite(self.dt):
            raise ValueError(f"dt must be nonzero and finite, got {self.dt!r}")
        if self.T == 0 or not np.isfinite(self.T):
            raise ValueError(f"T must be nonzero and finite, got {self.T!r}")
        if self.dt * self.T < 0:
            raise ValueError(f"dt = {self.dt} must carry the sign of the horizon T = {self.T}")
        if abs(self.dt) > abs(self.T) * (1 + 1e-12):
            raise ValueError(f"dt = {self.dt} exceeds the horizon T = {self.T}")
        if self.T / self.dt > MAX_STEPS:
            raise ValueError(
                f"T/dt = {self.T / self.dt:.3g} exceeds the step budget {MAX_STEPS}"
            )
        if not self.save_every >= 1:
            raise ValueError(f"save_every must be >= 1, got {self.save_every!r}")
        if self.sing_tol is not None and not self.sing_tol > 0:
            raise ValueError(f"sing_tol must be positive, got {self.sing_tol!r}")


def default_dt(grid, eps, safety=0.25):
    """RK4 step: transport CFL against the grid plus the imaginary-axis
    stability bound for the dispersive i (eps/2) Lap term."""
    dx = grid.spacing
    kin_rate = 0.5 * eps * grid.k_max**2
    if kin_rate > 0:
        return safety * min(dx, 2.8 / kin_rate)
    return safety * dx


class _SpectralWork:
    """Per-grid scratch: derivative multipliers and the dealias projector."""

    def __init__(self, grid):
        self.grid = grid
        self.grad = grid.grad_multipliers
        self.minus_k2 = -grid.k_squared
        self.mask = grid.dealias_mask

    def grads(self, vhat):
        """Gradient components of the field whose np.fft.fftn is vhat."""
        return [np.fft.ifftn(m * vhat) for m in self.grad]

    def derivs(self, values):
        """Gradient components and Laplacian of values."""
        vhat = np.fft.fftn(values)
        return self.grads(vhat), np.fft.ifftn(self.minus_k2 * vhat)

    def dealias(self, values):
        return np.fft.ifftn(np.fft.fftn(values) * self.mask)


def _grenier_rates(work, a, phi, eps):
    """Right-hand sides for (a, phi); phi enters and leaves as float64."""
    grad_a, lap_a = work.derivs(a)
    grad_phi, lap_phi = work.derivs(phi)
    grad_phi = [g.real for g in grad_phi]
    lap_phi = lap_phi.real

    quad_phi = -(0.5 * sum(g * g for g in grad_phi) + np.abs(a) ** 2)
    quad_a = -(sum(gp * ga for gp, ga in zip(grad_phi, grad_a)) + 0.5 * a * lap_phi)

    dphi = work.dealias(quad_phi).real
    da = work.dealias(quad_a) + 0.5j * eps * lap_a
    return da, dphi, grad_phi, grad_a, lap_a, lap_phi


def _corrector_rates(work, a1, phi1, a, grad_phi, grad_a, lap_a, lap_phi):
    grad_a1 = work.grads(np.fft.fftn(a1))
    grad_phi1, lap_phi1 = work.derivs(phi1)
    grad_phi1 = [g.real for g in grad_phi1]
    lap_phi1 = lap_phi1.real

    quad_phi1 = -(
        sum(gp * g1 for gp, g1 in zip(grad_phi, grad_phi1))
        + 2.0 * (np.conj(a) * a1).real
    )
    quad_a1 = -(
        sum(gp * g1 for gp, g1 in zip(grad_phi, grad_a1))
        + sum(g1 * ga for g1, ga in zip(grad_phi1, grad_a))
        + 0.5 * a1 * lap_phi
        + 0.5 * a * lap_phi1
    )
    dphi1 = work.dealias(quad_phi1).real
    da1 = work.dealias(quad_a1) + 0.5j * lap_a
    return da1, dphi1


def grenier_rhs(state: GrenierState, sing_tol=None):
    """Time derivatives (da/dt, dphi/dt) as Fields.

    When sing_tol is given, raises SingularityError if the phase gradient
    already exceeds it.
    """
    work = _SpectralWork(state.a.grid)
    a = state.a.values
    phi = state.phi.values.real
    da, dphi, grad_phi, *_ = _grenier_rates(work, a, phi, state.eps)
    if sing_tol is not None:
        gmax = max(np.abs(g).max() for g in grad_phi)
        if gmax > sing_tol:
            raise SingularityError(
                f"phase gradient {gmax:.3e} exceeds the singularity threshold "
                f"{sing_tol:.3e}",
                grad_max=gmax,
                t=state.t,
            )
    g = state.a.grid
    return Field(g, da), Field(g, dphi.astype(complex))


def corrector_rhs(background: GrenierState, corr: CorrectorState):
    """Time derivatives (da1/dt, dphi1/dt) of the corrector pair around an
    eps = 0 background at the same time."""
    if background.eps != 0:
        raise ValueError("the corrector background must be an eps = 0 state")
    if background.t != corr.t:
        raise ValueError(
            f"background time {background.t} does not match corrector time {corr.t}"
        )
    work = _SpectralWork(background.a.grid)
    a = background.a.values
    phi = background.phi.values.real
    _, _, grad_phi, grad_a, lap_a, lap_phi = _grenier_rates(work, a, phi, 0.0)
    da1, dphi1 = _corrector_rates(
        work, corr.a1.values, corr.phi1.values.real, a, grad_phi, grad_a, lap_a, lap_phi
    )
    g = background.a.grid
    return Field(g, da1), Field(g, dphi1.astype(complex))


def _auto_sing_tol(work, a_init, horizon):
    # Early-time scale: |grad phi| grows like t * max|grad |a(0)|^2|, so
    # 50x its value at the horizon is far outside regular behaviour.
    grads = work.grads(np.fft.fftn(np.abs(a_init) ** 2))
    rate = max(np.abs(g.real).max() for g in grads)
    return 50.0 * max(rate * abs(horizon), _SING_RATE_FLOOR)


def _check_singularity(grad_phi, sing_tol, t):
    gmax = max(np.abs(g).max() for g in grad_phi)
    if gmax > sing_tol:
        raise SingularityError(
            f"phase gradient {gmax:.3e} exceeds the singularity threshold "
            f"{sing_tol:.3e} at t = {t:.6g}; the run is approaching the "
            "breakdown time",
            grad_max=gmax,
            t=t,
        )


def _check_finite(arrays, step, dt, last):
    for arr in arrays:
        if not np.isfinite(arr).all():
            raise NonFiniteError.at_step(step, dt, last)


def _integrate(fields, rhs, config, make_snapshot):
    """Classical RK4 over a list of arrays with guard checks and snapshots.

    rhs(y, t) may raise guard errors; the system itself is autonomous, the
    stage time is for diagnostics only.
    """
    n_steps = max(1, round(config.T / config.dt))
    dt = config.T / n_steps
    snapshots = [make_snapshot(0.0, fields)]
    y = list(fields)
    for step in range(1, n_steps + 1):
        t = (step - 1) * dt
        k1 = rhs(y, t)
        k2 = rhs([yi + 0.5 * dt * ki for yi, ki in zip(y, k1)], t + 0.5 * dt)
        k3 = rhs([yi + 0.5 * dt * ki for yi, ki in zip(y, k2)], t + 0.5 * dt)
        k4 = rhs([yi + dt * ki for yi, ki in zip(y, k3)], t + dt)
        y = [
            yi + (dt / 6.0) * (a + 2 * b + 2 * c + d)
            for yi, a, b, c, d in zip(y, k1, k2, k3, k4)
        ]
        _check_finite(y, step, dt, snapshots[-1])
        if step % config.save_every == 0 or step == n_steps:
            snapshots.append(make_snapshot(step * dt, y))
    return snapshots


def _check_data(a0: Field, a1, config):
    if a0.space != PHYSICAL:
        raise ValueError("initial amplitude must be a physical-space field")
    if a1 is not None and a1.space != PHYSICAL:
        raise ValueError("perturbation datum must be a physical-space field")
    if config.enforce_decay:
        check_boundary_decay(a0, tol=max(np.abs(a0.values).max(), 1.0) * 1e-12)
        if a1 is not None:
            check_boundary_decay(a1, tol=max(np.abs(a1.values).max(), 1.0) * 1e-12)


def _prep_initial(a0: Field, a1, eps, config):
    _check_data(a0, a1, config)
    if eps == 0:
        if a1 is not None and np.abs(a1.values).max() > 0:
            warnings.warn(
                "the eps = 0 limit system starts from a0 alone; a1 is ignored",
                stacklevel=3,
            )
        return a0.values.copy()
    if a1 is None:
        return a0.values.copy()
    return a0.values + eps * a1.values


def solve_grenier(a0: Field, a1, eps, config: WkbRunConfig):
    """Integrate the phase-amplitude system from a(0) = a0 + eps*a1, phi(0) = 0.

    Returns GrenierState snapshots every save_every steps (final included).
    The phase-gradient singularity guard and NaN checks abort the run with
    SingularityError / NonFiniteError.
    """
    if eps < 0:
        raise ValueError(f"eps must be >= 0, got {eps!r}")
    grid = a0.grid
    work = _SpectralWork(grid)
    a_init = _prep_initial(a0, a1, eps, config)
    phi_init = np.zeros(grid.shape)
    sing_tol = config.sing_tol or _auto_sing_tol(work, a_init, config.T)

    def rhs(y, t):
        a, phi = y
        da, dphi, grad_phi, *_ = _grenier_rates(work, a, phi, eps)
        _check_singularity(grad_phi, sing_tol, t)
        return [da, dphi]

    def snap(t, y):
        return GrenierState(t, Field(grid, y[0].copy()), Field(grid, y[1].astype(complex)), eps)

    return _integrate([a_init, phi_init], rhs, config, snap)


def solve_limit_with_corrector(a0: Field, a1, config: WkbRunConfig):
    """Co-integrate the eps = 0 limit system with its corrector.

    The corrector starts from a1 with zero phase; returns a list of
    (GrenierState, CorrectorState) pairs at the saved times.
    """
    grid = a0.grid
    work = _SpectralWork(grid)
    _check_data(a0, a1, config)
    a_init = a0.values.copy()
    a1_init = np.zeros(grid.shape, dtype=complex) if a1 is None else a1.values.copy()
    sing_tol = config.sing_tol or _auto_sing_tol(work, a_init, config.T)

    def rhs(y, t):
        a, phi, a1c, phi1 = y
        da, dphi, grad_phi, grad_a, lap_a, lap_phi = _grenier_rates(work, a, phi, 0.0)
        _check_singularity(grad_phi, sing_tol, t)
        da1, dphi1 = _corrector_rates(work, a1c, phi1, a, grad_phi, grad_a, lap_a, lap_phi)
        return [da, dphi, da1, dphi1]

    def snap(t, y):
        return (
            GrenierState(t, Field(grid, y[0].copy()), Field(grid, y[1].astype(complex)), 0.0),
            CorrectorState(t, Field(grid, y[2].copy()), Field(grid, y[3].astype(complex))),
        )

    return _integrate(
        [a_init, np.zeros(grid.shape), a1_init, np.zeros(grid.shape)], rhs, config, snap
    )


def reconstruct(a: Field, phi: Field, eps, tail_tol=1e-6) -> Field:
    """Oscillatory wavefunction a * exp(i phi / eps), with a resolution
    guard on the result (the phase may oscillate too fast for the grid)."""
    if not eps > 0:
        raise ValueError(f"reconstruction requires eps > 0, got {eps!r}")
    _require_real_phase(phi, "phase field")
    out = Field(a.grid, a.values * np.exp(1j * phi.values.real / eps))
    ResolutionError.check(tail_fraction(out), tail_tol, "in the reconstructed wavefunction")
    return out


def spectra(state: GrenierState):
    """np.fft.fftn of the amplitude and of the (real) phase, the spectra
    grad_phi_max and wkb_energy read; grid.from_fft gives them transform's
    normalization."""
    return np.fft.fftn(state.a.values), np.fft.fftn(state.phi.values.real)


def grad_phi_max(state: GrenierState, fft_pair=None) -> float:
    """Sup norm of the phase gradient, the singularity-guard observable.
    fft_pair, when given, is spectra(state)."""
    _, phi_fft = spectra(state) if fft_pair is None else fft_pair
    grads = _SpectralWork(state.phi.grid).grads(phi_fft)
    return float(max(np.abs(g.real).max() for g in grads))


def wkb_energy(state: GrenierState, fft_pair=None) -> float:
    """Wavefunction energy in phase-amplitude variables:

        int |eps grad a + i a grad phi|^2 + int |a|^4,

    which equals the semiclassical energy of a e^{i phi/eps} for eps > 0
    and its eps -> 0 limit for the limit system. fft_pair, when given, is
    spectra(state)."""
    grid = state.a.grid
    work = _SpectralWork(grid)
    a_fft, phi_fft = spectra(state) if fft_pair is None else fft_pair
    grad_a = work.grads(a_fft)
    grad_phi = work.grads(phi_fft)
    density = sum(
        np.abs(state.eps * ga + 1j * state.a.values * gp.real) ** 2
        for ga, gp in zip(grad_a, grad_phi)
    )
    quart = np.abs(state.a.values) ** 4
    return float(np.sum(density + quart) * grid.quad_weight)
