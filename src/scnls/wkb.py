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

Each run advances one stacked state, [a, phi] or [a, phi, a1, phi1], so
that an RK4 stage makes 4 batched FFT calls: one fftn and one ifftn give
every gradient and Laplacian, and one more pair dealiases every
quadratic term.
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
from .nls import NlsRunConfig

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
class WkbRunConfig(NlsRunConfig):
    """NlsRunConfig's step, horizon, save cadence and tail bound, checked
    the same way, plus the singularity bound and the datum decay check."""

    sing_tol: float | None = None
    enforce_decay: bool = True

    def __post_init__(self):
        super().__post_init__()
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


def _gradients(grid, spectra):
    """Gradient components of the fields whose np.fft.fftn are spectra
    (one field, or a stack of them), from one batched ifftn: the component
    axis goes in front of the grid axes."""
    mults = grid.derivative_multipliers[: grid.dim]
    return np.fft.ifftn(
        np.expand_dims(spectra, -grid.dim - 1) * mults, axes=range(-grid.dim, 0)
    )


class _Rates:
    """d/dt of the stacked state [a, phi] or, with the corrector,
    [a, phi, a1, phi1]; the phases are real and stored with zero imaginary
    part.  Per call, one batched fftn and ifftn give every gradient and
    Laplacian, and one more pair dealiases every quadratic term."""

    def __init__(self, grid, corrector, eps=0.0, sing_tol=None):
        d = grid.dim
        self.dim, self.eps, self.sing_tol = d, eps, sing_tol
        self.axes = range(-d, 0)
        self.mults = grid.derivative_multipliers
        self.mask = grid.dealias_mask
        # gradient and Laplacian rows per field; no term reads Lap(a1)
        sizes = (d + 1, d + 1, d, d + 1) if corrector else (d + 1, d + 1)
        self.deriv = np.empty((sum(sizes),) + grid.shape, dtype=complex)
        bounds = np.cumsum((0,) + sizes)
        self.blocks = [self.deriv[lo:hi] for lo, hi in zip(bounds, bounds[1:])]

    def __call__(self, y, t, out):
        """Write the rates of y into out (which must not be y); raise
        SingularityError if the phase gradient exceeds sing_tol."""
        d = self.dim
        spec = np.fft.fftn(y, axes=self.axes, out=out)
        for field, block in enumerate(self.blocks):
            np.multiply(self.mults[: len(block)], spec[field], out=block)
        np.fft.ifftn(self.deriv, axes=self.axes, out=self.deriv)
        da, dphi, *corr = self.blocks
        grad_a, lap_a = da[:d], da[d]
        grad_phi, lap_phi = dphi[:d].real, dphi[d].real
        if self.sing_tol is not None:
            _check_singularity(grad_phi, self.sing_tol, t)
        a = y[0]
        out[0] = -(sum(gp * ga for gp, ga in zip(grad_phi, grad_a)) + 0.5 * a * lap_phi)
        out[1] = -(0.5 * sum(g * g for g in grad_phi) + np.abs(a) ** 2)
        if corr:
            a1, (grad_a1, dphi1) = y[2], corr
            grad_phi1, lap_phi1 = dphi1[:d].real, dphi1[d].real
            out[2] = -(
                sum(gp * g1 for gp, g1 in zip(grad_phi, grad_a1))
                + sum(g1 * ga for g1, ga in zip(grad_phi1, grad_a))
                + 0.5 * a1 * lap_phi
                + 0.5 * a * lap_phi1
            )
            out[3] = -(
                sum(gp * g1 for gp, g1 in zip(grad_phi, grad_phi1))
                + 2.0 * (np.conj(a) * a1).real
            )
        np.fft.fftn(out, axes=self.axes, out=out)
        np.multiply(out, self.mask, out=out)
        np.fft.ifftn(out, axes=self.axes, out=out)
        out[1::2].imag = 0.0  # the phase rates are real
        out[0] += 0.5j * self.eps * lap_a
        if corr:
            out[2] += 0.5j * lap_a
        return out


def grenier_rhs(state: GrenierState, sing_tol=None):
    """Time derivatives (da/dt, dphi/dt) as Fields.

    When sing_tol is given, raises SingularityError if the phase gradient
    already exceeds it.
    """
    g = state.a.grid
    y = np.stack([state.a.values, state.phi.values.real])
    k = _Rates(g, corrector=False, eps=state.eps, sing_tol=sing_tol)(y, state.t, np.empty_like(y))
    return Field(g, k[0]), Field(g, k[1])


def corrector_rhs(background: GrenierState, corr: CorrectorState):
    """Time derivatives (da1/dt, dphi1/dt) of the corrector pair around an
    eps = 0 background at the same time."""
    if background.eps != 0:
        raise ValueError("the corrector background must be an eps = 0 state")
    if background.t != corr.t:
        raise ValueError(
            f"background time {background.t} does not match corrector time {corr.t}"
        )
    g = background.a.grid
    y = np.stack([background.a.values, background.phi.values.real,
                  corr.a1.values, corr.phi1.values.real])
    k = _Rates(g, corrector=True)(y, corr.t, np.empty_like(y))
    return Field(g, k[2]), Field(g, k[3])


def _auto_sing_tol(grid, a_init, horizon):
    # Early-time scale: |grad phi| grows like t * max|grad |a(0)|^2|, so
    # 50x its value at the horizon is far outside regular behaviour.
    grads = _gradients(grid, np.fft.fftn(np.abs(a_init) ** 2))
    rate = np.abs(grads.real).max()
    return 50.0 * max(rate * abs(horizon), _SING_RATE_FLOOR)


def _check_singularity(grad_phi, sing_tol, t):
    gmax = np.abs(grad_phi).max()
    if gmax > sing_tol:
        raise SingularityError(
            f"phase gradient {gmax:.3e} exceeds the singularity threshold "
            f"{sing_tol:.3e} at t = {t:.6g}; the run is approaching the "
            "breakdown time",
            grad_max=gmax,
            t=t,
        )


def _integrate(y, rates, config, make_snapshot):
    """Classical RK4 on the stacked state y, advanced in place, with guard
    checks and snapshots.

    rates(y, t, out) may raise guard errors; the system itself is
    autonomous, the stage time is for diagnostics only.  The stage sums
    keep the order y + (dt/6) (((k1 + 2 k2) + 2 k3) + k4), accumulated in
    place so that one buffer serves k2 to k4.
    """
    n_steps = max(1, round(config.T / config.dt))
    dt = config.T / n_steps
    snapshots = [make_snapshot(0.0, y)]
    acc, k, stage = (np.empty_like(y) for _ in range(3))
    for step in range(1, n_steps + 1):
        t = (step - 1) * dt
        rates(y, t, acc)
        np.multiply(acc, 0.5 * dt, out=stage)
        stage += y
        rates(stage, t + 0.5 * dt, k)
        np.multiply(k, 0.5 * dt, out=stage)
        stage += y
        k *= 2
        acc += k
        rates(stage, t + 0.5 * dt, k)
        np.multiply(k, dt, out=stage)
        stage += y
        k *= 2
        acc += k
        rates(stage, t + dt, k)
        acc += k
        acc *= dt / 6.0
        y += acc
        if not np.isfinite(y).all():
            raise NonFiniteError.at_step(step, dt, snapshots[-1])
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
        return a0.values
    if a1 is None:
        return a0.values
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
    y = np.zeros((2,) + grid.shape, dtype=complex)
    y[0] = _prep_initial(a0, a1, eps, config)
    sing_tol = config.sing_tol or _auto_sing_tol(grid, y[0], config.T)

    def snap(t, y):
        return GrenierState(t, Field(grid, y[0].copy()), Field(grid, y[1].real), eps)

    return _integrate(y, _Rates(grid, corrector=False, eps=eps, sing_tol=sing_tol), config, snap)


def solve_limit_with_corrector(a0: Field, a1, config: WkbRunConfig):
    """Co-integrate the eps = 0 limit system with its corrector.

    The corrector starts from a1 with zero phase; returns a list of
    (GrenierState, CorrectorState) pairs at the saved times.
    """
    grid = a0.grid
    _check_data(a0, a1, config)
    y = np.zeros((4,) + grid.shape, dtype=complex)
    y[0] = a0.values
    if a1 is not None:
        y[2] = a1.values
    sing_tol = config.sing_tol or _auto_sing_tol(grid, y[0], config.T)

    def snap(t, y):
        return (
            GrenierState(t, Field(grid, y[0].copy()), Field(grid, y[1].real), 0.0),
            CorrectorState(t, Field(grid, y[2].copy()), Field(grid, y[3].real)),
        )

    return _integrate(y, _Rates(grid, corrector=True, sing_tol=sing_tol), config, snap)


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
    gradients reads; grid.from_fft gives them transform's normalization."""
    return np.fft.fftn(state.a.values), np.fft.fftn(state.phi.values.real)


def gradients(state: GrenierState, fft_pair=None):
    """Gradient components of a and of phi, shape (2, dim, *grid.shape),
    the one gradient computation grad_phi_max and wkb_energy read.
    fft_pair, when given, is spectra(state)."""
    fft_pair = spectra(state) if fft_pair is None else fft_pair
    return _gradients(state.a.grid, np.stack(fft_pair))


def grad_phi_max(state: GrenierState, grads=None) -> float:
    """Sup norm of the phase gradient, the singularity-guard observable.
    grads, when given, is gradients(state)."""
    grads = gradients(state) if grads is None else grads
    return float(np.abs(grads[1].real).max())


def wkb_energy(state: GrenierState, grads=None) -> float:
    """Wavefunction energy in phase-amplitude variables:

        int |eps grad a + i a grad phi|^2 + int |a|^4,

    which equals the semiclassical energy of a e^{i phi/eps} for eps > 0
    and its eps -> 0 limit for the limit system. grads, when given, is
    gradients(state)."""
    grad_a, grad_phi = gradients(state) if grads is None else grads
    density = sum(
        np.abs(state.eps * ga + 1j * state.a.values * gp.real) ** 2
        for ga, gp in zip(grad_a, grad_phi)
    )
    quart = np.abs(state.a.values) ** 4
    return float(np.sum(density + quart) * state.a.grid.quad_weight)
