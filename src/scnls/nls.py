"""Strang split-step Fourier integrator for the semiclassical cubic NLS

    i*eps*du/dt + (eps^2/2) Lap(u) = |u|^2 u

on a periodic grid. eps = 1 recovers the unscaled defocusing equation.
Both substeps are exact flows (a unitary spectral multiplier and a
pointwise phase rotation), so mass is conserved to roundoff and the only
time-stepping error is the splitting commutator.

solve_nls fuses the closing kinetic half-step of each Strang step with the
opening one of the next, and closes with a half-step only at save points,
updating the field and one scratch buffer in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError, ResolutionError
from .grid import PHYSICAL, Field, SobolevIndex, lp_norm, norm, tail_fraction

MAX_STEPS = 5_000_000


@dataclass
class NlsState:
    t: float
    u: Field
    eps: float

    def __post_init__(self):
        if not 0 < self.eps <= 1:
            raise ValueError(f"eps must lie in (0, 1], got {self.eps!r}")


@dataclass(frozen=True)
class NlsRunConfig:
    dt: float
    T: float
    save_every: int = 1
    tail_tol: float = 1e-6

    def __post_init__(self):
        # Negative dt with negative T runs the reversible flow backward.
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


def default_dt(grid, eps, safety=0.5):
    """Step resolving both the O(1/eps) nonlinear phase rate and the
    fastest resolved kinetic phase: safety * min(eps*dx, dx^2/eps)."""
    dx = grid.spacing
    return safety * min(eps * dx, dx * dx / eps)


def _kinetic(u, buf, *mults):
    """u <- ifftn(mults * fftn(u)) in place, with buf as spectral scratch."""
    np.fft.fftn(u, out=buf)
    for mult in mults:
        buf *= mult
    np.fft.ifftn(buf, out=u)


def _rotate(u, buf, rate):
    """u <- u * exp(-1j * rate * |u|^2) in place; returns sum |u|^2 (finite iff u is)."""
    dens = buf.real
    np.square(np.abs(u, out=dens), out=dens)
    total = dens.sum()
    dens *= -rate
    np.sin(dens, out=buf.imag)
    np.cos(dens, out=dens)
    u *= buf
    return total


def kinetic_substep(state: NlsState, tau) -> NlsState:
    """Exact flow of i*eps*du/dt = -(eps^2/2) Lap(u) over tau.

    Substeps act as operator pieces: they do not advance the clock.
    """
    u = state.u.values.copy()
    _kinetic(u, np.empty_like(u), np.exp(-0.5j * state.eps * tau * state.u.grid.k_squared))
    return NlsState(state.t, Field(state.u.grid, u), state.eps)


def nonlinear_substep(state: NlsState, tau) -> NlsState:
    """Exact flow of i*eps*du/dt = |u|^2 u over tau; |u| is pointwise invariant."""
    u = state.u.values.copy()
    _rotate(u, np.empty_like(u), tau / state.eps)
    return NlsState(state.t, Field(state.u.grid, u), state.eps)


def mass(f: Field) -> float:
    """int |u|^2 dx by grid quadrature."""
    if f.space != PHYSICAL:
        raise ValueError("mass expects a physical-space field")
    return float(np.sum(np.abs(f.values) ** 2) * f.grid.quad_weight)


def semiclassical_energy(state: NlsState) -> float:
    """eps^2 * int |grad u|^2 + int |u|^4, conserved by the exact flow."""
    grad_sq = norm(state.u, SobolevIndex(1.0, homogeneous=True)) ** 2
    return state.eps**2 * grad_sq + lp_norm(state.u, 4) ** 4


def solve_nls(u0: Field, eps, config: NlsRunConfig, observer=None):
    """Integrate from u0 to T, returning snapshots every save_every steps.

    dt is adjusted to the nearest divisor of T so the run lands exactly on
    the horizon. The final state is always saved. The observer, when given,
    is called as observer(t, state) at every save.

    Raises ResolutionError if the spectral tail guard trips at any saved
    time (including t = 0) and NonFiniteError on NaN/overflow in u0 or at
    any step, carrying the last good snapshot (None when u0 is at fault).
    """
    if u0.space != PHYSICAL:
        raise ValueError("solve_nls expects a physical-space initial field")
    n_steps = max(1, round(config.T / config.dt))
    dt = config.T / n_steps
    grid = u0.grid

    half_mult = np.exp(-0.25j * eps * dt * grid.k_squared)
    u = u0.values.copy()
    buf = np.empty_like(u)
    snapshots = []

    def save(step):
        t = step * dt
        if not np.isfinite(u).all():
            raise NonFiniteError.at_step(step, dt, snapshots[-1] if snapshots else None)
        ResolutionError.check(tail_fraction(Field(grid, u)), config.tail_tol, f"at t = {t:.6g}", t)
        state = NlsState(t, Field(grid, u.copy()), eps)
        snapshots.append(state)
        if observer is not None:
            observer(t, state)

    save(0)
    for seg_start in range(0, n_steps, config.save_every):
        seg_end = min(seg_start + config.save_every, n_steps)
        _kinetic(u, buf, half_mult)
        for step in range(seg_start + 1, seg_end + 1):
            if not np.isfinite(_rotate(u, buf, dt / eps)):
                raise NonFiniteError.at_step(step, dt, snapshots[-1])
            if step < seg_end:
                _kinetic(u, buf, half_mult, half_mult)
        _kinetic(u, buf, half_mult)
        save(seg_end)
    return snapshots
