"""Fourth-order split-step Fourier integrator for the semiclassical cubic NLS

    i*eps*du/dt + (eps^2/2) Lap(u) = |u|^2 u

on a periodic grid. eps = 1 recovers the unscaled defocusing equation.
Both substeps are exact flows (a unitary spectral multiplier and a
pointwise phase rotation), so mass is conserved to roundoff and the only
time-stepping error is the splitting commutator.

A step is Yoshida's symmetric triple jump of Strang steps (Phys. Lett. A
150, 1990), S(w1*dt) S(w0*dt) S(w1*dt), which is time-reversible and of
order four; KINETIC and NONLINEAR hold its substep coefficients.
The step loop fuses the closing kinetic piece of each step with the
opening one of the next, and splits them again only at save points,
updating the field and one scratch buffer in place: 3 FFT pairs per step
plus one per save segment.

The loop advances a stack of data on one grid with one step, eps and
save cadence: the field is an (m, *grid.shape) array, every FFT runs over
the grid axes only (np.fft.fft/ifft on a 1-D grid), and each member's
trajectory is bit-identical to its own stack of one. Stacking several data
pays the Python loop and the per-call FFT overhead once for all of them.
The guards stay per member: a member that trips one raises the error its
stack of one would, at the same step.

The default step is safety * min(eps, dx^2/eps): O(eps), which resolves
the semiclassical wavefunction (Bao, Jin & Markowich, J. Comput. Phys.
175, 2002), and small enough that the fastest resolved kinetic phase
turns by O(1) per step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError, ResolutionError
from .grid import (
    PHYSICAL, SPECTRAL, Field, SobolevIndex, _fft, _ifft, lp_norm, norm, tail_fraction,
)

MAX_STEPS = 5_000_000
DEFAULT_DT_SAFETY = 0.5

_W1 = 1 / (2 - 2 ** (1 / 3))
_W0 = 1 - 2 * _W1
# Substep fractions of dt: kinetic pieces around each nonlinear one.
KINETIC = (_W1 / 2, (_W1 + _W0) / 2, (_W1 + _W0) / 2, _W1 / 2)
NONLINEAR = (_W1, _W0, _W1)


@dataclass
class NlsState:
    t: float
    u: Field
    eps: float

    def __post_init__(self):
        if not 0 < self.eps <= 1:
            raise ValueError(f"eps must lie in (0, 1], got {self.eps!r}")


@dataclass(frozen=True)
class _RunConfig:
    """Step, horizon and save cadence of a run, checked."""

    dt: float
    T: float
    save_every: int = 1

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


@dataclass(frozen=True)
class NlsRunConfig(_RunConfig):
    """A run config plus the spectral tail bound checked at every save."""

    tail_tol: float = 1e-6


def default_dt(grid, eps, safety=DEFAULT_DT_SAFETY):
    """Step resolving the semiclassical wavefunction and the fastest
    resolved kinetic phase: safety * min(eps, dx^2/eps)."""
    dx = grid.spacing
    return safety * min(eps, dx * dx / eps)


def _kinetic(u, buf, dim, *mults):
    """u <- ifftn(mults * fftn(u)) over the last dim axes, in place, with
    buf as spectral scratch."""
    _fft(u, dim, out=buf)
    for mult in mults:
        buf *= mult
    _ifft(buf, dim, out=u)


def _rotate(u, buf, rate, axes):
    """u <- u * exp(-1j * rate * |u|^2) in place; returns sum |u|^2 over
    axes (finite iff u is)."""
    dens = buf.real
    np.square(np.abs(u, out=dens), out=dens)
    total = dens.sum(axis=axes)
    dens *= -rate
    np.sin(dens, out=buf.imag)
    np.cos(dens, out=dens)
    u *= buf
    return total


def mass(f: Field) -> float:
    """int |u|^2 dx by grid quadrature."""
    if f.space != PHYSICAL:
        raise ValueError("mass expects a physical-space field")
    return float(np.sum(np.abs(f.values) ** 2) * f.grid.quad_weight)


def semiclassical_energy(state: NlsState, spectrum: Field | None = None) -> float:
    """eps^2 * int |grad u|^2 + int |u|^4, conserved by the exact flow.

    spectrum, when given, is transform(state.u); the gradient term then
    reads it instead of transforming the field again.
    """
    grad_sq = norm(state.u if spectrum is None else spectrum,
                   SobolevIndex(1.0, homogeneous=True)) ** 2
    return state.eps**2 * grad_sq + lp_norm(state.u, 4) ** 4


def solve_nls_stack(u0s, eps, config: NlsRunConfig, keep=None):
    """Integrate each datum in u0s (physical-space fields on one grid) to T
    in one step loop, returning one trajectory per datum: its NlsState
    snapshots every save_every steps, t = 0 and the final state included.
    A stack of one is a single run, and each member's trajectory equals its
    own stack of one bit for bit.

    dt is adjusted to the nearest divisor of T so the run lands exactly on
    the horizon.

    keep, when given, is called on each saved NlsState once every guard
    at that time has passed, and the trajectory holds what it returns
    instead, so the caller may let each snapshot go as soon as it is saved.

    The first member to trip a guard, in step order, raises: ResolutionError
    if its spectral tail guard trips at a saved time (including t = 0),
    NonFiniteError on NaN/overflow in its datum or at any step, carrying
    its last good snapshot (None when the datum is at fault).
    """
    u0s = list(u0s)
    if not u0s:
        raise ValueError("solve_nls_stack needs at least one datum")
    grid = u0s[0].grid
    for f in u0s:
        if f.space != PHYSICAL:
            raise ValueError("the initial data must be physical-space fields")
        if f.grid != grid:
            raise ValueError("stacked data must share one grid")
    n_steps = max(1, round(config.T / config.dt))
    dt = config.T / n_steps

    # One multiplier per distinct kinetic coefficient: the outer piece is
    # applied twice where a step's last piece meets the next step's first.
    mults = {a: np.exp(-0.5j * eps * a * dt * grid.k_squared) for a in set(KINETIC)}
    outer = mults[KINETIC[0]]
    inner = [mults[a] for a in KINETIC[1:-1]]
    rates = [b * dt / eps for b in NONLINEAR]
    u = np.stack([f.values for f in u0s])
    buf = np.empty_like(u)
    axes = tuple(range(1, grid.dim + 1))
    keep = keep or (lambda state: state)
    trajectories = [[] for _ in u0s]
    last = [None] * len(u0s)  # each member's last saved state, the only one held

    def save(step, guarded):
        # guarded is u0s at t = 0, which tail_fraction transforms, and the
        # loop's spectrum afterwards: ifftn(buf, out=u) leaves buf equal to
        # fftn(u) to roundoff, and a tail fraction does not see transform's
        # per-mode sign or constant weight, so buf serves without an FFT.
        t = step * dt
        for member, (values, guard) in enumerate(zip(u, guarded)):
            if not np.isfinite(values).all():
                raise NonFiniteError.at_step(step, dt, last[member])
            ResolutionError.check(tail_fraction(guard), config.tail_tol, f"at t = {t:.6g}", t)
        for member, values in enumerate(u):
            last[member] = NlsState(t, Field(grid, values.copy()), eps)
            trajectories[member].append(keep(last[member]))

    def rotate(step, rate):
        finite = np.isfinite(_rotate(u, buf, rate, axes))
        if not finite.all():
            raise NonFiniteError.at_step(step, dt, last[int(np.argmin(finite))])

    save(0, u0s)
    loop_spectra = [Field(grid, member, SPECTRAL) for member in buf]
    for seg_start in range(0, n_steps, config.save_every):
        seg_end = min(seg_start + config.save_every, n_steps)
        _kinetic(u, buf, grid.dim, outer)
        for step in range(seg_start + 1, seg_end + 1):
            for rate, mult in zip(rates, inner):
                rotate(step, rate)
                _kinetic(u, buf, grid.dim, mult)
            rotate(step, rates[-1])
            if step < seg_end:
                _kinetic(u, buf, grid.dim, outer, outer)
        _kinetic(u, buf, grid.dim, outer)
        save(seg_end, loop_spectra)
    return trajectories
