"""Fourth-order split-step Fourier integrator for the semiclassical cubic NLS

    i*eps*du/dt + (eps^2/2) Lap(u) = |u|^2 u

on a periodic grid. eps = 1 recovers the unscaled defocusing equation.
Both substeps are exact flows (a unitary spectral multiplier and a
pointwise phase rotation), so mass is conserved to roundoff and the only
time-stepping error is the splitting commutator.

A step is Blanes and Moan's six-stage splitting (J. Comput. Appl. Math.
142, 2002): seven kinetic pieces around six nonlinear ones, symmetric,
so time-reversible, and of order four. Its error constant is some 500
times below that of Yoshida's triple jump of Strang steps, so it pays
for twice the stages per step with a step four times as long. KINETIC
and NONLINEAR hold its substep coefficients. Between steps the loop
holds the field's spectrum, after the step's closing kinetic piece, in
one scratch buffer. Each stage multiplies it by its opening kinetic
piece, transforms back, rotates the phase and transforms forward, so the
closing piece of one step and the opening piece of the next are two
multiplications of the same spectrum. The kinetic phase
exp(-0.5j eps a dt |k|^2) is separable, so a piece is one multiplication
per axis by a vector of N entries. A save transforms back once more; its
tail guard and the spectrum it hands on read the spectrum held: 6n + 1
forward and 6n + S inverse FFTs for n steps and S saves after t = 0.

Per grid point the loop holds three fields of a member: u, its spectrum
and the last saved snapshot (the NonFiniteError's last good state). A
save allocates no other field: once a member's values pass the
finiteness check, its old snapshot goes, before its tail guard and the
new copy, and the spectrum it hands on is the one the loop holds, which
the next stage overwrites.

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
    PHYSICAL, SPECTRAL, Field, SobolevIndex, _fft, _ifft, _power_sum, lp_norm, norm,
    tail_fraction,
)

MAX_STEPS = 5_000_000
DEFAULT_DT_SAFETY = 2.0

_A1, _A2, _A3 = 0.0792036964311957, 0.353172906049774, -0.0420650803577195
_B1, _B2 = 0.209515106613362, -0.143851773179818
# Substep fractions of dt: kinetic pieces around each nonlinear one.
KINETIC = (_A1, _A2, _A3, 1 - 2 * (_A1 + _A2 + _A3), _A3, _A2, _A1)
NONLINEAR = (_B1, _B2, 0.5 - _B1 - _B2, 0.5 - _B1 - _B2, _B2, _B1)


def _check_eps(eps):
    if not 0 < eps <= 1:
        raise ValueError(f"eps must lie in (0, 1], got {eps!r}")


@dataclass
class NlsState:
    t: float
    u: Field
    eps: float

    def __post_init__(self):
        _check_eps(self.eps)


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

    @property
    def steps(self):
        """T / dt rounded: the run makes this many steps of T / steps."""
        return max(1, round(self.T / self.dt))

    @property
    def step(self):
        """The step the run takes: T / steps, dt rounded to divide T."""
        return self.T / self.steps


@dataclass(frozen=True)
class NlsRunConfig(_RunConfig):
    """A run config plus the spectral tail bound checked at every save."""

    tail_tol: float = 1e-6


def default_dt(grid, eps, safety=DEFAULT_DT_SAFETY):
    """Step resolving the semiclassical wavefunction and the fastest
    resolved kinetic phase: safety * min(eps, dx^2/eps)."""
    dx = grid.spacing
    return safety * min(eps, dx * dx / eps)


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
    return float(_power_sum(f.grid, f.values) * f.grid.quad_weight)


def semiclassical_energy(state: NlsState, spectrum: Field | None = None) -> float:
    """eps^2 * int |grad u|^2 + int |u|^4, conserved by the exact flow.

    spectrum, when given, is transform(state.u); the gradient term then
    reads it instead of transforming the field again.
    """
    grad_sq = norm(state.u if spectrum is None else spectrum,
                   SobolevIndex(1.0, homogeneous=True)) ** 2
    return state.eps**2 * grad_sq + lp_norm(state.u, 4) ** 4


def solve_nls_stack(u0s, eps, config: NlsRunConfig, keep=None):
    """Integrate each datum in u0s (an iterable of physical-space fields on
    one grid) to T in one step loop, returning one trajectory per datum: its
    NlsState snapshots every save_every steps, t = 0 and the final state
    included.  A stack of one is a single run, and each member's trajectory
    equals its own stack of one bit for bit.  The data are released once
    stacked, so a caller that hands over a generator holds none of them.

    dt is adjusted to the nearest divisor of T so the run lands exactly on
    the horizon.

    keep, when given, is called on each saved (NlsState, spectrum) pair once
    every guard at that time has passed, spectrum being the loop's own
    spectrum of state.u (transform(state.u) up to roundoff), and the
    trajectory holds what it returns instead, so the caller may let each
    snapshot go as soon as it is saved.  The spectrum is valid only during
    the keep call: a caller that holds on to it copies it.

    The first member to trip a guard, in step order, raises: ResolutionError
    if its spectral tail guard trips at a saved time (including t = 0),
    NonFiniteError on NaN/overflow in its datum or at any step, carrying
    its last good snapshot (None when the datum is at fault).
    """
    u0s = list(u0s)
    if not u0s:
        raise ValueError("solve_nls_stack needs at least one datum")
    _check_eps(eps)
    grid = u0s[0].grid
    if any(f.space != PHYSICAL for f in u0s):
        raise ValueError("the initial data must be physical-space fields")
    if any(f.grid != grid for f in u0s):
        raise ValueError("stacked data must share one grid")
    u = np.stack([f.values for f in u0s])
    del u0s
    n_steps = config.steps
    dt = config.step

    # Each stage opens with its kinetic piece on the spectrum held; a step
    # closes with the outer piece, which the next step's first stage repeats.
    # A piece is one factor per axis; on one axis it is the full multiplier.
    mults = {a: [grid.axis_view(np.exp(-0.5j * eps * a * dt * k**2), ax)
                 for ax, k in enumerate(grid.k_axes)] for a in set(KINETIC)}
    opening = [mults[a] for a in KINETIC[:-1]]
    outer = mults[KINETIC[-1]]
    rates = [b * dt / eps for b in NONLINEAR]
    buf = _fft(u, grid.dim)
    axes = tuple(range(1, grid.dim + 1))
    trajectories = [[] for _ in u]
    last = [None] * len(u)  # each member's last saved state, the only one held
    spectra = [Field(grid, member, SPECTRAL) for member in buf]

    def save(step):
        # u is ifftn(buf) (at t = 0, buf is fftn(u))
        t = step * dt
        for member, (values, spectrum) in enumerate(zip(u, spectra)):
            if not np.isfinite(values).all():
                raise NonFiniteError.at_step(step, dt, last[member])
            # finite, so no error needs its old snapshot, which goes before
            # the tail guard's temporary and the new copy
            last[member] = None
            ResolutionError.check(tail_fraction(spectrum), config.tail_tol,
                                  f"at t = {t:.6g}", t)
        for member, (values, spectrum) in enumerate(zip(u, spectra)):
            last[member] = NlsState(t, Field(grid, values.copy()), eps)
            snap = last[member] if keep is None else keep((last[member], spectrum))
            trajectories[member].append(snap)

    save(0)
    for step in range(1, n_steps + 1):
        for rate, mult in zip(rates, opening):
            for factor in mult:
                buf *= factor
            _ifft(buf, grid.dim, out=u)
            finite = np.isfinite(_rotate(u, buf, rate, axes))
            if not finite.all():
                raise NonFiniteError.at_step(step, dt, last[int(np.argmin(finite))])
            _fft(u, grid.dim, out=buf)
        for factor in outer:
            buf *= factor
        if step % config.save_every == 0 or step == n_steps:
            _ifft(buf, grid.dim, out=u)
            save(step)
    return trajectories
