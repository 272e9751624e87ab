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
one array w, which also holds the field during each phase rotation. Each
stage multiplies w by its opening kinetic piece, transforms it back in
place, rotates the phase and transforms it forward in place, so the
closing piece of one step and the opening piece of the next are two
multiplications of the same spectrum. The kinetic phase
exp(-0.5j eps a dt |k|^2) is separable, so a piece is one multiplication
per axis by one vector of N entries per member (_dispersion). The
rotation runs over pieces of the stack through a complex scratch of at
most ROTATE_POINTS points, the phase in a real array of its own; a piece
whose |rate| * sum |u|^2 bounds every phase by TINY_PHASE multiplies by
1 + i phase, which has the bits of cos + i sin there, and calls neither.
On a grid of dim >= 2, w is the view of a store whose last axis PAD
zeros extend: the transforms run on w, and the kinetic multiplications,
the rotation and the save's finiteness check on the store, contiguous,
which keeps the padding 0. There each transform's axis passes run in
bands of lines across the CPUs (grid._split), and a stage's opening
kinetic piece in the bands of its inverse transform's first pass, the
last-axis one; a step's closing piece and the rotation run on the
calling thread. A save transforms back once more, into a new array; its
tail guard and the spectrum it hands on read the spectrum held: 6n + 1
forward and 6n + S inverse FFTs for n steps and S saves after t = 0,
each a whole transform however many bands it runs in.

Per grid point the loop holds two fields of a member: the spectrum w and
the last saved snapshot. Saves and the finiteness guard are _Saver's,
which both engines share; the tail guard runs in a save over the members
its finiteness check passed, in one stacked pass, slab by slab.

The loop advances a stack of data on one grid with one step and save
cadence, each datum with its own eps: the field is an (m, *grid.shape)
array, every FFT runs over the grid axes only (np.fft.fft/ifft per
axis), each kinetic factor holds one vector per member on its axis and
each rotation rate one value per member, and each member's trajectory is
bit-identical to its own stack of one. Stacking several data pays the
Python loop and the per-call FFT overhead once for all of them. The
guards stay per member: a member that trips one raises the error its
stack of one would, at the same step.

The default step is safety * min(eps, dx^2/(2 eps)): O(eps), which
resolves the semiclassical wavefunction (Bao, Jin & Markowich, J. Comput.
Phys. 175, 2002), and short enough that the fastest kinetic phase,
eps k_max^2 dt / 2, turns by at most safety * pi^2/4 per step (4.9 at the
default safety, under 2 pi).  At twice that step, pi^2 per step, the modes
above the two-thirds cut grew from roundoff in strongly nonlinear runs:
2 exp(-x^2) at eps = 1/128 on 4,096 points reached a tail fraction of
0.18 by t = 0.25.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError, ResolutionError
from .grid import (
    PHYSICAL, SPECTRAL, Field, SobolevIndex, _fft, _ifft, _per_field, _power_sum, _scalar_map,
    lp_norm, norm, tail_fraction,
)

MAX_STEPS = 5_000_000
DEFAULT_DT_SAFETY = 2.0

_A1, _A2, _A3 = 0.0792036964311957, 0.353172906049774, -0.0420650803577195
_B1, _B2 = 0.209515106613362, -0.143851773179818
# Substep fractions of dt: kinetic pieces around each nonlinear one.
KINETIC = (_A1, _A2, _A3, 1 - 2 * (_A1 + _A2 + _A3), _A3, _A2, _A1)
NONLINEAR = (_B1, _B2, 0.5 - _B1 - _B2, 0.5 - _B1 - _B2, _B2, _B1)

# Points in the phase rotation's complex scratch (128 KiB): a stack larger
# than this rotates in pieces, a smaller one in one pass.
ROTATE_POINTS = 2**13

# Entries that pad the last axis of a spectrum on a grid of dim >= 2: one
# 64-byte cache line of complex128.  With a power-of-two row stride, numpy's
# transform along a strided axis maps its columns onto a few cache sets and
# thrashes them.  On 512^2 (one Xeon core) the padding took that pass from
# 1.76 to 1.24 ms and a 2-D transform pair from 5.9 to 4.5 ms, with the same
# bits: a 1-D transform's bits do not depend on its stride.
PAD = 4

# A phase of magnitude at most 2^-27 has cos exactly 1 and sin exactly
# itself in double precision: theta^2 / 2 <= 2^-55 is below half an ulp of
# 1, and theta^3 / 6 below half an ulp of theta.  numpy's sin and cos give
# these bits up to 1.05e-8 and 2.1e-8 (tests/test_nls.py checks the
# premise for the installed numpy), so a piece whose rows' |rate| * sum |u|^2
# add up to at most TINY_PHASE rotates by 1 + i phase and calls neither.
TINY_PHASE = 2.0**-27


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
    kinetic phase: safety * min(eps, dx^2/(2 eps))."""
    dx = grid.spacing
    return safety * min(eps, dx * dx / (2 * eps))


def _rotate(u, buf, rate, axes):
    """u <- u * exp(-1j * rate * |u|^2) in place, rate a number or one per
    row of u, through buf, a complex scratch shaped like u; returns
    sum |u|^2 over axes (finite iff u is).  The phase is computed in a real
    array of its own, where numpy's passes run faster than on buf.real.
    buf is 1 + i phase, the bits of cos + i sin where no phase exceeds
    TINY_PHASE; unless |rate| * sum |u|^2 summed over the rows bounds every
    phase so, sin and cos overwrite it where a phase exceeds TINY_PHASE."""
    phase = np.abs(u)
    np.square(phase, out=phase)
    total = phase.sum(axis=axes)
    phase *= -rate
    buf.real = 1.0
    buf.imag = phase
    if not np.dot(total, np.abs(rate)) <= TINY_PHASE:  # true for a NaN or inf total
        big = ~(np.abs(phase) <= TINY_PHASE)  # NaN and inf phases included
        np.sin(phase, out=buf.imag, where=big)
        np.cos(phase, out=buf.real, where=big)
    u *= buf
    return total


def _rotate_stack(w, scratch, rate):
    """_rotate over each member of the stack w in place, at its row of the
    column rate, in pieces of its flattened members that fit scratch:
    several whole members per piece, or one member in pieces of scratch's
    size.  Returns whether each member's values are finite."""
    flat = w.reshape(len(w), -1)
    n = flat.shape[1]
    rows, cols = max(1, scratch.size // n), min(n, scratch.size)
    finite = np.ones(len(w), dtype=bool)
    for lo in range(0, len(w), rows):
        for c in range(0, n, cols):
            piece = flat[lo:lo + rows, c:c + cols]
            buf = scratch[:piece.size].reshape(piece.shape)
            finite[lo:lo + rows] &= np.isfinite(_rotate(piece, buf, rate[lo:lo + rows], 1))
    return finite


def _kinetic(store, factors, band):
    """store[band] *= each factor in place, band a slice of the first grid
    axis, the one only factors[0] varies along."""
    rows = store[band]
    rows *= factors[0][band]
    for factor in factors[1:]:
        rows *= factor


def mass(f: Field):
    """int |u|^2 dx by grid quadrature, per field."""
    if f.space != PHYSICAL:
        raise ValueError("mass expects a physical-space field")
    return _per_field(f, _power_sum(f.grid, f.values) * f.grid.quad_weight)


def semiclassical_energy(state: NlsState, spectrum: Field | None = None) -> float:
    """eps^2 * int |grad u|^2 + int |u|^4, conserved by the exact flow.

    spectrum, when given, is transform(state.u); the gradient term then
    reads it instead of transforming the field again.
    """
    return _energy(state.u, state.eps, spectrum)


def _energy(u: Field, eps, spectrum: Field | None = None):
    """semiclassical_energy of u at eps, per field of u."""
    grad = norm(u if spectrum is None else spectrum, SobolevIndex(1.0, homogeneous=True))
    return _scalar_map(lambda g, q: eps**2 * g**2 + q**4, grad, lp_norm(u, 4))


def _stack_data(data):
    """(grid, values) of data, physical-space fields on one grid, stacked."""
    if not data:
        raise ValueError("a stack needs at least one member")
    grid = data[0].grid
    if any(f.space != PHYSICAL for f in data):
        raise ValueError("the initial data must be physical-space fields")
    if any(f.grid != grid for f in data):
        raise ValueError("stacked data must share one grid")
    return grid, np.stack([f.values for f in data])


def _dispersion(grid, theta):
    """exp(-i theta_m |kappa|^2) of each member m: one factor per axis, a vector per member."""
    theta = np.reshape(theta, (-1,) + (1,) * grid.dim)
    return [np.exp(-1j * (theta * grid.axis_view(k**2, ax))) for ax, k in enumerate(grid.k_axes)]


class _Saver:
    """The save-and-guard path of both engines: per member of a stack, the
    trajectory of its saved states, or of what keep returns for each, and
    the last good snapshot, the only one held, for its NonFiniteError.

    A save checks the spectrum held for finiteness per member and drops the
    old snapshots of the members before the first non-finite one (no error
    of theirs needs one).  It runs guard on those members, raises for the
    non-finite one, makes the values with transform (t = 0 has the data),
    a non-finite value raising with no snapshot, then each member m's
    snapshot(values, m, step * dts[m]), and keep, when given, gets the pair
    (snapshot, member m's spectrum as a Field), lent for that call alone.
    axis is the stacks' member axis."""

    def __init__(self, grid, dts, snapshot, keep, transform, guard=None, axis=0):
        self.grid, self.dts, self.snapshot, self.keep = grid, dts, snapshot, keep
        self.transform, self.guard, self.axis = transform, guard, axis
        self.trajectories, self.last = [[] for _ in dts], [None] * len(dts)

    def finite(self, stack):
        """Whether each member's values in stack are all finite."""
        return np.isfinite(stack).all(axis=tuple(i for i in range(stack.ndim) if i != self.axis))

    def check(self, step, finite):
        """Raise for the first member not finite, at its t, with its last snapshot."""
        if not finite.all():
            m = int(np.argmin(finite))
            t = step * self.dts[m]
            raise NonFiniteError(f"non-finite values at step {step} (t = {t:.6g})", self.last[m], t)

    def save(self, step, spectrum, values=None):
        """Save every member at step; values, at t = 0, is the stack of data.
        spectrum may pad its last axis past the grid's points with zeros:
        the finiteness check reads it whole, all else the grid's part."""
        finite = self.finite(spectrum)
        spectrum = spectrum[..., :self.grid.points_per_axis]
        healthy = len(finite) if finite.all() else int(np.argmin(finite))
        self.last[:healthy] = [None] * healthy
        if self.guard is not None:
            self.guard(healthy, step)
        self.check(step, finite)
        if values is None:
            values = self.transform(spectrum)
            self.check(step, self.finite(values))
        members = np.moveaxis(spectrum, self.axis, 0)  # a view, members first
        for m, trajectory in enumerate(self.trajectories):
            self.last[m] = state = self.snapshot(values, m, step * self.dts[m])
            trajectory.append(state if self.keep is None
                              else self.keep((state, Field(self.grid, members[m], SPECTRAL))))


def solve_nls_stack(u0s, eps, config: NlsRunConfig, keep=None):
    """Integrate each datum in u0s (an iterable of physical-space fields on
    one grid) to T in one step loop, returning one trajectory per datum: its
    NlsState snapshots every save_every steps, t = 0 and the final state
    included.  eps is one value per datum, or one number for all of them.
    A stack of one is a single run, and each member's trajectory equals its
    own stack of one bit for bit.  The data are released once
    stacked, so a caller that hands over a generator holds none of them.
    The members' snapshots at one saved time are views of one stack array.

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
    its last good snapshot (None when the datum is at fault, or when a
    save's inverse transform overflows a finite spectrum).
    """
    grid, u = _stack_data(list(u0s))  # the data go once stacked
    eps = [eps] * len(u) if np.ndim(eps) == 0 else list(eps)
    if len(eps) != len(u):
        raise ValueError(f"got {len(eps)} values of eps for {len(u)} data")
    for e in eps:
        _check_eps(e)
    n_steps = config.steps
    dt = config.step

    # The spectrum w is a view of store, whose last axis PAD zeros extend on
    # a grid of dim >= 2.  The transforms run on w; the elementwise passes
    # run on store, contiguous, and keep its padding 0: each kinetic piece's
    # factor on the last axis is padded with ones.
    pad = PAD if grid.dim > 1 else 0
    store = np.zeros(u.shape[:-1] + (u.shape[-1] + pad,), dtype=complex)
    w = _fft(u, grid.dim, out=store[..., :u.shape[-1]])
    # Each stage opens with its kinetic piece on the spectrum held; a step
    # closes with the outer piece, which the next step's first stage repeats.
    mults = {a: _dispersion(grid, [0.5 * e * a * dt for e in eps]) for a in set(KINETIC)}
    for factors in mults.values():
        factors[-1] = np.pad(factors[-1], [(0, 0)] * grid.dim + [(0, pad)], constant_values=1)
    opening = [mults[a] for a in KINETIC[:-1]]
    outer = mults[KINETIC[-1]]
    rates = [np.reshape([b * dt / e for e in eps], (-1, 1)) for b in NONLINEAR]
    scratch = np.empty(min(ROTATE_POINTS, store.size), dtype=complex)

    def tail_guard(healthy, step):  # over the first healthy members
        ResolutionError.check(tail_fraction(Field(grid, w[:healthy], SPECTRAL)), config.tail_tol,
                              f"at t = {step * dt:.6g}", step * dt)

    saver = _Saver(grid, [dt] * len(w),
                   lambda values, m, t: NlsState(t, Field(grid, values[m]), eps[m]), keep,
                   lambda spectrum: _ifft(spectrum, grid.dim), tail_guard)
    saver.save(0, store, u)
    del u  # the data are the t = 0 snapshots, held only as those
    for step in range(1, n_steps + 1):
        for rate, mult in zip(rates, opening):
            _ifft(w, grid.dim, out=w, first=functools.partial(_kinetic, store, mult))
            saver.check(step, _rotate_stack(store, scratch, rate))
            _fft(w, grid.dim, out=w)
        _kinetic(store, outer, (...,))
        if step % config.save_every == 0 or step == n_steps:
            saver.save(step, store)
    return saver.trajectories
