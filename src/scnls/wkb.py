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
ever needed.  A snapshot is one GrenierState: a limit run's carries the
corrector in its a1 and phi1, a Grenier run's leaves them None.

RK4 advances a state of shape (fields, members, *grid): the fields
[a, phi] or [a, phi, a1, phi1] of runs that share a grid, a step count and
a save cadence, each with its own datum, eps, dt and singularity bound.
The state is held as its spectrum between stages.  The linear term
i (eps/2) Lap(a) is not among the rates: it is the integrating factor
exp(-i eps |kappa|^2 t / 2) on the row of a (Lawson, SIAM J. Numer. Anal. 4,
1967), exact at any step, so the step is the transport CFL at every eps;
like the kinetic pieces of nls, it is one vector per axis and member.
A stage makes 2 batched transforms, whole ones however many bands of
lines grid._split runs their passes in on a 2-D or 3-D grid: one inverse
transform gives every value and derivative the rates read, and
one forward transform hands the rates back, dealiased in place.  Every
spectral derivative comes from _derivatives: each gradient component is
one product with the grid's per-axis factor i*kappa, minus the Laplacian
one with |kappa|^2.  Dealiasing zeroes the grid's tail boxes, the modes
tail_fraction sums.  Saves and the finiteness guard are nls._Saver's: a
save transforms the state back into the buffer the snapshots then keep,
and lends keep the spectra.  A stack member equals its own stack of one
bit for bit and raises that stack's guard error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ResolutionError, SingularityError
from .grid import (
    Field,
    _fft,
    _ifft,
    check_boundary_decay,
    gradient_max,
    tail_fraction,
)
from .nls import _RunConfig, _Saver, _dispersion, _stack_data

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
    """The fields (a, phi) at time t and, for a limit run, the corrector
    (a1, phi1) of the ansatz (a + eps a1) e^{i (phi + eps phi1) / eps}."""

    t: float
    a: Field
    phi: Field
    eps: float
    a1: Field | None = None
    phi1: Field | None = None

    def __post_init__(self):
        if self.eps < 0:
            raise ValueError(f"eps must be >= 0, got {self.eps!r}")
        _require_real_phase(self.phi, "phase field")
        if self.t == 0 and np.abs(self.phi.values).max() != 0.0:
            raise ValueError("the phase must vanish identically at t = 0")
        if self.phi1 is not None:
            _require_real_phase(self.phi1, "corrector phase")
            if self.t == 0 and np.abs(self.phi1.values).max() != 0.0:
                raise ValueError("the corrector phase must vanish identically at t = 0")


@dataclass(frozen=True)
class WkbRunConfig(_RunConfig):
    """A run config plus the singularity bound and the datum decay check."""

    sing_tol: float | None = None
    enforce_decay: bool = True

    def __post_init__(self):
        super().__post_init__()
        if self.sing_tol is not None and not self.sing_tol > 0:
            raise ValueError(f"sing_tol must be positive, got {self.sing_tol!r}")


def default_dt(grid, safety=0.25):
    """RK4 step: safety * dx, the transport CFL against the grid.  The
    dispersive term i (eps/2) Lap(a) is the integrating factor, exact for
    any step, so eps sets no bound."""
    return safety * grid.spacing


def _derivatives(grid, spectrum, out):
    """The spectral derivatives of spectrum (grid axes last) into out: row m
    along axis m for each axis, then, when out has a row more, |kappa|^2
    spectrum, minus the Laplacian (its sign goes into the callers'
    coefficients)."""
    for row, factor in zip(out, grid.gradient_factors):
        np.multiply(factor, spectrum, out=row)
    if len(out) > grid.dim:
        np.multiply(grid.k_squared, spectrum, out=out[grid.dim])
    return out


def gradients(grid, spectra):
    """Gradient components of the fields whose transforms are spectra (one
    field's, or a stack of them), from one batched inverse transform: the
    component axis goes in front of the spectra's axes."""
    out = np.empty((grid.dim,) + spectra.shape, dtype=complex)
    return _ifft(_derivatives(grid, spectra, out), grid.dim, out=out)


class _Rates:
    """d/dt, less the dispersive term i (eps/2) Lap(a), of the stacked state
    [a, phi] or, with the corrector, [a, phi, a1, phi1], each field the
    spectrum of shape (members, *grid); the phases are real in physical
    space.  sing_tol holds one value per member."""

    def __init__(self, grid, corrector, sing_tol):
        d = grid.dim
        self.grid, self.sing_tol = grid, np.ravel(sing_tol)
        # per field, d + 1 rows: an amplitude's value and gradient, a phase's
        # gradient and minus its Laplacian
        fields = 4 if corrector else 2
        self.deriv = np.empty((fields * (d + 1), len(self.sing_tol)) + grid.shape,
                              dtype=complex)
        self.blocks = np.split(self.deriv, fields)

    def __call__(self, spec, t, out):
        """Write the rates of the spectra spec into out (not spec), as
        spectra; t holds each member's stage time, for the error of the first
        member to exceed its sing_tol.  The rate expressions run in physical
        space in place, in out and in the derivative rows they have read."""
        grid, d = self.grid, self.grid.dim
        for field, block in enumerate(self.blocks):
            if field % 2:
                _derivatives(grid, spec[field], block)
            else:
                block[0] = spec[field]
                _derivatives(grid, spec[field], block[1:])
        _ifft(self.deriv, d, out=self.deriv)
        (a, *grad_a), dphi, *corr = self.blocks
        grad_phi, klap_phi = [row.real for row in dphi[:d]], dphi[d].real
        gmax = np.abs(dphi[:d].real).max(axis=(0, *range(2, dphi.ndim)))
        if (gmax > self.sing_tol).any():
            m = int(np.argmax(gmax > self.sing_tol))
            raise SingularityError(
                f"phase gradient {gmax[m]:.3e} exceeds the singularity threshold "
                f"{self.sing_tol[m]:.3e} at t = {t[m]:.6g}; the run is approaching "
                "the breakdown time", grad_max=gmax[m], t=float(t[m]))
        da, dphi_rate, *dcorr = out  # views, updated in place
        if corr:
            (a1, *grad_a1), dphi1 = corr
            grad_phi1, klap_phi1 = [row.real for row in dphi1[:d]], dphi1[d].real
            da1, dphi1_rate = dcorr
            # a1: (a1 (-Lap phi) + a (-Lap phi1)) / 2 - grad phi.grad a1 - grad phi1.grad a
            np.multiply(a1, klap_phi, out=da1)
            da1 += np.multiply(a, klap_phi1, out=dphi1_rate)
            da1 *= 0.5
            for g1, ga, gp, gp1 in zip(grad_a1, grad_a, grad_phi, grad_phi1):
                g1 *= gp
                da1 -= g1
                da1 -= np.multiply(ga, gp1, out=g1)
            # phi1: -2 Re(conj(a) a1) - grad phi.grad phi1
            np.conjugate(a, out=dphi1_rate)
            dphi1_rate *= a1
            rate = dphi1_rate.real
            rate *= -2.0
            for gp, gp1 in zip(grad_phi, grad_phi1):
                gp1 *= gp
                rate -= gp1
            dphi1_rate.imag = 0.0
        # a: a (-Lap phi) / 2 - grad phi.grad a
        np.multiply(a, klap_phi, out=da)
        da *= 0.5
        for ga, gp in zip(grad_a, grad_phi):
            ga *= gp
            da -= ga
        # phi: -|a|^2 - |grad phi|^2 / 2
        rate = dphi_rate.real
        np.square(np.abs(a, out=rate), out=rate)
        np.negative(rate, out=rate)
        for gp in grad_phi:
            np.square(gp, out=gp)
            gp *= 0.5
            rate -= gp
        dphi_rate.imag = 0.0
        _fft(out, d, out=out)
        for box in grid.tail_boxes:
            out[(..., *box)] = 0.0
        if corr:
            # the corrector's forcing i Lap(a) / 2, in the row of a, read
            forcing = np.multiply(grid.k_squared, spec[0], out=a)
            forcing *= -0.5j
            da1 += forcing
        return out


def _auto_sing_tol(grid, a_init, horizon):
    # Early-time scale: |grad phi| grows like t * max|grad |a(0)|^2|, so
    # 50x its value at the horizon is far outside regular behaviour.
    rate = gradient_max(grid, np.abs(a_init) ** 2)
    return 50.0 * max(rate * abs(horizon), _SING_RATE_FLOOR)


def _solve_stack(members, keep, corrector):
    """Lawson's integrating-factor RK4 on the stacked state y of shape
    (fields, members, *grid), held as its spectrum, in place, with guard
    checks; one eps and run config per member, with one step count and save
    cadence (each member steps by its config's step).  Returns the
    trajectory of keep((snapshot, spectrum)) per member (keep=None: the
    snapshots), saved by nls._Saver.  The stage times are diagnostics only.

    With E the factor of the dispersive term over a step (one on every row
    but a's, and at eps = 0), a step is

        y+ = E y + (h/6) (E½ ((E½ k1 + 2 k2) + 2 k3) + k4),

    in place, one buffer for k2-k4, the sums in classical RK4's order.
    """
    a0s = [member[0] for member in members]
    zeros = [Field(a0.grid, np.broadcast_to(0j, a0.grid.shape)) for a0 in a0s]  # phases at t = 0
    a1s = ([zero if a1 is None else a1 for (_, a1, _), zero in zip(members, zeros)]
           if corrector else [])
    grid, data = _stack_data(a0s + zeros + (a1s + zeros if corrector else []))
    data = data.reshape((-1, len(members)) + grid.shape)  # [a, phi] or [a, phi, a1, phi1]
    d = grid.dim
    configs = [member[-1] for member in members]
    for field, config in zip(a0s + a1s, configs * 2):
        if config.enforce_decay:
            check_boundary_decay(field, tol=max(np.abs(field.values).max(), 1.0) * 1e-12)
    eps = [0.0 if corrector else member[1] for member in members]
    schedules = {(c.steps, c.save_every) for c in configs}
    if len(schedules) != 1:
        raise ValueError("stacked runs must share their step count and save cadence")
    ((n_steps, save_every),) = schedules
    dts = [c.step for c in configs]

    def snapshot(values, m, t):
        # views of member m's fields in values, its phase rows made real
        values[1::2, m].imag = 0.0
        a, phi, *corr = (Field(grid, field[m]) for field in values)
        return GrenierState(t, a, phi, eps[m], *corr)

    saver = _Saver(grid, dts, snapshot, keep, lambda spectrum: _ifft(spectrum, d, out=stage),
                   axis=1)
    y = _fft(data, d)
    saver.save(0, y, data)  # the t = 0 snapshots keep the data
    sing_tol = [c.sing_tol or _auto_sing_tol(grid, data[0, m], c.T) for m, c in enumerate(configs)]
    del data
    rates = _Rates(grid, corrector, sing_tol)
    times = np.array(dts)
    dt = times.reshape((-1,) + (1,) * d)
    # the dispersive flow over half a step (none in the limit system)
    half = [] if corrector else _dispersion(grid, [0.25 * e * h for e, h in zip(eps, dts)])

    def twist(state):
        for factor in half:
            state[0] *= factor

    acc, k, stage = (np.empty_like(y) for _ in range(3))
    for step in range(1, n_steps + 1):
        t = (step - 1) * times
        rates(y, t, acc)
        np.multiply(acc, 0.5 * dt, out=stage)
        stage += y
        twist(stage)  # E½ (y + h k1 / 2)
        rates(stage, t + 0.5 * times, k)
        twist(acc)
        twist(y)  # E½ y from here
        np.multiply(k, 0.5 * dt, out=stage)
        stage += y
        k *= 2
        acc += k
        rates(stage, t + 0.5 * times, k)
        np.multiply(k, dt, out=stage)
        stage += y
        twist(stage)  # E½ (E½ y + h k3)
        k *= 2
        acc += k
        twist(acc)
        twist(y)  # E y from here
        rates(stage, t + times, k)
        acc += k
        acc *= dt / 6.0
        y += acc
        if step % save_every == 0 or step == n_steps:
            saver.save(step, y)  # into stage, which the snapshots keep
            stage = np.empty_like(y)
        else:
            saver.check(step, saver.finite(y))
    return saver.trajectories


def solve_grenier_stack(members, keep=None):
    """Integrate the phase-amplitude system of each (a0, eps, config)
    member from a(0) = a0, phi(0) = 0, in one RK4 loop; the members share a
    grid, a step count and a save cadence, and each member's dt is its T
    over that count.
    Returns one trajectory per member, equal to its own stack of one bit for
    bit: GrenierState snapshots every save_every steps, the first and final
    included, or what keep, when given, returns for each (snapshot,
    spectrum) pair as it is saved, the spectrum the loop's own of [a, phi]
    or [a, phi, a1, phi1], lent for that call alone.  The members'
    snapshots at one saved time are views of one stack array.
    The first member to trip a guard, in step order, raises SingularityError
    (phase gradient above its sing_tol) or NonFiniteError (NaN/overflow in
    its datum or at any step, carrying its last good snapshot: None when
    the datum is at fault, as in solve_nls_stack)."""
    return _solve_stack(members, keep, corrector=False)


def solve_limit_stack(members, keep=None):
    """Co-integrate the eps = 0 limit system of each (a0, a1, config)
    member with its corrector, which starts from a1 (zero when a1 is None)
    with zero phase; stacked, guarded and returned as in
    solve_grenier_stack, with the corrector in each snapshot's a1 and
    phi1."""
    return _solve_stack(members, keep, corrector=True)


def reconstruct(a: Field, phi: Field, eps) -> Field:
    """Oscillatory wavefunction a * exp(i phi / eps), with a resolution
    guard on the result (the phase may oscillate too fast for the grid):
    its spectral tail fraction must not exceed 1e-6.  a and phi may be
    stacks of fields (a trajectory's, times first): the guard then checks
    every field of the result and raises at the first that fails."""
    if not eps > 0:
        raise ValueError(f"reconstruction requires eps > 0, got {eps!r}")
    _require_real_phase(phi, "phase field")
    out = Field(a.grid, a.values * np.exp(1j * phi.values.real / eps))
    ResolutionError.check(tail_fraction(out), 1e-6, "in the reconstructed wavefunction")
    return out


def wkb_energy(state: GrenierState, grad_a, grad_phi) -> float:
    """Wavefunction energy in phase-amplitude variables:

        int |eps grad a + i a grad phi|^2 + int |a|^4,

    which equals the semiclassical energy of a e^{i phi/eps} for eps > 0
    and its eps -> 0 limit for the limit system, from the gradient
    components of a and of phi.  The terms add up in one real buffer; each
    component's eps grad a + i a grad phi is built part by part, with the
    bits of that complex expression for finite fields."""
    a = state.a.values
    term = np.empty_like(a)
    scratch = np.empty(a.shape)
    density = np.zeros(a.shape)
    for ga, gp in zip(grad_a, grad_phi):
        gp = gp.real
        # real part eps Re(grad a) - Im(a) grad phi, imaginary part
        # eps Im(grad a) + Re(a) grad phi
        np.multiply(ga.real, state.eps, out=term.real)
        term.real -= np.multiply(a.imag, gp, out=scratch)
        np.multiply(ga.imag, state.eps, out=term.imag)
        term.imag += np.multiply(a.real, gp, out=scratch)
        np.square(np.abs(term, out=scratch), out=scratch)
        density += scratch
    np.abs(a, out=scratch)
    scratch **= 4
    density += scratch
    return float(np.sum(density) * state.a.grid.quad_weight)
