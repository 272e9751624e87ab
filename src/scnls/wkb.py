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
A stage makes 4 batched FFT calls (np.fft.fft/ifft on a 1-D grid), one
pair for every derivative and one to dealias.  Every spectral derivative
comes from _derivatives: each gradient component is one product with the
grid's per-axis factor i*kappa, the Laplacian one with -|kappa|^2.
Dealiasing zeroes the grid's tail boxes, the modes tail_fraction sums.
A stack member equals its own stack of one bit for bit and raises that
stack's guard error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError, ResolutionError, SingularityError
from .grid import (
    PHYSICAL,
    Field,
    _fft,
    _ifft,
    check_boundary_decay,
    gradient_max,
    tail_fraction,
)
from .nls import _RunConfig

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


def default_dt(grid, eps, safety=0.25):
    """RK4 step: transport CFL against the grid plus the imaginary-axis
    stability bound for the dispersive i (eps/2) Lap term."""
    dx = grid.spacing
    kin_rate = 0.5 * eps * grid.k_max**2
    if kin_rate > 0:
        return safety * min(dx, 2.8 / kin_rate)
    return safety * dx


def _derivatives(grid, spectrum, out):
    """The spectral derivatives of spectrum (grid axes last) into out: row m
    along axis m for each axis, then the Laplacian when out has a row more.
    The Laplacian is |kappa|^2 spectrum negated in place, the bits of the
    product with -|kappa|^2."""
    for row, factor in zip(out, grid.gradient_factors):
        np.multiply(factor, spectrum, out=row)
    if len(out) > grid.dim:
        lap = np.multiply(grid.k_squared, spectrum, out=out[grid.dim])
        np.negative(lap, out=lap)
    return out


def gradients(grid, spectra):
    """Gradient components of the fields whose transforms are spectra (one
    field's, or a stack of them), from one batched inverse transform: the
    component axis goes in front of the spectra's axes."""
    out = np.empty((grid.dim,) + spectra.shape, dtype=complex)
    return _ifft(_derivatives(grid, spectra, out), grid.dim, out=out)


class _Rates:
    """d/dt of the stacked state [a, phi] or, with the corrector,
    [a, phi, a1, phi1], each field of shape (members, *grid); the phases
    are real and stored with zero imaginary part.  eps and sing_tol hold
    one value per member."""

    def __init__(self, grid, corrector, eps, sing_tol):
        d = grid.dim
        eps = np.ravel(eps)
        self.grid, self.sing_tol = grid, np.ravel(sing_tol)
        self.kin = np.reshape(0.5j * eps, (-1,) + (1,) * d)
        # gradient and Laplacian rows per field; no term reads Lap(a1)
        sizes = (d + 1, d + 1, d, d + 1) if corrector else (d + 1, d + 1)
        self.deriv = np.empty((sum(sizes), len(eps)) + grid.shape, dtype=complex)
        bounds = np.cumsum((0,) + sizes)
        self.blocks = [self.deriv[lo:hi] for lo, hi in zip(bounds, bounds[1:])]

    def __call__(self, y, t, out):
        """Write the rates of y into out (not y); t holds each member's stage
        time, for the error of the first member to exceed its sing_tol."""
        d = self.grid.dim
        spec = _fft(y, d, out=out)
        for field, block in enumerate(self.blocks):
            _derivatives(self.grid, spec[field], block)
        _ifft(self.deriv, d, out=self.deriv)
        da, dphi, *corr = self.blocks
        grad_a, lap_a = da[:d], da[d]
        grad_phi, lap_phi = dphi[:d].real, dphi[d].real
        gmax = np.abs(grad_phi).max(axis=(0, *range(2, grad_phi.ndim)))
        if (gmax > self.sing_tol).any():
            m = int(np.argmax(gmax > self.sing_tol))
            raise SingularityError(
                f"phase gradient {gmax[m]:.3e} exceeds the singularity threshold "
                f"{self.sing_tol[m]:.3e} at t = {t[m]:.6g}; the run is approaching "
                "the breakdown time", grad_max=gmax[m], t=float(t[m]))
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
        _fft(out, d, out=out)
        for box in self.grid.tail_boxes:
            out[(..., *box)] = 0.0
        _ifft(out, d, out=out)
        out[1::2].imag = 0.0  # the phase rates are real
        out[0] += self.kin * lap_a
        if corr:
            out[2] += 0.5j * lap_a
        return out


def _auto_sing_tol(grid, a_init, horizon):
    # Early-time scale: |grad phi| grows like t * max|grad |a(0)|^2|, so
    # 50x its value at the horizon is far outside regular behaviour.
    rate = gradient_max(grid, np.abs(a_init) ** 2)
    return 50.0 * max(rate * abs(horizon), _SING_RATE_FLOOR)


def _solve_stack(members, keep, corrector):
    """Classical RK4 on the stacked state y of shape (fields, members,
    *grid), in place, with guard checks; one eps and run config per member,
    with one step count and save cadence (each member steps by its config's
    step).  Returns the trajectory of keep(snapshot) per member (keep=None:
    the snapshots); only each member's last snapshot is held, for
    NonFiniteError.  The stage times are diagnostics only.  The stage sums
    keep the order y + (dt/6) (((k1 + 2 k2) + 2 k3) + k4), in place, one
    buffer for k2-k4.
    """
    if not members:
        raise ValueError("a stack needs at least one member")
    if len({member[0].grid for member in members}) > 1:
        raise ValueError("stacked data must share one grid")
    grid = members[0][0].grid
    y = np.zeros((4 if corrector else 2, len(members)) + grid.shape, dtype=complex)
    eps = [0.0 if corrector else member[1] for member in members]
    configs = [member[-1] for member in members]
    for m, (a0, *data, config) in enumerate(members):
        a1 = data[0] if corrector else None
        _check_data(a0, a1, config)
        y[0, m] = a0.values
        if a1 is not None:
            y[2, m] = a1.values
    schedules = {(c.steps, c.save_every) for c in configs}
    if len(schedules) != 1:
        raise ValueError("stacked runs must share their step count and save cadence")
    ((n_steps, save_every),) = schedules
    sing_tol = [c.sing_tol or _auto_sing_tol(grid, y[0, m], c.T) for m, c in enumerate(configs)]
    rates = _Rates(grid, corrector, eps, sing_tol)
    dts = [c.step for c in configs]
    times = np.array(dts)
    dt = times.reshape((-1,) + (1,) * grid.dim)
    keep = keep or (lambda snapshot: snapshot)

    def snapshot(m, t):
        a, phi = Field(grid, y[0, m].copy()), Field(grid, y[1, m].real)
        corr = (Field(grid, y[2, m].copy()), Field(grid, y[3, m].real)) if corrector else ()
        return GrenierState(t, a, phi, eps[m], *corr)

    last = [snapshot(m, 0.0) for m in range(len(members))]
    trajectories = [[keep(state)] for state in last]
    acc, k, stage = (np.empty_like(y) for _ in range(3))
    for step in range(1, n_steps + 1):
        t = (step - 1) * times
        rates(y, t, acc)
        np.multiply(acc, 0.5 * dt, out=stage)
        stage += y
        rates(stage, t + 0.5 * times, k)
        np.multiply(k, 0.5 * dt, out=stage)
        stage += y
        k *= 2
        acc += k
        rates(stage, t + 0.5 * times, k)
        np.multiply(k, dt, out=stage)
        stage += y
        k *= 2
        acc += k
        rates(stage, t + times, k)
        acc += k
        acc *= dt / 6.0
        y += acc
        finite = np.isfinite(y).all(axis=(0, *range(2, y.ndim)))
        if not finite.all():
            m = int(np.argmin(finite))
            raise NonFiniteError.at_step(step, dts[m], last[m])
        if step % save_every == 0 or step == n_steps:
            for m, traj in enumerate(trajectories):
                last[m] = snapshot(m, step * dts[m])
                traj.append(keep(last[m]))
    return trajectories


def _check_data(a0: Field, a1, config):
    if a0.space != PHYSICAL:
        raise ValueError("initial amplitude must be a physical-space field")
    if a1 is not None and a1.space != PHYSICAL:
        raise ValueError("perturbation datum must be a physical-space field")
    if config.enforce_decay:
        check_boundary_decay(a0, tol=max(np.abs(a0.values).max(), 1.0) * 1e-12)
        if a1 is not None:
            check_boundary_decay(a1, tol=max(np.abs(a1.values).max(), 1.0) * 1e-12)


def solve_grenier_stack(members, keep=None):
    """Integrate the phase-amplitude system of each (a0, eps, config)
    member from a(0) = a0, phi(0) = 0, in one RK4 loop; the members share a
    grid, a step count and a save cadence, and each member's dt is its T
    over that count.
    Returns one trajectory per member, equal to its own stack of one bit for
    bit: GrenierState snapshots every save_every steps, the first and final
    included, or what keep, when given, returns for each as it is saved.
    The first member to trip a guard, in step order, raises SingularityError
    (phase gradient above its sing_tol) or NonFiniteError (NaN/overflow,
    carrying its last good snapshot)."""
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
    its spectral tail fraction must not exceed 1e-6."""
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
    components of a and of phi."""
    density = sum(
        np.abs(state.eps * ga + 1j * state.a.values * gp.real) ** 2
        for ga, gp in zip(grad_a, grad_phi)
    )
    quart = np.abs(state.a.values) ** 4
    return float(np.sum(density + quart) * state.a.grid.quad_weight)
