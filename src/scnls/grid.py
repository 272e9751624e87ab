"""Periodic spectral grid: transforms, derivatives, and Sobolev norms.

Conventions (fixed once, used everywhere):

* Domain is [-L, L)^n sampled at N points per axis, dx = 2L/N.
* Wavenumbers per axis are kappa_m = pi*m/L for m in [-N/2, N/2),
  stored in FFT order.
* A spectrum is numpy's unnormalised DFT over the grid axes,
  fhat(k) = sum_j f(x_j) e^{-ik(x_j + L)}, and inverse_transform is
  numpy's inverse DFT: no scale and no phase is applied either way.
* Parseval then reads  int |f|^2 dx = sum_k |fhat(k)|^2 * mu  with
  mu = (dx/N)^n, the one weight a Sobolev norm applies to its weighted
  spectral sum.
* A norm, a mass or a tail fraction sums over slabs of the grid's first
  axis, building each slab's weight from the per-axis wavenumbers, so
  neither it nor the grid holds a whole-grid weight or |f|^2 array (see
  _power_sum).
* Every reduction, norms, masses, tail fractions, gradient_max,
  spectral_extent and boundary_max, acts per field of a stack (leading
  axes before the grid axes): a float for one field, an array over the
  leading axes for a stack, each entry with the bits of its field alone.
* Every spectral derivative comes from _derivatives: a gradient
  component is one product with the per-axis factor i*kappa
  (Grid.gradient_factors), minus the Laplacian one with k_squared.
"""

from __future__ import annotations

import contextvars
import csv
import functools
import itertools
import json
import math
import os
import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Memory budget: complex128 fields of this size are ~0.5 GiB.
MAX_POINTS = 2**25

# Boundary decay tolerance for constructed data; periodization error
# below this is negligible against all solver tolerances.
DECAY_TOL = 1e-12

PHYSICAL = "physical"
SPECTRAL = "spectral"


def _frozen(arr):
    """Mark a cached array read-only, so that every holder of the grid can
    share it safely."""
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Grid:
    """Precomputed spectral machinery for [-L, L)^n, immutable and shareable.

    Its cached arrays are read-only; make_grid hands out one Grid per
    (dim, half_width, points_per_axis) while any holder keeps it alive.
    Each is one vector per axis, save k_squared, the Laplacian's symbol:
    a norm builds its weight slab by slab, and the two-thirds rule is the
    index boxes tail_boxes, not a mask."""

    dim: int
    half_width: float
    points_per_axis: int

    @property
    def spacing(self):
        return 2.0 * self.half_width / self.points_per_axis

    @property
    def shape(self):
        return (self.points_per_axis,) * self.dim

    @property
    def num_points(self):
        return self.points_per_axis**self.dim

    @property
    def k_max(self):
        """Nyquist magnitude pi*N/(2L) per axis."""
        return np.pi * self.points_per_axis / (2.0 * self.half_width)

    @property
    def quad_weight(self):
        """dx^n, the physical-space quadrature weight."""
        return self.spacing**self.dim

    @property
    def parseval_weight(self):
        """dx^n / N^n, the spectral quadrature weight mu: int |f|^2 dx is
        mu times the sum of |fhat|^2 over the unnormalised DFT."""
        return self.quad_weight / self.num_points

    @cached_property
    def x_axes(self):
        x = -self.half_width + self.spacing * np.arange(self.points_per_axis)
        return (_frozen(x),) * self.dim

    @cached_property
    def k_axes(self):
        k = 2.0 * np.pi * np.fft.fftfreq(self.points_per_axis, d=self.spacing)
        return (_frozen(k),) * self.dim

    def axis_view(self, arr, axis):
        """Reshape a per-axis 1-D array for broadcasting over the grid."""
        shp = [1] * self.dim
        shp[axis] = self.points_per_axis
        return arr.reshape(shp)

    @cached_property
    def gradient_factors(self):
        """i*kappa per axis, FFT order, with the unpaired Nyquist mode
        zeroed, each shaped by axis_view: the product of a spectrum with
        factor m is its derivative along axis m."""
        k = self.k_axes[0].copy()
        k[self.points_per_axis // 2] = 0.0
        ik = _frozen(1j * k)
        return tuple(self.axis_view(ik, ax) for ax in range(self.dim))

    @cached_property
    def k_squared(self):
        """|kappa|^2 over the full grid, FFT order: minus the Laplacian's
        symbol, the one whole-grid array the phase-amplitude derivatives
        read. Norms build it slab by slab instead."""
        out = np.zeros(self.shape)
        for ax in range(self.dim):
            out += self.axis_view(self.k_axes[ax] ** 2, ax)
        return _frozen(out)

    @cached_property
    def tail_boxes(self):
        """Disjoint index boxes covering exactly the modes the two-thirds
        rule drops, |k| > (2/3) max|k| on some axis. Per axis those are one
        contiguous band in FFT order; box j takes that band on axis j, the
        kept modes on the axes before it and every mode on the axes after it."""
        k = np.abs(self.k_axes[0])
        dropped = np.flatnonzero(k > (2.0 / 3.0) * k.max())
        band = slice(dropped[0], dropped[-1] + 1)
        kept = (slice(0, band.start), slice(band.stop, None))
        return tuple(
            head + (band,) + (slice(None),) * (self.dim - 1 - axis)
            for axis in range(self.dim)
            for head in itertools.product(kept, repeat=axis)
        )


_GRIDS = weakref.WeakValueDictionary()


def make_grid(dim, half_width, points_per_axis):
    """The Grid for [-L, L)^dim with N points per axis, shared with every
    other live caller that asked for the same one.

    N must be a power of two >= 8 so that dx*N == 2L holds exactly in
    binary floating point.
    """
    if not isinstance(dim, (int, np.integer)) or not 1 <= dim <= 3:
        raise ValueError(f"dim must be an integer in [1, 3], got {dim!r}")
    if not half_width > 0:
        raise ValueError(f"half_width must be positive, got {half_width!r}")
    n = int(points_per_axis)
    if n != points_per_axis or n < 8 or n & (n - 1) != 0:
        raise ValueError(
            f"points_per_axis must be a power of two >= 8, got {points_per_axis!r}"
        )
    if n**dim > MAX_POINTS:
        raise ValueError(
            f"grid of {n}^{dim} = {n**dim} points exceeds the memory budget of "
            f"{MAX_POINTS} points"
        )
    key = (int(dim), float(half_width), n)
    return _GRIDS.setdefault(key, Grid(*key))


@dataclass
class Field:
    """Complex samples on a Grid, tagged physical or spectral: one field of
    the grid's shape, or a stack of fields, leading axes before the grid
    axes.  transform, inverse_transform, resample and the reductions take
    either; on a stack they act per field, with the bits of that field
    alone (see the conventions above)."""

    grid: Grid
    values: np.ndarray
    space: str = PHYSICAL

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.shape[self.values.ndim - self.grid.dim:] != self.grid.shape:
            raise ValueError(
                f"values shape {self.values.shape} does not match grid {self.grid.shape}"
            )
        if self.space not in (PHYSICAL, SPECTRAL):
            raise ValueError(f"unknown space tag {self.space!r}")

    def copy(self):
        return Field(self.grid, self.values.copy(), self.space)


# Each axis pass of a 2-D/3-D transform splits its lines into one band per
# CPU the process may run on, bands of at least _BAND_LINES lines on arrays
# of at least _SPLIT_POINTS points: a band's dispatch costs some 50-100 us.
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_SPLIT_POINTS = 2**16
_BAND_LINES = 16
_POOL = None  # the band threads, started on first use
if hasattr(os, "register_at_fork"):  # a forked child has none of the pool's threads
    os.register_at_fork(after_in_child=lambda: globals().update(_POOL=None))


def _split(task, arr, axis):
    """task(index) for the index of each band of arr along axis (negative;
    None keeps arr whole), band 0 on the calling thread and the others on
    the pool in a copy of the caller's context, so its np.errstate holds.
    A band's error is raised once every band has finished."""
    global _POOL
    lines = 1 if axis is None else arr.shape[axis]
    bands = min(_CPUS, lines // _BAND_LINES) if arr.size >= _SPLIT_POINTS else 1
    if bands <= 1:
        return task((...,))
    if _POOL is None:
        from concurrent.futures import ThreadPoolExecutor
        _POOL = ThreadPoolExecutor(max(1, _CPUS - 1), thread_name_prefix="scnls-band")
    index = [(..., slice(lines * b // bands, lines * (b + 1) // bands)) + (slice(None),) * (-1 - axis)
             for b in range(bands)]
    share = max(16, np.getbufsize() // bands // 16 * 16)

    def run(band):  # the bands' ufunc buffers together take numpy's one
        with np.errstate():
            np.setbufsize(share)
            task(band)

    futures = [_POOL.submit(contextvars.copy_context().run, run, band) for band in index[1:]]
    try:
        run(index[0])
    finally:
        for future in futures:
            future.exception()  # waits for the band
    for future in futures:
        future.result()


def _transform(fn, a, dim, out=None, first=None):
    """fn (np.fft.fft or ifft) over the last dim axes of a into out (new
    when None, or a itself), with fftn's bits: the axis passes run in its
    order, last axis first, their lines split along another grid axis
    (_split), and a line's transform has the same bits whatever its stride
    and whichever lines share its call.  first(index), when given, runs on
    each band of the first pass before that band transforms."""
    if out is None:
        out = np.empty(a.shape, dtype=np.complex128)

    def band(index, src, ax):
        if first is not None and ax == -1:
            first(index)
        fn(src[index], axis=ax, out=out[index])

    for ax in range(-1, -dim - 1, -1):
        split = None if dim == 1 else -dim if ax != -dim else 1 - dim
        _split(functools.partial(band, src=a if ax == -1 else out, ax=ax), out, split)
    return out


def _fft(a, dim, out=None):
    """np.fft.fftn over the last dim axes, allocating its result once."""
    return _transform(np.fft.fft, a, dim, out)


def _ifft(a, dim, out=None, first=None):
    """The inverse of _fft; first as in _transform."""
    return _transform(np.fft.ifft, a, dim, out, first)


def _require_space(f, space, op):
    if f.space != space:
        raise ValueError(f"{op} expects a {space}-space field, got {f.space}")


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


def transform(f: Field) -> Field:
    """Physical -> spectral: the unnormalised DFT over the grid axes."""
    _require_space(f, PHYSICAL, "transform")
    return Field(f.grid, _fft(f.values, f.grid.dim), SPECTRAL)


def inverse_transform(f: Field) -> Field:
    """Spectral -> physical, inverse of transform."""
    _require_space(f, SPECTRAL, "inverse_transform")
    return Field(f.grid, _ifft(f.values, f.grid.dim), PHYSICAL)


@dataclass(frozen=True)
class SobolevIndex:
    """Selects the spectral weight: L2 (s=0), H^s, homogeneous H^s, or
    the eps-scaled H^s_eps with weight (1 + |eps*k|^2)^s."""

    s: float = 0.0
    homogeneous: bool = False
    eps_scaled: float | None = None

    def __post_init__(self):
        if not np.isfinite(self.s) or self.s < 0:
            raise ValueError(f"Sobolev order s must be finite and >= 0, got {self.s!r}")
        if self.eps_scaled is not None:
            if not 0 < self.eps_scaled <= 1:
                raise ValueError(f"eps must lie in (0, 1], got {self.eps_scaled!r}")
            if self.homogeneous:
                raise ValueError("eps-scaled homogeneous norm is not defined")

    def weight(self, k_squared):
        """The weight over k_squared in one new array, or k_squared itself
        for the homogeneous order 1 (the energy's), since k**1 is k."""
        if self.homogeneous:
            # 0^0 == 1 makes s = 0 coincide with L2, as it should.
            return k_squared if self.s == 1 else k_squared**self.s
        w = (self.eps_scaled or 1.0) ** 2 * k_squared  # unscaled: 1.0 * k is k
        w += 1.0
        w **= self.s
        return w


# A reduction over an n-D grid runs over at most this many slabs of its
# first axis, each of at least numpy's pairwise-summation block.
_MAX_SLABS = 16
_PAIRWISE_BLOCK = 128


def _slab_rows(grid):
    """Rows of the first axis in each slab a reduction sums over.

    A 1-D grid, or one too small to split, is one slab. Otherwise the grid
    splits into a power-of-two number (at most _MAX_SLABS) of equal slabs
    of at least _PAIRWISE_BLOCK points."""
    if grid.dim == 1:
        return grid.points_per_axis
    return grid.points_per_axis // max(1, min(_MAX_SLABS, grid.num_points // _PAIRWISE_BLOCK))


def _tree_sum(sums):
    """The slab sums added as a balanced binary tree. numpy sums a
    contiguous float array pairwise, halving it down to blocks of
    _PAIRWISE_BLOCK; on _slab_rows' power-of-two sizes the tree is that
    order, so the result has the bits of np.sum over the whole grid."""
    while len(sums) > 1:
        sums = [a + b for a, b in zip(sums[::2], sums[1::2])]
    return sums[0]


def _slab(grid, lo, rows):
    """Index of rows lo, ..., lo + rows - 1 of the grid's first axis, across
    any leading axes."""
    return (..., slice(lo, lo + rows)) + (slice(None),) * (grid.dim - 1)


def _grid_sum(grid, arr):
    """arr summed over its grid axes: per field of a stack, pairwise over
    each field's contiguous values, so each sum has the bits of that
    field's own np.sum."""
    return arr.sum(axis=tuple(range(-grid.dim, 0)))


def _power_sum(grid, values, p=2, index=None):
    """sum |values|^p over the grid, each term times index.weight(|k|^2)
    when index is given, for values of grid's shape in C order, or per
    field of a stack of them (an array over its leading axes).

    The sum runs slab by slab along the first axis (_slab_rows), so no
    temporary spans the grid, and has the bits of np.sum (_tree_sum).
    """
    if index is not None and index.s == 0:
        index = None  # every weight of order 0 is identically 1
    elif index is not None:
        # the largest weight, at the Nyquist mode on every axis, in Python
        # floats, which raise where numpy would warn of the overflow
        k2 = grid.dim * float(grid.k_axes[0][grid.points_per_axis // 2]) ** 2
        try:
            index.weight(k2)
        except OverflowError:
            raise _overflow(grid, index, "the weight", f" at |k|^2 = {k2:.6g}") from None
    rows = _slab_rows(grid)

    def total():
        return _tree_sum([_slab_power_sum(grid, values[_slab(grid, lo, rows)], lo, p, index)
                          for lo in range(0, grid.points_per_axis, rows)])

    if index is None:
        return total()
    try:  # a finite weight can still take a finite power past the largest float
        with np.errstate(over="raise"):
            return total()
    except FloatingPointError:
        raise _overflow(grid, index, "the weighted power") from None


def _overflow(grid, index, what, where=""):
    """The ValueError for what, of index's order, overflowing on grid."""
    return ValueError(f"{what} of Sobolev order s = {index.s:g} overflows{where} on the "
                      f"{grid.points_per_axis}^{grid.dim} grid of half-width {grid.half_width:g}")


def _per_field(out):
    """out, a reduction's numbers, one per field: a float for one field
    (out is 0-d), else the array over a stack's leading axes."""
    return float(out) if np.ndim(out) == 0 else out


def _scalar_map(fn, *values):
    """fn over the per-field numbers of values (each a float, or an array
    over a stack's leading axes), in Python floats: a power then has the
    bits of one field's own, which numpy's vector pow need not give."""
    if np.ndim(values[0]) == 0:
        return fn(*values)
    rows = zip(*(np.ravel(v).tolist() for v in values))
    return np.reshape([fn(*row) for row in rows], np.shape(values[0]))


def _slab_power_sum(grid, slab, lo, p, index):
    """_power_sum over the slab of rows lo, lo + 1, ... of the first axis.
    Its |k|^2 is (0 + kx^2) + ky^2 (+ kz^2) there, Grid.k_squared's bits."""
    power = np.abs(slab)
    if p in (2, 4):  # squarings in place beat pow
        np.square(power, out=power)
        if p == 4:
            np.square(power, out=power)
    else:
        power **= p
    if index is not None:
        rows = slab.shape[-grid.dim]
        k2 = (grid.k_axes[0][lo:lo + rows] ** 2).reshape((-1,) + (1,) * (grid.dim - 1))
        for ax in range(1, grid.dim):
            k2 = k2 + grid.axis_view(grid.k_axes[ax] ** 2, ax)
        power *= index.weight(k2)
    return _grid_sum(grid, power)


def norm(f: Field, index: SobolevIndex = SobolevIndex()):
    """Exact spectral evaluation of the selected Sobolev norm, per field."""
    if f.space == PHYSICAL:
        f = transform(f)
    g = f.grid
    return _per_field(np.sqrt(_power_sum(g, f.values, index=index) * g.parseval_weight))


def lp_norm(f: Field, p: float):
    """Physical-space L^p norm by dx^n quadrature (used for quartic
    energies), per field."""
    _require_space(f, PHYSICAL, "lp_norm")
    g = f.grid
    return _per_field(_scalar_map(lambda total: total ** (1.0 / p),
                                  _power_sum(g, f.values, p) * g.quad_weight))


def make_gaussian(grid, amplitude=1.0, width=1.0, center=0.0):
    """Canonical smooth rapidly-decaying datum: amplitude * exp(-|x-c|^2/w^2).

    Rejects a centre outside the box [-L, L) on some axis, a width whose
    square leaves the floats, and combinations whose boundary samples
    exceed DECAY_TOL * amplitude, since then the periodic domain is too
    small to stand in for free space.
    """
    try:
        w2 = float(width) ** 2
    except OverflowError:
        w2 = math.inf
    if not (width > 0 and 0 < w2 < math.inf):
        raise ValueError(f"width must be positive with a square in (0, inf), got {width!r}")
    centers = np.broadcast_to(np.atleast_1d(np.asarray(center, dtype=float)), (grid.dim,))
    L = grid.half_width
    if not all(-L <= c < L for c in centers):
        raise ValueError(f"center {center!r} lies outside the box [-{L:g}, {L:g}) on some axis")
    # r^2, the exponent and the datum are built in place in the real part
    # of the output: one field, where out-of-place steps peak at two
    vals = np.zeros(grid.shape, dtype=np.complex128)
    r2 = vals.real
    with np.errstate(over="ignore"):  # an r^2 past the floats is inf: the datum is 0 there
        for ax in range(grid.dim):
            r2 += grid.axis_view((grid.x_axes[ax] - centers[ax]) ** 2, ax)
        np.negative(r2, out=r2)
        r2 /= w2
    np.exp(r2, out=r2)
    r2 *= amplitude
    f = Field(grid, vals, PHYSICAL)
    check_boundary_decay(f, tol=abs(amplitude) * DECAY_TOL)
    return f


def boundary_max(f: Field):
    """Largest |value| on the outermost shell of grid points, the first
    and last sample along each axis, per field."""
    axes = tuple(range(-f.grid.dim, 0))
    return _per_field(functools.reduce(np.maximum, (
        np.abs(np.take(f.values, [0, -1], axis=ax)).max(axis=axes) for ax in axes)))


def check_boundary_decay(f: Field, tol):
    """Raise for the first field of f whose boundary_max exceeds tol, a
    bound for every field or one per field."""
    for b, bound in np.broadcast(boundary_max(f), tol):
        if b > bound:
            raise ValueError(f"boundary decay check failed: max boundary sample {b:.3e} > "
                             f"{bound:.3e}; the domain is too small for this datum")


def tail_fraction(f: Field):
    """Fraction of spectral mass above the two-thirds cutoff (resolution
    guard), per field; 0 for a zero field.

    It runs over _power_sum's slabs, so no |fhat|^2 array spans the grid:
    each slab adds its part of every tail box to the tail, and its whole
    sum to the total, which keeps _power_sum's bits."""
    if f.space == PHYSICAL:
        f = transform(f)
    g = f.grid
    n, rows = g.points_per_axis, _slab_rows(g)
    sums, tail = [], 0.0
    for lo in range(0, n, rows):
        power = np.abs(f.values[_slab(g, lo, rows)])
        np.square(power, out=power)
        sums.append(_grid_sum(g, power))
        for box in g.tail_boxes:
            first = range(n)[box[0]]  # the box's rows, clipped to the slab below
            start, stop = (min(max(r, lo), lo + rows) - lo for r in (first.start, first.stop))
            tail += _grid_sum(g, power[(..., slice(start, stop)) + box[1:]])
    total = _tree_sum(sums)
    # a zero field has a zero tail: 0 / 1
    return _per_field(tail / np.where(total == 0.0, 1.0, total))


def gradient_max(grid, values):
    """Largest |d f / d x_j| over the grid and the axes j, per field f of
    values (physical samples, grid axes last: one field or a stack), by
    spectral differentiation: one transform of the stack and one batched
    inverse of its gradients."""
    grad = np.abs(gradients(grid, _fft(values, grid.dim)))
    return _per_field(grad.max(axis=(0, *range(-grid.dim, 0))))


def spectral_extent(grid, values, tol):
    """The smallest K such that, in each field f of values (as gradient_max
    reads them), the modes with |k_j| > K on some axis j hold at most tol of
    f's power: the per-axis cut that a tail guard of tolerance tol would need
    in place of the two-thirds rule's, per field; 0 for a zero field."""
    power = np.abs(_fft(values, grid.dim)).reshape(-1, grid.num_points) ** 2
    k = np.abs(grid.k_axes[0])
    # max_j |k_j| over the grid, the norm whose balls the tail boxes cut
    box = functools.reduce(np.maximum, (grid.axis_view(k, ax) for ax in range(grid.dim)))
    levels, level = np.unique(box, return_inverse=True)
    # each field's power per level: one bincount, its bins offset per field
    fields, width = len(power), len(levels)
    bins = level.ravel() + width * np.arange(fields).reshape(-1, 1)
    power = np.bincount(bins.ravel(), power.ravel(), fields * width).reshape(fields, width)
    # beyond[:, i]: the power above levels[i], summed from the top (all 0 for a zero field)
    beyond = np.zeros_like(power)
    beyond[:, :-1] = np.cumsum(power[:, :0:-1], axis=1)[:, ::-1]
    cut = np.argmax(beyond <= tol * power.sum(axis=1).reshape(-1, 1), axis=1)
    return _per_field(levels[cut].reshape(np.shape(values)[:-grid.dim]))


def resample(f: Field, points_per_axis) -> Field:
    """Trigonometric interpolation onto a grid with a different N, per field.

    Modes are matched by wavenumber. Both grids start at x = -L, so a
    mode's DFT coefficient carries over times (N_new / N_old)^dim, an exact
    power of two. New modes are zero; dropped modes must be empty for the
    result to be exact, so only use this on resolved fields.
    """
    g = f.grid
    spectrum = f.values if f.space == SPECTRAL else _fft(f.values, g.dim)
    new_grid = make_grid(g.dim, g.half_width, points_per_axis)
    out = np.zeros(f.values.shape[:-g.dim] + new_grid.shape, dtype=np.complex128)
    n_old, n_new = g.points_per_axis, new_grid.points_per_axis
    half = min(n_old, n_new) // 2
    # the modes -half, ..., half - 1 of an axis are its first and its last
    # half entries in FFT order, on either grid
    for block in itertools.product((slice(0, half), slice(-half, None)), repeat=g.dim):
        block = (...,) + block
        np.multiply(spectrum[block], (n_new / n_old) ** g.dim, out=out[block])
    del spectrum  # a physical field's spectrum goes before its result's inverse transform
    if f.space == PHYSICAL:
        _ifft(out, g.dim, out=out)
    return Field(new_grid, out, f.space)


FIELD_SCHEMA_VERSION = 1


def save_field(f: Field, path_base):
    """Write <base>.json (header) and <base>.csv with (index, re, im) rows."""
    header = {
        "schema_version": FIELD_SCHEMA_VERSION,
        "dim": f.grid.dim,
        "half_width": f.grid.half_width,
        "points_per_axis": f.grid.points_per_axis,
        "space": f.space,
    }
    with open(f"{path_base}.json", "w") as fh:
        json.dump(header, fh, sort_keys=True, indent=2)
        fh.write("\n")
    flat = f.values.reshape(-1)
    with open(f"{path_base}.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["index", "re", "im"])
        for i, v in enumerate(flat):
            w.writerow([i, format(v.real, ".17g"), format(v.imag, ".17g")])


def load_field(path_base) -> Field:
    with open(f"{path_base}.json") as fh:
        header = json.load(fh)
    if header.get("schema_version") != FIELD_SCHEMA_VERSION:
        raise ValueError(f"unsupported field schema version {header.get('schema_version')!r}")
    grid = make_grid(header["dim"], header["half_width"], header["points_per_axis"])
    vals = np.zeros(grid.num_points, dtype=np.complex128)
    seen = np.zeros(grid.num_points, dtype=bool)
    with open(f"{path_base}.csv", newline="") as fh:
        rows = csv.reader(fh)
        next(rows)
        count = 0
        for count, row in enumerate(rows, 1):
            i = int(row[0])
            if not 0 <= i < grid.num_points:
                raise ValueError(f"field dump row {count} has index {i} outside "
                                 f"[0, {grid.num_points})")
            if seen[i]:
                raise ValueError(f"field dump row {count} repeats index {i}")
            seen[i] = True
            vals[i] = float(row[1]) + 1j * float(row[2])
    if count != grid.num_points:
        raise ValueError(f"field dump has {count} rows, expected {grid.num_points}")
    return Field(grid, vals.reshape(grid.shape), header["space"])
