import concurrent.futures
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from scnls import grid as sg
from scnls import studies


@pytest.fixture(scope="session")
def grid_1d():
    """Canonical 1-D grid: [-12, 12), 256 points."""
    return sg.make_grid(1, 12.0, 256)


@pytest.fixture(scope="session")
def gaussian_1d(grid_1d):
    """The canonical datum exp(-x^2)."""
    return sg.make_gaussian(grid_1d)


def random_field(grid, seed, scale=1.0, smooth_width=5):
    """Band-limited random field: smooth enough to be resolved, reproducible."""
    rng = np.random.default_rng(seed)
    spec = np.zeros(grid.shape, dtype=np.complex128)
    n = grid.points_per_axis
    idx = np.arange(-smooth_width, smooth_width + 1) % n
    mesh = np.meshgrid(*(idx,) * grid.dim, indexing="ij")
    vals = rng.normal(size=mesh[0].shape) + 1j * rng.normal(size=mesh[0].shape)
    spec[tuple(mesh)] = vals
    out = np.fft.ifftn(spec) * grid.num_points
    peak = np.abs(out).max()
    return sg.Field(grid, out * (scale / peak), sg.PHYSICAL)


def ref_symbols(grid):
    """Derivative symbols over the full grid, rebuilt from the per-axis
    wavenumbers: i*kappa_m for each axis m, its unpaired Nyquist mode
    zeroed, then the Laplacian's -|kappa|^2."""
    ks = []
    for k in grid.k_axes:
        k = k.copy()
        k[grid.points_per_axis // 2] = 0.0
        ks.append(k)
    grads = [1j * k for k in np.meshgrid(*ks, indexing="ij")]
    return grads, -sum(k**2 for k in np.meshgrid(*grid.k_axes, indexing="ij"))


def ref_gradient(grid, values=None, spectrum=None):
    """The spectral gradient components of values, one FFT pair each, or of
    the field whose transform is spectrum, one inverse FFT each."""
    vhat = np.fft.fftn(values) if spectrum is None else spectrum
    return [np.fft.ifftn(m * vhat) for m in ref_symbols(grid)[0]]


def kept_modes(grid):
    """The two-thirds rule axis by axis: True on the modes with
    |k| <= (2/3) max|k| on every axis."""
    k = np.abs(grid.k_axes[0])
    kept = np.meshgrid(*(k <= (2.0 / 3.0) * k.max(),) * grid.dim, indexing="ij")
    return np.logical_and.reduce(kept)


class FftCounts(dict):
    """Transforms per direction ("forward", "inverse"); .rows holds the
    transformed rows per direction, the product of the axes a transform
    leaves alone (1 for one field over every grid axis)."""

    def __init__(self, names):
        super().__init__((name, 0) for name in names)
        self.rows = dict.fromkeys(names, 0)


def count_ffts(monkeypatch):
    """Count forward and inverse transforms, and their rows, from here to the
    end of the test: the calls of grid._transform, which every transform of
    the package runs through (only grid.py reaches numpy.fft; see test_api).
    A 2-D or 3-D transform counts once, however many line passes and bands
    it runs in."""
    counts = FftCounts(("forward", "inverse"))
    transform = sg._transform

    def counting(fn, a, dim, *args, **kwargs):
        direction = "inverse" if fn is np.fft.ifft else "forward"
        counts[direction] += 1
        counts.rows[direction] += math.prod(np.shape(a)[:-dim])
        return transform(fn, a, dim, *args, **kwargs)

    monkeypatch.setattr(sg, "_transform", counting)
    return counts


@pytest.fixture(params=[1, 2, 3, 5])
def bands(request, monkeypatch):
    """Band count of a 2-D/3-D transform pass forced to the parameter, on
    arrays of any size, whatever CPUs the host has."""
    monkeypatch.setattr(sg, "_CPUS", request.param)
    monkeypatch.setattr(sg, "_SPLIT_POINTS", 0)
    monkeypatch.setattr(sg, "_BAND_LINES", 1)
    return request.param


def traced_peak(call):
    """tracemalloc's peak, in bytes, over one call of call(): what the call
    allocates at its worst, less what it frees on the way.  numpy imports
    numpy.fft on first use, and grid imports concurrent.futures' thread pool
    when it first splits a transform into bands; both are imported here
    first, so that a peak measures the call and not those imports."""
    np.fft.fft, concurrent.futures.ThreadPoolExecutor
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def bit_identical(x, y):
    """x and y hold the same bits: arrays by bytes, dataclasses field by
    field, lists and tuples item by item, anything else by ==.  A Grid is
    compared by ==, on its three fields, not by its __dict__, which also
    holds whatever caches it has built."""
    if x is y:
        return True
    if isinstance(x, sg.Grid):
        return x == y
    if isinstance(x, np.ndarray):
        return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
    if isinstance(x, (list, tuple)):
        return len(x) == len(y) and all(bit_identical(a, b) for a, b in zip(x, y))
    if dataclasses.is_dataclass(x):
        return type(x) is type(y) and bit_identical(list(vars(x).values()), list(vars(y).values()))
    return x == y


def alone(run):
    """The trajectory of the studies.Run run, from a stack of one."""
    return studies.solve_runs([run])[0]
