import dataclasses
import inspect
import math

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


class FftCounts(dict):
    """Calls per transform direction ("forward", "inverse"); .rows holds the
    transformed rows per direction, the product of the axes a call does not
    transform (1 for a call that transforms every axis)."""

    def __init__(self, names):
        super().__init__((name, 0) for name in names)
        self.rows = dict.fromkeys(names, 0)


FFT_ENTRY_POINTS = {"forward": ("fft", "fftn"), "inverse": ("ifft", "ifftn")}


def count_ffts(monkeypatch):
    """Count forward (np.fft.fft, fftn) and inverse (ifft, ifftn) calls and
    rows from here to the end of the test."""
    counts = FftCounts(FFT_ENTRY_POINTS)

    def counting(direction, fn):
        signature = inspect.signature(fn)

        def wrapped(*args, **kwargs):
            bound = signature.bind(*args, **kwargs).arguments
            shape = np.shape(bound["a"])
            axes = [bound.get("axis", -1)] if "axis" in signature.parameters else bound.get("axes")
            done = range(len(shape)) if axes is None else {ax % len(shape) for ax in axes}
            counts[direction] += 1
            counts.rows[direction] += math.prod(n for ax, n in enumerate(shape) if ax not in done)
            return fn(*args, **kwargs)
        return wrapped

    for direction, names in FFT_ENTRY_POINTS.items():
        for name in names:
            monkeypatch.setattr(np.fft, name, counting(direction, getattr(np.fft, name)))
    return counts


def bit_identical(x, y):
    """x and y hold the same bits: arrays by bytes, dataclasses field by
    field, lists and tuples item by item, anything else by ==."""
    if x is y:
        return True
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
