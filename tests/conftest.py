import math

import numpy as np
import pytest

from scnls import grid as sg


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
    """Calls per transform name; .rows holds the transformed rows per name,
    the product of the axes a call does not transform (1 for a call that
    transforms every axis)."""

    def __init__(self, names):
        super().__init__((name, 0) for name in names)
        self.rows = dict.fromkeys(names, 0)


def count_ffts(monkeypatch):
    """Count np.fft.fftn / ifftn calls and rows from here to the end of the test."""
    counts = FftCounts(("fftn", "ifftn"))

    def counting(name, fn):
        def wrapped(a, s=None, axes=None, *args, **kwargs):
            shape = np.shape(a)
            done = range(len(shape)) if axes is None else {ax % len(shape) for ax in axes}
            counts[name] += 1
            counts.rows[name] += math.prod(n for ax, n in enumerate(shape) if ax not in done)
            return fn(a, s, axes, *args, **kwargs)
        return wrapped

    for name in counts:
        monkeypatch.setattr(np.fft, name, counting(name, getattr(np.fft, name)))
    return counts
