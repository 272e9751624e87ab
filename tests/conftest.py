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


def count_ffts(monkeypatch):
    """Count np.fft.fftn / ifftn calls from here to the end of the test."""
    counts = {"fftn": 0, "ifftn": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for name in counts:
        monkeypatch.setattr(np.fft, name, counting(name, getattr(np.fft, name)))
    return counts
