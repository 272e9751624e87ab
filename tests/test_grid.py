import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad

from scnls import grid as sg
from scnls import nls, wkb
from scnls.errors import ResolutionError
from scnls.grid import SobolevIndex, make_grid, norm

from conftest import (
    bit_identical, count_ffts, kept_modes, random_field, ref_gradient, traced_peak,
)


def derivatives(f):
    """Spectral gradient of the trigonometric interpolant, one Field per
    axis, then its Laplacian, from the package's one derivative routine
    (whose last row is minus the Laplacian)."""
    g = f.grid
    out = np.empty((g.dim + 1,) + g.shape, dtype=complex)
    sg._derivatives(g, np.fft.fftn(f.values), out)
    np.negative(out[g.dim], out=out[g.dim])
    return [sg.Field(g, d) for d in np.fft.ifftn(out, axes=range(1, g.dim + 1))]


def mesh(g):
    """The coordinate arrays of every grid point, one per axis."""
    return np.meshgrid(*g.x_axes, indexing="ij")


class TestMakeGrid:
    def test_unit_wavenumbers_on_pi_domain(self):
        g = make_grid(1, np.pi, 8)
        assert g.spacing == pytest.approx(np.pi / 4)
        assert sorted(np.rint(g.k_axes[0]).astype(int)) == list(range(-4, 4))
        assert_allclose(np.sort(g.k_axes[0]), np.arange(-4, 4), atol=1e-14)

    def test_wavenumber_spacing_half(self):
        g = make_grid(1, 2 * np.pi, 16)
        k = np.sort(g.k_axes[0])
        assert_allclose(np.diff(k), 0.5, atol=1e-14)

    def test_3d_grid(self):
        g = make_grid(3, 8.0, 64)
        assert g.num_points == 64**3
        assert g.spacing == pytest.approx(0.25)

    def test_spacing_times_points_exact(self):
        for n in (8, 64, 1024):
            g = make_grid(1, 12.0, n)
            assert g.spacing * g.points_per_axis == 2 * g.half_width

    def test_wavenumbers_symmetric_up_to_nyquist(self):
        g = make_grid(1, 3.0, 32)
        k = g.k_axes[0]
        nyquist = k[len(k) // 2]
        rest = np.delete(k, len(k) // 2)
        assert set(np.round(rest, 12)) == set(np.round(-rest, 12))
        assert nyquist == pytest.approx(-g.k_max)

    @pytest.mark.parametrize(
        "args",
        [(1, 12.0, 12), (1, 12.0, 4), (1, -1.0, 16), (0, 12.0, 16), (4, 12.0, 16)],
    )
    def test_rejects_bad_parameters(self, args):
        with pytest.raises(ValueError):
            make_grid(*args)

    def test_memory_budget_guard(self):
        with pytest.raises(ValueError, match="memory budget"):
            make_grid(3, 1.0, 512)


class TestTransforms:
    def test_constant_spectrum_at_zero_only(self, grid_1d):
        f = sg.Field(grid_1d, np.full(grid_1d.shape, 2.5 + 0j))
        fhat = sg.transform(f)
        nonzero = np.abs(fhat.values) > 1e-10
        assert nonzero.sum() == 1
        assert np.abs(fhat.values[0]) == pytest.approx(2.5 * grid_1d.points_per_axis)

    def test_plane_wave_single_mode(self):
        g = make_grid(1, np.pi, 32)
        k0 = 3.0
        f = sg.Field(g, np.exp(1j * k0 * g.x_axes[0]))
        fhat = sg.transform(f)
        hit = np.argmin(np.abs(g.k_axes[0] - k0))
        others = np.delete(np.abs(fhat.values), hit)
        assert np.abs(fhat.values[hit]) == pytest.approx(g.points_per_axis, rel=1e-12)
        assert others.max() < 1e-10

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_round_trip(self, grid_1d, seed):
        f = random_field(grid_1d, seed)
        back = sg.inverse_transform(sg.transform(f))
        assert np.abs(back.values - f.values).max() <= 1e-12 * np.abs(f.values).max()

    def test_round_trip_3d(self):
        g = make_grid(3, 4.0, 16)
        f = random_field(g, 7, smooth_width=3)
        back = sg.inverse_transform(sg.transform(f))
        assert np.abs(back.values - f.values).max() <= 1e-12 * np.abs(f.values).max()

    def test_wrong_space_tag_rejected(self, grid_1d):
        f = sg.Field(grid_1d, np.zeros(grid_1d.shape), sg.SPECTRAL)
        with pytest.raises(ValueError, match="physical"):
            sg.transform(f)
        p = sg.Field(grid_1d, np.zeros(grid_1d.shape), sg.PHYSICAL)
        with pytest.raises(ValueError, match="spectral"):
            sg.inverse_transform(p)


class TestDerivatives:
    def test_gradient_of_constant_is_zero(self, grid_1d):
        f = sg.Field(grid_1d, np.full(grid_1d.shape, 1.7 + 0.3j))
        df, _ = derivatives(f)
        assert np.abs(df.values).max() < 1e-13

    def test_laplacian_of_plane_wave(self):
        g = make_grid(1, np.pi, 64)
        k0 = 5.0
        f = sg.Field(g, np.exp(1j * k0 * g.x_axes[0]))
        _, lap = derivatives(f)
        assert_allclose(lap.values, -(k0**2) * f.values, atol=1e-10)

    def test_gradient_of_sine(self):
        g = make_grid(1, np.pi, 64)
        x = g.x_axes[0]
        f = sg.Field(g, np.sin(x).astype(complex))
        df, _ = derivatives(f)
        assert np.abs(df.values - np.cos(x)).max() < 1e-12

    def test_agrees_with_fourth_order_differences(self):
        # Oracle: centered 4th-order stencils on the periodic Gaussian.
        # The discrepancy is the stencil error, so it must shrink ~16x
        # per grid doubling.
        def fd_errors(n):
            g = make_grid(1, 12.0, n)
            f = sg.make_gaussian(g)
            h = g.spacing
            v = f.values
            d1 = (-np.roll(v, -2) + 8 * np.roll(v, -1) - 8 * np.roll(v, 1) + np.roll(v, 2)) / (12 * h)
            d2 = (-np.roll(v, -2) + 16 * np.roll(v, -1) - 30 * v + 16 * np.roll(v, 1) - np.roll(v, 2)) / (12 * h**2)
            grad, lap = derivatives(f)
            return (
                np.abs(grad.values - d1).max(),
                np.abs(lap.values - d2).max(),
            )

        e_coarse = fd_errors(128)
        e_fine = fd_errors(256)
        for c, f in zip(e_coarse, e_fine):
            assert c / f == pytest.approx(16.0, rel=0.3)

    def test_gradient_3d_component(self):
        g = make_grid(3, np.pi, 16)
        xs = mesh(g)
        f = sg.Field(g, np.sin(xs[1]).astype(complex))
        grads = derivatives(f)
        assert np.abs(grads[0].values).max() < 1e-12
        assert np.abs(grads[1].values - np.cos(xs[1])).max() < 1e-12


class TestNorms:
    def test_constant_has_zero_homogeneous_norm(self, grid_1d):
        f = sg.Field(grid_1d, np.full(grid_1d.shape, 3.0 + 0j))
        assert norm(f, SobolevIndex(s=1.5, homogeneous=True)) < 1e-12

    def test_plane_wave_eps_scaled_norm(self):
        g = make_grid(1, np.pi, 64)
        k0, eps, s = 4.0, 0.25, 2.0
        f = sg.Field(g, np.exp(1j * k0 * g.x_axes[0]))
        expected = (1 + eps**2 * k0**2) ** (s / 2) * np.sqrt(2 * np.pi)
        assert norm(f, SobolevIndex(s=s, eps_scaled=eps)) == pytest.approx(expected, rel=1e-12)

    def test_gaussian_l2_against_quadrature(self, gaussian_1d):
        # Independent oracle: adaptive quadrature of exp(-2x^2); the
        # closed form is sqrt(pi/2).
        integral, err = quad(lambda x: np.exp(-2 * x**2), -12.0, 12.0)
        assert err < 1e-10
        assert integral == pytest.approx(np.sqrt(np.pi / 2), abs=1e-12)
        assert norm(gaussian_1d) == pytest.approx(integral**0.5, abs=1e-8)
        assert norm(gaussian_1d) == pytest.approx((np.pi / 2) ** 0.25, abs=1e-8)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            SobolevIndex(s=-1.0)

    def test_eps_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            SobolevIndex(s=1.0, eps_scaled=0.0)
        with pytest.raises(ValueError):
            SobolevIndex(s=1.0, eps_scaled=1.5)

    def test_h0_variants_all_equal_l2(self, gaussian_1d):
        l2 = norm(gaussian_1d)
        assert norm(gaussian_1d, SobolevIndex(0.0, homogeneous=True)) == pytest.approx(l2)
        assert norm(gaussian_1d, SobolevIndex(0.0, eps_scaled=0.5)) == pytest.approx(l2)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_parseval(self, seed):
        g = make_grid(1, 6.0, 64)
        f = random_field(g, seed)
        quad_l2 = np.sqrt(np.sum(np.abs(f.values) ** 2) * g.quad_weight)
        assert norm(f) == pytest.approx(quad_l2, rel=1e-10)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.5, 4.0])
    def test_lp_norm_against_the_power_formula(self, p):
        # p = 4 squares |f| twice in place, any other p raises it to p
        g = make_grid(2, 6.0, 32)
        f = random_field(g, 7)
        ref = (np.sum(np.abs(f.values) ** p) * g.quad_weight) ** (1.0 / p)
        assert sg.lp_norm(f, p) == pytest.approx(ref, rel=1e-14)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), s=st.floats(0.0, 4.0))
    def test_norm_monotone_in_s_and_eps_bound(self, seed, s):
        g = make_grid(1, 6.0, 64)
        f = random_field(g, seed)
        lo = norm(f, SobolevIndex(s))
        hi = norm(f, SobolevIndex(s + 0.5))
        assert lo <= hi * (1 + 1e-12)
        for eps in (0.1, 0.5, 1.0):
            assert norm(f, SobolevIndex(s=max(s, 1e-3), eps_scaled=eps)) <= norm(
                f, SobolevIndex(s=max(s, 1e-3))
            ) * (1 + 1e-12)

    @pytest.mark.parametrize("dim, n", [(1, 256), (2, 64)])
    @pytest.mark.parametrize("index", [SobolevIndex(400.0), SobolevIndex(400.0, homogeneous=True),
                                       SobolevIndex(400.0, eps_scaled=0.5)],
                             ids=["inhomogeneous", "homogeneous", "eps-scaled"])
    def test_overflowing_weight_named(self, dim, n, index):
        # the weight at the largest |k|^2 (1123 and 140 here) overflows: a
        # ValueError names the order and the grid, and no RuntimeWarning,
        # an error under this suite's settings, comes before it
        g = make_grid(dim, 12.0, n)
        with pytest.raises(ValueError, match=rf"order s = 400 overflows at \|k\|\^2 = .* on the "
                           rf"{n}\^{dim} grid of half-width 12"):
            norm(sg.make_gaussian(g), index)

    def test_overflowing_weighted_power_named(self, grid_1d):
        # the weight at the Nyquist mode is finite (1.1e308) but the power
        # there, (256 * 1e3)^2, takes it past the largest float: the same
        # ValueError, and no RuntimeWarning before it
        f = sg.Field(grid_1d, 1e3 * (-1.0) ** np.arange(256))
        with pytest.raises(ValueError, match=r"^the weighted power of Sobolev order s = 100.94 "
                           r"overflows on the 256\^1 grid of half-width 12$"):
            norm(f, SobolevIndex(100.94))

    @pytest.mark.parametrize("dim, n", [(1, 256), (2, 64)])
    def test_largest_finite_weight_passes(self, dim, n):
        # just below the overflow the weight, and the norm, are finite
        g = make_grid(dim, 12.0, n)
        k2 = dim * float(g.k_axes[0][n // 2]) ** 2
        s = 0.999 * np.log(np.finfo(float).max) / np.log1p(k2)
        assert np.isfinite(norm(sg.make_gaussian(g), SobolevIndex(s)))

    @pytest.mark.parametrize("j", [2, 4])
    @pytest.mark.parametrize("m", [0.0, 0.5, 1.0, 2.0])
    def test_rescaling_identity_two_grids(self, j, m):
        # f_j(x) = j^{n/2-s} f(jx) realized exactly on the shrunken grid:
        # the samples coincide up to the amplitude factor.
        s = 0.7
        big = make_grid(1, 12.0, 256)
        small = make_grid(1, 12.0 / j, 256)
        f = sg.make_gaussian(big)
        fj = sg.Field(small, float(j) ** (0.5 - s) * f.values.copy())
        lhs = norm(fj, SobolevIndex(m, homogeneous=True))
        rhs = float(j) ** (m - s) * norm(f, SobolevIndex(m, homogeneous=True))
        assert lhs == pytest.approx(rhs, rel=1e-8)


class TestGaussian:
    def test_boundary_negligible_on_wide_domain(self, gaussian_1d):
        assert sg.boundary_max(gaussian_1d) < 1e-60

    def test_amplitude_homogeneity(self, grid_1d):
        one = sg.make_gaussian(grid_1d, amplitude=1.0)
        two = sg.make_gaussian(grid_1d, amplitude=2.0)
        assert norm(two) == pytest.approx(2 * norm(one), rel=1e-13)

    def test_decay_check_rejects_small_domain(self):
        g = make_grid(1, 2.0, 32)
        # boundary value exp(-4) ~ 1.8e-2 is far above the tolerance
        with pytest.raises(ValueError, match="decay"):
            sg.make_gaussian(g, width=1.0)

    @pytest.mark.parametrize("center", [12.0, -12.000001, 1e10, (0.0, 20.0), float("nan")])
    def test_rejects_a_center_outside_the_box(self, center):
        g = make_grid(2, 12.0, 16)
        with pytest.raises(ValueError, match=r"center .* outside the box \[-12, 12\)"):
            sg.make_gaussian(g, center=center)
        # the box's lower edge is in it: there the decay check refuses the datum
        with pytest.raises(ValueError, match="decay"):
            sg.make_gaussian(g, center=(-12.0, 0.0))

    @pytest.mark.parametrize("width", [0.0, -1.0, float("nan"), 1e300, 1e-300])
    def test_rejects_a_width_whose_square_leaves_the_floats(self, width):
        # 1e300 ** 2 overflows and 1e-300 ** 2 underflows to 0
        with pytest.raises(ValueError, match="width must be positive"):
            sg.make_gaussian(make_grid(1, 12.0, 16), width=width)

    def test_an_exponent_past_the_floats_gives_zero_silently(self):
        # r^2 overflows everywhere but at x = 0 on this box, and r^2 / w^2
        # off the centre for this width: the datum is 0 there, with no
        # warning (filterwarnings = error)
        huge = sg.make_gaussian(make_grid(1, 1e300, 16), amplitude=2.0)
        thin = sg.make_gaussian(make_grid(1, 8.0, 16), amplitude=2.0, width=1e-160)
        for f in (huge, thin):
            assert np.flatnonzero(f.values).tolist() == [8] and f.values[8] == 2.0

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_boundary_max_and_decay_check_act_per_field(self, dim):
        # the shell is read on the grid axes, not on a stack's leading axes
        g = make_grid(dim, 6.0, 8)
        stack = np.stack([random_field(g, seed).values for seed in range(3)])
        shell = np.zeros(g.shape, dtype=bool)
        for ax in range(dim):
            shell[(slice(None),) * ax + ([0, -1],)] = True
        ref = np.array([np.abs(f[shell]).max() for f in stack])
        singles = [sg.boundary_max(sg.Field(g, f)) for f in stack]
        assert all(type(b) is float for b in singles) and bit_identical(np.array(singles), ref)
        assert bit_identical(sg.boundary_max(sg.Field(g, stack)), ref)
        sg.check_boundary_decay(sg.Field(g, stack), tol=ref)  # each field at its own bound
        tol = np.nextafter(ref, 0.0)
        tol[0] = ref[0]
        with pytest.raises(ValueError, match=re.escape(f"sample {ref[1]:.3e} > {tol[1]:.3e};")):
            sg.check_boundary_decay(sg.Field(g, stack), tol=tol)

    def test_builds_in_the_output_array(self):
        # r^2, the exponent and the datum are built in place in the real
        # part of the complex result: one field, where the out-of-place
        # steps peaked at two
        g = make_grid(2, 12.625, 256)  # a key no other test holds
        field = g.num_points * 16
        peak = traced_peak(lambda: sg.make_gaussian(g, amplitude=2.0, width=1.3, center=0.5))
        assert peak < 1.1 * field, f"peak of {peak / field:.2f} fields"

    def test_offcenter_3d(self):
        g = make_grid(3, 10.0, 16)
        f = sg.make_gaussian(g, center=(1.0, 0.0, -1.0))
        xs = mesh(g)
        expected = np.exp(-((xs[0] - 1) ** 2 + xs[1] ** 2 + (xs[2] + 1) ** 2))
        assert_allclose(f.values.real, expected, atol=1e-14)
        assert np.abs(f.values.imag).max() == 0.0


class TestFieldIO:
    def test_round_trip(self, tmp_path):
        g = make_grid(1, 3.0, 16)
        f = random_field(g, 5)
        base = tmp_path / "dump"
        sg.save_field(f, base)
        back = sg.load_field(base)
        assert back.grid == f.grid
        assert back.space == f.space
        assert_allclose(back.values, f.values, rtol=0, atol=1e-16)

    def test_header_mismatch_detected(self, tmp_path):
        g = make_grid(1, 3.0, 16)
        f = random_field(g, 5)
        base = tmp_path / "dump"
        sg.save_field(f, base)
        # truncate the data file
        lines = (tmp_path / "dump.csv").read_text().splitlines()
        (tmp_path / "dump.csv").write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ValueError, match="rows"):
            sg.load_field(base)

    @pytest.mark.parametrize("index, message", [
        ("0", "row 8 repeats index 0"),
        ("8", r"row 8 has index 8 outside \[0, 8\)"),
        ("-1", r"row 8 has index -1 outside \[0, 8\)"),
    ], ids=["repeated", "too-large", "negative"])
    def test_bad_index_rejected(self, tmp_path, index, message):
        # the last of 8 rows gets a hand-edited index; unchecked, a repeat
        # leaves sample 7 at 0, 8 raises IndexError and -1 wraps around
        g = make_grid(1, 3.0, 8)
        base = tmp_path / "dump"
        sg.save_field(random_field(g, 5), base)
        lines = (tmp_path / "dump.csv").read_text().splitlines()
        lines[-1] = ",".join([index] + lines[-1].split(",")[1:])
        (tmp_path / "dump.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=message):
            sg.load_field(base)


class TestResample:
    # (coarse, fine) points per axis on [-6, 6)^dim, both of which resolve
    # the unit Gaussian to roundoff
    SIZES = {1: (64, 512), 2: (64, 256), 3: (64, 128)}

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_upsample_matches_direct_construction(self, dim):
        n_coarse, n_fine = self.SIZES[dim]
        coarse = sg.make_gaussian(make_grid(dim, 6.0, n_coarse))
        up = sg.resample(coarse, n_fine)
        direct = sg.make_gaussian(make_grid(dim, 6.0, n_fine))
        assert np.abs(up.values - direct.values).max() < 1e-13

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_downsample_of_resolved_field(self, dim):
        n_coarse, n_fine = self.SIZES[dim]
        fine = sg.make_gaussian(make_grid(dim, 6.0, n_fine))
        down = sg.resample(fine, n_coarse)
        direct = sg.make_gaussian(make_grid(dim, 6.0, n_coarse))
        assert np.abs(down.values - direct.values).max() < 1e-13

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_same_size_is_identity(self, dim):
        f = sg.make_gaussian(make_grid(dim, 6.0, 32))
        same = sg.resample(f, 32)
        assert np.abs(same.values - f.values).max() < 1e-14


def test_tail_fraction_resolved_vs_rough(grid_1d, gaussian_1d):
    assert sg.tail_fraction(gaussian_1d) < 1e-20
    rough = sg.Field(grid_1d, np.exp(1j * 0.9 * grid_1d.k_max * grid_1d.x_axes[0]))
    assert sg.tail_fraction(rough) > 0.9


def reference_tail_fraction(f):
    """The masked-copy formula tail_fraction replaced."""
    power = np.abs(sg.transform(f).values) ** 2
    return float(power[~kept_modes(f.grid)].sum() / power.sum())


class TestTailFraction:
    @pytest.mark.parametrize("dim,n", [(1, 8), (1, 256), (1, 4096), (2, 8), (2, 64), (3, 8),
                                       (3, 16)])
    def test_boxes_cover_exactly_the_dropped_modes(self, dim, n):
        g = make_grid(dim, 3.0, n)
        cover = np.zeros(g.shape, dtype=int)
        for box in g.tail_boxes:
            cover[box] += 1
        assert np.array_equal(cover, (~kept_modes(g)).astype(int))

    @settings(max_examples=30, deadline=None)
    @given(dim=st.integers(1, 3), log_n=st.integers(3, 6), seed=st.integers(0, 10_000),
           smooth=st.booleans())
    def test_matches_the_masked_copy_formula(self, dim, log_n, seed, smooth):
        g = make_grid(dim, 4.0, 2**log_n)
        if smooth:
            f = random_field(g, seed, smooth_width=1)
        else:
            rng = np.random.default_rng(seed)
            f = sg.Field(g, rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape))
        new, old = sg.tail_fraction(f), reference_tail_fraction(f)
        if dim == 1:
            assert new == old
        assert abs(new - old) <= 1e-14 * old
        # The guard's verdict at any bound more than 1e-12 away is unchanged.
        for tol in (old * (1 - 1e-12), old * (1 + 1e-12), 1e-6):
            assert (new <= tol) == (old <= tol)


def box_sum_tail_fraction(f):
    """The whole-array formula the slab-streamed tail_fraction replaced: one
    |fhat|^2 array, summed over each tail box."""
    power = np.abs(sg.transform(f).values)
    np.square(power, out=power)
    return float(sum(power[box].sum() for box in f.grid.tail_boxes) / power.sum())


class TestStreamedTailFraction:
    @pytest.mark.parametrize("dim, n", [(1, 64), (1, 4096), (2, 8), (2, 32), (2, 256), (3, 16),
                                        (3, 32)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_the_whole_array_formula(self, dim, n, seed):
        # 8^2 is one slab; 32^2 splits into 8 slabs and the rest into 16,
        # whose rows cut the tail boxes' first-axis bands
        g = make_grid(dim, 4.0, n)
        rng = np.random.default_rng(seed)
        f = sg.Field(g, rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape))
        new, old = sg.tail_fraction(f), box_sum_tail_fraction(f)
        assert abs(new - old) <= 1e-15 * old
        if dim == 1:
            assert new == old

    def test_holds_no_whole_grid_array(self):
        g = make_grid(2, 5.375, 256)  # a key no other test holds
        f = sg.transform(random_field(g, 4))
        field = g.num_points * 16
        peak = traced_peak(lambda: sg.tail_fraction(f))
        assert peak < 0.1 * field, f"peak of {peak / field:.3f} fields"


def reference_extent(g, values, tol):
    """spectral_extent of one field by brute force: the smallest level K of
    max_j |k_j| whose modes beyond it hold at most tol of the power."""
    power = np.abs(np.fft.fftn(values)) ** 2
    box = np.maximum.reduce(np.meshgrid(*(np.abs(k) for k in g.k_axes), indexing="ij"))
    return next(level for level in np.unique(box)
                if power[box > level].sum() <= tol * power.sum())


class TestGridRuleScales:
    # The grid rule reads a limit run's saved fields as one stack (grid axes
    # last); a stack gives each field's own value, bit for bit.
    @staticmethod
    def stack(g):
        return np.stack([random_field(g, seed, scale=seed + 1.0, smooth_width=1 + seed % 3).values
                         for seed in range(4)])

    @pytest.mark.parametrize("dim, n", [(1, 64), (2, 16), (3, 8)])
    def test_stack_gives_each_fields_own_value(self, dim, n):
        g = make_grid(dim, 6.0, n)
        stack = self.stack(g)
        singles = [sg.gradient_max(g, f) for f in stack]
        assert all(type(value) is float for value in singles)
        assert bit_identical(sg.gradient_max(g, stack), np.array(singles))
        # leading axes keep their shape
        assert bit_identical(sg.gradient_max(g, stack.reshape((2, 2) + g.shape)),
                             np.reshape(singles, (2, 2)))
        for tol in (1e-6, 1e-2, 0.3):
            singles = [sg.spectral_extent(g, f, tol) for f in stack]
            assert all(type(value) is float for value in singles)
            assert bit_identical(sg.spectral_extent(g, stack, tol), np.array(singles))
            assert bit_identical(sg.spectral_extent(g, stack.reshape((2, 2) + g.shape), tol),
                                 np.reshape(singles, (2, 2)))

    @pytest.mark.parametrize("dim, n", [(1, 64), (2, 16), (3, 8)])
    def test_gradient_max_is_one_transform_pair(self, monkeypatch, dim, n):
        # one forward transform of the stack, one batched inverse of its
        # gradient rows, at any dim
        g = make_grid(dim, 6.0, n)
        counts = count_ffts(monkeypatch)
        sg.gradient_max(g, self.stack(g))
        assert counts == {"forward": 1, "inverse": 1}
        assert counts.rows == {"forward": 4, "inverse": 4 * dim}

    @pytest.mark.parametrize("dim, n", [(1, 64), (2, 16)])
    def test_single_fields_match_the_reference_formulas(self, dim, n):
        g = make_grid(dim, 6.0, n)
        for f in self.stack(g):
            ref = max(np.abs(component).max() for component in ref_gradient(g, f))
            assert sg.gradient_max(g, f) == pytest.approx(ref, rel=1e-12)
            for tol in (1e-6, 1e-2, 0.3):
                assert sg.spectral_extent(g, f, tol) == reference_extent(g, f, tol)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_empty_and_zero_stacks_give_zero(self, dim):
        # one zero per field: none for no field, a float for one
        g = make_grid(dim, 6.0, 16)
        for lead in ((0,), (3,)):
            stack = np.zeros(lead + g.shape)
            for value in (sg.gradient_max(g, stack), sg.spectral_extent(g, stack, 1e-6)):
                assert bit_identical(value, np.zeros(lead))
        assert (sg.gradient_max(g, np.zeros(g.shape)),
                sg.spectral_extent(g, np.zeros(g.shape), 1e-6)) == (0.0, 0.0)


class TestFftHelpers:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_equal_fftn_over_the_last_axes(self, dim):
        g = make_grid(dim, 4.0, 16)
        a = np.stack([random_field(g, seed).values for seed in range(2)])
        axes = range(1, dim + 1)
        assert bit_identical(sg._fft(a, dim), np.fft.fftn(a, axes=axes))
        assert bit_identical(sg._ifft(a, dim), np.fft.ifftn(a, axes=axes))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_in_place_transforms_keep_the_bits(self, dim):
        g = make_grid(dim, 4.0, 16)
        a = np.stack([random_field(g, seed).values for seed in range(2)])
        ref = sg._fft(a, dim)
        assert bit_identical(sg._fft(a, dim, out=a), ref)
        assert bit_identical(sg._ifft(a, dim, out=a), sg._ifft(ref, dim))

    def test_transform_allocates_its_result_once(self):
        # fftn without out allocates one array per axis: three fields on 64^3
        g = make_grid(3, 4.0, 64)
        f = random_field(g, 2)
        field = g.num_points * 16
        for call in (lambda: sg.transform(f), lambda: sg.inverse_transform(sg.Field(
                g, f.values, sg.SPECTRAL))):
            peak = traced_peak(call)
            assert peak < 1.1 * field, f"peak of {peak / field:.2f} fields"

    def test_one_axis_bypasses_the_nd_wrapper(self, monkeypatch, grid_1d, gaussian_1d):
        for name in ("fftn", "ifftn"):
            monkeypatch.setattr(np.fft, name, lambda *a, **k: pytest.fail("n-D FFT wrapper"))
        sg.inverse_transform(sg.transform(gaussian_1d))
        nls.solve_nls_stack([gaussian_1d], 0.5, nls.NlsRunConfig(dt=1e-3, T=2e-3))
        wkb.solve_limit_stack([(gaussian_1d, gaussian_1d, wkb.WkbRunConfig(dt=1e-3, T=2e-3))])


class TestBandedTransforms:
    """Each axis pass of a 2-D/3-D transform runs its lines in bands, band 0
    on the calling thread: fftn's bits for every band count."""

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("members", [1, 3])
    @pytest.mark.parametrize("padded", [False, True], ids=["contiguous", "padded"])
    @pytest.mark.parametrize("out", ["new", "in-place", "separate"])
    def test_bits_of_fftn_for_any_band_count(self, monkeypatch, bands, dim, members, padded, out):
        n = {2: 16, 3: 8}[dim]
        shape = (members,) + (n,) * dim
        rng = np.random.default_rng(10 * dim + members)
        # the storage nls keeps on a grid of dim >= 2: the last axis PAD zeros longer
        store = np.zeros(shape[:-1] + (n + nls.PAD * padded,), dtype=complex)
        a = store[..., :n]
        a[...] = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        calls = []
        for name in ("fft", "ifft"):
            monkeypatch.setattr(np.fft, name, lambda *args, fn=getattr(np.fft, name), **kwargs: (
                calls.append(1), fn(*args, **kwargs))[1])
        for transform, reference in ((sg._fft, np.fft.fftn), (sg._ifft, np.fft.ifftn)):
            expected = reference(a, axes=range(1, dim + 1))
            work = store.copy()
            src = work[..., :n]
            dest = {"new": None, "in-place": src, "separate": np.empty(shape, dtype=complex)}[out]
            calls.clear()
            result = transform(src, dim, out=dest)
            assert len(calls) == dim * bands  # one call per band of each axis pass
            assert dest is None or result is dest
            assert bit_identical(result, expected)
            assert not work[..., n:].any()

    @staticmethod
    def last_row_overflows():
        """A datum whose first pass overflows in the last band alone, which
        a worker runs unless there is one band."""
        a = np.zeros((1, 16, 16), dtype=complex)
        a[0, -1] = 1e308
        return a

    def test_an_overflow_raises_under_errstate_raise(self, bands):
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            sg._fft(self.last_row_overflows(), 2)

    def test_an_overflow_is_silent_under_errstate_ignore(self, bands):
        # pytest turns any RuntimeWarning, in a worker too, into an error; the
        # second pass multiplies inf by zero
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(sg._fft(self.last_row_overflows(), 2)).all()

    @pytest.mark.parametrize("failing", [0, 1, 2])
    def test_a_failing_band_raises_once_every_band_has_finished(self, monkeypatch, failing):
        monkeypatch.setattr(sg, "_CPUS", 3)
        monkeypatch.setattr(sg, "_SPLIT_POINTS", 0)
        monkeypatch.setattr(sg, "_BAND_LINES", 1)
        finished = []

        def task(index):
            band = index[-2].start // 4
            if band == failing:
                raise ValueError(f"band {band}")
            time.sleep(0.05)
            finished.append(band)

        with pytest.raises(ValueError, match=f"band {failing}"):
            sg._split(task, np.zeros((12, 5)), -2)
        assert sorted(finished) == [b for b in range(3) if b != failing]

    def test_one_dimensional_transforms_stay_on_the_calling_thread(self, bands):
        seen = set()

        def task(index):
            seen.add(index)

        sg._split(task, np.zeros((4, 64)), None)
        assert seen == {(...,)}


class TestSharedGrid:
    def test_make_grid_shares_one_grid_per_key(self):
        g = make_grid(2, 3.0, 16)
        assert make_grid(2, 3, 16.0) is g
        assert make_grid(2, 3.0, 32) is not g
        assert make_grid(1, 3.0, 16) is not g

    def test_bit_identical_compares_grids_by_value(self):
        # the shared grid has built k_axes, the fresh equal one has not
        shared, fresh = make_grid(1, 12.0, 64), sg.Grid(1, 12.0, 64)
        shared.k_axes
        values = np.arange(64, dtype=complex)
        assert bit_identical(sg.Field(shared, values), sg.Field(fresh, values.copy()))
        assert not bit_identical(sg.Field(shared, values), sg.Field(sg.Grid(1, 6.0, 64), values))

    def test_dead_grids_are_freed(self):
        import gc
        import weakref

        ref = weakref.ref(make_grid(1, 7.25, 64))
        gc.collect()
        assert ref() is None
        assert make_grid(1, 7.25, 64).points_per_axis == 64

    def test_cached_arrays_are_read_only(self):
        g = make_grid(2, 3.0, 16)
        arrays = [*g.x_axes, *g.k_axes, g.k_squared, *g.gradient_factors]
        for arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr[(0,) * arr.ndim] = 1
        # after a limit run, every array the grid caches but k_squared is one
        # vector per axis
        a0 = sg.make_gaussian(g, width=0.4)
        wkb.solve_limit_stack([(a0, a0, wkb.WkbRunConfig(dt=1e-2, T=2e-2))])
        cached = {name: value for name, value in vars(g).items()
                  if name not in ("dim", "half_width", "points_per_axis")}
        assert "k_squared" in cached and "gradient_factors" in cached
        for name, value in cached.items():
            for arr in (value if isinstance(value, tuple) else (value,)):
                if isinstance(arr, np.ndarray) and name != "k_squared":
                    assert arr.size == g.points_per_axis, name

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_gradient_factors_sit_on_their_own_axes(self, dim):
        g = make_grid(dim, 3.0, 16)
        k = g.k_axes[0].copy()
        k[8] = 0.0  # the unpaired Nyquist mode
        assert len(g.gradient_factors) == dim
        for ax, factor in enumerate(g.gradient_factors):
            assert factor.shape == tuple(16 if m == ax else 1 for m in range(dim))
            assert np.array_equal(factor.ravel(), 1j * k)
            assert factor.ravel()[8] == 0

    @pytest.mark.parametrize("reduction, space", [
        (lambda f: norm(f, SobolevIndex(1.5)), sg.SPECTRAL),
        (lambda f: norm(f, SobolevIndex(1.0, homogeneous=True)), sg.SPECTRAL),
        (lambda f: norm(f, SobolevIndex(2.0, eps_scaled=0.5)), sg.SPECTRAL),
        (lambda f: sg.lp_norm(f, 4), sg.PHYSICAL),
        (nls.mass, sg.PHYSICAL),
    ], ids=["plain", "homogeneous", "eps_scaled", "l4", "mass"])
    def test_reductions_hold_no_whole_grid_array(self, reduction, space):
        # Each sums slab by slab: |f|^2 and the slab's weight span a sixteenth
        # of the grid, and the grid caches no weight.
        g = make_grid(2, 5.125, 256)  # a key no other test holds
        f = random_field(g, 3)
        if space == sg.SPECTRAL:
            f = sg.transform(f)
        peak = traced_peak(lambda: reduction(f))
        field = g.num_points * 16
        assert peak < 0.25 * field, f"peak of {peak / field:.2f} fields"

    @settings(max_examples=25, deadline=None)
    @given(shape=st.sampled_from([(1, 32), (2, 32), (2, 128), (3, 32)]),
           seed=st.integers(0, 10_000), s=st.floats(0.0, 3.0),
           kind=st.sampled_from(["plain", "homogeneous", "eps"]))
    def test_norm_and_transform_equal_the_uncached_formulas(self, shape, seed, s, kind):
        # 128^2 and 32^3 sum over 16 slabs, 32^2 over 8: == checks the slab
        # tree against numpy's one pairwise sum
        dim, points = shape
        g = make_grid(dim, 4.0, points)
        f = random_field(g, seed)
        index = SobolevIndex(s, homogeneous=kind == "homogeneous",
                             eps_scaled=0.25 if kind == "eps" else None)
        fhat = sg.transform(f)
        assert np.array_equal(fhat.values, np.fft.fftn(f.values))
        assert g.parseval_weight == g.spacing**dim / g.points_per_axis**dim
        w = index.weight(g.k_squared)
        assert norm(f, index) == float(
            np.sqrt(np.sum(w * np.abs(fhat.values) ** 2) * g.parseval_weight))


class TestStackedFields:
    """A Field may hold a stack of fields, leading axes before the grid
    axes.  The transforms, norms, lp_norm, mass, the tail fraction and
    resample act per field with the bits of that field alone: one field is
    the one-row case of the same code."""

    LEAD = (2, 3)
    INDICES = {
        "l2": SobolevIndex(),
        "h1.5": SobolevIndex(1.5),
        "hdot0.7": SobolevIndex(0.7, homogeneous=True),
        "hdot1": SobolevIndex(1.0, homogeneous=True),
        "eps_scaled": SobolevIndex(1.3, eps_scaled=0.25),
    }
    # 1-D: one slab; 128^2: 16 slabs of the first axis
    GRIDS = [(1, 64), (2, 128)]

    def stack(self, dim, n, smooth_width=5):
        """Six random fields on the grid, and the stack of them of shape
        LEAD + grid shape, their order row-major."""
        g = make_grid(dim, 4.0, n)
        fields = [random_field(g, seed, scale=1 + seed, smooth_width=smooth_width)
                  for seed in range(int(np.prod(self.LEAD)))]
        return fields, sg.Field(g, np.reshape([f.values for f in fields], self.LEAD + g.shape))

    @staticmethod
    def rows(values):
        return np.reshape(values, -1).tolist()

    def test_shape_must_end_in_the_grid_shape(self):
        g = make_grid(2, 4.0, 16)
        assert sg.Field(g, np.zeros((3, 16, 16))).values.shape == (3, 16, 16)
        for shape in [(16,), (16, 8), (3, 16, 8), (16, 16, 3)]:
            with pytest.raises(ValueError, match="does not match grid"):
                sg.Field(g, np.zeros(shape))

    @pytest.mark.parametrize("dim, n", GRIDS)
    def test_transforms_match_each_field(self, dim, n):
        fields, stack = self.stack(dim, n)
        spectra = sg.transform(stack)
        back = sg.inverse_transform(spectra)
        shape = stack.grid.shape
        for f, spectrum, values in zip(fields, spectra.values.reshape(-1, *shape),
                                       back.values.reshape(-1, *shape)):
            single = sg.transform(f)
            assert bit_identical(spectrum, single.values)
            assert bit_identical(values, sg.inverse_transform(single).values)

    @pytest.mark.parametrize("dim, n", GRIDS)
    @pytest.mark.parametrize("index", INDICES)
    def test_norms_match_each_field(self, dim, n, index):
        fields, stack = self.stack(dim, n)
        idx = self.INDICES[index]
        for f in (stack, sg.transform(stack)):
            got = norm(f, idx)
            assert got.shape == self.LEAD
            assert self.rows(got) == [norm(field, idx) for field in fields]

    @pytest.mark.parametrize("dim, n", GRIDS)
    def test_lp_norm_and_mass_match_each_field(self, dim, n):
        fields, stack = self.stack(dim, n)
        for p in (4.0, 3.0):
            assert self.rows(sg.lp_norm(stack, p)) == [sg.lp_norm(f, p) for f in fields]
        assert self.rows(nls.mass(stack)) == [nls.mass(f) for f in fields]
        assert isinstance(nls.mass(fields[0]), float) and isinstance(norm(fields[0]), float)

    @pytest.mark.parametrize("dim, n", GRIDS)
    def test_energy_matches_each_field(self, dim, n):
        fields, stack = self.stack(dim, n)
        assert self.rows(nls._energy(stack, 0.25)) == [
            nls.semiclassical_energy(nls.NlsState(0.0, f, 0.25)) for f in fields]

    @pytest.mark.parametrize("dim, n", GRIDS)
    def test_tail_fractions_match_each_field(self, dim, n):
        # broad spectra carry a tail; a zero row reads 0
        fields, stack = self.stack(dim, n, smooth_width=n // 2 - 1)
        fields[4] = sg.Field(fields[4].grid, np.zeros(fields[4].grid.shape))
        stack.values[1, 1] = 0.0
        for f in (stack, sg.transform(stack)):
            got = sg.tail_fraction(f)
            assert got.shape == self.LEAD
            assert self.rows(got) == [sg.tail_fraction(field) for field in fields]
        assert self.rows(got)[4] == 0.0 and min(self.rows(got)[:4]) > 1e-3

    @pytest.mark.parametrize("dim, n", GRIDS)
    @pytest.mark.parametrize("factor", [2, 0.5])
    def test_resample_matches_each_field(self, dim, n, factor):
        fields, stack = self.stack(dim, n)
        new_n = int(n * factor)
        for space in (sg.PHYSICAL, sg.SPECTRAL):
            f = stack if space == sg.PHYSICAL else sg.transform(stack)
            got = sg.resample(f, new_n)
            assert got.space == space and got.values.shape == self.LEAD + got.grid.shape
            for field, values in zip(fields, got.values.reshape(-1, *got.grid.shape)):
                field = field if space == sg.PHYSICAL else sg.transform(field)
                assert bit_identical(values, sg.resample(field, new_n).values)

    def test_reconstruct_guards_every_row(self):
        # a trajectory's a and phi as stacks, times first; a steep phase
        # planted in one row trips the guard with that row's own error
        g = make_grid(1, 12.0, 256)
        x = g.x_axes[0]
        a = np.stack([sg.make_gaussian(g, amplitude=1 + 0.1 * t).values for t in range(5)])
        phi = np.stack([-0.1 * t * np.exp(-x**2) for t in range(5)]).astype(complex)
        out = wkb.reconstruct(sg.Field(g, a), sg.Field(g, phi), 0.25)
        for row_a, row_phi, row in zip(a, phi, out.values):
            single = wkb.reconstruct(sg.Field(g, row_a), sg.Field(g, row_phi), 0.25)
            assert bit_identical(row, single.values)
        # a carrier at 0.9 k_max, past the two-thirds cut
        phi[3] = 0.9 * g.k_max * 0.25 * x
        with pytest.raises(ResolutionError) as single:
            wkb.reconstruct(sg.Field(g, a[3]), sg.Field(g, phi[3]), 0.25)
        with pytest.raises(ResolutionError) as stacked:
            wkb.reconstruct(sg.Field(g, a), sg.Field(g, phi), 0.25)
        assert str(stacked.value) == str(single.value)
        assert stacked.value.tail_fraction == single.value.tail_fraction
