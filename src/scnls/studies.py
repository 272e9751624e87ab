"""Sweep orchestration and bookkeeping.

Four measurement studies run eps- and t-sweeps against the solvers:
profile accuracy (order eps), the corrector expansion (order eps^2),
small-time phase expansions (order t^3), and the ghost separation
quantities eps^s * |u - u_tilde|_{Hdot^s}.  Two bookkeeping operations
convert measured sweep rows into the physical-scale instability
statements through exact rescaling identities.

A study first solves its sweep's limit run and reads its scales off it
(grid_scales); each per-eps wavefunction grid then holds the limit
amplitude's bandwidth plus the phase's wavenumber |grad phi|/eps
(SweepConfig.grid_for).  The smooth phase-amplitude fields are integrated
once on a coarse grid and upsampled wherever an oscillatory profile is needed.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from . import nls, wkb
from .grid import (
    SPECTRAL, Field, Grid, SobolevIndex, _fft, gradient_max, lp_norm, make_gaussian, make_grid,
    norm, resample, spectral_extent, transform,
)

# a1_mode -> (eps, N) -> c, the perturbation a1 = c a0 of the datum
# (a0 + eps a1) e^{i phi/eps}: a run at eps starts from (1 + eps c) a0, a
# limit run's corrector from c a0.  The corrector phase is real-linear in
# its datum and vanishes for an imaginary one over a real background, so the
# perturbed profile is a e^{i Re(c) phi1} e^{i phi/eps}, phi1 that of c = 1.
A1_COEFFICIENTS = {
    "zero": lambda eps, order: 0.0,
    "equal_a0": lambda eps, order: 1.0,
    "scaled": lambda eps, order: eps ** (order - 1),
    "imaginary": lambda eps, order: 1j,
}
A1_MODES = tuple(A1_COEFFICIENTS)

# Operational stand-ins for the eps -> 0 limit: the two finest sweep
# points must agree to this relative spread and exceed the floor.
GHOST_STABILIZATION_RTOL = 0.25
HIGHER_ORDER_STABILIZATION_RTOL = 0.30
SEPARATION_FLOOR_FACTOR = 1e-3

SLOPE_BAND_ORDER1 = (0.8, 1.2)
SLOPE_BAND_ORDER2 = (1.7, 2.3)
SLOPE_BAND_CUBIC = (2.7, 3.3)

# A wavefunction grid's two-thirds cut lies this factor above the largest
# wavenumber its run must hold (SweepConfig.grid_for).
GRID_MARGIN = 1.5


class FieldError(ValueError):
    """A GaussianSpec, SweepConfig or ScalingParams field out of its range; field
    names it, and the message reads "<field> <message>"."""

    def __init__(self, field, message):
        super().__init__(f"{field} {message}")
        self.field, self.message = field, message


@dataclass(frozen=True)
class GaussianSpec:
    """Parameters of the canonical datum amplitude * exp(-|x-c|^2/w^2)."""

    amplitude: float = 1.0
    width: float = 1.0
    center: float = 0.0

    def __post_init__(self):
        if not self.width > 0:
            raise FieldError("width", f"must be positive, got {self.width!r}")

    def realize(self, grid, multiplier=1.0) -> Field:
        base = make_gaussian(grid, self.amplitude, self.width, self.center)
        if multiplier == 1.0:
            return base
        return Field(grid, multiplier * base.values)


@dataclass(frozen=True)
class SweepConfig:
    """Everything an eps-sweep needs; its wavefunction grids are sized from
    the scales of its limit run (grid_scales, grid_for)."""

    eps_list: tuple
    s_list: tuple = (0.0, 1.0, 2.0)
    tau: float = 0.2
    horizon: float = 0.25
    a0: GaussianSpec = GaussianSpec()
    a1_mode: str = "equal_a0"
    scaled_order: int = 2
    half_width: float = 12.0
    points_base: int = 256
    wkb_points: int = 256
    n_saves: int = 10
    nls_dt_safety: float = nls.DEFAULT_DT_SAFETY
    wkb_dt_safety: float = 0.25
    tail_tol: float = 1e-6
    smalltime_points: int = 6
    certify_refinement: bool = False
    max_points_per_axis: int = 32768

    def __post_init__(self):
        for name in ("half_width", "horizon", "nls_dt_safety", "wkb_dt_safety", "tail_tol"):
            if not getattr(self, name) > 0:
                raise FieldError(name, f"must be positive, got {getattr(self, name)!r}")
        if len(self.eps_list) == 0:
            raise FieldError("eps_list", "must not be empty")
        if any(not 0 < e <= 1 for e in self.eps_list):
            raise FieldError("eps_list", f"entries must lie in (0, 1], got {self.eps_list}")
        if not all(a > b for a, b in zip(self.eps_list, self.eps_list[1:])):
            raise FieldError("eps_list", f"must be strictly decreasing, got {self.eps_list}")
        if len(self.s_list) == 0 or any(not s >= 0 for s in self.s_list):
            raise FieldError("s_list", f"must be nonempty with s >= 0, got {self.s_list}")
        # check names label s with :g, so entries must differ in that label too
        if (len({f"{s:g}" for s in self.s_list}) < len(self.s_list)
                or any(_close(a, b) for i, a in enumerate(self.s_list) for b in self.s_list[:i])):
            raise FieldError("s_list", "entries must be distinct to 6 significant digits, "
                             f"got {self.s_list}")
        if not 0 < self.tau <= self.horizon:
            raise FieldError("tau", f"= {self.tau} must lie in (0, horizon = {self.horizon}]")
        if not (isinstance(self.n_saves, int) and self.n_saves >= 1):
            raise FieldError("n_saves", f"must be an integer >= 1, got {self.n_saves!r}")
        ratio = self.tau / (self.horizon / self.n_saves)
        if abs(ratio - round(ratio)) > 1e-9:
            raise FieldError("tau", f"= {self.tau} must fall on the save grid "
                             f"(horizon/n_saves = {self.horizon / self.n_saves})")
        if self.a1_mode not in A1_MODES:
            raise FieldError("a1_mode", f"must be one of {A1_MODES}, got {self.a1_mode!r}")
        if not (isinstance(self.scaled_order, int) and self.scaled_order >= 1):
            raise FieldError("scaled_order", f"must be an integer >= 1, got {self.scaled_order!r}")
        for name in ("points_base", "wkb_points"):
            v = getattr(self, name)
            if not (isinstance(v, int) and v >= 8 and v & (v - 1) == 0):
                raise FieldError(name, f"must be a power of two >= 8, got {v!r}")
        for name, low, why in (("smalltime_points", 3, " for slope fits"),
                               ("max_points_per_axis", 8, "")):
            v = getattr(self, name)
            if not v >= low:
                raise FieldError(name, f"must be >= {low}{why}, got {v!r}")
            if not isinstance(v, int):
                raise FieldError(name, f"must be an integer, got {v!r}")

    def a1_coefficient(self, eps):
        """The coefficient c of a1 = c a0 at eps (A1_COEFFICIENTS)."""
        return A1_COEFFICIENTS[self.a1_mode](eps, self.scaled_order)

    @property
    def tau_index(self):
        """Snapshot index of the observation time on the save grid."""
        return round(self.tau / (self.horizon / self.n_saves))

    def grid_for(self, eps, scales, refine=1):
        """The wavefunction grid at eps: refine times the smallest power of
        two N >= points_base whose two-thirds cut (2/3) k_max reaches
        GRID_MARGIN (K_a + G/eps), with (G, K_a) = scales (grid_scales)."""
        gradient, extent = scales
        need = GRID_MARGIN * (extent + gradient / eps)
        n = self.points_base
        # (2/3) k_max is pi N / (3 L); past the cap the search stops, at an N
        # no larger than the rule's
        while n <= self.max_points_per_axis and math.pi * n / (3 * self.half_width) < need:
            n *= 2
        n *= refine
        if n > self.max_points_per_axis:
            raise ValueError(
                f"eps = {eps} needs N >= {n} > configured cap {self.max_points_per_axis}"
            )
        return make_grid(1, self.half_width, n)

    def grid_rule(self, scales):
        """The grid rule's inputs and its N per sweep point, as a study's
        header records them."""
        gradient, extent = scales
        return {"phase_gradient_max": gradient, "amplitude_extent": extent,
                "margin": GRID_MARGIN,
                "points_per_axis": [self.grid_for(eps, scales).points_per_axis
                                    for eps in self.eps_list]}

    def wkb_grid(self):
        return make_grid(1, self.half_width, self.wkb_points)

    def nls_run_config(self, grid, eps):
        return self._aligned(nls.NlsRunConfig, nls.default_dt(grid, eps, self.nls_dt_safety),
                             "nls_dt_safety", self.horizon, tail_tol=self.tail_tol)

    def wkb_run_config(self, grid, horizon=None):
        return self._aligned(wkb.WkbRunConfig, wkb.default_dt(grid, self.wkb_dt_safety),
                             "wkb_dt_safety", self.horizon if horizon is None else horizon)

    def _aligned(self, config_cls, dt_target, safety, horizon, **kwargs):
        """aligned_run_config at n_saves for the default step dt_target: the
        field safety times a step that the grid spacing sets.  A step the
        run config rejects (too many steps, or none) is a FieldError of
        safety when the step at safety's default value passes, else of
        half_width, which sets the spacing."""
        def config(dt):
            return aligned_run_config(config_cls, dt, horizon, self.n_saves, **kwargs)

        try:
            return config(dt_target)
        except ValueError as exc:
            default = self.__dataclass_fields__[safety].default
            try:
                config(dt_target / getattr(self, safety) * default)
                field = safety
            except ValueError:
                field = "half_width"
            raise FieldError(field, f"is out of range: {exc}") from None


def aligned_run_config(config_cls, dt_target, horizon, n_saves, **kwargs):
    """config_cls for a run saved at n_saves equal intervals of the horizon,
    each a whole number of steps no longer than dt_target; dt carries the
    sign of the horizon.  A dt_target that gives no finite step count (an
    underflowed dx^2) goes to config_cls as dt, whose checks reject it."""
    interval = horizon / n_saves
    ratio = abs(interval) / dt_target if dt_target else math.inf
    if math.isinf(ratio):
        return config_cls(dt=math.copysign(dt_target, horizon), T=horizon, **kwargs)
    steps = max(1, math.ceil(ratio))
    return config_cls(dt=interval / steps, T=horizon, save_every=steps, **kwargs)


class Run(NamedTuple):
    """One trajectory a study reads, and its cache key.  datum is the
    coefficient c of the perturbation a1 = c a0 (A1_COEFFICIENTS), which
    solve_runs turns into the run's data; eps is 0 for "limit"."""

    kind: str
    grid: Grid
    eps: float
    config: object
    a0: GaussianSpec
    datum: object


def _nls_run(cfg: SweepConfig, eps, c, scales, refine=1):
    grid = cfg.grid_for(eps, scales, refine)
    return Run("nls", grid, eps, cfg.nls_run_config(grid, eps), cfg.a0, c)


def _grenier_run(cfg: SweepConfig, eps, c=1.0):
    grid = cfg.wkb_grid()
    return Run("grenier", grid, eps, cfg.wkb_run_config(grid), cfg.a0, c)


def _limit_run(cfg: SweepConfig, c=1.0, horizon=None):
    grid = cfg.wkb_grid()
    return Run("limit", grid, 0.0, cfg.wkb_run_config(grid, horizon), cfg.a0, c)


def solve_runs(runs, keep=None):
    """One stacked integration of runs, which share their kind, grid and
    (for "nls") run config, each run at its own eps: one trajectory per
    run, each snapshot passed through keep when it is given.  A "limit"
    run's corrector starts from c a0, every other run from (1 + eps c) a0."""
    kind, grid = runs[0].kind, runs[0].grid
    if kind == "limit":
        return wkb.solve_limit_stack([(run.a0.realize(grid), run.a0.realize(grid, run.datum),
                                       run.config) for run in runs], keep)
    # a generator: the engine holds the data only until it has stacked them
    data = (run.a0.realize(grid, 1 + run.eps * run.datum) for run in runs)
    if kind == "nls":
        return nls.solve_nls_stack(data, [run.eps for run in runs], runs[0].config, keep)
    return wkb.solve_grenier_stack([(u0, run.eps, run.config) for u0, run in zip(data, runs)],
                                   keep)


def stack_runs(cache, runs):
    """Store every run in runs in the dict cache under its key, as one
    stacked integration per group: wavefunction runs group by grid and run
    config, whatever their eps, phase-amplitude runs of one kind by grid,
    step count and save cadence; a group's runs stack in the order runs
    lists them.  Runs already in the cache are skipped, so a second call
    over the same runs integrates nothing.

    A guard error propagates from the first stack that trips, raised by its
    first member to trip, in step order; that stack stores nothing, the
    stacks before it keep their runs.
    """
    groups = {}
    for run in dict.fromkeys(runs):
        if run in cache:
            continue
        rc = run.config
        shared = rc if run.kind == "nls" else (rc.steps, rc.save_every)
        groups.setdefault((run.kind, run.grid, shared), []).append(run)

    # Wavefunction stacks first: run before the small phase-amplitude ones,
    # they leave the heap less fragmented (selftest peak RSS 0.2 MiB lower).
    # Their grids were sized from the limit run, which grid_scales solved.
    for group in sorted(groups.values(), key=lambda g: g[0].kind != "nls"):
        cache.update(zip(group, solve_runs(group)))


def grid_scales(config, cache):
    """(G, K_a) of the sweep's limit run, which is stacked into the dict
    cache first unless it is there: the largest max |grad phi| and the
    largest spectral_extent(a, tail_tol) over its saved times."""
    run = _limit_run(config)
    stack_runs(cache, [run])
    phi, a = snapshots(cache[run], "phi", "a").values
    return gradient_max(run.grid, phi), spectral_extent(run.grid, a, config.tail_tol)


def snapshots(traj, *names):
    """The fields names (u, a, phi, a1 or phi1) of every snapshot of the
    trajectory traj as one stack of fields: times first, or for several
    names, names first and then times."""
    first = getattr(traj[0], names[0])
    lead = (len(names), len(traj)) if len(names) > 1 else (len(traj),)
    values = np.stack([getattr(state, name).values for name in names for state in traj])
    return Field(first.grid, values.reshape(lead + first.values.shape))


def _error_runs(config, eps, scales):
    """The runs wkb_error_study reads at one sweep point: u, u~ and the
    phase-amplitude run of u~'s datum."""
    return (_nls_run(config, eps, 0.0, scales), _nls_run(config, eps, 1.0, scales),
            _grenier_run(config, eps))


def _pair_runs(config, eps, scales, refine=1):
    """The paired wavefunction runs a ghost study reads at one sweep point."""
    return (_nls_run(config, eps, 0.0, scales, refine),
            _nls_run(config, eps, config.a1_coefficient(eps), scales, refine))


# A run plan lists every run a study reads, in its reading order, and solves
# nothing: its wavefunction grids are sized from the scales it is given.

def wkb_error_runs(config, scales):
    """wkb_error_study's run plan: the limit run, then each sweep point's
    _error_runs."""
    return [_limit_run(config),
            *(run for eps in config.eps_list for run in _error_runs(config, eps, scales))]


def small_time_runs(config, scales=None):
    """small_time_study's run plan: one limit run per dyadic horizon, and no
    wavefunction run, so scales goes unread."""
    return [_limit_run(config, horizon=config.horizon * 0.5**m)
            for m in range(config.smalltime_points)]


def ghost_runs(config, scales):
    """A ghost study's run plan: the limit run, then each sweep point's pair
    and, under certify_refinement, its pair on grids refined twofold."""
    refines = (1, 2) if config.certify_refinement else (1,)
    return [_limit_run(config), *(run for eps in config.eps_list for refine in refines
                                  for run in _pair_runs(config, eps, scales, refine))]


def fit_loglog(xs, ys):
    """Least-squares slope of log(y) against log(x); returns
    (slope, intercept, max_residual). Needs >= 3 strictly positive points
    and two distinct x."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if len(xs) < 3:
        raise ValueError(f"slope fits need at least 3 points, got {len(xs)}")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("slope fits need strictly positive data")
    lx, ly = np.log(xs), np.log(ys)
    # the centred closed form of the least-squares line: no BLAS or LAPACK call
    dx, dy = lx - lx.mean(), ly - ly.mean()
    sxx = np.sum(dx * dx)
    if sxx == 0:
        raise ValueError("slope fits need at least two distinct x")
    slope = np.sum(dx * dy) / sxx
    intercept = ly.mean() - slope * lx.mean()
    resid = np.abs(ly - (slope * lx + intercept)).max()
    return float(slope), float(intercept), float(resid)


def relative_spread(a, b):
    scale = max(abs(a), abs(b))
    if scale == 0:
        return 0.0
    return abs(a - b) / scale


@dataclass
class StudyReport:
    """Long-format sweep rows plus fitted slopes and named pass/fail checks,
    and the sweep config they were measured with (a bookkeeping report
    carries its measured report's)."""

    study: str
    config: SweepConfig
    header: dict
    rows: list
    slopes: list
    checks: dict

    def values(self, family, quantity, s=None):
        """Column of row values for one (family, quantity, s), in row order."""
        return [r["value"] for r in _rows_at(self.rows, family, quantity, s)]

    def passed(self):
        return all(c["passed"] for c in self.checks.values())


def _close(a, b, tol=1e-12):
    if a is None or b is None:
        return a is b
    return abs(a - b) <= tol


def _rows_at(rows, family, quantity, s=None):
    """The rows of one (family, quantity) at s, in row order; s=None matches
    any s."""
    return [r for r in rows if r["family"] == family and r["quantity"] == quantity
            and (s is None or _close(r.get("s"), s))]


def _row(family, quantity, value, **extra):
    base = {"family": family, "quantity": quantity, "value": value}
    base.update(extra)
    return base


def _check(checks, name, passed, value, bound, note=""):
    """Record the named pass/fail check with its measured value and bound."""
    checks[name] = {"passed": bool(passed), "value": value, "bound": bound, "note": note}


def _slope_fits(rows, quantity, xs, s_list, bands, degenerate=False):
    """The log-log slope of each family's quantity rows against xs at each s,
    and its check against the family's band (bands: family -> (lo, hi)).
    A degenerate sweep, whose values all vanish, fits nothing and passes."""
    slopes, checks = [], {}
    for family, (lo, hi) in bands.items():
        for s in s_list:
            vals = [r["value"] for r in _rows_at(rows, family, quantity, s)]
            name = f"{family}_slope_s{s:g}"
            if degenerate:
                fit = (None, None, None)
                _check(checks, name, True, None, "zero data", "all errors vanish identically")
            else:
                fit = fit_loglog(xs, vals)
                _check(checks, name, lo <= fit[0] <= hi, fit[0], f"[{lo}, {hi}]")
            slopes.append({"family": family, "s": s, "slope": fit[0], "intercept": fit[1],
                           "max_resid": fit[2], "n_points": len(vals)})
    return slopes, checks


def wkb_error_study(config: SweepConfig, cache: dict | None = None) -> StudyReport:
    """Accuracy of the oscillatory profiles and of the eps-expansion.

    Four error families per (eps, s), each a sup over the saved times:

    * profile_plain      |u - a e^{i phi/eps}|_{H^s_eps}           = O(eps)
    * profile_perturbed  |u~ - a e^{i phi1} e^{i phi/eps}|_{H^s_eps} = O(eps)
    * hyperbolic_gap     |a^eps - a|_{H^s} + |phi^eps - phi|_{H^s} = O(eps)
    * expansion_gap      corrector-corrected gap                   = O(eps^2)
    """
    if len(config.eps_list) < 3:
        raise ValueError(f"eps_list needs >= 3 points for slope fits, got {len(config.eps_list)}")
    cache = {} if cache is None else cache
    scales = grid_scales(config, cache)
    stack_runs(cache, wkb_error_runs(config, scales))
    limit = cache[_limit_run(config)]
    families = ("profile_plain", "profile_perturbed", "hyperbolic_gap", "expansion_gap")

    # The limit run's a, phi, phi1 and a1, each a stack over the saved times;
    # the first three make the profile.
    bg = snapshots(limit, "a", "phi", "phi1", "a1")
    profile = Field(bg.grid, bg.values[:3])

    # One sweep point per call, so that its fields are freed before the next
    # point's are built (selftest peak RSS 0.3 MiB lower than one flat loop).
    # Every field is a stack over the saved times, and the error fields of
    # each grid one stack of them, built and transformed in place; so each
    # s takes one norm per grid, and a family's sup is the largest of its
    # errors over the times.
    def point_rows(eps):
        u_run, ut_run, g_run = _error_runs(config, eps, scales)
        fine = cache[u_run][0].u.grid
        a_f, phi_f, phi1_f = resample(profile, fine.points_per_axis).values
        carrier = wkb.reconstruct(Field(fine, a_f), Field(fine, phi_f), eps).values
        twist = np.exp(1j * phi1_f.real)
        del a_f, phi_f, phi1_f
        # u - carrier and u~ - carrier e^{i phi1}
        fine_errors = np.empty((2,) + carrier.shape, dtype=complex)
        for row, run in zip(fine_errors, (u_run, ut_run)):
            np.stack([state.u.values for state in cache[run]], out=row)
        fine_errors[0] -= carrier
        fine_errors[1] -= np.multiply(carrier, twist, out=twist)
        del carrier, twist
        # a^eps - a and phi^eps - phi, then each less eps times its corrector
        coarse_errors = np.empty(bg.values.shape, dtype=complex)
        gaps = coarse_errors[:2]
        np.subtract(snapshots(cache[g_run], "a", "phi").values, bg.values[:2], out=gaps)
        np.subtract(gaps, eps * bg.values[3:1:-1], out=coarse_errors[2:])  # a1, phi1
        fine_errors, coarse_errors = (
            Field(g, _fft(errors, g.dim, out=errors), SPECTRAL)
            for g, errors in ((fine, fine_errors), (bg.grid, coarse_errors)))
        sup = {}
        for s in config.s_list:
            plain, perturbed = norm(fine_errors, SobolevIndex(s, eps_scaled=eps))
            da, dphi, da2, dphi2 = norm(coarse_errors, SobolevIndex(s))
            for family, error in zip(families, (plain, perturbed, da + dphi, da2 + dphi2)):
                # the running max over the saved times, from 0
                sup[family, s] = max(0.0, *error.tolist())
        return [_row(family, "sup_error", sup[family, s], eps=eps, s=s)
                for family in families for s in config.s_list]

    rows = [row for eps in config.eps_list for row in point_rows(eps)]

    bands = dict.fromkeys(families[:3], SLOPE_BAND_ORDER1) | {"expansion_gap": SLOPE_BAND_ORDER2}
    slopes, checks = _slope_fits(rows, "sup_error", config.eps_list, config.s_list, bands,
                                 degenerate=all(r["value"] == 0.0 for r in rows))

    header = {"description": "profile and expansion error sweep",
              "grid_rule": config.grid_rule(scales)}
    return StudyReport("wkb_error", config, header, rows, slopes, checks)


def small_time_study(config: SweepConfig, cache: dict | None = None) -> StudyReport:
    """Residuals of the small-time phase expansions on a dyadic t-grid.

    r(t)  = |phi(t)  +   t |a0|^2|_{H^s}  and
    r1(t) = |phi1(t) + 2 t |a0|^2|_{H^s}  both scale like t^3.
    """
    cache = {} if cache is None else cache
    runs = small_time_runs(config)
    stack_runs(cache, runs)
    grid = config.wkb_grid()
    a0_sq = np.abs(config.a0.realize(grid).values) ** 2
    times = [run.config.T for run in runs]

    # both residuals at every time, one (times, 2) stack normed once per s
    res = transform(Field(grid, np.stack([
        (bg.phi.values.real + t * a0_sq, bg.phi1.values.real + 2 * t * a0_sq)
        for t, bg in zip(times, (cache[run][-1] for run in runs))])))
    norms = [norm(res, SobolevIndex(s)).tolist() for s in config.s_list]
    families = ("phase_residual", "corrector_phase_residual")
    rows = [_row(family, "residual", r, t=t, s=s)
            for i, t in enumerate(times) for s, by_time in zip(config.s_list, norms)
            for family, r in zip(families, by_time[i])]
    slopes, checks = _slope_fits(rows, "residual", times, config.s_list,
                                 dict.fromkeys(families, SLOPE_BAND_CUBIC))

    header = {"description": "dyadic small-time expansion residuals"}
    return StudyReport("small_time", config, header, rows, slopes, checks)


def _ghost_core(config: SweepConfig, cache: dict | None, higher_order: bool) -> StudyReport:
    if len(config.eps_list) < 2:
        raise ValueError("ghost studies need at least two sweep points")
    cache = {} if cache is None else cache
    scales = grid_scales(config, cache)
    stack_runs(cache, ghost_runs(config, scales))
    bg_tau = cache[_limit_run(config)][config.tau_index]
    a0_l2 = norm(config.a0.realize(config.wkb_grid()))
    floor = SEPARATION_FLOOR_FACTOR * a0_l2

    def pair_diff(eps, refine):
        u, ut = (cache[run][config.tau_index].u for run in _pair_runs(config, eps, scales, refine))
        return Field(u.grid, u.values - ut.values)

    def point_rows(eps):
        """The rows of one sweep point, its u - u~ and profile prediction
        normed as one stack, freed when it returns (as in wkb_error_study)."""
        diff = pair_diff(eps, 1)
        grid, lam = diff.grid, config.a1_coefficient(eps).real
        a_f, phi_f, phi1_f = resample(snapshots([bg_tau], "a", "phi", "phi1"),
                                      grid.points_per_axis).values[:, 0]
        pred = (wkb.reconstruct(Field(grid, a_f), Field(grid, phi_f), eps).values
                * (1 - np.exp(1j * lam * phi1_f.real)))
        l4 = lp_norm(diff, 4.0)
        pair = transform(Field(grid, np.stack([diff.values, pred])))
        refined = transform(pair_diff(eps, 2)) if config.certify_refinement else None
        out = []
        for s in config.s_list:
            idx = SobolevIndex(s, homogeneous=True)
            raw, p = norm(pair, idx).tolist()
            d = eps**s * raw
            p *= eps**s
            table = [("diff_hs_raw", raw), ("separation_scaled", d), ("profile_prediction", p)]
            if p > 1e-300:
                table.append(("ratio_to_profile", d / p))
            if refined is not None:
                d2 = eps**s * norm(refined, idx)
                table.append(("refined_rel_change", relative_spread(d, d2)))
            if higher_order:
                table.append(("higher_order_scaled", d * eps ** (1 - config.scaled_order)))
            out += [_row("ghost", quantity, value, eps=eps, s=s) for quantity, value in table]
        return out + [_row("ghost", "diff_l4", l4, eps=eps, s=None)]

    rows = [row for eps in config.eps_list for row in point_rows(eps)]

    header = {"description": "paired-run separation at the observation time",
              "observation_time": config.tau, "a0_l2": a0_l2, "separation_floor": floor,
              "grid_rule": config.grid_rule(scales)}
    report = StudyReport("ghost_higher_order" if higher_order else "ghost_separation",
                         config, header, rows, [], {})
    checks = report.checks
    rtol = HIGHER_ORDER_STABILIZATION_RTOL if higher_order else GHOST_STABILIZATION_RTOL
    verdict = "higher_order_scaled" if higher_order else "separation_scaled"
    for s in config.s_list:
        vals = report.values("ghost", verdict, s)
        if config.a1_mode == "zero":
            worst = max(abs(v) for v in vals)
            _check(checks, f"control_null_s{s:g}", worst <= 1e-10, worst, "<= 1e-10",
                   "identical data must give a vanishing difference")
            continue
        spread = relative_spread(vals[-1], vals[-2])
        stabilized = spread <= rtol
        lowest = min(vals[-1], vals[-2])
        # a vanishing separation fails even where the floor itself is 0 (a0 = 0)
        above_floor = lowest > 0 and lowest >= floor
        separated = lowest >= 0.5 * max(vals) and above_floor
        _check(checks, f"stabilized_s{s:g}", stabilized, spread, f"<= {rtol}",
               "relative spread of the two finest sweep points")
        _check(checks, f"above_floor_s{s:g}", above_floor, lowest,
               f">= {floor:.6e}", "floor is 1e-3 * |a0|_L2")
        _check(checks, f"separated_s{s:g}", separated, lowest,
               f">= max(floor, half of max over sweep = {0.5 * max(vals):.6e})",
               "operational liminf > 0 verdict")
        ratios = [r["value"] for r in _rows_at(rows, "ghost", "ratio_to_profile", s)
                  if r["eps"] in config.eps_list[-2:]]
        if len(ratios) == 2:
            worst_ratio = max(ratios, key=lambda r: abs(math.log(r)) if r > 0 else math.inf)
            _check(checks, f"profile_ratio_s{s:g}", all(0.5 <= r <= 2.0 for r in ratios),
                   worst_ratio, "[0.5, 2.0] at the two finest sweep points",
                   "measured/predicted outside the band flags under-resolution")
        if config.certify_refinement:
            worst = max(report.values("ghost", "refined_rel_change", s))
            _check(checks, f"grid_independent_s{s:g}", worst < 0.05, worst, "< 0.05",
                   "doubling N changes the reported value by less than 5%")
    return report


def ghost_separation_study(config: SweepConfig, cache: dict | None = None) -> StudyReport:
    """Separation D_s(eps) = eps^s |u(tau) - u~(tau)|_{Hdot^s} for paired
    runs, with the profile prediction and the operational liminf verdict."""
    return _ghost_core(config, cache, higher_order=False)


def ghost_higher_order_study(config: SweepConfig, cache: dict | None = None) -> StudyReport:
    """Same pairing with datum (1 + eps^N) a0, tabulating
    eps^{s+1-N} |u - u~|_{Hdot^s} which stabilizes to a positive constant."""
    if config.a1_mode != "scaled":
        raise ValueError("higher-order ghost study requires a1_mode = 'scaled'")
    return _ghost_core(config, cache, higher_order=True)


@dataclass(frozen=True)
class ScalingParams:
    """Dimension-n scaling frame: s_c = n/2 - 1, datum frequency
    j = eps^{1/(s - s_c)}, observation times t_j = tau j^{-(s_c + 2 - s)}."""

    n: int = 6
    s: float = 1.0
    sigma: float = 1.5
    k: float = 1.0

    def __post_init__(self):
        if not (isinstance(self.n, int) and self.n >= 3):
            raise FieldError("n", f"must be an integer >= 3, got {self.n!r}")
        if not self.s < self.s_c:
            raise FieldError("s", f"= {self.s} must be < s_c = {self.s_c}")
        if not self.s >= 0:
            raise FieldError("s", f"must be >= 0, got {self.s}")
        if not 0 <= self.sigma < self.s_c:
            raise FieldError("sigma", f"= {self.sigma} must lie in [0, s_c = {self.s_c})")
        if not self.k > 0:
            raise FieldError("k", f"must be positive, got {self.k}")

    @property
    def s_c(self):
        return self.n / 2 - 1

    @property
    def k_threshold(self):
        """Growth starts strictly above k = s / (1 + s_c - s)."""
        return self.s / (1 + self.s_c - self.s)

    def growth_exponent(self, k=None):
        """Exact exponent of j in the physical-scale difference norm."""
        k = self.k if k is None else k
        return k * (1 + self.s_c - self.s) - self.s

    def j_for(self, eps):
        return eps ** (1.0 / (self.s - self.s_c))

    def t_j(self, j, tau):
        return tau * j ** -(self.s_c + 2 - self.s)


def _tabulate(rows, columns, family, eps, table):
    """Append one sweep point's (quantity, value, s) table to rows, and each
    value to its quantity's column in columns."""
    for quantity, value, s in table:
        rows.append(_row(family, quantity, value, eps=eps, s=s))
        columns.setdefault(quantity, []).append(value)


LIMITATION_NOTE = (
    "scale quantities combine 1-D measured profile norms with exact "
    "rescaling identities in dimension n; no n-dimensional PDE run is performed"
)


def inflation_bookkeeping(params: ScalingParams, measured: StudyReport) -> StudyReport:
    """Physical-scale bookkeeping: datum norms shrink in H^sigma while the
    measured solution differences, rescaled by j^{k-s}, grow (or stay
    bounded below at the threshold exponent)."""
    measured_rows = _rows_at(measured.rows, "ghost", "diff_hs_raw", params.k)
    if not measured_rows:
        raise ValueError(
            f"measured study has no Hdot^{params.k:g} difference rows; "
            "re-run the sweep with k included in s_list"
        )
    a0, tau = measured.config.a0.realize(measured.config.wkb_grid()), measured.config.tau
    a0_l2 = norm(a0)
    a0_hsig = norm(a0, SobolevIndex(params.sigma, homogeneous=True))

    rows, cols, n, s, sig, k = [], {}, params.n, params.s, params.sigma, params.k
    for r in measured_rows:
        j = params.j_for(r["eps"])
        _tabulate(rows, cols, "inflation", r["eps"], (
            ("j", j, k),
            ("t_j", params.t_j(j, tau), k),
            ("physical_diff_hk", j ** (k - s) * r["value"], k),
            ("data_diff_l2", j ** (1 - n / 2) * a0_l2, None),
            ("data_diff_hsigma", j ** (1 + sig - n / 2) * a0_hsig, sig),
            ("data_diff_hsigma_bound",
             j ** (1 - n / 2) * a0_l2 + j ** (1 + sig - n / 2) * a0_hsig, sig),
        ))
    js = cols["j"]

    exact = params.growth_exponent()
    slope, intercept, resid = (None, None, None)
    if len(js) >= 3:
        slope, intercept, resid = fit_loglog(js, cols["physical_diff_hk"])
    slopes = [
        {"family": "inflation", "s": k, "slope": slope, "intercept": intercept,
         "max_resid": resid, "n_points": len(js)},
    ]

    if abs(exact) <= 1e-12:
        classification = "bounded below, no blow-up"
    elif exact > 0:
        classification = "grows without bound"
    else:
        classification = "decays"

    checks = {}
    _check(checks, "data_differences_vanish", 1 + sig - n / 2 < 0 and 1 - n / 2 < 0,
           1 + sig - n / 2, "< 0", "exact exponents of the datum-difference norms")
    _check(checks, "exponent_matches_threshold_side",
           (exact > 1e-12) == (k > params.k_threshold + 1e-12)
           and (abs(exact) <= 1e-12) == (abs(k - params.k_threshold) <= 1e-12),
           exact, f"sign flip at k = {params.k_threshold}", classification)
    if slope is not None:
        # Desk-scale sweeps still carry the O(eps) transient of the
        # separation quantity, so only the sign of the measured growth is
        # meaningful away from the threshold.
        if abs(exact) >= 0.5:
            _check(checks, "measured_growth_sign", np.sign(slope) == np.sign(exact), slope,
                   f"sign of exact exponent {exact}",
                   "fit of the rescaled measured differences against j")
        else:
            _check(checks, "measured_growth_sign", True, slope,
                   "informational near the threshold",
                   "boundedness is covered by the separation stabilization check")

    header = {
        "params": asdict(params),
        "s_c": params.s_c,
        "k_threshold": params.k_threshold,
        "exact_exponent": exact,
        "classification": classification,
        "source_study": measured.study,
        "limitation": LIMITATION_NOTE,
    }
    return StudyReport("inflation", measured.config, header, rows, slopes, checks)


def corollary_bookkeeping(n, measured: StudyReport, delta=0.1) -> StudyReport:
    """Energy-frame bookkeeping at s = n/4 (n >= 5): mass and the
    data-difference energy vanish, both data energies settle into the
    [C0 - delta, C0 + delta] band, and the solution-difference energy at
    t_j stays bounded below."""
    if not (isinstance(n, int) and n >= 5):
        raise ValueError(f"the energy-frame bookkeeping needs integer n >= 5, got {n!r}")
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta!r}")
    frame = ScalingParams(n=n, s=n / 4, sigma=0.0)
    s = frame.s
    h1_rows = _rows_at(measured.rows, "ghost", "diff_hs_raw", 1.0)
    if not h1_rows:
        raise ValueError("measured study must include s = 1 rows for the gradient energy")
    l4_rows = _rows_at(measured.rows, "ghost", "diff_l4")
    if [r["eps"] for r in l4_rows] != [r["eps"] for r in h1_rows]:
        raise ValueError("measured study lacks matching quartic-norm rows")

    a0, tau = measured.config.a0.realize(measured.config.wkb_grid()), measured.config.tau
    l2_sq = norm(a0) ** 2
    grad_sq = norm(a0, SobolevIndex(1.0, homogeneous=True)) ** 2
    quart = lp_norm(a0, 4.0) ** 4
    c0 = quart

    def data_mass(lam, j):
        return lam**2 * j**-n * l2_sq

    def data_energy(lam, j):
        return lam**2 * j ** (2 - n) * grad_sq + lam**4 * j**-n * quart

    rows, cols = [], {}
    for h1, l4 in zip(h1_rows, l4_rows):
        j = frame.j_for(h1["eps"])
        lam_plain = j ** (n / 2 - s)
        lam_tilde = lam_plain + j
        _tabulate(rows, cols, "corollary", h1["eps"], (
            ("j", j, None),
            ("t_j", frame.t_j(j, tau), None),
            ("mass_data", data_mass(lam_plain, j), None),
            ("mass_data_tilde", data_mass(lam_tilde, j), None),
            ("energy_data", data_energy(lam_plain, j), None),
            ("energy_data_tilde", data_energy(lam_tilde, j), None),
            ("energy_data_diff", data_energy(j, j), None),
            ("energy_solution_diff",
             j ** (2 - 2 * s) * h1["value"]**2 + j ** (n - 4 * s) * l4["value"]**4, None),
        ))

    # Smallest j past which both data energies sit inside the band; the
    # corrections decay monotonically so a doubling search is enough.
    def in_band(j):
        lam = j ** (n / 2 - s)
        return (
            abs(data_energy(lam, j) - c0) <= delta
            and abs(data_energy(lam + j, j) - c0) <= delta
        )

    j_star = 1.0
    while not in_band(j_star):
        j_star *= 2
        if j_star > 1e12:
            raise ValueError(f"no j <= 1e12 puts both data energies within delta = {delta} of C0")
    lo, hi = max(1.0, j_star / 2), j_star
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if in_band(mid):
            hi = mid
        else:
            lo = mid
    j_star = hi

    mass_cols = [cols["mass_data"], cols["mass_data_tilde"]]
    diffs, e_sol = cols["energy_data_diff"], cols["energy_solution_diff"]
    band_rows = [(jv, ep, ed)
                 for jv, ep, ed in zip(cols["j"], cols["energy_data"], cols["energy_data_tilde"])
                 if jv >= j_star]
    spread = relative_spread(e_sol[-1], e_sol[-2]) if len(e_sol) >= 2 else None
    lowest = min(e_sol[-2:]) if len(e_sol) >= 2 else None

    # Each verdict below also needs a strictly positive value: an all-zero
    # datum (a0 = 0) gives all-zero columns, which are "sorted decreasing",
    # a zero C0, whose band holds 0, and a zero floor.
    checks = {}
    _check(checks, "mass_vanishes",
           all(col == sorted(col, reverse=True) for col in mass_cols) and -2 * s < 0
           and mass_cols[0][-1] > 0,
           mass_cols[0][-1], "decreasing with exact exponent -n/2", "mass of both data sequences")
    _check(checks, "data_energy_difference_vanishes",
           diffs == sorted(diffs, reverse=True) and 4 - n < 0 and diffs[-1] > 0,
           diffs[-1], "decreasing with exact exponent 4 - n")
    _check(checks, "data_energies_in_band",
           band_rows and band_rows[-1][1] > 0
           and all(abs(ep - c0) <= delta and abs(ed - c0) <= delta for _, ep, ed in band_rows),
           band_rows[-1][1] if band_rows else None,
           f"[{c0 - delta}, {c0 + delta}] for j >= {j_star:.6g}",
           f"{len(band_rows)} sweep rows past the threshold")
    _check(checks, "solution_energy_bounded_below",
           spread is not None
           and spread <= HIGHER_ORDER_STABILIZATION_RTOL
           and lowest > 0 and lowest >= SEPARATION_FLOOR_FACTOR * c0,
           lowest,
           f">= {SEPARATION_FLOOR_FACTOR * c0:.6e} with spread <= "
           f"{HIGHER_ORDER_STABILIZATION_RTOL}",
           "extrapolated difference energy at t_j")

    header = {
        "n": n,
        "s": s,
        "s_c": frame.s_c,
        "leading_energy": c0,
        "delta": delta,
        "band_threshold_j": j_star,
        "source_study": measured.study,
        "limitation": LIMITATION_NOTE,
    }
    return StudyReport("corollary", measured.config, header, rows, [], checks)
