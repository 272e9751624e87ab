"""Sweep orchestration and bookkeeping.

Four measurement studies run eps- and t-sweeps against the solvers:
profile accuracy (order eps), the corrector expansion (order eps^2),
small-time phase expansions (order t^3), and the ghost separation
quantities eps^s * |u - u_tilde|_{Hdot^s}.  Two bookkeeping operations
convert measured sweep rows into the physical-scale instability
statements through exact rescaling identities.

Wavefunction runs use per-eps grids (N grows like 1/eps); the smooth
phase-amplitude fields are integrated once on a coarse grid and
spectrally upsampled wherever an oscillatory profile is needed.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from . import nls, wkb
from .errors import GuardError
from .grid import (
    Field, SobolevIndex, lp_norm, make_gaussian, make_grid, norm, resample, transform,
)

A1_MODES = ("zero", "equal_a0", "scaled", "imaginary")

# Operational stand-ins for the eps -> 0 limit: the two finest sweep
# points must agree to this relative spread and exceed the floor.
GHOST_STABILIZATION_RTOL = 0.25
HIGHER_ORDER_STABILIZATION_RTOL = 0.30
SEPARATION_FLOOR_FACTOR = 1e-3

SLOPE_BAND_ORDER1 = (0.8, 1.2)
SLOPE_BAND_ORDER2 = (1.7, 2.3)
SLOPE_BAND_CUBIC = (2.7, 3.3)


@dataclass(frozen=True)
class GaussianSpec:
    """Parameters of the canonical datum amplitude * exp(-|x-c|^2/w^2)."""

    amplitude: float = 1.0
    width: float = 1.0
    center: float = 0.0

    def realize(self, grid, multiplier=1.0) -> Field:
        base = make_gaussian(grid, self.amplitude, self.width, self.center)
        if multiplier == 1.0:
            return base
        return Field(grid, multiplier * base.values)


@dataclass(frozen=True)
class SweepConfig:
    """Everything an eps-sweep needs; grids grow as eps shrinks."""

    eps_list: tuple
    s_list: tuple = (0.0, 1.0, 2.0)
    tau: float = 0.2
    horizon: float = 0.25
    a0: GaussianSpec = GaussianSpec()
    a1_mode: str = "equal_a0"
    scaled_order: int = 2
    half_width: float = 12.0
    points_base: int = 256
    eps_ref: float = 0.25
    wkb_points: int = 256
    n_saves: int = 10
    nls_dt_safety: float = nls.DEFAULT_DT_SAFETY
    wkb_dt_safety: float = 0.25
    tail_tol: float = 1e-6
    smalltime_points: int = 6
    certify_refinement: bool = False
    max_points_per_axis: int = 32768
    jobs: int = 1

    def __post_init__(self):
        if len(self.eps_list) == 0:
            raise ValueError("eps_list must not be empty")
        if any(not 0 < e <= 1 for e in self.eps_list):
            raise ValueError(f"eps_list entries must lie in (0, 1], got {self.eps_list}")
        if not all(a > b for a, b in zip(self.eps_list, self.eps_list[1:])):
            raise ValueError(f"eps_list must be strictly decreasing, got {self.eps_list}")
        if len(self.s_list) == 0 or any(s < 0 for s in self.s_list):
            raise ValueError(f"s_list must be nonempty with s >= 0, got {self.s_list}")
        if not 0 < self.tau <= self.horizon:
            raise ValueError(f"tau = {self.tau} must lie in (0, horizon = {self.horizon}]")
        ratio = self.tau / (self.horizon / self.n_saves)
        if abs(ratio - round(ratio)) > 1e-9:
            raise ValueError(
                f"tau = {self.tau} must fall on the save grid "
                f"(horizon/n_saves = {self.horizon / self.n_saves})"
            )
        if self.a1_mode not in A1_MODES:
            raise ValueError(f"a1_mode must be one of {A1_MODES}, got {self.a1_mode!r}")
        if not (isinstance(self.scaled_order, int) and self.scaled_order >= 1):
            raise ValueError(f"scaled_order must be an integer >= 1, got {self.scaled_order!r}")
        for name in ("points_base", "wkb_points"):
            v = getattr(self, name)
            if v < 8 or v & (v - 1) != 0:
                raise ValueError(f"{name} must be a power of two >= 8, got {v!r}")
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs!r}")
        if self.smalltime_points < 3:
            raise ValueError("smalltime_points must be >= 3 for slope fits")

    @property
    def tau_index(self):
        """Snapshot index of the observation time on the save grid."""
        return round(self.tau / (self.horizon / self.n_saves))

    def grid_for(self, eps, refine=1):
        target = self.points_base * self.eps_ref / eps * refine
        n = max(self.points_base, 2 ** math.ceil(math.log2(target)))
        if n > self.max_points_per_axis:
            raise ValueError(
                f"eps = {eps} needs N = {n} > configured cap {self.max_points_per_axis}"
            )
        return make_grid(1, self.half_width, n)

    def wkb_grid(self):
        return make_grid(1, self.half_width, self.wkb_points)

    def nls_run_config(self, grid, eps):
        return aligned_run_config(
            nls.NlsRunConfig, nls.default_dt(grid, eps, self.nls_dt_safety),
            self.horizon, self.n_saves, tail_tol=self.tail_tol,
        )

    def wkb_run_config(self, grid, eps, horizon=None):
        return aligned_run_config(
            wkb.WkbRunConfig, wkb.default_dt(grid, eps, self.wkb_dt_safety),
            self.horizon if horizon is None else horizon, self.n_saves, tail_tol=self.tail_tol,
        )


def aligned_run_config(config_cls, dt_target, horizon, n_saves, **kwargs):
    """config_cls for a run saved at n_saves equal intervals of the horizon,
    each a whole number of steps no longer than dt_target; dt carries the
    sign of the horizon."""
    interval = horizon / n_saves
    steps = max(1, math.ceil(abs(interval) / dt_target))
    return config_cls(dt=interval / steps, T=horizon, save_every=steps, **kwargs)


def tilde_multiplier(mode, eps, order=2):
    """Datum factor for the perturbed run: u_tilde(0) = m * a0."""
    if mode == "zero":
        return 1.0
    if mode == "equal_a0":
        return 1.0 + eps
    if mode == "scaled":
        return 1.0 + eps**order
    if mode == "imaginary":
        return 1.0 + 1j * eps
    raise ValueError(f"unknown a1_mode {mode!r}")


def corrector_phase_scale(mode, eps, order=2):
    """Factor lambda such that the perturbed profile is a e^{i lambda phi1} e^{i phi/eps}.

    The corrector system is linear in its datum, so a1 = c*a0 produces
    c*phi1; purely imaginary perturbations of a real background produce no
    phase at all.
    """
    if mode == "zero" or mode == "imaginary":
        return 0.0
    if mode == "equal_a0":
        return 1.0
    if mode == "scaled":
        return eps ** (order - 1)
    raise ValueError(f"unknown a1_mode {mode!r}")


class RunCache:
    """Memoizes trajectories across studies; safe under the thread pool.

    Each key is computed once: a thread that asks for a key another
    thread is computing waits for that result (or its exception).
    """

    def __init__(self):
        self._data = {}
        self._running = {}
        self._lock = threading.Lock()

    def get_or_run(self, key, fn):
        with self._lock:
            if key in self._data:
                return self._data[key]
            running = self._running.get(key)
            if running is None:
                self._running[key] = mine = Future()
        if running is not None:
            return running.result()
        try:
            value = fn()
        except BaseException as exc:
            with self._lock:
                del self._running[key]
            mine.set_exception(exc)
            raise
        with self._lock:
            self._data[key] = value
            del self._running[key]
        mine.set_result(value)
        return value

    def runs(self, kind):
        """Cached values whose key starts with kind ("nls", "limit", ...),
        in insertion order."""
        with self._lock:
            return [v for k, v in self._data.items() if k[0] == kind]


def _nls_run(cfg: SweepConfig, eps, multiplier, refine=1):
    """Grid, run config and cache key of the wavefunction run from
    multiplier * a0 at one sweep point."""
    grid = cfg.grid_for(eps, refine)
    rc = cfg.nls_run_config(grid, eps)
    return grid, rc, ("nls", grid.points_per_axis, eps, complex(multiplier), cfg.a0, rc)


def _nls_trajectory(cache, cfg: SweepConfig, eps, multiplier, refine=1):
    grid, rc, key = _nls_run(cfg, eps, multiplier, refine)
    return cache.get_or_run(
        key, lambda: nls.solve_nls(cfg.a0.realize(grid, multiplier), eps, rc)
    )


def stack_nls_runs(cache, cfg: SweepConfig, multipliers):
    """Cache the wavefunction runs from m * a0 for every m in
    multipliers(eps), one stacked integration per sweep point, under the
    keys _nls_trajectory reads.

    A stack that trips a guard caches nothing: its runs are left to
    _nls_trajectory, which raises each run's own error when it is asked
    for that run.
    """
    def one_eps(eps):
        mults = list(dict.fromkeys(multipliers(eps)))
        grid, rc, _ = _nls_run(cfg, eps, 1.0)
        try:
            runs = nls.solve_nls_stack([cfg.a0.realize(grid, m) for m in mults], eps, rc)
        except GuardError:
            return
        for m, traj in zip(mults, runs):
            _, _, key = _nls_run(cfg, eps, m)
            cache.get_or_run(key, lambda traj=traj: traj)

    _sweep_map(cfg, one_eps)


def a1_datum(kind, a0):
    """The datum a1 a phase-amplitude run pairs with a0: None for "zero",
    a0 for "equal_a0", i a0 for "imaginary"."""
    if kind == "zero":
        return None
    if kind == "equal_a0":
        return a0
    if kind == "imaginary":
        return Field(a0.grid, 1j * a0.values)
    raise ValueError(f"unknown a1 datum kind {kind!r}")


def _limit_trajectory(cache, cfg: SweepConfig, a1_kind="equal_a0"):
    grid = cfg.wkb_grid()
    rc = cfg.wkb_run_config(grid, 0.0)
    key = ("limit", grid.points_per_axis, a1_kind, cfg.a0, rc)

    def go():
        a0 = cfg.a0.realize(grid)
        return wkb.solve_limit_with_corrector(a0, a1_datum(a1_kind, a0), rc)

    return cache.get_or_run(key, go)


def _grenier_trajectory(cache, cfg: SweepConfig, eps, a1_kind="equal_a0"):
    grid = cfg.wkb_grid()
    rc = cfg.wkb_run_config(grid, eps)
    key = ("grenier", grid.points_per_axis, eps, a1_kind, cfg.a0, rc)

    def go():
        a0 = cfg.a0.realize(grid)
        return wkb.solve_grenier(a0, a1_datum(a1_kind, a0), eps, rc)

    return cache.get_or_run(key, go)


def fit_loglog(xs, ys):
    """Least-squares slope of log(y) against log(x); returns
    (slope, intercept, max_residual). Needs >= 3 strictly positive points."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if len(xs) < 3:
        raise ValueError(f"slope fits need at least 3 points, got {len(xs)}")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("slope fits need strictly positive data")
    lx, ly = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = np.abs(ly - (slope * lx + intercept)).max()
    return float(slope), float(intercept), float(resid)


def relative_spread(a, b):
    scale = max(abs(a), abs(b))
    if scale == 0:
        return 0.0
    return abs(a - b) / scale


@dataclass
class StudyReport:
    """Long-format sweep rows plus fitted slopes and named pass/fail checks."""

    study: str
    header: dict
    rows: list
    slopes: list
    checks: dict

    def values(self, family, quantity, s=None):
        """Column of row values for one (family, quantity, s), in row order."""
        out = []
        for r in self.rows:
            if r["family"] != family or r["quantity"] != quantity:
                continue
            if s is not None and not _close(r.get("s"), s):
                continue
            out.append(r["value"])
        return out

    def slope(self, family, s=None):
        for item in self.slopes:
            if item["family"] == family and (s is None or _close(item.get("s"), s)):
                return item
        raise KeyError(f"no slope recorded for family={family!r}, s={s!r}")

    def passed(self):
        return all(c["passed"] for c in self.checks.values())


def _close(a, b, tol=1e-12):
    if a is None or b is None:
        return a is b
    return abs(a - b) <= tol


def _row(family, quantity, value, **extra):
    base = {"family": family, "quantity": quantity, "value": value}
    base.update(extra)
    return base


def _config_header(cfg: SweepConfig, **notes):
    header = {"config": asdict(cfg)}
    header.update(notes)
    return header


def _band_check(name, value, band, checks, note=""):
    lo, hi = band
    checks[name] = {
        "passed": bool(value is not None and lo <= value <= hi),
        "value": value,
        "bound": f"[{lo}, {hi}]",
        "note": note,
    }


def _profile_fields(bg, corr, fine_n):
    """Upsample the smooth limit fields onto the oscillatory grid."""
    a = resample(bg.a, fine_n)
    phi = resample(bg.phi, fine_n).values.real
    phi1 = resample(corr.phi1, fine_n).values.real
    return a, phi, phi1


def _sweep_map(cfg, fn):
    """Evaluate fn(eps) for every sweep point, optionally in parallel;
    results keep the eps_list order."""
    if cfg.jobs > 1:
        with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
            return list(pool.map(fn, cfg.eps_list))
    return [fn(eps) for eps in cfg.eps_list]


def wkb_error_study(config: SweepConfig, cache: RunCache | None = None) -> StudyReport:
    """Accuracy of the oscillatory profiles and of the eps-expansion.

    Four error families per (eps, s), each a sup over the saved times:

    * profile_plain      |u - a e^{i phi/eps}|_{H^s_eps}           = O(eps)
    * profile_perturbed  |u~ - a e^{i phi1} e^{i phi/eps}|_{H^s_eps} = O(eps)
    * hyperbolic_gap     |a^eps - a|_{H^s} + |phi^eps - phi|_{H^s} = O(eps)
    * expansion_gap      corrector-corrected gap                   = O(eps^2)
    """
    cache = cache or RunCache()
    limit = _limit_trajectory(cache, config, "equal_a0")

    def one_eps(eps):
        fine = config.grid_for(eps)
        n_fine = fine.points_per_axis
        u_traj = _nls_trajectory(cache, config, eps, 1.0)
        ut_traj = _nls_trajectory(cache, config, eps, 1.0 + eps)
        g_traj = _grenier_trajectory(cache, config, eps, "equal_a0")

        sup_plain = {s: 0.0 for s in config.s_list}
        sup_pert = {s: 0.0 for s in config.s_list}
        sup_hyp = {s: 0.0 for s in config.s_list}
        sup_exp = {s: 0.0 for s in config.s_list}
        for (bg, corr), us, uts, gs in zip(limit, u_traj, ut_traj, g_traj):
            a_f, phi_f, phi1_f = _profile_fields(bg, corr, n_fine)
            carrier = a_f.values * np.exp(1j * phi_f / eps)
            coarse = bg.a.grid
            a_gap = gs.a.values - bg.a.values
            phi_gap = gs.phi.values - bg.phi.values
            # Each error field is transformed once, for every s below.
            d_plain = transform(Field(fine, us.u.values - carrier))
            d_pert = transform(Field(fine, uts.u.values - carrier * np.exp(1j * phi1_f)))
            da = transform(Field(coarse, a_gap))
            dphi = transform(Field(coarse, phi_gap))
            da2 = transform(Field(coarse, a_gap - eps * corr.a1.values))
            dphi2 = transform(Field(coarse, phi_gap - eps * corr.phi1.values))
            for s in config.s_list:
                idx_eps = SobolevIndex(s, eps_scaled=eps)
                idx = SobolevIndex(s)
                sup_plain[s] = max(sup_plain[s], norm(d_plain, idx_eps))
                sup_pert[s] = max(sup_pert[s], norm(d_pert, idx_eps))
                sup_hyp[s] = max(sup_hyp[s], norm(da, idx) + norm(dphi, idx))
                sup_exp[s] = max(sup_exp[s], norm(da2, idx) + norm(dphi2, idx))
        return sup_plain, sup_pert, sup_hyp, sup_exp

    results = _sweep_map(config, one_eps)

    rows = []
    families = ("profile_plain", "profile_perturbed", "hyperbolic_gap", "expansion_gap")
    for eps, sups in zip(config.eps_list, results):
        for family, sup in zip(families, sups):
            for s in config.s_list:
                rows.append(_row(family, "sup_error", sup[s], eps=eps, s=s))

    slopes, checks = [], {}
    bands = {
        "profile_plain": SLOPE_BAND_ORDER1,
        "profile_perturbed": SLOPE_BAND_ORDER1,
        "hyperbolic_gap": SLOPE_BAND_ORDER1,
        "expansion_gap": SLOPE_BAND_ORDER2,
    }
    degenerate = all(r["value"] == 0.0 for r in rows)
    for family in families:
        for s in config.s_list:
            vals = [r["value"] for r in rows if r["family"] == family and _close(r["s"], s)]
            if degenerate:
                slopes.append(
                    {"family": family, "s": s, "slope": None, "intercept": None,
                     "max_resid": None, "n_points": len(vals)}
                )
                checks[f"{family}_slope_s{s:g}"] = {
                    "passed": True, "value": None, "bound": "zero data",
                    "note": "all errors vanish identically",
                }
                continue
            slope, intercept, resid = fit_loglog(config.eps_list, vals)
            slopes.append(
                {"family": family, "s": s, "slope": slope, "intercept": intercept,
                 "max_resid": resid, "n_points": len(vals)}
            )
            _band_check(f"{family}_slope_s{s:g}", slope, bands[family], checks)

    header = _config_header(config, description="profile and expansion error sweep")
    return StudyReport("wkb_error", header, rows, slopes, checks)


def small_time_study(config: SweepConfig, cache: RunCache | None = None) -> StudyReport:
    """Residuals of the small-time phase expansions on a dyadic t-grid.

    r(t)  = |phi(t)  +   t |a0|^2|_{H^s}  and
    r1(t) = |phi1(t) + 2 t |a0|^2|_{H^s}  both scale like t^3.
    """
    cache = cache or RunCache()
    grid = config.wkb_grid()
    a0 = config.a0.realize(grid)
    a0_sq = np.abs(a0.values) ** 2
    times = [config.horizon * 0.5**m for m in range(config.smalltime_points)]

    rows = []
    for t in times:
        rc = config.wkb_run_config(grid, 0.0, horizon=t)
        key = ("limit", grid.points_per_axis, "equal_a0", config.a0, rc)
        traj = cache.get_or_run(
            key, lambda rc=rc: wkb.solve_limit_with_corrector(a0, a0, rc)
        )
        bg, corr = traj[-1]
        res = transform(Field(grid, bg.phi.values.real + t * a0_sq))
        res1 = transform(Field(grid, corr.phi1.values.real + 2 * t * a0_sq))
        for s in config.s_list:
            idx = SobolevIndex(s)
            r = norm(res, idx)
            r1 = norm(res1, idx)
            rows.append(_row("phase_residual", "residual", r, t=t, s=s))
            rows.append(_row("corrector_phase_residual", "residual", r1, t=t, s=s))

    slopes, checks = [], {}
    for family in ("phase_residual", "corrector_phase_residual"):
        for s in config.s_list:
            vals = [r["value"] for r in rows if r["family"] == family and _close(r["s"], s)]
            slope, intercept, resid = fit_loglog(times, vals)
            slopes.append(
                {"family": family, "s": s, "slope": slope, "intercept": intercept,
                 "max_resid": resid, "n_points": len(vals)}
            )
            _band_check(f"{family}_slope_s{s:g}", slope, SLOPE_BAND_CUBIC, checks)

    header = _config_header(config, description="dyadic small-time expansion residuals")
    return StudyReport("small_time", header, rows, slopes, checks)


def _ghost_core(config: SweepConfig, cache: RunCache, higher_order: bool) -> StudyReport:
    if len(config.eps_list) < 2:
        raise ValueError("ghost studies need at least two sweep points")
    mode = config.a1_mode
    order = config.scaled_order
    limit = _limit_trajectory(cache, config, "equal_a0")
    bg_tau, corr_tau = limit[config.tau_index]
    wkb_grid = config.wkb_grid()
    a0_l2 = norm(config.a0.realize(wkb_grid))
    floor = SEPARATION_FLOOR_FACTOR * a0_l2

    def pair_diff(eps, refine):
        u_traj = _nls_trajectory(cache, config, eps, 1.0, refine)
        ut_traj = _nls_trajectory(
            cache, config, eps, tilde_multiplier(mode, eps, order), refine
        )
        u_tau = u_traj[config.tau_index]
        ut_tau = ut_traj[config.tau_index]
        grid = u_tau.u.grid
        return grid, Field(grid, u_tau.u.values - ut_tau.u.values)

    def one_eps(eps):
        grid, diff = pair_diff(eps, 1)
        lam = corrector_phase_scale(mode, eps, order)
        a_f, phi_f, phi1_f = _profile_fields(bg_tau, corr_tau, grid.points_per_axis)
        pred_vals = a_f.values * np.exp(1j * phi_f / eps) * (1 - np.exp(1j * lam * phi1_f))
        pred = transform(Field(grid, pred_vals))

        out = {"l4": lp_norm(diff, 4.0), "per_s": {}}
        diff_hat = transform(diff)
        refined = None
        if config.certify_refinement:
            refined = transform(pair_diff(eps, 2)[1])
        for s in config.s_list:
            idx = SobolevIndex(s, homogeneous=True)
            raw = norm(diff_hat, idx)
            d = eps**s * raw
            p = eps**s * norm(pred, idx)
            entry = {"raw": raw, "D": d, "P": p,
                     "ratio": d / p if p > 1e-300 else None}
            if refined is not None:
                d2 = eps**s * norm(refined, idx)
                entry["refined_change"] = relative_spread(d, d2)
            if higher_order:
                entry["Q"] = d * eps ** (1 - order)
            out["per_s"][s] = entry
        return out

    results = _sweep_map(config, one_eps)

    rows = []
    for eps, res in zip(config.eps_list, results):
        for s in config.s_list:
            e = res["per_s"][s]
            rows.append(_row("ghost", "diff_hs_raw", e["raw"], eps=eps, s=s))
            rows.append(_row("ghost", "separation_scaled", e["D"], eps=eps, s=s))
            rows.append(_row("ghost", "profile_prediction", e["P"], eps=eps, s=s))
            if e["ratio"] is not None:
                rows.append(_row("ghost", "ratio_to_profile", e["ratio"], eps=eps, s=s))
            if "refined_change" in e:
                rows.append(_row("ghost", "refined_rel_change", e["refined_change"], eps=eps, s=s))
            if higher_order:
                rows.append(_row("ghost", "higher_order_scaled", e["Q"], eps=eps, s=s))
        rows.append(_row("ghost", "diff_l4", res["l4"], eps=eps, s=None))

    checks = {}
    quantity = "higher_order_scaled" if higher_order else "separation_scaled"
    rtol = HIGHER_ORDER_STABILIZATION_RTOL if higher_order else GHOST_STABILIZATION_RTOL
    control = mode in ("zero",)
    for s in config.s_list:
        vals = [res["per_s"][s]["Q" if higher_order else "D"] for res in results]
        if control:
            worst = max(abs(v) for v in vals)
            checks[f"control_null_s{s:g}"] = {
                "passed": worst <= 1e-10, "value": worst, "bound": "<= 1e-10",
                "note": "identical data must give a vanishing difference",
            }
            continue
        spread = relative_spread(vals[-1], vals[-2])
        stabilized = spread <= rtol
        above_floor = min(vals[-1], vals[-2]) >= floor
        separated = min(vals[-1], vals[-2]) >= 0.5 * max(vals) and above_floor
        checks[f"stabilized_s{s:g}"] = {
            "passed": bool(stabilized), "value": spread, "bound": f"<= {rtol}",
            "note": "relative spread of the two finest sweep points",
        }
        checks[f"above_floor_s{s:g}"] = {
            "passed": bool(above_floor), "value": min(vals[-1], vals[-2]),
            "bound": f">= {floor:.6e}",
            "note": "floor is 1e-3 * |a0|_L2",
        }
        checks[f"separated_s{s:g}"] = {
            "passed": bool(separated), "value": min(vals[-1], vals[-2]),
            "bound": f">= max(floor, half of max over sweep = {0.5 * max(vals):.6e})",
            "note": "operational liminf > 0 verdict",
        }
        ratios = [res["per_s"][s]["ratio"] for res in results[-2:]]
        if all(r is not None for r in ratios):
            worst_ratio = max(ratios, key=lambda r: abs(math.log(r)) if r > 0 else math.inf)
            checks[f"profile_ratio_s{s:g}"] = {
                "passed": bool(all(0.5 <= r <= 2.0 for r in ratios)),
                "value": worst_ratio,
                "bound": "[0.5, 2.0] at the two finest sweep points",
                "note": "measured/predicted outside the band flags under-resolution",
            }
        if not control and config.certify_refinement:
            worst = max(res["per_s"][s].get("refined_change", 0.0) for res in results)
            checks[f"grid_independent_s{s:g}"] = {
                "passed": worst < 0.05, "value": worst, "bound": "< 0.05",
                "note": "doubling N changes the reported value by less than 5%",
            }

    name = "ghost_higher_order" if higher_order else "ghost_separation"
    header = _config_header(
        config,
        description="paired-run separation at the observation time",
        observation_time=config.tau,
        a0_l2=a0_l2,
        separation_floor=floor,
    )
    return StudyReport(name, header, rows, [], checks)


def ghost_separation_study(config: SweepConfig, cache: RunCache | None = None) -> StudyReport:
    """Separation D_s(eps) = eps^s |u(tau) - u~(tau)|_{Hdot^s} for paired
    runs, with the profile prediction and the operational liminf verdict."""
    return _ghost_core(config, cache or RunCache(), higher_order=False)


def ghost_higher_order_study(config: SweepConfig, cache: RunCache | None = None) -> StudyReport:
    """Same pairing with datum (1 + eps^N) a0, tabulating
    eps^{s+1-N} |u - u~|_{Hdot^s} which stabilizes to a positive constant."""
    if config.a1_mode != "scaled":
        raise ValueError("higher-order ghost study requires a1_mode = 'scaled'")
    return _ghost_core(config, cache or RunCache(), higher_order=True)


@dataclass(frozen=True)
class ScalingParams:
    """Dimension-n scaling frame: s_c = n/2 - 1, datum frequency
    j = eps^{1/(s - s_c)}, observation times t_j = tau j^{-(s_c + 2 - s)}."""

    n: int
    s: float
    sigma: float
    k: float

    def __post_init__(self):
        if not (isinstance(self.n, int) and self.n >= 3):
            raise ValueError(f"dimension n must be an integer >= 3, got {self.n!r}")
        if self.s >= self.s_c:
            raise ValueError(f"s = {self.s} must be < s_c = {self.s_c}")
        if self.s < 0:
            raise ValueError(f"s must be >= 0, got {self.s}")
        if not 0 <= self.sigma < self.s_c:
            raise ValueError(f"sigma = {self.sigma} must lie in [0, s_c = {self.s_c})")
        if self.k <= 0:
            raise ValueError(f"k must be positive, got {self.k}")

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


def _measured_column(measured: StudyReport, quantity, s):
    eps, vals = [], []
    for r in measured.rows:
        if r["family"] == "ghost" and r["quantity"] == quantity and _close(r.get("s"), s):
            eps.append(r["eps"])
            vals.append(r["value"])
    return eps, vals


def _datum_from_header(measured: StudyReport):
    cfg = measured.header["config"]
    grid = make_grid(1, cfg["half_width"], cfg["wkb_points"])
    spec = GaussianSpec(**cfg["a0"])
    return spec.realize(grid), cfg["tau"]


LIMITATION_NOTE = (
    "scale quantities combine 1-D measured profile norms with exact "
    "rescaling identities in dimension n; no n-dimensional PDE run is performed"
)


def inflation_bookkeeping(params: ScalingParams, measured: StudyReport) -> StudyReport:
    """Physical-scale bookkeeping: datum norms shrink in H^sigma while the
    measured solution differences, rescaled by j^{k-s}, grow (or stay
    bounded below at the threshold exponent)."""
    eps_col, raw_col = _measured_column(measured, "diff_hs_raw", params.k)
    if not eps_col:
        raise ValueError(
            f"measured study has no Hdot^{params.k:g} difference rows; "
            "re-run the sweep with k included in s_list"
        )
    a0, tau = _datum_from_header(measured)
    a0_l2 = norm(a0)
    a0_hsig = norm(a0, SobolevIndex(params.sigma, homogeneous=True))

    rows, n, s, sig, k = [], params.n, params.s, params.sigma, params.k
    scaled_vals, js = [], []
    for eps, raw in zip(eps_col, raw_col):
        j = params.j_for(eps)
        t_j = params.t_j(j, tau)
        scaled = j ** (k - s) * raw
        js.append(j)
        scaled_vals.append(scaled)
        rows.append(_row("inflation", "j", j, eps=eps, s=k))
        rows.append(_row("inflation", "t_j", t_j, eps=eps, s=k))
        rows.append(_row("inflation", "physical_diff_hk", scaled, eps=eps, s=k))
        rows.append(
            _row("inflation", "data_diff_l2", j ** (1 - n / 2) * a0_l2, eps=eps, s=None)
        )
        rows.append(
            _row(
                "inflation", "data_diff_hsigma",
                j ** (1 + sig - n / 2) * a0_hsig, eps=eps, s=sig,
            )
        )
        rows.append(
            _row(
                "inflation", "data_diff_hsigma_bound",
                j ** (1 - n / 2) * a0_l2 + j ** (1 + sig - n / 2) * a0_hsig,
                eps=eps, s=sig,
            )
        )

    exact = params.growth_exponent()
    slope, intercept, resid = (None, None, None)
    if len(js) >= 3:
        slope, intercept, resid = fit_loglog(js, scaled_vals)
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

    checks = {
        "data_differences_vanish": {
            "passed": bool(1 + sig - n / 2 < 0 and 1 - n / 2 < 0),
            "value": 1 + sig - n / 2,
            "bound": "< 0",
            "note": "exact exponents of the datum-difference norms",
        },
        "exponent_matches_threshold_side": {
            "passed": bool(
                (exact > 1e-12) == (k > params.k_threshold + 1e-12)
                and (abs(exact) <= 1e-12) == (abs(k - params.k_threshold) <= 1e-12)
            ),
            "value": exact,
            "bound": f"sign flip at k = {params.k_threshold}",
            "note": classification,
        },
    }
    if slope is not None:
        # Desk-scale sweeps still carry the O(eps) transient of the
        # separation quantity, so only the sign of the measured growth is
        # meaningful away from the threshold.
        if abs(exact) >= 0.5:
            checks["measured_growth_sign"] = {
                "passed": bool(np.sign(slope) == np.sign(exact)),
                "value": slope,
                "bound": f"sign of exact exponent {exact}",
                "note": "fit of the rescaled measured differences against j",
            }
        else:
            checks["measured_growth_sign"] = {
                "passed": True,
                "value": slope,
                "bound": "informational near the threshold",
                "note": "boundedness is covered by the separation stabilization check",
            }

    header = {
        "params": asdict(params),
        "s_c": params.s_c,
        "k_threshold": params.k_threshold,
        "exact_exponent": exact,
        "classification": classification,
        "source_study": measured.study,
        "limitation": LIMITATION_NOTE,
        "config": measured.header["config"],
    }
    return StudyReport("inflation", header, rows, slopes, checks)


def corollary_bookkeeping(n, measured: StudyReport, delta=0.1) -> StudyReport:
    """Energy-frame bookkeeping at s = n/4 (n >= 5): mass and the
    data-difference energy vanish, both data energies settle into the
    [C0 - delta, C0 + delta] band, and the solution-difference energy at
    t_j stays bounded below."""
    if not (isinstance(n, int) and n >= 5):
        raise ValueError(f"the energy-frame bookkeeping needs integer n >= 5, got {n!r}")
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta!r}")
    s = n / 4
    s_c = n / 2 - 1
    eps_h1, raw_h1 = _measured_column(measured, "diff_hs_raw", 1.0)
    if not eps_h1:
        raise ValueError("measured study must include s = 1 rows for the gradient energy")
    eps_l4, raw_l4 = _measured_column(measured, "diff_l4", None)
    if eps_l4 != eps_h1:
        raise ValueError("measured study lacks matching quartic-norm rows")

    a0, tau = _datum_from_header(measured)
    l2_sq = norm(a0) ** 2
    grad_sq = norm(a0, SobolevIndex(1.0, homogeneous=True)) ** 2
    quart = lp_norm(a0, 4.0) ** 4
    c0 = quart

    def data_mass(lam, j):
        return lam**2 * j**-n * l2_sq

    def data_energy(lam, j):
        return lam**2 * j ** (2 - n) * grad_sq + lam**4 * j**-n * quart

    rows, e_sol = [], []
    for eps, rh1, rl4 in zip(eps_h1, raw_h1, raw_l4):
        j = eps ** (1.0 / (s - s_c))
        t_j = tau * j ** -(s_c + 2 - s)
        lam_plain = j ** (n / 2 - s)
        lam_tilde = lam_plain + j
        e_diff = j ** (2 - 2 * s) * rh1**2 + j ** (n - 4 * s) * rl4**4
        e_sol.append(e_diff)
        rows.append(_row("corollary", "j", j, eps=eps, s=None))
        rows.append(_row("corollary", "t_j", t_j, eps=eps, s=None))
        rows.append(_row("corollary", "mass_data", data_mass(lam_plain, j), eps=eps, s=None))
        rows.append(
            _row("corollary", "mass_data_tilde", data_mass(lam_tilde, j), eps=eps, s=None)
        )
        rows.append(
            _row("corollary", "energy_data", data_energy(lam_plain, j), eps=eps, s=None)
        )
        rows.append(
            _row("corollary", "energy_data_tilde", data_energy(lam_tilde, j), eps=eps, s=None)
        )
        rows.append(
            _row(
                "corollary", "energy_data_diff", data_energy(j, j), eps=eps, s=None
            )
        )
        rows.append(_row("corollary", "energy_solution_diff", e_diff, eps=eps, s=None))

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

    mass_cols = [
        [r["value"] for r in rows if r["quantity"] == q]
        for q in ("mass_data", "mass_data_tilde")
    ]
    diffs = [r["value"] for r in rows if r["quantity"] == "energy_data_diff"]
    js = [r["value"] for r in rows if r["quantity"] == "j"]
    band_rows = [
        (jv, ep, ed)
        for jv, ep, ed in zip(
            js,
            [r["value"] for r in rows if r["quantity"] == "energy_data"],
            [r["value"] for r in rows if r["quantity"] == "energy_data_tilde"],
        )
        if jv >= j_star
    ]
    spread = relative_spread(e_sol[-1], e_sol[-2]) if len(e_sol) >= 2 else None

    checks = {
        "mass_vanishes": {
            "passed": bool(
                all(col == sorted(col, reverse=True) for col in mass_cols) and -2 * s < 0
            ),
            "value": mass_cols[0][-1],
            "bound": "decreasing with exact exponent -n/2",
            "note": "mass of both data sequences",
        },
        "data_energy_difference_vanishes": {
            "passed": bool(diffs == sorted(diffs, reverse=True) and 4 - n < 0),
            "value": diffs[-1],
            "bound": "decreasing with exact exponent 4 - n",
            "note": "",
        },
        "data_energies_in_band": {
            "passed": bool(
                band_rows
                and all(abs(ep - c0) <= delta and abs(ed - c0) <= delta
                        for _, ep, ed in band_rows)
            ),
            "value": band_rows[-1][1] if band_rows else None,
            "bound": f"[{c0 - delta}, {c0 + delta}] for j >= {j_star:.6g}",
            "note": f"{len(band_rows)} sweep rows past the threshold",
        },
        "solution_energy_bounded_below": {
            "passed": bool(
                spread is not None
                and spread <= HIGHER_ORDER_STABILIZATION_RTOL
                and min(e_sol[-1], e_sol[-2]) >= SEPARATION_FLOOR_FACTOR * c0
            ),
            "value": min(e_sol[-2:]) if len(e_sol) >= 2 else None,
            "bound": f">= {SEPARATION_FLOOR_FACTOR * c0:.6e} with spread <= "
                     f"{HIGHER_ORDER_STABILIZATION_RTOL}",
            "note": "extrapolated difference energy at t_j",
        },
    }

    header = {
        "n": n,
        "s": s,
        "s_c": s_c,
        "leading_energy": c0,
        "delta": delta,
        "band_threshold_j": j_star,
        "source_study": measured.study,
        "limitation": LIMITATION_NOTE,
        "config": measured.header["config"],
    }
    return StudyReport("corollary", header, rows, [], checks)
