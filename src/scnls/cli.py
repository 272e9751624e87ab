"""Command-line front end: config parsing, study dispatch, CSV emission.

Exit codes: 0 success, 2 config/validation error, 3 solver guard abort,
4 acceptance-check failure in selftest.  Identical configs produce
byte-identical CSVs (17-significant-digit formatting, fixed ordering).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import nls, report, studies, wkb
from .acceptance import AcceptanceSuite
from .errors import GuardError
from .grid import Field, lp_norm, make_grid, save_field
from .studies import (
    GaussianSpec,
    RunCache,
    ScalingParams,
    SweepConfig,
    aligned_run_config,
    corollary_bookkeeping,
    ghost_higher_order_study,
    ghost_separation_study,
    inflation_bookkeeping,
    small_time_study,
    wkb_error_study,
)

log = logging.getLogger("scnls")

CONFIG_SCHEMA_VERSION = 1
OUT_DIR_ENV = "SCNLS_OUT_DIR"
RUN_SAVES = 10  # save intervals of run-nls / run-wkb unless run.save_every is set

COMMANDS = (
    "run-nls", "run-wkb", "study-wkb-error", "study-smalltime",
    "study-ghost", "study-ghost-n", "report-inflation", "report-corollary",
    "selftest",
)

STUDY_NAMES = {
    "run-nls": "run_nls",
    "run-wkb": "run_wkb",
    "study-wkb-error": "wkb_error",
    "study-smalltime": "small_time",
    "study-ghost": "ghost_separation",
    "study-ghost-n": "ghost_higher_order",
    "report-inflation": "inflation",
    "report-corollary": "corollary",
    "selftest": "acceptance",
}


# ----------------------------------------------------------------------
# config validation: flat JSON document, versioned, unknown keys rejected
# ----------------------------------------------------------------------

def _fail(path, message):
    raise ValueError(f"config field '{path}' {message}")


def _check_keys(doc, allowed, path):
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise ValueError(f"unknown config key(s) {unknown} under '{path}'")


def _number(doc, key, path, default=None, minimum=None, maximum=None,
            exclusive_min=None, allow_none=False):
    val = doc.get(key, default)
    if val is None:
        if allow_none:
            return None
        _fail(f"{path}.{key}", "is required")
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        _fail(f"{path}.{key}", f"must be a number, got {val!r}")
    if minimum is not None and val < minimum:
        _fail(f"{path}.{key}", f"must be >= {minimum}, got {val}")
    if exclusive_min is not None and val <= exclusive_min:
        _fail(f"{path}.{key}", f"must be > {exclusive_min}, got {val}")
    if maximum is not None and val > maximum:
        _fail(f"{path}.{key}", f"must be <= {maximum}, got {val}")
    return float(val)


def _integer(doc, key, path, default=None, minimum=None):
    val = doc.get(key, default)
    if val is None:
        _fail(f"{path}.{key}", "is required")
    if isinstance(val, bool) or not isinstance(val, int):
        _fail(f"{path}.{key}", f"must be an integer, got {val!r}")
    if minimum is not None and val < minimum:
        _fail(f"{path}.{key}", f"must be >= {minimum}, got {val}")
    return val


def _boolean(doc, key, path, default=False):
    val = doc.get(key, default)
    if not isinstance(val, bool):
        _fail(f"{path}.{key}", f"must be true/false, got {val!r}")
    return val


def _choice(doc, key, path, choices, default=None):
    val = doc.get(key, default)
    if val not in choices:
        _fail(f"{path}.{key}", f"must be one of {sorted(choices)}, got {val!r}")
    return val


def _number_list(doc, key, path, default):
    val = doc.get(key, list(default))
    if not isinstance(val, list) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in val
    ):
        _fail(f"{path}.{key}", f"must be a list of numbers, got {val!r}")
    return tuple(float(v) for v in val)


def load_config(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError("config document must be a JSON object")
    return doc


def validate_config(doc, command):
    """Normalize the document; every error names the offending field."""
    _check_keys(
        doc,
        ("schema_version", "study", "grid", "data", "sweep", "solver", "run",
         "scaling", "corollary", "out_dir", "seed", "jobs"),
        "<top level>",
    )
    version = _integer(doc, "schema_version", "<top level>")
    if version != CONFIG_SCHEMA_VERSION:
        _fail("schema_version", f"must be {CONFIG_SCHEMA_VERSION}, got {version}")
    study = doc.get("study")
    if study is not None and study != STUDY_NAMES[command]:
        _fail("study", f"names '{study}' but the subcommand runs '{STUDY_NAMES[command]}'")

    out = {"out_dir": doc.get("out_dir"), "seed": _integer(doc, "seed", "<top level>", 0),
           "jobs": _integer(doc, "jobs", "<top level>", 1, minimum=1)}
    if out["out_dir"] is not None and not isinstance(out["out_dir"], str):
        _fail("out_dir", "must be a string path")

    grid = doc.get("grid", {})
    _check_keys(grid, ("half_width", "points_base", "eps_ref", "wkb_points",
                       "max_points_per_axis"), "grid")
    out["grid"] = {
        "half_width": _number(grid, "half_width", "grid", 12.0, exclusive_min=0.0),
        "points_base": _integer(grid, "points_base", "grid", 256, minimum=8),
        "eps_ref": _number(grid, "eps_ref", "grid", 0.25, exclusive_min=0.0, maximum=1.0),
        "wkb_points": _integer(grid, "wkb_points", "grid", 256, minimum=8),
        "max_points_per_axis": _integer(grid, "max_points_per_axis", "grid", 32768, minimum=8),
    }

    data = doc.get("data", {})
    _check_keys(data, ("amplitude", "width", "center"), "data")
    out["data"] = {
        "amplitude": _number(data, "amplitude", "data", 1.0),
        "width": _number(data, "width", "data", 1.0, exclusive_min=0.0),
        "center": _number(data, "center", "data", 0.0),
    }

    sweep = doc.get("sweep", {})
    _check_keys(sweep, ("eps_list", "s_list", "tau", "horizon", "a1_mode",
                        "scaled_order", "n_saves", "certify_refinement",
                        "smalltime_points"), "sweep")
    out["sweep"] = {
        "eps_list": _number_list(sweep, "eps_list", "sweep",
                                 (0.25, 0.125, 0.0625, 0.03125, 0.015625)),
        "s_list": _number_list(sweep, "s_list", "sweep", (0.0, 1.0, 2.0)),
        "tau": _number(sweep, "tau", "sweep", 0.2, exclusive_min=0.0),
        "horizon": _number(sweep, "horizon", "sweep", 0.25, exclusive_min=0.0),
        "a1_mode": _choice(sweep, "a1_mode", "sweep", studies.A1_MODES,
                           "scaled" if command == "study-ghost-n" else "equal_a0"),
        "scaled_order": _integer(sweep, "scaled_order", "sweep", 2, minimum=1),
        "n_saves": _integer(sweep, "n_saves", "sweep", 10, minimum=1),
        "certify_refinement": _boolean(sweep, "certify_refinement", "sweep", False),
        "smalltime_points": _integer(sweep, "smalltime_points", "sweep", 6, minimum=3),
    }

    solver = doc.get("solver", {})
    _check_keys(solver, ("nls_dt_safety", "wkb_dt_safety", "tail_tol"), "solver")
    out["solver"] = {
        "nls_dt_safety": _number(solver, "nls_dt_safety", "solver", nls.DEFAULT_DT_SAFETY,
                                 exclusive_min=0.0),
        "wkb_dt_safety": _number(solver, "wkb_dt_safety", "solver", 0.25, exclusive_min=0.0),
        "tail_tol": _number(solver, "tail_tol", "solver", 1e-6, exclusive_min=0.0),
    }

    run = doc.get("run", {})
    _check_keys(run, ("eps", "dim", "points", "T", "dt", "save_every", "norms",
                      "a1_mode", "with_corrector", "dump_fields", "sing_tol"), "run")
    out["run"] = {
        "eps": _number(run, "eps", "run", 0.125, minimum=0.0, maximum=1.0),
        "dim": _integer(run, "dim", "run", 1, minimum=1),
        "points": _integer(run, "points", "run", 512, minimum=8),
        "T": _number(run, "T", "run", 0.25),
        "dt": _number(run, "dt", "run", None, allow_none=True),
        "save_every": _integer(run, "save_every", "run", 0, minimum=0),
        "norms": _number_list(run, "norms", "run", (0.0, 1.0)),
        "a1_mode": _choice(run, "a1_mode", "run",
                           ("zero", "equal_a0", "imaginary"), "zero"),
        "with_corrector": _boolean(run, "with_corrector", "run", False),
        "dump_fields": _boolean(run, "dump_fields", "run", False),
        "sing_tol": _number(run, "sing_tol", "run", None, exclusive_min=0.0,
                            allow_none=True),
    }

    if out["run"]["T"] == 0:
        _fail("run.T", "must be nonzero")
    if out["run"]["dt"] == 0:
        _fail("run.dt", "must be nonzero (omit it for the default step)")

    scaling = doc.get("scaling", {})
    _check_keys(scaling, ("n", "s", "sigma", "k"), "scaling")
    out["scaling"] = {
        "n": _integer(scaling, "n", "scaling", 6, minimum=3),
        "s": _number(scaling, "s", "scaling", 1.0),
        "sigma": _number(scaling, "sigma", "scaling", 1.5),
        "k": _number(scaling, "k", "scaling", 1.0),
    }

    corollary = doc.get("corollary", {})
    _check_keys(corollary, ("n", "delta", "target_energy"), "corollary")
    out["corollary"] = {
        "n": _integer(corollary, "n", "corollary", 6, minimum=5),
        "delta": _number(corollary, "delta", "corollary", 0.1, exclusive_min=0.0),
        "target_energy": _number(corollary, "target_energy", "corollary", None,
                                 exclusive_min=0.0, allow_none=True),
    }
    return out


def _sweep_config(cfg, jobs, extra_s=(), a1_mode=None):
    s_list = list(cfg["sweep"]["s_list"])
    for s in extra_s:
        if not any(abs(s - x) <= 1e-12 for x in s_list):
            s_list.append(s)
    return SweepConfig(
        eps_list=tuple(cfg["sweep"]["eps_list"]),
        s_list=tuple(sorted(s_list)),
        tau=cfg["sweep"]["tau"],
        horizon=cfg["sweep"]["horizon"],
        a0=GaussianSpec(**cfg["data"]),
        a1_mode=a1_mode or cfg["sweep"]["a1_mode"],
        scaled_order=cfg["sweep"]["scaled_order"],
        half_width=cfg["grid"]["half_width"],
        points_base=cfg["grid"]["points_base"],
        eps_ref=cfg["grid"]["eps_ref"],
        wkb_points=cfg["grid"]["wkb_points"],
        n_saves=cfg["sweep"]["n_saves"],
        nls_dt_safety=cfg["solver"]["nls_dt_safety"],
        wkb_dt_safety=cfg["solver"]["wkb_dt_safety"],
        tail_tol=cfg["solver"]["tail_tol"],
        smalltime_points=cfg["sweep"]["smalltime_points"],
        certify_refinement=cfg["sweep"]["certify_refinement"],
        max_points_per_axis=cfg["grid"]["max_points_per_axis"],
        jobs=jobs,
    )


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def _save_cadence(horizon, dt):
    """Steps between saves for about RUN_SAVES saves over the horizon."""
    return max(1, round(abs(horizon / dt) / RUN_SAVES))


def _clip_dt(dt_rule, horizon):
    """Default rule step, clipped into the run horizon, carrying its sign."""
    sign = 1.0 if horizon > 0 else -1.0
    return sign * min(dt_rule, abs(horizon))


def _emit(out_dir, csv_name, reports):
    paths = []
    if not isinstance(reports, (list, tuple)):
        reports = [reports]
    names = csv_name if isinstance(csv_name, (list, tuple)) else [csv_name]
    for rep, name in zip(reports, names):
        paths.append(report.write_study_csv(rep, out_dir / name))
    paths.append(report.write_summary_json(list(reports), out_dir / "summary.json"))
    for p in paths:
        log.info("wrote %s", p)
    return paths


def cmd_run_nls(cfg, out_dir, jobs):
    run = cfg["run"]
    if not 0 < run["eps"] <= 1:
        _fail("run.eps", f"must lie in (0, 1] for the wavefunction solver, got {run['eps']}")
    grid = make_grid(run["dim"], cfg["grid"]["half_width"], run["points"])
    tail_tol = cfg["solver"]["tail_tol"]
    if run["dt"] is None:
        rc = aligned_run_config(
            nls.NlsRunConfig, nls.default_dt(grid, run["eps"], cfg["solver"]["nls_dt_safety"]),
            run["T"], RUN_SAVES, tail_tol=tail_tol,
        )
    else:
        rc = nls.NlsRunConfig(dt=run["dt"], T=run["T"], tail_tol=tail_tol,
                              save_every=_save_cadence(run["T"], run["dt"]))
    if run["save_every"]:
        rc = replace(rc, save_every=run["save_every"])
    u0 = GaussianSpec(**cfg["data"]).realize(grid)
    traj = nls.solve_nls(u0, run["eps"], rc)
    rows = report.nls_trajectory_rows(traj, run["norms"])
    path = report.write_trajectory_csv(rows, out_dir / "nls_trajectory.csv")
    log.info("wrote %s", path)
    if run["dump_fields"]:
        fdir = out_dir / "fields"
        fdir.mkdir(exist_ok=True)
        for i, state in enumerate(traj):
            save_field(state.u, fdir / f"u_{i:04d}")
    with open(out_dir / "summary.json", "w") as fh:
        json.dump({"schema_version": report.SUMMARY_SCHEMA_VERSION,
                   "study": "run_nls", "passed": True,
                   "rows": len(rows), "eps": run["eps"], "dt": rc.dt},
                  fh, sort_keys=True, indent=2)
        fh.write("\n")
    return 0


def cmd_run_wkb(cfg, out_dir, jobs):
    run = cfg["run"]
    grid = make_grid(run["dim"], cfg["grid"]["half_width"], run["points"])
    dt = run["dt"]
    if dt is None:
        dt = _clip_dt(wkb.default_dt(grid, run["eps"], cfg["solver"]["wkb_dt_safety"]), run["T"])
    save_every = run["save_every"] or _save_cadence(run["T"], dt)
    rc = wkb.WkbRunConfig(dt=dt, T=run["T"], save_every=save_every,
                          tail_tol=cfg["solver"]["tail_tol"], sing_tol=run["sing_tol"])
    a0 = GaussianSpec(**cfg["data"]).realize(grid)
    if run["a1_mode"] == "zero":
        a1 = None
    elif run["a1_mode"] == "equal_a0":
        a1 = a0
    else:
        a1 = Field(grid, 1j * a0.values)
    if run["with_corrector"]:
        if run["eps"] != 0:
            _fail("run.with_corrector", "requires run.eps = 0 (the corrector rides the limit system)")
        traj = wkb.solve_limit_with_corrector(a0, a1, rc)
    else:
        traj = wkb.solve_grenier(a0, a1, run["eps"], rc)
    rows = report.wkb_trajectory_rows(traj, run["norms"])
    path = report.write_trajectory_csv(rows, out_dir / "wkb_trajectory.csv")
    log.info("wrote %s", path)
    if run["dump_fields"]:
        fdir = out_dir / "fields"
        fdir.mkdir(exist_ok=True)
        for i, snap in enumerate(traj):
            state = snap[0] if isinstance(snap, tuple) else snap
            save_field(state.a, fdir / f"a_{i:04d}")
            save_field(state.phi, fdir / f"phi_{i:04d}")
    with open(out_dir / "summary.json", "w") as fh:
        json.dump({"schema_version": report.SUMMARY_SCHEMA_VERSION,
                   "study": "run_wkb", "passed": True,
                   "rows": len(rows), "eps": run["eps"], "dt": rc.dt},
                  fh, sort_keys=True, indent=2)
        fh.write("\n")
    return 0


def cmd_study_wkb_error(cfg, out_dir, jobs):
    rep = wkb_error_study(_sweep_config(cfg, jobs))
    _emit(out_dir, "wkb_error_study.csv", rep)
    return 0


def cmd_study_smalltime(cfg, out_dir, jobs):
    rep = small_time_study(_sweep_config(cfg, jobs))
    _emit(out_dir, "smalltime_study.csv", rep)
    return 0


def cmd_study_ghost(cfg, out_dir, jobs):
    rep = ghost_separation_study(_sweep_config(cfg, jobs))
    _emit(out_dir, "ghost_study.csv", rep)
    return 0


def cmd_study_ghost_n(cfg, out_dir, jobs):
    rep = ghost_higher_order_study(_sweep_config(cfg, jobs, a1_mode="scaled"))
    _emit(out_dir, "ghost_n_study.csv", rep)
    return 0


def cmd_report_inflation(cfg, out_dir, jobs):
    params = ScalingParams(**cfg["scaling"])
    sweep = _sweep_config(cfg, jobs, extra_s=(params.k,))
    measured = ghost_separation_study(sweep)
    rep = inflation_bookkeeping(params, measured)
    _emit(out_dir, ["ghost_study.csv", "inflation_report.csv"], [measured, rep])
    return 0


def cmd_report_corollary(cfg, out_dir, jobs):
    n = cfg["corollary"]["n"]
    sweep = _sweep_config(cfg, jobs, extra_s=(1.0,))
    target = cfg["corollary"]["target_energy"]
    if target is not None:
        # rescale the datum so the j-independent leading energy term hits
        # the requested level before the sweep runs
        probe = sweep.a0.realize(sweep.wkb_grid())
        quart = lp_norm(probe, 4.0) ** 4
        alpha = (target / quart) ** 0.25
        sweep = SweepConfig(
            **{**_dataclass_dict(sweep), "a0": GaussianSpec(
                amplitude=sweep.a0.amplitude * alpha,
                width=sweep.a0.width, center=sweep.a0.center)}
        )
    measured = ghost_separation_study(sweep)
    rep = corollary_bookkeeping(n, measured, delta=cfg["corollary"]["delta"])
    _emit(out_dir, ["ghost_study.csv", "corollary_report.csv"], [measured, rep])
    return 0


def _dataclass_dict(dc):
    from dataclasses import fields

    return {f.name: getattr(dc, f.name) for f in fields(dc)}


def cmd_selftest(cfg, out_dir, jobs):
    suite = AcceptanceSuite(jobs=jobs, seed=cfg["seed"])
    results = suite.run_all(printer=print)
    payload = {
        "schema_version": report.SUMMARY_SCHEMA_VERSION,
        "study": "acceptance",
        "passed": all(r.passed for r in results),
        "criteria": [
            {"number": r.criterion, "name": r.name, "passed": r.passed, "detail": r.detail}
            for r in results
        ],
    }
    with open(out_dir / "acceptance_summary.json", "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
    names = ["wkb_error_study.csv", "smalltime_study.csv", "ghost_study.csv",
             "ghost_control_study.csv", "ghost_n_study.csv"]
    for rep, name in zip(suite.reports(), names):
        report.write_study_csv(rep, out_dir / name)
    if not payload["passed"]:
        failed = [r.name for r in results if not r.passed]
        print(f"selftest: FAILED criteria: {', '.join(failed)}", file=sys.stderr)
        return 4
    return 0


DISPATCH = {
    "run-nls": cmd_run_nls,
    "run-wkb": cmd_run_wkb,
    "study-wkb-error": cmd_study_wkb_error,
    "study-smalltime": cmd_study_smalltime,
    "study-ghost": cmd_study_ghost,
    "study-ghost-n": cmd_study_ghost_n,
    "report-inflation": cmd_report_inflation,
    "report-corollary": cmd_report_corollary,
    "selftest": cmd_selftest,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="scnls",
        description="Pseudo-spectral verification suite for semiclassical cubic NLS",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=Path, default=None,
                       help="JSON config (defaults to the canonical setup)")
        p.add_argument("--out", type=Path, default=None,
                       help=f"output directory (default ${OUT_DIR_ENV} or ./scnls_out)")
        p.add_argument("--jobs", type=int, default=None,
                       help="concurrent sweep points (default from config, then 1)")
        p.add_argument("--verbose", action="store_true")
    return parser


def run(argv) -> int:
    """Parse argv, dispatch, and map errors to documented exit codes."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        doc = load_config(args.config) if args.config else {"schema_version": 1}
        cfg = validate_config(doc, args.command)
        jobs = args.jobs if args.jobs is not None else cfg["jobs"]
        if jobs < 1:
            _fail("jobs", f"must be >= 1, got {jobs}")
        out_dir = args.out or cfg["out_dir"] or os.environ.get(OUT_DIR_ENV) or "scnls_out"
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        return DISPATCH[args.command](cfg, out_dir, jobs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GuardError as exc:
        print(f"solver guard abort: {exc}", file=sys.stderr)
        return 3


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
