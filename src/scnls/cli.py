"""Command-line front end: config parsing, study dispatch, CSV emission.

COMMANDS declares each subcommand once: the `study` name a config may
carry and its handler, in the parser's order.

Exit codes: 0 success, 2 config/validation error, 3 solver guard abort,
4 acceptance-check failure in selftest.  Identical configs produce
byte-identical CSVs (17-significant-digit formatting, fixed ordering).
"""

from __future__ import annotations

import argparse
import itertools
import json
import logging
import math
import os
import sys
from dataclasses import MISSING, fields, replace
from functools import partial
from pathlib import Path
from typing import NamedTuple, get_type_hints

from . import nls, report, studies, wkb
from .acceptance import FULL_EPS_SWEEP, run_suite, verdicts
from .errors import GuardError
from .grid import MAX_POINTS, lp_norm, make_grid, save_field
from .studies import GaussianSpec, ScalingParams, SweepConfig

log = logging.getLogger("scnls")

CONFIG_SCHEMA_VERSION = 1
OUT_DIR_ENV = "SCNLS_OUT_DIR"
RUN_SAVES = 10  # save intervals of run-nls / run-wkb unless run.save_every is set


# ----------------------------------------------------------------------
# config schema: flat JSON document, versioned, unknown keys rejected
# ----------------------------------------------------------------------

class Key(NamedTuple):
    """One config key.  kind is the type of the parsed value: float, int,
    bool, str or tuple (a list of floats).  A key whose default is MISSING
    is required; a number whose default is None may be null.  ge and le are
    inclusive bounds, gt an exclusive one, choices a str's values; a tuple's
    bounds hold for each entry.  The keys of a section that builds a
    dataclass have none: the dataclass checks its own fields."""

    kind: type
    default: object = MISSING
    ge: float | None = None
    gt: float | None = None
    le: float | None = None
    choices: tuple = ()


def _fields_of(cls, *names, **defaults):
    """A Key per named field of cls: its kind from the field's annotation,
    its default from the field unless defaults overrides it."""
    kinds, field_defaults = get_type_hints(cls), {f.name: f.default for f in fields(cls)}
    return {name: Key(kinds[name], defaults.get(name, field_defaults[name])) for name in names}


TOP_LEVEL = {
    "schema_version": Key(int),
    "seed": Key(int, 0, ge=0),
    "jobs": Key(int, 1, ge=1),
}

SCHEMA = {
    "grid": _fields_of(SweepConfig, "half_width", "points_base", "wkb_points",
                       "max_points_per_axis"),
    "data": _fields_of(GaussianSpec, "amplitude", "width", "center"),
    "sweep": _fields_of(SweepConfig, "eps_list", "s_list", "tau", "horizon", "a1_mode",
                        "scaled_order", "n_saves", "certify_refinement", "smalltime_points",
                        eps_list=FULL_EPS_SWEEP),
    "solver": _fields_of(SweepConfig, "nls_dt_safety", "wkb_dt_safety", "tail_tol"),
    "run": {
        "eps": Key(float, 0.125, ge=0.0, le=1.0),
        "dim": Key(int, 1, ge=1, le=3),
        "points": Key(int, 512, ge=8),
        "T": Key(float, 0.25),
        "dt": Key(float, None),
        "save_every": Key(int, 0, ge=0),
        "norms": Key(tuple, (0.0, 1.0), ge=0.0),
        "a1_mode": Key(str, "zero", choices=("zero", "equal_a0", "imaginary")),
        "with_corrector": Key(bool, False),
        "dump_fields": Key(bool, False),
        "sing_tol": Key(float, None, gt=0.0),
    },
    "scaling": _fields_of(ScalingParams, "n", "s", "sigma", "k"),
    "corollary": {
        "n": Key(int, 6, ge=5),
        "delta": Key(float, 0.1, gt=0.0),
        "target_energy": Key(float, None, gt=0.0),
    },
}

# the sections whose fields make up a SweepConfig
SWEEP_SECTIONS = ("grid", "sweep", "solver")


def _fail(path, message):
    raise ValueError(f"config field '{path}' {message}")


def _is_number(val):
    return isinstance(val, (int, float)) and not isinstance(val, bool)


def _finite(val):
    """A finite float, or an integer in the float range."""
    return math.isfinite(val) if isinstance(val, float) else abs(val) <= sys.float_info.max


def _shown(val):
    """repr(val), with every integer beyond the float range cut to its
    leading digits and its digit count."""
    if isinstance(val, list):
        return f"[{', '.join(map(_shown, val))}]"
    if isinstance(val, int) and abs(val) > sys.float_info.max:
        digits = str(abs(val))
        return f"{'-' * (val < 0)}{digits[:8]}... ({len(digits)} digits)"
    return repr(val)


def _checked(key, val, path):
    """val checked against key: numbers as floats, number lists as float tuples."""
    if val is None and key.default is None:
        return None
    if val is MISSING or (val is None and key.kind in (float, int)):
        _fail(path, "is required")
    if key.kind is bool:
        if not isinstance(val, bool):
            _fail(path, f"must be true/false, got {val!r}")
        return val
    if key.kind is str:
        if key.choices and val not in key.choices:
            _fail(path, f"must be one of {sorted(key.choices)}, got {val!r}")
        if not isinstance(val, str):
            _fail(path, f"must be a string, got {val!r}")
        return val
    if key.kind is tuple:
        if not isinstance(val, (list, tuple)) or not all(map(_is_number, val)):
            _fail(path, f"must be a list of numbers, got {_shown(val)}")
        if not all(map(_finite, val)):
            _fail(path, f"must be a list of finite numbers, got {_shown(val)}")
        for v in val:
            _bounded(key, v, path, "have entries")
        return tuple(float(v) for v in val)
    if key.kind is int and (isinstance(val, bool) or not isinstance(val, int)):
        _fail(path, f"must be an integer, got {val!r}")
    if not _is_number(val):
        _fail(path, f"must be a number, got {val!r}")
    if not _finite(val):
        _fail(path, f"must be finite, got {_shown(val)}")
    _bounded(key, val, path)
    return float(val) if key.kind is float else val


def _bounded(key, val, path, what="be"):
    """Fail unless the number val keeps key's bounds."""
    if key.ge is not None and val < key.ge:
        _fail(path, f"must {what} >= {key.ge}, got {val}")
    if key.gt is not None and val <= key.gt:
        _fail(path, f"must {what} > {key.gt}, got {val}")
    if key.le is not None and val > key.le:
        _fail(path, f"must {what} <= {key.le}, got {val}")


def _section(doc, keys, path, others=()):
    """doc checked against keys, defaults filled in; others may also appear.
    path names the section, None the top level, whose keys are named bare."""
    where = path or "<top level>"
    if not isinstance(doc, dict):
        _fail(where, "must be a JSON object")
    unknown = sorted(set(doc) - set(keys) - set(others))
    if unknown:
        raise ValueError(f"unknown config key(s) {unknown} under '{where}'")
    return {name: _checked(key, doc.get(name, key.default), f"{path}.{name}" if path else name)
            for name, key in keys.items()}


def load_config(path):
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file {path} is not valid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValueError(f"config file {path} is not UTF-8 text") from exc
    except OSError as exc:
        raise ValueError(f"config file {path} cannot be read: {exc.strerror}") from exc
    if not isinstance(doc, dict):
        raise ValueError("config document must be a JSON object")
    return doc


def validate_config(doc, command):
    """Normalize the document, with `study` set to the command's; every
    error names the offending field."""
    out = _section(doc, TOP_LEVEL, None, ("study", "out_dir", *SCHEMA))
    if out["schema_version"] != CONFIG_SCHEMA_VERSION:
        _fail("schema_version", f"must be {CONFIG_SCHEMA_VERSION}, got {out['schema_version']}")
    out["study"] = COMMANDS[command][0]
    if doc.get("study") not in (None, out["study"]):
        _fail("study", f"names '{doc['study']}' but the subcommand runs '{out['study']}'")
    out["out_dir"] = doc.get("out_dir")
    if out["out_dir"] is not None and not isinstance(out["out_dir"], str):
        _fail("out_dir", "must be a string path")
    for name, keys in SCHEMA.items():
        out[name] = _section(doc.get(name, {}), keys, name)
    if out["run"]["T"] == 0:
        _fail("run.T", "must be nonzero")
    points, dim = out["run"]["points"], out["run"]["dim"]
    if points & (points - 1):
        _fail("run.points", f"must be a power of two, got {points}")
    if points**dim > MAX_POINTS:
        _fail("run.points", f"gives {points}^{dim} = {points**dim} grid points at run.dim = "
              f"{dim}, over the memory budget of {MAX_POINTS}")
    if out["run"]["dt"] == 0:
        _fail("run.dt", "must be nonzero (omit it for the default step)")
    if len({f"{s:g}" for s in out["run"]["norms"]}) < len(out["run"]["norms"]):
        _fail("run.norms", "must have entries distinct to 6 significant digits (each names "
              f"an h<s> column), got {list(out['run']['norms'])}")
    out["scaling_params"] = _built(ScalingParams, ("scaling",), **out["scaling"])
    out["sweep_config"] = _sweep_config(doc, out, command)
    return out


def _built(call, sections, *args, **kwargs):
    """call(*args, **kwargs); a studies.FieldError it raises names the
    config field at fault, under the first of sections that has that key
    (it passes as it is when none has)."""
    try:
        return call(*args, **kwargs)
    except studies.FieldError as exc:
        section = next((name for name in sections if exc.field in SCHEMA[name]), None)
        if section is None:
            raise
        _fail(f"{section}.{exc.field}", exc.message)


def _sweep_config(doc, cfg, command):
    """The SweepConfig command runs (every command builds one, and a run
    command reads its a0): sweep.s_list plus the s a bookkeeping report
    reads, and sweep.a1_mode unless the command forces one (the document
    may then name only that mode: study-ghost-n runs the scaled datum).  An
    error names the config field at fault."""
    forced = "scaled" if command == "study-ghost-n" else None
    if forced is not None and doc.get("sweep", {}).get("a1_mode", forced) != forced:
        _fail("sweep.a1_mode", f"must be '{forced}' for {command}, got {doc['sweep']['a1_mode']!r}")
    s_list = cfg["sweep"]["s_list"]
    extra_s = {"report-inflation": cfg["scaling"]["k"], "report-corollary": 1.0}.get(command)
    if extra_s is not None and not any(abs(extra_s - x) <= 1e-12 for x in s_list):
        if command == "report-inflation" and f"{extra_s:g}" in {f"{x:g}" for x in s_list}:
            _fail("scaling.k", "must equal a sweep.s_list entry or differ from each to 6 "
                  f"significant digits (the report adds it to the sweep's s), got {extra_s!r}")
        s_list += (extra_s,)
    sweep = {**cfg["sweep"], "s_list": tuple(sorted(s_list)),
             "a1_mode": forced or cfg["sweep"]["a1_mode"]}
    return _built(SweepConfig, SWEEP_SECTIONS,
                  a0=_built(GaussianSpec, ("data",), **cfg["data"]),
                  **cfg["grid"], **sweep, **cfg["solver"])


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def _emit(out_dir, names, reports):
    """Write each report's CSV and one summary.json; returns exit code 0."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = [report.write_study_csv(rep, out_dir / name) for rep, name in zip(reports, names)]
    paths.append(report.write_summary_json(reports, out_dir / "summary.json"))
    for p in paths:
        log.info("wrote %s", p)
    return 0


def _run_config(config_cls, run, default_dt, **kwargs):
    """config_cls for the run section: run.dt or default_dt(), saved every
    run.save_every steps or about RUN_SAVES times over the horizon.  A step
    or horizon config_cls rejects names run.dt, or run.T when run.dt is
    unset."""
    try:
        rc = config_cls(dt=default_dt() if run["dt"] is None else run["dt"], T=run["T"],
                        **kwargs)
    except ValueError as exc:
        _fail("run.T" if run["dt"] is None else "run.dt", f"is out of range: {exc}")
    return replace(rc, save_every=run["save_every"]
                   or max(1, round(abs(rc.T / rc.dt) / RUN_SAVES)))


def _run_single(cfg, out_dir, kind, grid, rc, row, dumps):
    """The path run-nls and run-wkb share: integrate the studies.Run of kind
    on grid with run config rc, perturbed by run.a1_mode, alone, with keep
    as its per-save function.  keep writes the snapshot's fields named in
    dumps when run.dump_fields is set and returns the row(pair, norms) of
    the (snapshot, spectrum) pair, so the run holds one snapshot at a time;
    a guard abort leaves the earlier dumps."""
    section, name = cfg["run"], "nls" if kind == "nls" else "wkb"
    c = studies.A1_COEFFICIENTS[section["a1_mode"]](section["eps"], cfg["sweep"]["scaled_order"])
    run = studies.Run(kind, grid, section["eps"], rc, cfg["sweep_config"].a0, c)
    fdir, saves = out_dir / "fields", itertools.count()
    out_dir.mkdir(parents=True, exist_ok=True)

    def keep(pair):
        i = next(saves)
        if section["dump_fields"]:
            fdir.mkdir(exist_ok=True)
            for name in dumps:
                save_field(getattr(pair[0], name), fdir / f"{name}_{i:04d}")
        return row(pair, section["norms"])

    (rows,) = studies.solve_runs([run], keep)
    path = report.write_trajectory_csv(rows, out_dir / f"{name}_trajectory.csv")
    log.info("wrote %s", path)
    report.dump_json({"schema_version": report.SUMMARY_SCHEMA_VERSION,
                      "study": cfg["study"], "passed": True,
                      "rows": len(rows), "eps": run.eps, "dt": run.config.step},
                     out_dir / "summary.json")
    return 0


def cmd_run_nls(cfg, out_dir):
    run, solver = cfg["run"], cfg["solver"]
    if not 0 < run["eps"] <= 1:
        _fail("run.eps", f"must lie in (0, 1] for the wavefunction solver, got {run['eps']}")
    grid = make_grid(run["dim"], cfg["grid"]["half_width"], run["points"])
    # the default step divides each of the RUN_SAVES save intervals evenly
    target = nls.default_dt(grid, run["eps"], solver["nls_dt_safety"])
    rc = _run_config(nls.NlsRunConfig, run,
                     lambda: studies.aligned_run_config(nls.NlsRunConfig, target, run["T"],
                                                        RUN_SAVES).dt,
                     tail_tol=solver["tail_tol"])
    return _run_single(cfg, out_dir, "nls", grid, rc, report.nls_row, ("u",))


def cmd_run_wkb(cfg, out_dir):
    run, solver = cfg["run"], cfg["solver"]
    if run["with_corrector"] and run["eps"] != 0:
        _fail("run.with_corrector", "requires run.eps = 0 (the corrector rides the limit system)")
    if not run["with_corrector"] and run["eps"] == 0 and run["a1_mode"] != "zero":
        _fail("run.a1_mode", "must be 'zero' at run.eps = 0 without run.with_corrector, where "
              f"the datum (1 + eps c) a0 is a0; got {run['a1_mode']!r}")
    grid = make_grid(run["dim"], cfg["grid"]["half_width"], run["points"])
    # the default step is the RK4 rule clipped to the horizon
    target = wkb.default_dt(grid, solver["wkb_dt_safety"])
    rc = _run_config(wkb.WkbRunConfig, run,
                     lambda: math.copysign(min(target, abs(run["T"])), run["T"]),
                     sing_tol=run["sing_tol"])
    return _run_single(cfg, out_dir, "limit" if run["with_corrector"] else "grenier", grid, rc,
                       report.wkb_row, ("a", "phi"))


def cmd_study(study, csv_name, cfg, out_dir):
    """Write the report of studies.<study> (looked up on each call, so that
    a wrapper bound on the module runs, e.g. perfbench's tracer) to csv_name."""
    rep = getattr(studies, study)(cfg["sweep_config"])
    return _emit(out_dir, [csv_name], [rep])


def cmd_report_inflation(cfg, out_dir):
    measured = studies.ghost_separation_study(cfg["sweep_config"])
    rep = studies.inflation_bookkeeping(cfg["scaling_params"], measured)
    return _emit(out_dir, ["ghost_study.csv", "inflation_report.csv"], [measured, rep])


def cmd_report_corollary(cfg, out_dir):
    sweep = cfg["sweep_config"]
    corollary = cfg["corollary"]
    if corollary["target_energy"] is not None:
        # rescale the datum so the j-independent leading energy term hits
        # the requested level before the sweep runs
        quart = lp_norm(sweep.a0.realize(sweep.wkb_grid()), 4.0) ** 4
        if quart == 0:
            _fail("corollary.target_energy", "cannot be reached by rescaling a zero datum "
                  "(its quartic energy |a0|_L4^4 is 0)")
        alpha = (corollary["target_energy"] / quart) ** 0.25
        sweep = replace(sweep, a0=replace(sweep.a0, amplitude=sweep.a0.amplitude * alpha))
    measured = studies.ghost_separation_study(sweep)
    rep = studies.corollary_bookkeeping(corollary["n"], measured, delta=corollary["delta"])
    return _emit(out_dir, ["ghost_study.csv", "corollary_report.csv"], [measured, rep])


def cmd_selftest(cfg, out_dir):
    reports, checks = run_suite(seed=cfg["seed"])
    results = verdicts(checks, printer=print)
    payload = {
        "schema_version": report.SUMMARY_SCHEMA_VERSION,
        "study": cfg["study"],
        "passed": all(passed for _, _, passed, _ in results),
        "criteria": [
            {"number": number, "name": name, "passed": passed, "detail": detail}
            for number, name, passed, detail in results
        ],
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    report.dump_json(payload, out_dir / "acceptance_summary.json")
    for name, rep in reports.items():
        report.write_study_csv(rep, out_dir / name)
    if not payload["passed"]:
        failed = [name for _, name, passed, _ in results if not passed]
        print(f"selftest: FAILED criteria: {', '.join(failed)}", file=sys.stderr)
        return 4
    return 0


# command -> (the `study` name a config may carry, its handler), in the parser's order
COMMANDS = {
    "run-nls": ("run_nls", cmd_run_nls),
    "run-wkb": ("run_wkb", cmd_run_wkb),
    "study-wkb-error": ("wkb_error", partial(cmd_study, "wkb_error_study", "wkb_error_study.csv")),
    "study-smalltime": ("small_time", partial(cmd_study, "small_time_study",
                                              "smalltime_study.csv")),
    "study-ghost": ("ghost_separation", partial(cmd_study, "ghost_separation_study",
                                                "ghost_study.csv")),
    "study-ghost-n": ("ghost_higher_order", partial(cmd_study, "ghost_higher_order_study",
                                                    "ghost_n_study.csv")),
    "report-inflation": ("inflation", cmd_report_inflation),
    "report-corollary": ("corollary", cmd_report_corollary),
    "selftest": ("acceptance", cmd_selftest),
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
                       help="accepted and ignored: sweeps run sequentially, in eps order")
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
        if jobs > 1:
            log.warning("jobs = %d ignored: sweeps run sequentially", jobs)
        out_dir = Path(args.out or cfg["out_dir"] or os.environ.get(OUT_DIR_ENV) or "scnls_out")
        # checked before any work: mkdir would fail only once the runs are done
        blocked = next((p for p in (out_dir, *out_dir.parents) if p.exists() and not p.is_dir()),
                       None)
        if blocked is not None:
            raise ValueError(f"--out {out_dir} cannot be a directory: {blocked} is a file")
        # a study finds a sweep field out of range only once it sizes a run
        return _built(COMMANDS[args.command][1], SWEEP_SECTIONS, cfg, out_dir)
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
