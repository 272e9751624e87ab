"""Deterministic CSV and JSON emission for studies and trajectories.

Floats are printed with 17 significant digits so identical configs yield
byte-identical files; row order is fixed by construction.
"""

from __future__ import annotations

import csv
import json

import numpy as np

from . import nls, wkb
from .grid import SobolevIndex, from_fft, norm, transform

SUMMARY_SCHEMA_VERSION = 1

STUDY_COLUMNS = [
    "section", "family", "quantity", "eps", "t", "s",
    "value", "slope", "max_resid", "passed", "detail",
]


def fmt(x):
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    return str(x)


def write_study_csv(report, path):
    """One long-format CSV per study: data rows, then slopes, then checks."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(STUDY_COLUMNS)
        for r in report.rows:
            w.writerow([
                "row", r.get("family"), r.get("quantity"),
                fmt(r.get("eps")), fmt(r.get("t")), fmt(r.get("s")),
                fmt(r.get("value")), "", "", "", "",
            ])
        for sl in report.slopes:
            w.writerow([
                "slope", sl.get("family"), "loglog_slope",
                "", "", fmt(sl.get("s")),
                "", fmt(sl.get("slope")), fmt(sl.get("max_resid")), "", "",
            ])
        for name in report.checks:
            c = report.checks[name]
            w.writerow([
                "check", "", name, "", "", "",
                fmt(c.get("value")), "", "", fmt(c["passed"]),
                f"bound: {c.get('bound')}; {c.get('note', '')}".strip("; "),
            ])
    return path


def _json_ready(obj):
    if isinstance(obj, dict):
        return {str(k): _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def summary_dict(report):
    return {
        "schema_version": SUMMARY_SCHEMA_VERSION,
        "study": report.study,
        "passed": report.passed(),
        "checks": _json_ready(report.checks),
        "slopes": _json_ready(report.slopes),
        "header": _json_ready(report.header),
    }


def write_summary_json(reports, path):
    """Single summary for one CLI invocation; reports keyed by study name."""
    payload = {
        "schema_version": SUMMARY_SCHEMA_VERSION,
        "passed": all(r.passed() for r in reports),
        "studies": {r.study: summary_dict(r) for r in reports},
    }
    return dump_json(payload, path)


def dump_json(payload, path):
    """Write payload as key-sorted, indented JSON ending in a newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return path


def nls_row(state, norm_orders=()):
    """(t, mass, energy, requested H^s norms) of one saved NlsState; the
    energy and the norms share one transform of it."""
    uhat = transform(state.u)
    row = {
        "t": state.t,
        "mass": nls.mass(state.u),
        "energy": nls.semiclassical_energy(state, uhat),
    }
    for s in norm_orders:
        row[f"h{s:g}"] = norm(uhat, SobolevIndex(s))
    return row


def wkb_row(snap, norm_orders=()):
    """NLS columns plus the phase-gradient sup of one saved GrenierState,
    and the corrector norms when snap is a (GrenierState, CorrectorState)
    pair; the energy, the gradient sup and the norms share one transform
    each of a and phi, and the energy and the gradient sup one gradient
    computation."""
    state, corr = snap if isinstance(snap, tuple) else (snap, None)
    fft_pair = wkb.spectra(state)
    grads = wkb.gradients(state, fft_pair)
    row = {
        "t": state.t,
        "mass": nls.mass(state.a),
        "energy": wkb.wkb_energy(state, grads),
        "grad_phi_max": wkb.grad_phi_max(state, grads),
    }
    if norm_orders:
        a_hat, phi_hat = (from_fft(state.a.grid, f) for f in fft_pair)
        for s in norm_orders:
            row[f"a_h{s:g}"] = norm(a_hat, SobolevIndex(s))
            row[f"phi_h{s:g}"] = norm(phi_hat, SobolevIndex(s))
    if corr is not None:
        row["a1_l2"] = norm(corr.a1)
        row["phi1_linf"] = float(np.abs(corr.phi1.values).max())
    return row


def write_trajectory_csv(rows, path):
    if not rows:
        raise ValueError("no trajectory rows to write")
    columns = list(rows[0].keys())
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(columns)
        for row in rows:
            w.writerow([fmt(row.get(c)) for c in columns])
    return path
