"""Deterministic CSV and JSON emission for studies and trajectories.

Floats are printed with 17 significant digits so identical configs yield
byte-identical files; row order is fixed by construction.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict

import numpy as np

from . import nls, wkb
from .grid import SPECTRAL, Field, SobolevIndex, norm

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


def summary_dict(report):
    return {
        "schema_version": SUMMARY_SCHEMA_VERSION,
        "study": report.study,
        "passed": report.passed(),
        "checks": report.checks,
        "slopes": report.slopes,
        "header": {**report.header, "config": asdict(report.config)},
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


def nls_row(snap, norm_orders=()):
    """(t, mass, energy, requested H^s norms) of the (NlsState, spectrum)
    pair solve_nls_stack hands to keep; the energy and the norms read the
    pair's spectrum, so a row makes no transform.  The row holds only
    floats, since the spectrum is lent for the keep call alone."""
    state, uhat = snap
    row = {
        "t": state.t,
        "mass": nls.mass(state.u),
        "energy": nls.semiclassical_energy(state, uhat),
    }
    for s in norm_orders:
        row[f"h{s:g}"] = norm(uhat, SobolevIndex(s))
    return row


def wkb_row(snap, norm_orders=()):
    """NLS columns plus the phase-gradient sup, and the corrector norms when
    the state carries a1 and phi1, of the (GrenierState, spectrum) pair the
    phase-amplitude engine hands to keep.  The norms read the lent spectra,
    so a row makes no forward transform; the energy and the gradient sup
    share one batched inverse transform of the gradients of a and phi."""
    state, spectra = snap
    g = state.a.grid
    grad_a, grad_phi = np.swapaxes(wkb.gradients(g, spectra.values[:2]), 0, 1)
    row = {
        "t": state.t,
        "mass": nls.mass(state.a),
        "energy": wkb.wkb_energy(state, grad_a, grad_phi),
        "grad_phi_max": float(np.abs(grad_phi.real).max()),
    }
    a_hat, phi_hat, *corr = (Field(g, f, SPECTRAL) for f in spectra.values)
    for s in norm_orders:
        row[f"a_h{s:g}"] = norm(a_hat, SobolevIndex(s))
        row[f"phi_h{s:g}"] = norm(phi_hat, SobolevIndex(s))
    if state.a1 is not None:
        row["a1_l2"] = norm(corr[0])
        row["phi1_linf"] = float(np.abs(state.phi1.values).max())
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
