"""The four benchmark workloads: CLI configs, output checks, energy drift.

Every workload runs `python -m scnls.cli <command>` on deterministic
Gaussian data.  The seed reaches the program only through the selftest
config's `seed` (the random datum of acceptance criterion 8); the other
inputs are fixed so that accuracy metrics do not move between seeds.
See README.md for why each workload exists.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

GHOST_EPS = (0.25, 0.125, 0.0625, 0.03125)
SELFTEST_CSVS = ("wkb_error_study.csv", "smalltime_study.csv", "ghost_study.csv",
                 "ghost_control_study.csv", "ghost_n_study.csv")
MASS_DRIFT_BOUND = 1e-10
CORRECTOR_COLUMNS = ("a1_l2", "phi1_linf")

_PASS_LINE = re.compile(r"^\[[1-9]\] \S+\s+PASS\b", re.MULTILINE)
_ENERGY_DRIFT = re.compile(r"max energy drift ([-+0-9.eE]+)")


@dataclass
class Iteration:
    """One CLI process and what the benchmark learned from it."""

    exit_code: int
    wall_s: float
    peak_rss_mb: float
    out_dir: Path
    stdout: str = ""
    failure: str | None = None
    energy_drift: float | None = None

    @property
    def failed(self):
        return self.failure is not None


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def relative_drift(rows, column):
    """max_t |q(t) - q(0)| / |q(0)| over the rows of a trajectory CSV."""
    values = [float(r[column]) for r in rows]
    return max(abs(v - values[0]) for v in values) / abs(values[0])


class Workload:
    name = ""
    command = ""
    jobs = 1

    def config(self, seed):
        return {"schema_version": 1, "jobs": self.jobs}

    def cli_args(self, config_path, out_dir, jobs=None):
        return [self.command, "--config", str(config_path), "--out", str(out_dir),
                "--jobs", str(jobs or self.jobs)]

    def prepare(self, config, wdir, run_child):
        """Untimed work done once per invocation; returns the check context.
        run_child(args, cwd) runs perfbench/child.py and returns its exit code."""
        return {}

    def evaluate(self, it, context):
        """Set it.failure (None on success) and it.energy_drift."""
        if it.exit_code != 0:
            it.failure = f"exit code {it.exit_code}"
            return
        try:
            it.failure = self.check(it, context)
        except (OSError, ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
            it.failure = f"unreadable output: {exc!r}"

    def check(self, it, context):
        raise NotImplementedError


class Selftest(Workload):
    name = "selftest"
    command = "selftest"

    def config(self, seed):
        return {**super().config(seed), "seed": seed}

    def check(self, it, context):
        passes = len(_PASS_LINE.findall(it.stdout))
        if passes != 9:
            return f"{passes} PASS lines, expected 9"
        digest = tuple((it.out_dir / name).read_bytes() for name in SELFTEST_CSVS)
        first = context.setdefault("csvs", digest)
        if digest != first:
            return "selftest CSVs differ from the first iteration of this run"
        match = _ENERGY_DRIFT.search(it.stdout)
        if match is None:
            return "criterion 7 reports no energy drift"
        it.energy_drift = float(match.group(1))
        return None


class GhostJobs2(Workload):
    name = "ghost-jobs2"
    command = "study-ghost"
    jobs = 2

    def config(self, seed):
        return {**super().config(seed), "sweep": {"eps_list": list(GHOST_EPS)}}

    def prepare(self, config, wdir, run_child):
        """The jobs = 1 reference run, through the drift probe, which also
        measures the energy drift of every wavefunction run of the sweep."""
        ref = wdir / "reference"
        drift = ref / "drift.json"
        if run_child(["drift", str(drift)] + self.cli_args(config, ref, jobs=1), ref) != 0:
            return {}
        return {"ghost_reference": (ref / "ghost_study.csv").read_bytes(),
                "reference_drift": json.loads(drift.read_text())["energy_drift"]}

    def check(self, it, context):
        reference = context.get("ghost_reference")
        if reference is None:
            return "the jobs = 1 reference run failed"
        if (it.out_dir / "ghost_study.csv").read_bytes() != reference:
            return "ghost_study.csv differs from the jobs = 1 reference"
        if context["reference_drift"] is None:
            return "the reference run made no wavefunction run"
        it.energy_drift = context["reference_drift"]
        return None


class Nls2d(Workload):
    name = "nls-2d"
    command = "run-nls"

    def config(self, seed):
        return {**super().config(seed),
                "run": {"dim": 2, "points": 512, "eps": 0.0625, "T": 0.25}}

    def check(self, it, context):
        rows = read_csv(it.out_dir / "nls_trajectory.csv")
        mass = relative_drift(rows, "mass")
        if not mass <= MASS_DRIFT_BOUND:
            return f"relative mass drift {mass:.3e} > {MASS_DRIFT_BOUND}"
        it.energy_drift = relative_drift(rows, "energy")
        return None


class Wkb2d(Workload):
    name = "wkb-2d"
    command = "run-wkb"

    def config(self, seed):
        return {**super().config(seed),
                "run": {"dim": 2, "points": 512, "eps": 0.0,
                        "with_corrector": True, "a1_mode": "equal_a0"}}

    def check(self, it, context):
        rows = read_csv(it.out_dir / "wkb_trajectory.csv")
        missing = [c for c in CORRECTOR_COLUMNS if c not in rows[0]]
        if missing:
            return f"corrector columns {missing} missing"
        if not all(math.isfinite(float(v)) for r in rows for v in r.values()):
            return "non-finite value in wkb_trajectory.csv"
        it.energy_drift = relative_drift(rows, "energy")
        return None


WORKLOADS = {w.name: w for w in (Selftest(), GhostJobs2(), Nls2d(), Wkb2d())}
