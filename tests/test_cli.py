import csv
import json
import re
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from scnls import cli, nls, report, studies, wkb
from scnls.acceptance import FULL_EPS_SWEEP, CheckResult
from scnls.errors import GuardError
from scnls.grid import load_field, make_grid
from scnls.studies import SweepConfig

from conftest import alone

FORMATS_MD = Path(__file__).resolve().parents[1] / "docs" / "formats.md"


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2))
    return path


def run_command(tmp_path, command, run, **sections):
    """Run a run-* command in a fresh directory; returns (summary, trajectory rows)."""
    out = tmp_path / f"out{len(list(tmp_path.iterdir()))}"
    out.mkdir()
    cfg = write_config(out, {"schema_version": 1, "run": run, **sections})
    assert cli.run([command, "--config", str(cfg), "--out", str(out)]) == 0
    name = "nls_trajectory.csv" if command == "run-nls" else "wkb_trajectory.csv"
    with open(out / name, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return json.loads((out / "summary.json").read_text()), rows


def tiny_sweep(**overrides):
    doc = {
        "schema_version": 1,
        "grid": {"points_base": 256, "wkb_points": 128},
        "sweep": {"eps_list": [0.25, 0.125], "s_list": [0.0, 1.0]},
    }
    doc.update(overrides)
    return doc


class TestConfigValidation:
    def test_missing_schema_version(self, tmp_path):
        cfg = write_config(tmp_path, {"sweep": {}})
        assert cli.run(["study-ghost", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"schema_version": 1, "sweeps": {}})
        assert cli.run(["study-ghost", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "sweeps" in capsys.readouterr().err

    def test_negative_dt_names_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"schema_version": 1, "run": {"dt": -1e-3, "T": 0.1}})
        assert cli.run(["run-nls", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "dt" in capsys.readouterr().err

    def test_study_name_mismatch(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"schema_version": 1, "study": "ghost_separation"})
        assert cli.run(["study-smalltime", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "ghost_separation" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert cli.run(["study-ghost", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert "JSON" in capsys.readouterr().err

    def test_bad_a1_mode_named(self, tmp_path, capsys):
        cfg = write_config(tmp_path, tiny_sweep())
        doc = json.loads(cfg.read_text())
        doc["sweep"]["a1_mode"] = "diagonal"
        cfg = write_config(tmp_path, doc)
        assert cli.run(["study-ghost", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "a1_mode" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("grid.half_width", float("inf")),
        ("data.amplitude", float("inf")),
        ("run.T", float("nan")),
        ("run.dt", float("-inf")),
        ("sweep.eps_list", [0.25, float("nan")]),
    ])
    def test_non_finite_number_named(self, tmp_path, capsys, field, value):
        section, key = field.split(".")
        cfg = write_config(tmp_path, {"schema_version": 1, section: {key: value}})
        assert cli.run(["run-nls", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"config field '{field}'" in err and "finite" in err

    @pytest.mark.parametrize("field, value", [
        ("grid.half_width", 10**400),
        ("sweep.eps_list", [0.25, 10**400]),
        ("sweep.n_saves", 10**400),
        ("sweep.s_list", [0.0, -10**400]),
    ], ids=["number", "list-element", "integer", "negative-list-element"])
    def test_integer_beyond_float_range_named(self, tmp_path, capsys, field, value):
        section, key = field.split(".")
        cfg = write_config(tmp_path, {"schema_version": 1, section: {key: value}})
        assert cli.run(["run-nls", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"config field '{field}'" in err and "finite" in err
        # the number is shortened to its leading digits and its length
        assert "10000000... (401 digits)" in err and len(err) < 200

    # Validation must catch these before the grid or the solver sees them:
    # their messages name no field, and a run with dumps writes fields/ at
    # t = 0 before the solver reads run.norms.
    @pytest.mark.parametrize("key, value", [("dim", 4), ("points", 100), ("norms", [-1])],
                             ids=["dim", "points", "norms"])
    def test_run_field_out_of_range_named_before_any_output(self, tmp_path, capsys, key,
                                                            value):
        cfg = write_config(tmp_path, {"schema_version": 1,
                                      "run": {key: value, "dump_fields": True}})
        out = tmp_path / "out"
        out.mkdir()
        assert cli.run(["run-nls", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"config field 'run.{key}'" in capsys.readouterr().err
        assert not list(out.iterdir())

    @pytest.mark.parametrize("mode", ["zero", "equal_a0", "imaginary"])
    def test_ghost_n_study_refuses_another_a1_mode(self, tmp_path, capsys, mode):
        doc = tiny_sweep()
        doc["sweep"]["a1_mode"] = mode
        cfg = write_config(tmp_path, doc)
        assert cli.run(["study-ghost-n", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "config field 'sweep.a1_mode'" in err and "'scaled'" in err
        assert not (tmp_path / "summary.json").exists()

    def test_section_must_be_object(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"schema_version": 1, "grid": [1]})
        assert cli.run(["study-ghost", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "config field 'grid'" in capsys.readouterr().err

    def test_unknown_subcommand(self):
        assert cli.run(["study-everything"]) == 2

    def test_help_exits_zero(self):
        assert cli.run(["--help"]) == 0


class TestSchema:
    @pytest.mark.parametrize("command", list(cli.STUDY_COMMANDS))
    def test_defaults_build_the_canonical_sweep(self, command):
        cfg = cli.validate_config({"schema_version": 1}, command)
        sweep = cli._sweep_config(cfg, a1_mode=cli.STUDY_COMMANDS[command][2])
        a1_mode = "scaled" if command == "study-ghost-n" else "equal_a0"
        expected = SweepConfig(eps_list=FULL_EPS_SWEEP, a1_mode=a1_mode)
        for f in fields(SweepConfig):
            got, want = getattr(sweep, f.name), getattr(expected, f.name)
            assert (got, type(got)) == (want, type(want)), f.name

    def test_integers_given_for_numbers_become_floats(self):
        doc = {"schema_version": 1, "grid": {"half_width": 12}, "sweep": {"s_list": [0, 1]}}
        cfg = cli.validate_config(doc, "study-ghost")
        assert type(cfg["grid"]["half_width"]) is float
        assert [type(s) for s in cfg["sweep"]["s_list"]] == [float, float]

    def test_formats_doc_lists_the_schema(self):
        text = FORMATS_MD.read_text()
        example = json.loads(re.search(r"## Config \(JSON\).*?```json\n(.*?)```", text, re.S)[1])
        cli.validate_config(example, "study-ghost")
        sections = {name: example.pop(name) for name in cli.SCHEMA}
        assert sections == {
            section: {name: list(k.default) if k.kind is tuple else k.default
                      for name, k in keys.items()}
            for section, keys in cli.SCHEMA.items()
        }
        assert sorted(example) == sorted(["study", "out_dir", *cli.TOP_LEVEL])
        assert example["schema_version"] == cli.CONFIG_SCHEMA_VERSION
        assert (example["seed"], example["jobs"]) == (cli.TOP_LEVEL["seed"].default,
                                                      cli.TOP_LEVEL["jobs"].default)


class TestRunCommands:
    def test_run_nls_writes_trajectory(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"schema_version": 1,
             "run": {"eps": 0.25, "points": 256, "T": 0.05, "norms": [0.0, 1.0]}},
        )
        out = tmp_path / "out"
        assert cli.run(["run-nls", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "nls_trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,mass,energy,h0,h1"
        assert len(lines) > 2
        summary = json.loads((out / "summary.json").read_text())
        assert summary["study"] == "run_nls"

    def test_run_nls_rejects_zero_eps(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"schema_version": 1, "run": {"eps": 0.0}})
        assert cli.run(["run-nls", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "run.eps" in capsys.readouterr().err

    def test_run_nls_default_cadence_aligned(self, tmp_path):
        # Ten save intervals of T/10, forward and backward in time.
        for T in (0.05, -0.05):
            run = {"eps": 0.25, "points": 256, "T": T, "norms": []}
            summary, rows = run_command(tmp_path, "run-nls", run)
            assert [float(r["t"]) for r in rows] == pytest.approx([k * T / 10 for k in range(11)])
            assert summary["dt"] == pytest.approx(T / 10)

    def test_run_nls_explicit_dt_and_save_every_win(self, tmp_path):
        run = {"eps": 0.25, "points": 256, "T": 0.05, "norms": [], "dt": 0.001, "save_every": 25}
        summary, rows = run_command(tmp_path, "run-nls", run)
        assert summary["dt"] == 0.001
        assert [float(r["t"]) for r in rows] == pytest.approx([0.0, 0.025, 0.05])
        del run["dt"]
        summary, rows = run_command(tmp_path, "run-nls", run)
        assert summary["dt"] == pytest.approx(0.005)  # the aligned default: 10 steps
        assert [float(r["t"]) for r in rows] == pytest.approx([0.0, 0.05])

    @pytest.mark.parametrize("command", ["run-nls", "run-wkb"])
    @pytest.mark.parametrize("field, run", [("run.dt", {"dt": 0, "T": 0.1}),
                                            ("run.T", {"T": 0})])
    def test_zero_step_or_horizon_named(self, tmp_path, capsys, command, field, run):
        cfg = write_config(tmp_path, {"schema_version": 1, "run": run})
        assert cli.run([command, "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert f"'{field}'" in capsys.readouterr().err

    @pytest.mark.parametrize("command, key, run", [
        ("run-nls", "nls_dt_safety", {"eps": 0.25, "points": 256, "T": 0.05}),
        ("run-wkb", "wkb_dt_safety", {"eps": 0.0, "points": 64, "T": 0.05}),
    ])
    def test_dt_safety_honored(self, tmp_path, command, key, run):
        default, _ = run_command(tmp_path, command, run)
        small, _ = run_command(tmp_path, command, run, solver={key: 0.01})
        assert small["dt"] < default["dt"] / 10

    def test_run_wkb_with_corrector_and_dumps(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"schema_version": 1,
             "run": {"eps": 0.0, "points": 64, "T": 0.05, "with_corrector": True,
                     "a1_mode": "equal_a0", "dump_fields": True}},
        )
        out = tmp_path / "out"
        assert cli.run(["run-wkb", "--config", str(cfg), "--out", str(out)]) == 0
        header = (out / "wkb_trajectory.csv").read_text().splitlines()[0]
        assert "grad_phi_max" in header and "phi1_linf" in header
        assert (out / "fields" / "a_0000.csv").exists()
        assert (out / "fields" / "phi_0000.json").exists()

    def test_run_wkb_guard_abort_exit_code(self, tmp_path, capsys):
        # the singularity guard trips in the first step, after the t = 0 save
        cfg = write_config(
            tmp_path,
            {"schema_version": 1,
             "run": {"eps": 0.0, "points": 64, "T": 0.25, "sing_tol": 1e-6,
                     "dump_fields": True}},
        )
        assert cli.run(["run-wkb", "--config", str(cfg), "--out", str(tmp_path)]) == 3
        assert "guard" in capsys.readouterr().err
        assert not (tmp_path / "wkb_trajectory.csv").exists()
        assert not (tmp_path / "summary.json").exists()
        assert dump_names(tmp_path) == saved_names(1, ("a", "phi"))

    def test_run_nls_guard_abort_keeps_the_earlier_dumps(self, tmp_path, capsys):
        # the tail guard passes at t = 0 and 0.05 and trips at the third save
        cfg = write_config(
            tmp_path,
            {"schema_version": 1, "solver": {"tail_tol": 3e-5},
             "run": {"eps": 0.25, "points": 64, "T": 0.5, "dump_fields": True}},
        )
        assert cli.run(["run-nls", "--config", str(cfg), "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "solver guard abort: spectral tail fraction" in err
        assert "exceeds 3.0e-05 at t = 0.1;" in err
        assert not (tmp_path / "nls_trajectory.csv").exists()
        assert not (tmp_path / "summary.json").exists()
        assert dump_names(tmp_path) == saved_names(2, ("u",))

    @pytest.mark.parametrize("command, engine, run", [
        ("run-nls", "solve_nls_stack", {"eps": 0.25}),
        ("run-wkb", "solve_grenier_stack", {"eps": 0.25, "dt": 0.025}),
        ("run-wkb", "solve_limit_stack",
         {"eps": 0.0, "dt": 0.025, "with_corrector": True, "a1_mode": "equal_a0"}),
    ])
    def test_dumps_in_dimension_three_equal_the_trajectory(self, tmp_path, monkeypatch,
                                                           command, engine, run):
        # on 16^3, a Gaussian that decays to 1e-12 at the boundary keeps a
        # spectral tail fraction of about 2e-2, hence tail_tol = 0.1
        module = nls if command == "run-nls" else wkb
        solve_runs, stack, planned, sizes = studies.solve_runs, getattr(module, engine), [], []
        monkeypatch.setattr(studies, "solve_runs",
                            lambda runs, keep: planned.extend(runs) or solve_runs(runs, keep))
        monkeypatch.setattr(module, engine,
                            lambda data, *rest: sizes.append(len(data)) or stack(data, *rest))
        summary, rows = run_command(tmp_path, command,
                                    {"dim": 3, "points": 16, "dump_fields": True, **run},
                                    data={"width": 1.9}, solver={"tail_tol": 0.1})
        (out,) = [p for p in tmp_path.iterdir() if p.is_dir()]
        assert len(planned) == 1 and sizes == [1]  # one run, integrated alone by engine
        (traj,) = solve_runs(planned)  # the same run, every snapshot collected
        assert summary["rows"] == len(rows) == len(traj) == 11
        to_row = report.nls_row if command == "run-nls" else report.wkb_row
        assert rows == [{k: report.fmt(v) for k, v in to_row(snap, (0.0, 1.0)).items()}
                        for snap in traj]
        prefixes = ("u",) if command == "run-nls" else ("a", "phi")
        assert dump_names(out) == saved_names(11, prefixes)
        for i, snap in enumerate(traj):
            state = snap[0] if isinstance(snap, tuple) else snap
            for prefix in prefixes:
                dumped = load_field(out / "fields" / f"{prefix}_{i:04d}")
                assert np.array_equal(dumped.values, getattr(state, prefix).values)
        if command == "run-nls":
            mass = [float(r["mass"]) for r in rows]
            assert max(abs(m - mass[0]) for m in mass) / mass[0] <= 1e-10


def dump_names(out):
    return sorted(p.name for p in (out / "fields").iterdir())


def saved_names(saves, prefixes):
    """The dump files of the first `saves` saved times."""
    return sorted(f"{prefix}_{i:04d}.{ext}" for prefix in prefixes
                  for i in range(saves) for ext in ("csv", "json"))


class TestRunMemory:
    """run-nls and run-wkb hold one snapshot at a time, so a run that saves
    41 times peaks below one field above the same run saving twice, whose
    trajectory never holds more than two snapshots.  Kept whole, the 41
    snapshots would add 39 fields (run-nls) or 156 (run-wkb with the
    corrector: a, phi, a1 and phi1)."""

    @pytest.mark.parametrize("command, run", [
        ("run-nls", {"eps": 0.25}),
        ("run-wkb", {"eps": 0.0, "with_corrector": True, "a1_mode": "equal_a0"}),
    ])
    def test_peak_does_not_grow_with_the_saves(self, tmp_path, command, run):
        grid = make_grid(2, 12.0, 128)  # held: each run finds the grid's cached arrays
        field_bytes = grid.num_points * 16

        def peak(save_every, T=0.04):
            out = tmp_path / f"out{len(list(tmp_path.iterdir()))}"
            out.mkdir()
            cfg = write_config(out, {
                "schema_version": 1, "grid": {"half_width": grid.half_width},
                "run": {"dim": 2, "points": grid.points_per_axis, "T": T, "dt": 0.001,
                        "save_every": save_every, **run}})
            tracemalloc.start()
            try:
                assert cli.run([command, "--config", str(cfg), "--out", str(out)]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1, T=0.002)  # warm-up: fills the grid's caches
        two, many = peak(40), peak(1)
        assert many < two + field_bytes, f"{(many - two) / field_bytes:.2f} fields above"


class TestStudyCommands:
    def test_ghost_study_outputs(self, tmp_path):
        cfg = write_config(tmp_path, tiny_sweep())
        out = tmp_path / "out"
        assert cli.run(["study-ghost", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "ghost_study.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert "ghost_separation" in summary["studies"]

    def test_ghost_study_deterministic(self, tmp_path):
        cfg = write_config(tmp_path, tiny_sweep())
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert cli.run(["study-ghost", "--config", str(cfg), "--out", str(out1)]) == 0
        assert cli.run(["study-ghost", "--config", str(cfg), "--out", str(out2)]) == 0
        assert (out1 / "ghost_study.csv").read_bytes() == (out2 / "ghost_study.csv").read_bytes()
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()

    def test_ghost_study_identical_across_jobs(self, tmp_path, caplog):
        # --jobs is accepted and ignored: a value above 1 warns once.
        cfg = write_config(tmp_path, tiny_sweep())
        outs = [tmp_path / f"jobs{jobs}" for jobs in (1, 2)]
        warnings = []
        for jobs, out in zip((1, 2), outs):
            caplog.clear()
            args = ["study-ghost", "--config", str(cfg), "--out", str(out), "--jobs", str(jobs)]
            assert cli.run(args) == 0
            warnings.append([r.getMessage() for r in caplog.records if r.levelname == "WARNING"])
        assert warnings == [[], ["jobs = 2 ignored: sweeps run sequentially"]]
        names = sorted(p.name for p in outs[0].glob("*.csv"))
        assert names == sorted(p.name for p in outs[1].glob("*.csv"))
        assert names
        for name in names + ["summary.json"]:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_smalltime_study(self, tmp_path):
        cfg = write_config(tmp_path, tiny_sweep())
        out = tmp_path / "out"
        assert cli.run(["study-smalltime", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "smalltime_study.csv").exists()

    def test_ghost_n_study_defaults_to_scaled_mode(self, tmp_path):
        cfg = write_config(tmp_path, tiny_sweep())
        out = tmp_path / "out"
        assert cli.run(["study-ghost-n", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        header = summary["studies"]["ghost_higher_order"]["header"]
        assert header["config"]["a1_mode"] == "scaled"

    def test_ghost_n_study_accepts_an_explicit_scaled_mode(self, tmp_path):
        implicit, explicit = tiny_sweep(), tiny_sweep()
        explicit["sweep"]["a1_mode"] = "scaled"
        csvs = []
        for name, doc in (("implicit", implicit), ("explicit", explicit)):
            cfg = write_config(tmp_path, doc, f"{name}.json")
            out = tmp_path / name
            assert cli.run(["study-ghost-n", "--config", str(cfg), "--out", str(out)]) == 0
            csvs.append((out / "ghost_n_study.csv").read_bytes())
        assert csvs[0] == csvs[1]

    def test_report_inflation(self, tmp_path):
        doc = tiny_sweep()
        doc["scaling"] = {"n": 6, "s": 1.0, "sigma": 1.5, "k": 1.0}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert cli.run(["report-inflation", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "inflation_report.csv").exists()
        assert (out / "ghost_study.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["studies"]["inflation"]["header"]["limitation"]

    def test_report_corollary_with_target_energy(self, tmp_path):
        doc = tiny_sweep()
        doc["corollary"] = {"n": 6, "delta": 0.5, "target_energy": 1.0}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert cli.run(["report-corollary", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        c0 = summary["studies"]["corollary"]["header"]["leading_energy"]
        assert c0 == pytest.approx(1.0, rel=1e-6)

    def test_report_corollary_target_energy_needs_a_nonzero_datum(self, tmp_path, capsys):
        doc = tiny_sweep(data={"amplitude": 0.0})
        doc["corollary"] = {"target_energy": 1.0}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert cli.run(["report-corollary", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config field 'corollary.target_energy' ")
        assert not list(out.iterdir())

    @pytest.mark.parametrize("command, failed", [
        ("study-ghost", []),
        ("study-ghost-n", []),
        ("report-corollary", ["mass_vanishes", "data_energy_difference_vanishes",
                              "data_energies_in_band", "solution_energy_bounded_below"]),
    ], ids=["ghost", "ghost-n", "corollary"])
    def test_zero_datum_fails_the_bounded_below_verdicts(self, tmp_path, command, failed):
        # a0 = 0 makes the floor 0 as well; a vanishing separation still fails
        cfg = write_config(tmp_path, tiny_sweep(data={"amplitude": 0.0}))
        out = tmp_path / "out"
        assert cli.run([command, "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["passed"] is False
        checks = {name: check for study in summary["studies"].values()
                  for name, check in study["checks"].items()}
        floor = [f"{kind}_s{s}" for kind in ("above_floor", "separated") for s in (0, 1)]
        assert sorted(name for name, c in checks.items() if not c["passed"]) == sorted(
            floor + failed)
        assert all(checks[name]["value"] == 0.0 for name in floor + failed)

    @pytest.mark.parametrize("command, sweep", [
        ("study-wkb-error", {}),
        ("study-smalltime", {}),
        ("study-ghost", {}),
        ("study-ghost", {"certify_refinement": True}),
        ("study-ghost-n", {}),
        ("report-inflation", {}),
        ("report-corollary", {}),
    ], ids=["wkb-error", "smalltime", "ghost", "ghost-certified", "ghost-n", "inflation",
            "corollary"])
    def test_sweep_commands_stack_and_match_single_runs(self, tmp_path, monkeypatch,
                                                        command, sweep):
        # The reference stacks every run alone; the command itself must stack
        # some runs together and write the same bytes.
        doc = tiny_sweep()
        doc["sweep"] = {"eps_list": [0.25, 0.125, 0.0625], "s_list": [0.0, 1.0], **sweep}
        cfg = write_config(tmp_path, doc)
        single, stacked = tmp_path / "single", tmp_path / "stacked"
        stack_runs, solve_runs, sizes = studies.stack_runs, studies.solve_runs, []

        def recording(runs, keep=None):
            sizes.append(len(runs))
            return solve_runs(runs, keep)

        monkeypatch.setattr(studies, "solve_runs", recording)
        with monkeypatch.context() as mp:
            mp.setattr(studies, "stack_runs",
                       lambda cache, runs: [stack_runs(cache, [run]) for run in runs])
            assert cli.run([command, "--config", str(cfg), "--out", str(single)]) == 0
        single_sizes = sizes.copy()
        sizes.clear()
        assert cli.run([command, "--config", str(cfg), "--out", str(stacked)]) == 0
        assert set(single_sizes) == {1} and max(sizes) > 1 and sum(sizes) == len(single_sizes)
        names = sorted(p.name for p in single.iterdir())
        assert "summary.json" in names and len(names) > 1
        assert names == sorted(p.name for p in stacked.iterdir())
        for name in names:
            assert (single / name).read_bytes() == (stacked / name).read_bytes(), name

    # a0 = 30 exp(-x^2): at the default horizon the limit run trips the
    # singularity guard and the first wavefunction pair the tail guard at
    # t = 0.025; over a horizon of 0.025 the limit run stays healthy and the
    # first pair trips at t = 0.0025.  Wavefunction stacks run first, in eps
    # order, so both abort on the first pair.
    @pytest.mark.parametrize("sweep", [{}, {"horizon": 0.025, "tau": 0.025}],
                             ids=["limit-trips", "wavefunction-trips"])
    def test_ghost_study_guard_abort_names_the_first_tripping_run(self, tmp_path, capsys,
                                                                  sweep):
        doc = tiny_sweep(data={"amplitude": 30.0})
        doc["sweep"].update(sweep)
        cfg = write_config(tmp_path, doc)
        assert cli.run(["study-ghost", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        config = cli._sweep_config(cli.validate_config(doc, "study-ghost"))
        # The stacks in stacking order; a tripping stack raises the error of
        # the member that trips first in step order.
        for stack in [*(studies._pair_runs(config, eps) for eps in config.eps_list),
                      [studies._limit_run(config)]]:
            errors = []
            for run in stack:
                try:
                    alone(run)
                except GuardError as exc:
                    errors.append(exc)
            if errors:
                assert err == f"solver guard abort: {min(errors, key=lambda exc: exc.t)}\n"
                return
        pytest.fail("no run trips a guard")

    def test_wkb_error_study_short_sweep_fails_before_any_run(self, tmp_path, capsys,
                                                             monkeypatch):
        # the slope fits need three sweep points; tiny_sweep has two
        monkeypatch.setattr(studies, "stack_runs", lambda *a: pytest.fail("stack_runs called"))
        doc = tiny_sweep()
        config = cli._sweep_config(cli.validate_config(doc, "study-wkb-error"))
        with pytest.raises(ValueError, match="eps_list"):
            studies.wkb_error_study(config)
        cfg, out = write_config(tmp_path, doc), tmp_path / "out"
        assert cli.run(["study-wkb-error", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: eps_list needs >= 3 points for slope fits, got 2\n"
        assert not list(out.iterdir())

    def test_grid_cap_fails_before_any_run(self, tmp_path, capsys, monkeypatch):
        # The run list is built before any run, so a sweep point past the cap
        # is a config error even where an earlier run would trip a guard.
        doc = tiny_sweep(data={"amplitude": 30.0})
        doc["grid"]["max_points_per_axis"] = 256
        cfg = write_config(tmp_path, doc)
        for module, name in ((nls, "solve_nls_stack"), (wkb, "solve_limit_stack")):
            monkeypatch.setattr(module, name, lambda *a, name=name: pytest.fail(f"{name} called"))
        assert cli.run(["study-ghost", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "error: eps = 0.125 needs N = 512 > configured cap 256\n"

    def test_out_dir_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path / "envout"))
        cfg = write_config(
            tmp_path,
            {"schema_version": 1, "run": {"eps": 0.25, "points": 256, "T": 0.02}},
        )
        assert cli.run(["run-nls", "--config", str(cfg)]) == 0
        assert (tmp_path / "envout" / "nls_trajectory.csv").exists()


class TestSelftest:
    def test_real_suite_passes_and_is_deterministic(self, tmp_path, capsys, monkeypatch):
        # Repeated runs, and runs with --jobs 1 and 2, write identical bytes.
        # Every wavefunction run comes from one stack per sweep point.
        stacks = []
        solve_stack = nls.solve_nls_stack

        def recording(u0s, eps, rc, keep=None):
            stacks.append(len(u0s))
            return solve_stack(u0s, eps, rc, keep)

        monkeypatch.setattr(nls, "solve_nls_stack", recording)
        runs = [(tmp_path / "a", 1), (tmp_path / "b", 1), (tmp_path / "c", 2)]
        stdout = []
        for out, jobs in runs:
            stacks.clear()
            assert cli.run(["selftest", "--out", str(out), "--jobs", str(jobs)]) == 0
            stdout.append(capsys.readouterr().out)
            assert len(re.findall(r"^\[[1-9]\] \S+\s+PASS\b", stdout[-1], re.MULTILINE)) == 9
            assert stacks == [3] * 5
        assert stdout[0] == stdout[1] == stdout[2]
        names = sorted(p.name for p in runs[0][0].glob("*.csv"))
        assert len(names) == 5
        for name in names + ["acceptance_summary.json"]:
            first = (runs[0][0] / name).read_bytes()
            assert all((out / name).read_bytes() == first for out, _ in runs[1:])

    @pytest.fixture
    def stub_suite(self, monkeypatch):
        outcomes = {"passed": True}

        class StubSuite:
            def __init__(self, seed=0):
                self.seed = seed

            def run_all(self, printer=None):
                results = [
                    CheckResult(i, f"check-{i}", outcomes["passed"], "stub")
                    for i in range(1, 10)
                ]
                if printer:
                    for r in results:
                        printer(f"[{r.criterion}] {r.name} {'PASS' if r.passed else 'FAIL'}")
                return results

            def reports(self):
                return []

        monkeypatch.setattr(cli, "AcceptanceSuite", StubSuite)
        return outcomes

    def test_selftest_pass_exit_zero(self, tmp_path, stub_suite, capsys):
        assert cli.run(["selftest", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 9
        payload = json.loads((tmp_path / "acceptance_summary.json").read_text())
        assert payload["passed"] is True
        assert len(payload["criteria"]) == 9

    def test_selftest_failure_exit_four(self, tmp_path, stub_suite, capsys):
        stub_suite["passed"] = False
        assert cli.run(["selftest", "--out", str(tmp_path)]) == 4
        assert "FAILED" in capsys.readouterr().err
