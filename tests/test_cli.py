import argparse
import contextlib
import csv
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import scnls
from scnls import acceptance, cli, nls, report, studies, wkb
from scnls.acceptance import FULL_EPS_SWEEP
from scnls.errors import GuardError
from scnls.grid import Field, load_field, make_grid, transform
from scnls.studies import SweepConfig

from conftest import alone, count_ffts, traced_peak

FORMATS_MD = Path(__file__).resolve().parents[1] / "docs" / "formats.md"
GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_SELFTEST = GOLDEN / "selftest"
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def load_benchmark_workloads():
    """perfbench/workloads.py, imported by path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BENCHMARK_MODULE = load_benchmark_workloads()
BENCHMARK_WORKLOADS = BENCHMARK_MODULE.WORKLOADS


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

    def test_non_utf8_config_named(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"schema_version": 1, "note": "caf\u00e9"}'.encode("latin-1"))
        out = tmp_path / "out"
        assert cli.run(["run-nls", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: config file {path} is not UTF-8 text\n"
        assert not out.exists()

    @pytest.mark.parametrize("where", ["out", "parent"])
    def test_out_naming_a_file_fails_before_any_run(self, tmp_path, capsys, monkeypatch, where):
        blocked = tmp_path / "afile"
        blocked.write_text("kept\n")
        out = blocked if where == "out" else blocked / "sub"
        monkeypatch.setattr(nls, "solve_nls_stack", lambda *a: pytest.fail("solve_nls_stack called"))
        assert cli.run(["run-nls", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: --out {out} cannot be a directory: {blocked} is a file\n")
        assert blocked.read_text() == "kept\n"

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_config_named_before_any_output(self, tmp_path, capsys, kind):
        path = tmp_path / "config.json"
        if kind == "directory":
            path.mkdir()
        out = tmp_path / "out"
        assert cli.run(["selftest", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config file {path} cannot be read: ")
        assert err.count("\n") == 1
        assert not out.exists()

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
    # t = 0 before the solver reads run.norms.  Norms that share a column
    # label (h<s:g>) would overwrite each other's column.  A step or horizon
    # the run config rejects names run.dt, or run.T when run.dt is unset.
    @pytest.mark.parametrize("key, run", [
        ("dim", {"dim": 4}), ("points", {"points": 100}), ("norms", {"norms": [-1]}),
        ("norms", {"norms": [1.0, 1.0000001, 2]}), ("points", {"dim": 3, "points": 512}),
        ("dt", {"dt": 0.5, "T": 0.25}), ("dt", {"dt": -0.01}), ("dt", {"dt": 1e-9, "T": 10}),
        ("dt", {"dt": 1e-320}), ("T", {"T": 1e9}),
    ], ids=["dim", "points", "norms", "norms-same-label", "memory-budget", "dt-over-horizon",
            "dt-sign", "dt-step-budget", "dt-overflow", "T-step-budget"])
    def test_run_field_out_of_range_named_before_any_output(self, tmp_path, capsys, key, run):
        # a new --out is not created, and an existing one stays empty
        cfg = write_config(tmp_path, {"schema_version": 1,
                                      "run": {**run, "dump_fields": True}})
        out = tmp_path / "out"
        argv = ["run-nls", "--config", str(cfg), "--out", str(out)]
        assert cli.run(argv) == 2
        assert f"config field 'run.{key}'" in capsys.readouterr().err
        assert not out.exists()
        out.mkdir()
        assert cli.run(argv) == 2
        assert f"config field 'run.{key}'" in capsys.readouterr().err
        assert not list(out.iterdir())

    def test_explicit_dt_is_checked_without_the_default_step(self, tmp_path, monkeypatch):
        # 10^6 steps of run.dt fit the budget; the default step, which would
        # make more than the budget, is never built
        configs = []
        monkeypatch.setattr(cli, "_run_single", lambda *args: configs.append(args[4]) or 0)
        cfg = write_config(tmp_path, {"schema_version": 1, "run": {"dt": 0.1, "T": 1e5}})
        assert cli.run(["run-nls", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert [rc.steps for rc in configs] == [10**6]

    @pytest.mark.parametrize("mode", ["zero", "equal_a0", "imaginary"])
    def test_ghost_n_study_refuses_another_a1_mode(self, tmp_path, capsys, mode):
        doc = tiny_sweep()
        doc["sweep"]["a1_mode"] = mode
        cfg = write_config(tmp_path, doc)
        assert cli.run(["study-ghost-n", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "config field 'sweep.a1_mode'" in err and "'scaled'" in err
        assert not (tmp_path / "summary.json").exists()

    # validate_config builds the SweepConfig a command runs (the canonical
    # one under a command that runs none), so its checks name their field
    # and fail before --out is created
    @pytest.mark.parametrize("command, field, values", [
        pytest.param(command, field, {field: value}, id=f"{command}-{case}")
        for command in ("study-smalltime", "report-inflation")
        for case, field, value in (("s-same-label", "sweep.s_list", [1.0, 1.0000001]),
                                   ("eps-not-decreasing", "sweep.eps_list", [0.125, 0.25, 0.0625]),
                                   ("points-base", "grid.points_base", 100))
    ] + [
        # the report adds scaling.k to s_list, where its label is taken
        pytest.param("report-inflation", "scaling.k",
                     {"sweep.s_list": [0.0, 1.0], "scaling.k": 1.0000001},
                     id="report-inflation-k-same-label"),
    ] + [
        # validate_config builds the report's ScalingParams too (n = 6: s_c = 2)
        pytest.param("report-inflation", f"scaling.{key}", {f"scaling.{key}": value},
                     id=f"report-inflation-scaling-{key}")
        for key, value in (("k", 0), ("s", 5), ("sigma", 3))
    ] + [
        # every command builds the sweep and the scaling frame, also one
        # that reads neither (sweep.tau 0.13 is off the save grid 0.025)
        pytest.param(command, field, {field: value}, id=f"{command}-{field}")
        for command, field, value in (("run-nls", "sweep.tau", 0.13),
                                      ("run-wkb", "sweep.tau", 0.13),
                                      ("selftest", "sweep.tau", 0.13),
                                      ("selftest", "scaling.s", 5))
    ])
    def test_bad_sweep_named_before_any_output(self, tmp_path, capsys, command, field, values):
        doc = tiny_sweep()
        for path, value in values.items():
            section, key = path.split(".")
            doc.setdefault(section, {})[key] = value
        out = tmp_path / "out"
        cfg = write_config(tmp_path, doc)
        assert cli.run([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: config field '{field}' ")
        assert not out.exists()

    # Each range rule of a dataclass-backed section lives in the dataclass
    # alone: the CLI reports the message building it directly raises, for a
    # sweep command and a run command alike.
    @pytest.mark.parametrize("command", ["study-ghost", "run-nls"])
    @pytest.mark.parametrize("field, value", [
        ("grid.points_base", 4), ("grid.wkb_points", 4),
        ("grid.half_width", 0.0), ("grid.max_points_per_axis", 4),
        ("data.width", 0.0),
        ("sweep.tau", 0.0), ("sweep.horizon", 0.0), ("sweep.a1_mode", "diagonal"),
        ("sweep.scaled_order", 0), ("sweep.n_saves", 0), ("sweep.smalltime_points", 2),
        ("solver.nls_dt_safety", 0.0), ("solver.wkb_dt_safety", 0.0), ("solver.tail_tol", 0.0),
        ("scaling.n", 2), ("scaling.s", 5.0), ("scaling.sigma", 3.0), ("scaling.k", 0.0),
    ])
    def test_dataclass_rule_reported_in_its_own_words(self, tmp_path, capsys, command, field,
                                                      value):
        section, key = field.split(".")
        with pytest.raises(studies.FieldError) as exc:
            if section == "data":
                studies.GaussianSpec(**{key: value})
            elif section == "scaling":
                studies.ScalingParams(**{key: value})
            else:
                SweepConfig(eps_list=FULL_EPS_SWEEP, **{key: value})
        assert exc.value.field == key
        cfg = write_config(tmp_path, {"schema_version": 1, section: {key: value}})
        out = tmp_path / "out"
        assert cli.run([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: config field '{field}' {exc.value.message}\n"
        assert not out.exists()

    def test_dataclass_backed_sections_carry_no_bounds(self):
        for section in ("grid", "data", "sweep", "solver", "scaling"):
            for name, key in cli.SCHEMA[section].items():
                bounds = (key.ge, key.gt, key.le, key.choices)
                assert bounds == (None, None, None, ()), f"{section}.{name}"

    def test_negative_seed_named_before_any_output(self, tmp_path, capsys):
        # random.Random would take abs(seed), so two seeds would share a datum
        cfg = write_config(tmp_path, {"schema_version": 1, "seed": -1})
        out = tmp_path / "out"
        assert cli.run(["selftest", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: config field 'seed' must be >= 0")
        assert not out.exists()

    def test_eps_ref_is_an_unknown_key(self, tmp_path, capsys):
        # the grids are read off the limit run; the old slope key is refused
        cfg = write_config(tmp_path, {"schema_version": 1, "grid": {"eps_ref": 0.25}})
        out = tmp_path / "out"
        assert cli.run(["study-ghost", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: unknown config key(s) ['eps_ref'] under 'grid'\n"
        assert not out.exists()

    def test_section_must_be_object(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"schema_version": 1, "grid": [1]})
        assert cli.run(["study-ghost", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "config field 'grid'" in capsys.readouterr().err

    def test_unknown_subcommand(self):
        assert cli.run(["study-everything"]) == 2

    def test_help_exits_zero(self):
        assert cli.run(["--help"]) == 0


STUDY_SUBCOMMANDS = [command for command in cli.COMMANDS if command.startswith("study-")]


class TestSchema:
    @pytest.mark.parametrize("command", STUDY_SUBCOMMANDS)
    def test_defaults_build_the_canonical_sweep(self, command):
        cfg = cli.validate_config({"schema_version": 1}, command)
        sweep = cfg["sweep_config"]
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

    def test_formats_doc_tabulates_the_commands(self):
        # each command's study name, and the files its golden run writes
        text = FORMATS_MD.read_text()
        table = re.search(r"## Commands\n.*?\n(\| Command .*?)\n\n", text, re.S)[1]
        rows = [[cell.strip() for cell in line.strip("|").split("|")]
                for line in table.splitlines()[2:]]
        assert [(command, study) for command, study, _ in rows] == [
            (f"`{command}`", f"`{study}`") for command, (study, _) in cli.COMMANDS.items()]
        for command, _, files in rows:
            name = next(name for name, (c, _) in (GOLDEN_RUNS | SELFTEST_RUN).items()
                        if f"`{c}`" == command and not (GOLDEN / name / "exit_code.txt").exists())
            written = set(files_under(GOLDEN / name)) - {"stdout.txt", "numpy_version.txt"}
            assert sorted(re.findall(r"`(\w+\.(?:csv|json))`", files)) == sorted(written), command

    def test_the_parser_takes_the_commands_in_table_order(self):
        (sub,) = [a for a in cli.build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
        assert list(sub.choices) == list(cli.COMMANDS)

    @pytest.mark.parametrize("command", cli.COMMANDS)
    def test_a_config_naming_its_own_study_validates(self, command):
        study = cli.COMMANDS[command][0]
        assert cli.validate_config({"schema_version": 1, "study": study}, command)["study"] == study

    @pytest.mark.parametrize("command", STUDY_SUBCOMMANDS)
    def test_a_study_commands_csv_is_its_golden_and_suite_csv(self, command):
        function, csv_name = cli.COMMANDS[command][1].args
        assert callable(getattr(studies, function))
        assert [p.name for p in (GOLDEN / command).glob("*.csv")] == [csv_name]
        suite = {name for name, (f, *_) in acceptance.SUITE_STUDIES.items() if f == function}
        assert csv_name in suite

    @pytest.mark.parametrize("name", BENCHMARK_WORKLOADS)
    def test_benchmark_workloads_are_accepted(self, name):
        # perfbench/child.py setup validates each workload's config, and the
        # benchmark times the CLI on its argv
        workload = BENCHMARK_WORKLOADS[name]
        cfg = cli.validate_config(workload.config(0), workload.command)
        args = cli.build_parser().parse_args(workload.cli_args("c.json", "out"))
        assert args.command == workload.command
        # the workloads pass the config's "jobs" key and --jobs
        assert cfg["jobs"] == args.jobs == workload.jobs

    def test_benchmark_reads_the_suite_csvs(self):
        # the benchmark's selftest check reads exactly these files, so a
        # renamed CSV would fail the benchmark while the tests passed
        assert BENCHMARK_MODULE.SELFTEST_CSVS == tuple(acceptance.SUITE_STUDIES)


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

    def test_run_nls_rows_add_no_fft(self, tmp_path, monkeypatch):
        # 50 steps saved every 5: the step loop's FFT pair per stage, forward
        # FFT of the datum and inverse FFT per save after t = 0 are all; each
        # row reads the spectrum the loop holds
        counts = count_ffts(monkeypatch)
        run = {"eps": 0.25, "points": 256, "T": 0.05, "dt": 0.001, "save_every": 5,
               "norms": [0.0, 1.0, 2.0]}
        _, rows = run_command(tmp_path, "run-nls", run)
        assert len(rows) == 11
        stages = len(nls.NONLINEAR) * 50
        assert counts == {"forward": stages + 1, "inverse": stages + 10}

    @pytest.mark.parametrize("run", [
        {"eps": 0.125, "a1_mode": "imaginary"},
        {"eps": 0.0, "with_corrector": True, "a1_mode": "equal_a0"},
    ], ids=["grenier", "corrector"])
    def test_run_wkb_rows_add_no_forward_fft(self, tmp_path, monkeypatch, run):
        # 20 RK4 steps saved every 5: the step loop makes an FFT pair per
        # stage, a forward FFT of the data and an inverse FFT per save after
        # t = 0; the default singularity bound transforms |a0|^2 forward and
        # back once.  Each row adds one batched inverse FFT of its gradients
        # and reads the lent spectra for its norms.
        counts = count_ffts(monkeypatch)
        _, rows = run_command(tmp_path, "run-wkb", {**run, "points": 128, "T": 0.2, "dt": 0.01,
                                                    "save_every": 5, "norms": [0.0, 1.0, 2.0]})
        assert len(rows) == 5
        stages = 4 * 20
        assert counts == {"forward": stages + 2, "inverse": stages + 1 + 4 + len(rows)}

    def test_run_nls_rejects_zero_eps(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"schema_version": 1, "run": {"eps": 0.0}})
        assert cli.run(["run-nls", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "run.eps" in capsys.readouterr().err

    @pytest.mark.parametrize("a1_mode", ["equal_a0", "imaginary"])
    def test_run_wkb_rejects_perturbation_at_zero_eps(self, tmp_path, capsys, a1_mode):
        # (1 + 0 c) a0 = a0: the perturbation would be silently dropped
        cfg = write_config(tmp_path, {"schema_version": 1,
                                      "run": {"eps": 0.0, "a1_mode": a1_mode}})
        out = tmp_path / "out"
        assert cli.run(["run-wkb", "--config", str(cfg), "--out", str(out)]) == 2
        assert "config field 'run.a1_mode'" in capsys.readouterr().err
        assert not out.exists()

    def test_run_commands_start_from_the_same_perturbed_datum(self, tmp_path):
        # run.a1_mode sets both run commands' datum (1 + eps c) a0
        run = {"eps": 0.25, "points": 256, "T": 0.05, "norms": []}
        mass = {}
        for command in ("run-nls", "run-wkb"):
            for a1_mode in ("zero", "equal_a0"):
                _, rows = run_command(tmp_path, command, {**run, "a1_mode": a1_mode})
                mass[command, a1_mode] = rows[0]["mass"]
        assert mass["run-nls", "equal_a0"] == mass["run-wkb", "equal_a0"]
        assert mass["run-nls", "equal_a0"] != mass["run-nls", "zero"]
        assert mass["run-wkb", "equal_a0"] != mass["run-wkb", "zero"]

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

    def test_run_wkb_overflowing_norm_weight_exits_2(self, tmp_path, capsys):
        # the H^400 weight overflows on the default 512-point grid: no inf or
        # nan column is written
        cfg = write_config(tmp_path, {"schema_version": 1, "run": {"norms": [1, 400]}})
        out = tmp_path / "out"
        assert cli.run(["run-wkb", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: the weight of Sobolev order s = 400 overflows at |k|^2 = 4491.77 on the "
            "512^1 grid of half-width 12\n")
        assert not (out / "wkb_trajectory.csv").exists()

    @pytest.mark.parametrize("half_width", [1e-300, 1e-156], ids=["dt-zero", "steps-infinite"])
    def test_degenerate_default_step_named(self, tmp_path, capsys, half_width):
        # dx^2 underflows: the default step is 0, or so small that the step
        # count overflows; the run config's own checks name the horizon
        cfg = write_config(tmp_path, {"schema_version": 1, "grid": {"half_width": half_width}})
        out = tmp_path / "out"
        assert cli.run(["run-nls", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config field 'run.T' is out of range")
        assert len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("section, key, value, ratio", [
        ("grid", "half_width", 1e-300, "1.28e+302"), ("grid", "half_width", 1e-156, "1.28e+158"),
        ("solver", "wkb_dt_safety", 1e-9, "2.67e+09"),
        ("solver", "nls_dt_safety", 1e-9, "1.42e+10"),
    ])
    def test_study_degenerate_default_step_named(self, tmp_path, capsys, section, key, value,
                                                 ratio):
        # a study's default step is a safety factor times a step the grid
        # spacing sets: one too short for the step budget names the safety
        # when its default value would fit, else the half-width
        cfg = write_config(tmp_path, {"schema_version": 1, section: {key: value}})
        out = tmp_path / "out"
        assert cli.run(["study-ghost", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: config field '{section}.{key}' is out of range: T/dt = {ratio} exceeds "
            "the step budget 5000000\n")
        assert not out.exists()

    def test_summary_dt_is_the_step_taken(self, tmp_path):
        # dt = 0.003 does not divide T = 0.05: the run makes 17 steps of T / 17
        run = {"eps": 0, "points": 64, "T": 0.05, "dt": 0.003}
        summary, rows = run_command(tmp_path, "run-wkb", run)
        assert summary["dt"] == 0.05 / 17
        assert float(rows[1]["t"]) == 2 * 0.05 / 17  # saved every 2 steps

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

        def recording(data, *rest):
            data = list(data)
            sizes.append(len(data))
            return stack(data, *rest)

        monkeypatch.setattr(studies, "solve_runs",
                            lambda runs, keep: planned.extend(runs) or solve_runs(runs, keep))
        monkeypatch.setattr(module, engine, recording)
        summary, rows = run_command(tmp_path, command,
                                    {"dim": 3, "points": 16, "dump_fields": True, **run},
                                    data={"width": 1.9}, solver={"tail_tol": 0.1})
        (out,) = [p for p in tmp_path.iterdir() if p.is_dir()]
        assert len(planned) == 1 and sizes == [1]  # one run, integrated alone by engine
        # the same run, every lent (snapshot, spectrum) pair collected, the
        # spectrum copied since it is lent for the keep call alone
        (pairs,) = solve_runs(planned, lambda snap: (snap[0], snap[1].copy()))
        traj = [state for state, _ in pairs]
        assert summary["rows"] == len(rows) == len(traj) == 11
        row = report.nls_row if command == "run-nls" else report.wkb_row
        assert rows == [{k: report.fmt(v) for k, v in row(pair, (0.0, 1.0)).items()}
                        for pair in pairs]

        # a row reads the spectra the loop holds; fresh transforms of the
        # saved fields agree to roundoff
        def fresh(state):
            if command == "run-nls":
                return state, transform(state.u)
            saved = [f.values for f in (state.a, state.phi, state.a1, state.phi1) if f is not None]
            return state, transform(Field(state.a.grid, np.stack(saved)))

        assert [{k: float(v) for k, v in r.items()} for r in rows] == [
            pytest.approx(row(fresh(state), (0.0, 1.0)), rel=1e-13) for state in traj]
        prefixes = ("u",) if command == "run-nls" else ("a", "phi")
        assert dump_names(out) == saved_names(11, prefixes)
        for i, state in enumerate(traj):
            for prefix in prefixes:
                dumped = load_field(out / "fields" / f"{prefix}_{i:04d}")
                assert np.array_equal(dumped.values, getattr(state, prefix).values)
        if command == "run-nls":
            # a unitary multiplier keeps the mass; the energy (2.5e-8 here)
            # also sees the dispersion each axis gets
            for column, bound in (("mass", 1e-10), ("energy", 1e-6)):
                values = [float(r[column]) for r in rows]
                assert max(abs(v - values[0]) for v in values) / abs(values[0]) <= bound


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

    GRID = make_grid(2, 12.0, 128)  # held: each run finds the grid's cached arrays
    FIELD_BYTES = GRID.num_points * 16

    def peak(self, tmp_path, command, run, save_every, T=0.04, half_width=GRID.half_width,
             points=GRID.points_per_axis):
        """tracemalloc's peak over one run on GRID, or on the grid of another
        half_width and number of points."""
        out = tmp_path / f"out{len(list(tmp_path.iterdir()))}"
        out.mkdir()
        cfg = write_config(out, {
            "schema_version": 1, "grid": {"half_width": half_width},
            "run": {"dim": 2, "points": points, "T": T, "dt": 0.001,
                    "save_every": save_every, **run}})

        def run_command():
            assert cli.run([command, "--config", str(cfg), "--out", str(out)]) == 0
        return traced_peak(run_command)

    @pytest.mark.parametrize("command, run", [
        ("run-nls", {"eps": 0.25}),
        ("run-wkb", {"eps": 0.0, "with_corrector": True, "a1_mode": "equal_a0"}),
    ])
    def test_peak_does_not_grow_with_the_saves(self, tmp_path, command, run):
        self.peak(tmp_path, command, run, 1, T=0.002)  # warm-up: fills the grid's caches
        two, many = self.peak(tmp_path, command, run, 40), self.peak(tmp_path, command, run, 1)
        assert many < two + self.FIELD_BYTES, f"{(many - two) / self.FIELD_BYTES:.2f} fields above"

    def test_cold_run_nls_peaks_below_2_5_fields(self, tmp_path):
        # The step loop holds the spectrum, which it transforms in place, in
        # storage padded by 4 entries a row (1.6% of a field here), the last
        # saved snapshot and a rotation scratch of an eighth of a field; each
        # rotation piece makes and frees a real phase array of up to a
        # sixteenth of a field.  Its finiteness check at a save reads the
        # contiguous storage: on the padded view numpy would add a buffer.
        # A save drops the old snapshot once the spectrum passes the
        # finiteness check, before its tail guard and the one inverse
        # transform that makes the new snapshot; the guard and the row's
        # norms read the spectrum held and sum slab by slab.  Kinetic
        # multipliers are per axis and the datum goes once stacked, so
        # neither counts here; nor does a grid no other test holds, since
        # run-nls caches no whole-grid array on it.  On 256^2 the fixed
        # overheads weigh a quarter of what they weigh on 128^2.
        points = 256
        fields = self.peak(tmp_path, "run-nls", {"eps": 0.25}, 1, half_width=11.5,
                           points=points) / (points**2 * 16)
        assert fields < 2.5, f"peak of {fields:.2f} fields"

    def test_cold_run_wkb_peaks_below_38_3_fields(self, tmp_path):
        # With the corrector the RK4 loop holds y, acc, k and stage (16 fields)
        # and 12 derivative rows.  The derivatives read per-axis gradient
        # factors and |k|^2 (half a field), the rate expressions write into
        # those rows and the rates in place, dealiasing zeroes the tail boxes
        # in place, a save's snapshots keep the buffer it transforms into,
        # a row reads the spectra the save lends and its gradients share one
        # buffer, and its energy adds up its terms in one buffer (2 fields of
        # scratch).  The peak is at a save's row, in its energy (measured
        # 36.59 fields, a field above the step loop's); 4 steps measure it.
        points = 256
        fields = self.peak(tmp_path, "run-wkb",
                           {"eps": 0.0, "with_corrector": True, "a1_mode": "equal_a0"}, 1,
                           T=0.004, half_width=11.5, points=points) / (points**2 * 16)
        assert fields < 38.3, f"peak of {fields:.2f} fields"


def run_child(tmp_path, command, doc, pin=None):
    """command on the config doc in a child process, which pytest's warning
    filters do not reach, run after pin() when pin is given: its exit code,
    its stderr and the files it wrote into its --out, by name."""
    out = tmp_path / f"out{len(list(tmp_path.glob('out*')))}"
    cfg = write_config(tmp_path, doc, name=f"{out.name}.json")
    env = {**os.environ, "PYTHONPATH": str(Path(scnls.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-m", "scnls.cli", command, "--config", str(cfg),
                           "--out", str(out)], env=env, preexec_fn=pin, capture_output=True,
                          text=True)
    files = {p.name: p.read_bytes() for p in sorted(out.glob("*")) if p.is_file()}
    return done.returncode, done.stderr, files


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="os.sched_setaffinity is not available on this platform")
@pytest.mark.parametrize("command, run", [
    ("run-nls", {"eps": 0.25, "points": 256, "T": 0.01}),
    ("run-wkb", {"eps": 0.0, "with_corrector": True, "a1_mode": "equal_a0", "points": 128,
                 "T": 0.02}),
    # 64^3 is the smallest 3-D grid that splits: 32^3 is under grid._SPLIT_POINTS
    ("run-wkb", {"dim": 3, "eps": 0.0, "with_corrector": True, "a1_mode": "equal_a0",
                 "points": 64, "T": 0.004}),
    ("run-wkb", {"eps": 0.125, "points": 256, "T": 0.01}),
], ids=["run-nls", "run-wkb", "run-wkb-3d", "run-wkb-grenier"])
def test_outputs_do_not_depend_on_the_cpu_count(tmp_path, command, run):
    # 2-D and 3-D transforms split into one band per CPU of the affinity
    # mask: a process pinned to one CPU runs every pass whole, an unpinned
    # one splits these grids' passes on a host of several CPUs
    one_cpu = {min(os.sched_getaffinity(0))}
    doc = {"schema_version": 1, "grid": {"half_width": 11.5},
           "run": {"dim": 2, "dt": 0.001, "save_every": 5, **run}}
    outputs = []
    for pin in (lambda: os.sched_setaffinity(0, one_cpu), None):
        code, stderr, files = run_child(tmp_path, command, doc, pin)
        assert (code, stderr) == (0, "")
        outputs.append(files)
    assert {"summary.json", f"{command[4:]}_trajectory.csv"} <= set(outputs[0])
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command", ["run-nls", "run-wkb", "study-ghost"])
@pytest.mark.parametrize("center", [1e10, 20.0], ids=["1e10", "20"])
def test_a_datum_centred_outside_the_box_is_a_validation_error(tmp_path, capsys, command,
                                                               center):
    # it wrote all-zero trajectories, "passed": true, at 1e10, and tripped
    # run-nls's tail guard (exit 3) at 20
    cfg = write_config(tmp_path, tiny_sweep(data={"center": center}, run={"T": 0.01}))
    out = tmp_path / "out"
    assert cli.run([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: center {center!r} lies outside the box [-12, 12) on some axis\n")
    assert not [p for p in out.glob("*") if p.is_file()]


@pytest.mark.parametrize("command, box_code", [("run-nls", 3), ("run-wkb", 0), ("study-ghost", 3)],
                         ids=["run-nls", "run-wkb", "study-ghost"])
@pytest.mark.parametrize("section, key, value", [
    ("data", "width", 1e300), ("data", "width", 1e-300), ("grid", "half_width", 1e300),
], ids=["wide", "thin", "huge-box"])
def test_a_degenerate_datum_exits_with_its_message_alone(tmp_path, command, box_code, section,
                                                         key, value):
    # a width whose square leaves the floats is a validation error: 1e300
    # raised OverflowError and 1e-300 warned of a division by zero.  On a box
    # of half-width 1e300, r^2 overflows off the centre and the datum is one
    # sample: no warning, the tail guard aborts the wavefunction runs, and
    # the phase-amplitude engine, which has no resolution guard, runs it.
    doc = tiny_sweep(run={"T": 0.01})
    doc.setdefault(section, {})[key] = value
    code, stderr, files = run_child(tmp_path, command, doc)
    if section == "data":
        assert (code, files) == (2, {})
        assert stderr == f"error: width must be positive with a square in (0, inf), got {value!r}\n"
    else:
        assert code == box_code
        assert stderr == ("" if code == 0 else "solver guard abort: spectral tail fraction "
                          "3.340e-01 exceeds 1.0e-06 at t = 0; oscillations are unresolved on "
                          "this grid\n")
        assert not files if code else files


@pytest.mark.parametrize("command, grid", [("run-nls", 512), ("run-wkb", 512),
                                           ("study-ghost", 256)])
@pytest.mark.parametrize("amplitude", [1e160, 1e200], ids=["1e160", "1e200"])
def test_a_datum_whose_quartic_sum_overflows_exits_with_its_message_alone(tmp_path, command,
                                                                         grid, amplitude):
    # numpy warned of the overflow of sum |a0|^4, and the runs then exited 2
    # (run-wkb) or 3 (run-nls, study-ghost) as unresolved or non-finite
    code, stderr, files = run_child(tmp_path, command,
                                    {"schema_version": 1, "data": {"amplitude": amplitude}})
    assert (code, files) == (2, {})
    assert stderr == (f"error: a datum of amplitude {amplitude:g} is too large for the "
                      f"{grid}^1 grid of half-width 12: its sum |a0|^4 passes the largest "
                      "float\n")


def test_a_datum_whose_quartic_sum_is_finite_aborts_with_no_warning(tmp_path):
    # 1e77 overflows sum |a0|^4 on 512 points; 3e76 runs into the tail guard
    code, stderr, files = run_child(tmp_path, "run-nls",
                                    {"schema_version": 1, "data": {"amplitude": 3e76}})
    assert (code, files) == (3, {})
    assert re.fullmatch(r"solver guard abort: spectral tail fraction \S+ exceeds 1\.0e-06 at "
                        r"t = 0\.025; oscillations are unresolved on this grid\n", stderr)


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
        assert not out.exists()

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
    # singularity guard; over a horizon of 0.025 it stays healthy, and the
    # perturbed run of the eps = 1/4 pair trips the tail guard at t = 0.025.
    # The limit run the grids are read off integrates first, then the
    # wavefunction stacks in eps order.
    @pytest.mark.parametrize("sweep", [{}, {"horizon": 0.025, "tau": 0.025}],
                             ids=["limit-trips", "wavefunction-trips"])
    def test_ghost_study_guard_abort_names_the_first_tripping_run(self, tmp_path, capsys,
                                                                  sweep):
        doc = tiny_sweep(data={"amplitude": 30.0})
        doc["sweep"].update(sweep)
        cfg = write_config(tmp_path, doc)
        assert cli.run(["study-ghost", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        config = cli.validate_config(doc, "study-ghost")["sweep_config"]
        # The stacks in stacking order; a tripping stack raises the error of
        # the member that trips first in step order.  The pairs are built
        # lazily, since their grids are read off the limit run.
        def stacks():
            yield [studies._limit_run(config)]
            scales = studies.grid_scales(config, {})
            for eps in config.eps_list:
                yield studies._pair_runs(config, eps, scales)

        for stack in stacks():
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
        config = cli.validate_config(doc, "study-wkb-error")["sweep_config"]
        with pytest.raises(ValueError, match="eps_list"):
            studies.wkb_error_study(config)
        cfg, out = write_config(tmp_path, doc), tmp_path / "out"
        assert cli.run(["study-wkb-error", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: eps_list needs >= 3 points for slope fits, got 2\n"
        assert not out.exists()

    def test_grid_cap_fails_before_any_run(self, tmp_path, capsys, monkeypatch):
        # The run plan is built once the limit run is solved and before any
        # wavefunction run, so a sweep point whose grid passes the cap is a
        # config error before the first sweep point runs.  The canonical
        # datum needs N = 512 at eps = 1/32.
        doc = tiny_sweep()
        doc["sweep"]["eps_list"] = [0.25, 0.03125]
        doc["grid"]["max_points_per_axis"] = 256
        cfg = write_config(tmp_path, doc)
        monkeypatch.setattr(nls, "solve_nls_stack", lambda *a: pytest.fail("solve_nls_stack called"))
        out = tmp_path / "out"
        assert cli.run(["study-ghost", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: eps = 0.03125 needs N >= 512 > configured cap 256\n")
        assert not out.exists()

    def test_out_dir_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path / "envout"))
        cfg = write_config(
            tmp_path,
            {"schema_version": 1, "run": {"eps": 0.25, "points": 256, "T": 0.02}},
        )
        assert cli.run(["run-nls", "--config", str(cfg)]) == 0
        assert (tmp_path / "envout" / "nls_trajectory.csv").exists()


def golden_mismatch(golden_dir, name, golden, produced):
    """Why produced differs from golden_dir's file name: the largest relative
    move of any numeric cell, and the numpy versions on both sides."""
    old, new = NUMBER.findall(golden), NUMBER.findall(produced)
    if len(old) == len(new):
        moves = [abs(float(a) - float(b)) / max(abs(float(a)), abs(float(b)))
                 for a, b in zip(old, new) if float(a) != float(b)]
        move = f"largest relative move of a numeric cell {max(moves, default=0.0):.3e}"
    else:
        move = f"{len(old)} numeric cells became {len(new)}"
    golden_numpy = (golden_dir / "numpy_version.txt").read_text().strip()
    return (f"{name} differs from {golden_dir}: {move}; "
            f"numpy {golden_numpy} there, {np.__version__} here")


# tests/golden/<name>/ -> (command, config sections) of the run whose
# stdout.txt and output files it holds; a run that exits nonzero also
# leaves exit_code.txt and stderr.txt
GOLDEN_RUNS = {
    "study-ghost": ("study-ghost", {}),
    "study-ghost-n": ("study-ghost-n", {}),
    "study-wkb-error": ("study-wkb-error", {}),
    "study-smalltime": ("study-smalltime", {}),
    "report-inflation": ("report-inflation", {}),
    "report-corollary": ("report-corollary", {}),
    "study-ghost-certified": ("study-ghost", {"sweep": {"eps_list": [0.25, 0.125, 0.0625],
                                                        "certify_refinement": True}}),
    "run-nls": ("run-nls", {}),
    "run-nls-2d": ("run-nls", {"run": {"dim": 2, "points": 128, "eps": 0.25,
                                       "a1_mode": "equal_a0", "norms": [0, 1, 2]}}),
    "run-wkb-imaginary": ("run-wkb", {"run": {"eps": 0.125, "a1_mode": "imaginary",
                                              "norms": [0, 1, 2]}}),
    "run-wkb-corrector": ("run-wkb", {"run": {"with_corrector": True, "eps": 0,
                                              "a1_mode": "equal_a0"}}),
    # the 3-D derivative rows of the phase-amplitude engine; at its default
    # step the run would make a single RK4 step
    "run-wkb-3d": ("run-wkb", {"run": {"dim": 3, "points": 32, "eps": 0, "with_corrector": True,
                                       "a1_mode": "equal_a0", "norms": [0, 1], "dt": 0.025}}),
    # the guard aborts of TestRunCommands
    "run-nls-tail-abort": ("run-nls", {"solver": {"tail_tol": 3e-5},
                                       "run": {"eps": 0.25, "points": 64, "T": 0.5,
                                               "dump_fields": True}}),
    "run-wkb-singularity-abort": ("run-wkb", {"run": {"eps": 0.0, "points": 64, "T": 0.25,
                                                      "sing_tol": 1e-6, "dump_fields": True}}),
}
# TestSelftest compares tests/golden/selftest with the first of its runs
SELFTEST_RUN = {"selftest": ("selftest", {})}


def run_golden(name, out, config_dir):
    """Run the golden run name into out, its config written to config_dir;
    returns what it printed as files: stdout.txt, and exit_code.txt and
    stderr.txt when it exits nonzero."""
    command, sections = (GOLDEN_RUNS | SELFTEST_RUN)[name]
    config = write_config(config_dir, {"schema_version": 1, **sections}, f"{name}.json")
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.run([command, "--config", str(config), "--out", str(out)])
    printed = {"stdout.txt": stdout.getvalue()}
    if code:
        printed.update({"exit_code.txt": f"{code}\n", "stderr.txt": stderr.getvalue()})
    return printed


def write_golden():
    """Rewrite tests/golden/<name>/ for every golden run, selftest included.
    Each file whose bytes change is rewritten and named with its
    golden_mismatch line; a file whose bytes hold is left untouched."""
    with tempfile.TemporaryDirectory() as tmp:
        for name in GOLDEN_RUNS | SELFTEST_RUN:
            golden, out = GOLDEN / name, Path(tmp) / name
            printed = run_golden(name, out, Path(tmp))
            produced = ({rel: (out / rel).read_bytes() for rel in files_under(out)}
                        | {rel: text.encode() for rel, text in printed.items()}
                        | {"numpy_version.txt": f"{np.__version__}\n".encode()})
            for rel in sorted(set(files_under(golden)) - set(produced)):
                (golden / rel).unlink()
                print(f"{name}/{rel} removed")
            # numpy_version.txt last: golden_mismatch reads the version there
            for rel in sorted(produced, key=lambda rel: (rel == "numpy_version.txt", rel)):
                path, data = golden / rel, produced[rel]
                old = path.read_bytes() if path.exists() else None
                if data == old:
                    continue
                print(f"{name}/{rel} added" if old is None
                      else golden_mismatch(golden, rel, old.decode(), data.decode()))
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_bytes(data)


def files_under(root):
    return sorted(str(p.relative_to(root)) for p in root.rglob("*") if p.is_file())


@pytest.mark.parametrize("name", GOLDEN_RUNS)
def test_golden_outputs(tmp_path, name):
    """The run prints and writes the bytes of every file that
    tests/golden/<name>/ holds, and exits 0 unless exit_code.txt there
    says otherwise.

    Byte identity holds for one numpy build.  To rewrite every golden
    directory, tests/golden/selftest included, from the repository root:

        PYTHONPATH=src:tests python -c "import test_cli; test_cli.write_golden()"
    """
    golden, out = GOLDEN / name, tmp_path / "out"
    printed = run_golden(name, out, tmp_path)
    expected = [f for f in files_under(golden) if f != "numpy_version.txt"]
    assert expected == sorted(files_under(out) + list(printed))
    for rel in expected:
        want = (golden / rel).read_bytes()
        got = printed[rel].encode() if rel in printed else (out / rel).read_bytes()
        assert got == want, golden_mismatch(golden, rel, want.decode(), got.decode())


@pytest.mark.parametrize("name", [name for name in GOLDEN_RUNS | SELFTEST_RUN
                                  if not (GOLDEN / name / "exit_code.txt").exists()])
def test_golden_runs_record_their_commands_study(name):
    # run commands write it as summary.json's "study", study and report
    # commands as their own report's key under "studies", and selftest
    # as acceptance_summary.json's "study"
    command = (GOLDEN_RUNS | SELFTEST_RUN)[name][0]
    study = cli.COMMANDS[command][0]
    doc = json.loads((GOLDEN / name / ("acceptance_summary.json" if command == "selftest"
                                       else "summary.json")).read_text())
    if command.startswith(("study-", "report-")):
        measured = {"ghost_separation"} if command.startswith("report-") else set()
        assert set(doc["studies"]) == measured | {study}
    else:
        assert doc["study"] == study


class TestSelftest:
    def test_real_suite_passes_and_is_deterministic(self, tmp_path, capsys, monkeypatch):
        """Repeated runs, and runs with --jobs 1 and 2, write identical bytes,
        and the first run writes those of tests/golden/selftest.  Every
        wavefunction run comes from one stack per grid size: the three
        sweep points on N = 256 and the two on N = 512.

        Byte identity holds for one numpy build.  write_golden() rewrites
        the golden files with every other golden directory (see
        test_golden_outputs).
        """
        stacks = []
        solve_stack = nls.solve_nls_stack

        def recording(u0s, eps, rc, keep=None):
            u0s = list(u0s)
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
            assert stacks == [9, 6]
        assert stdout[0] == stdout[1] == stdout[2]
        names = sorted(p.name for p in runs[0][0].glob("*.csv"))
        assert len(names) == 5
        for name in names + ["acceptance_summary.json"]:
            first = (runs[0][0] / name).read_bytes()
            assert all((out / name).read_bytes() == first for out, _ in runs[1:])
        golden = sorted(p.name for p in GOLDEN_SELFTEST.iterdir() if p.name != "numpy_version.txt")
        assert golden == sorted(names + ["acceptance_summary.json", "stdout.txt"])
        for name in golden:
            expected = (GOLDEN_SELFTEST / name).read_text()
            produced = stdout[0] if name == "stdout.txt" else (runs[0][0] / name).read_text()
            assert produced == expected, golden_mismatch(GOLDEN_SELFTEST, name, expected,
                                                          produced)

    @pytest.fixture
    def stub_suite(self, monkeypatch):
        """run_suite replaced by no reports and every check a criterion
        names, each passing as outcomes["passed"] says."""
        outcomes = {"passed": True}

        def run_suite(seed=0):
            names = [name for *_, parts in acceptance.CRITERIA_TABLE
                     for names, _ in parts for name in names]
            check = {"passed": outcomes["passed"], "value": 0.125, "bound": "stub",
                     "note": "stub"}
            return {}, dict.fromkeys(names, check)

        monkeypatch.setattr(cli, "run_suite", run_suite)
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
