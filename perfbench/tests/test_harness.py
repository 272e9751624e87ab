"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench/tests
"""

import json
import os
import subprocess
import sys
import textwrap
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer as tr  # noqa: E402
from workloads import WORKLOADS, GhostJobs2, Iteration, Nls2d, Selftest  # noqa: E402


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_of_nested_spans():
    # a [0, 10] holds b [1, 3] and c [4, 5]; b holds d [1.5, 2]
    t = tr.Tracer(clock=FakeClock([0, 1, 1.5, 2, 3, 4, 5, 10]))
    a = t.begin("a", "studies")
    b = t.begin("b", "nls")
    d = t.begin("d", "grid")
    t.end(d)
    t.end(b)
    c = t.begin("c", "grid")
    t.end(c)
    t.end(a)
    assert (b.parent, c.parent, d.parent) == (a.id, a.id, b.id)
    own = tr.self_times(t.spans)
    assert own[a.id] == pytest.approx(7.0)
    assert own[b.id] == pytest.approx(1.5)
    assert own[c.id] == pytest.approx(1.0)
    assert own[d.id] == pytest.approx(0.5)


def test_self_time_counts_overlapping_worker_children_once():
    parent = tr.Span(1, None, "study", "studies", 1, 0.0, 10.0)
    left = tr.Span(2, 1, "solve", "nls", 2, 1.0, 6.0)
    right = tr.Span(3, 1, "solve", "nls", 3, 2.0, 8.0)
    own = tr.self_times([parent, left, right])
    assert own[1] == pytest.approx(3.0)
    assert own[2] == pytest.approx(5.0)


def test_pool_workers_inherit_the_submitting_span():
    class Pool(ThreadPoolExecutor):
        pass

    t = tr.Tracer()
    tr.patch_pool(t, Pool)
    outer = t.begin("study", "studies")
    work = t.wrap(lambda: time.sleep(0.01), "solve", "nls")
    with Pool(max_workers=2) as pool:
        for f in [pool.submit(work) for _ in range(4)]:
            f.result()
    t.end(outer)
    workers = [s for s in t.spans if s.name == "solve"]
    assert len(workers) == 4 and all(s.parent == outer.id for s in workers)
    assert tr.self_times(t.spans)[outer.id] < 0.03
    workers_, opened, closed, busy = t.pools[0]
    assert workers_ == 2 and 0.04 <= busy <= 2 * (closed - opened)


def _run_traced(code):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]))
    out = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_norm_called_through_studies_counts_under_grid_norm():
    result = _run_traced("""
        import json
        import numpy as np
        import tracer as tr
        t = tr.install(tr.Tracer())
        import scnls.studies as st
        from scnls.grid import make_grid, make_gaussian
        st.norm(make_gaussian(make_grid(1, 12.0, 64)))
        np.fft.fft(np.ones((3, 8)), axis=-1)
        import scipy.fft
        scipy.fft.rfft(np.ones(8))
        print(json.dumps({**tr.summarize(t.dump()),
                          "names": sorted({s.name for s in t.spans})}))
    """)
    assert result["grid.norm_calls"] == 1
    assert "grid.norm" in result["names"]
    # the norm's transform, the batched axis=-1 FFT and the scipy FFT
    assert result["grid.fft_calls"] == 1
    assert result["trace.fft_calls"] == 3


def _ghost_iteration(tmp_path, data, exit_code=0):
    out = tmp_path / "iter"
    out.mkdir()
    (out / "ghost_study.csv").write_bytes(data)
    return Iteration(exit_code, 1.0, 10.0, out)


def test_tampered_ghost_csv_byte_fails_the_iteration(tmp_path):
    reference = b"section,family\nrow,ghost,0.125\n"
    context = {"ghost_reference": reference, "reference_drift": 3e-7}
    tampered = bytearray(reference)
    tampered[-3] ^= 1
    it = _ghost_iteration(tmp_path, bytes(tampered))
    GhostJobs2().evaluate(it, context)
    assert it.failed and "differs" in it.failure

    (tmp_path / "ok").mkdir()
    same = _ghost_iteration(tmp_path / "ok", reference)
    GhostJobs2().evaluate(same, context)
    assert not same.failed and same.energy_drift == 3e-7


def test_nonzero_exit_fails_the_iteration(tmp_path):
    it = _ghost_iteration(tmp_path, b"x", exit_code=3)
    GhostJobs2().evaluate(it, {"ghost_reference": b"x", "reference_drift": 1.0})
    assert it.failed and "exit code 3" in it.failure


def test_selftest_csvs_must_match_across_iterations(tmp_path):
    stdout = "\n".join(f"[{k}] name{k}  PASS  (max energy drift 3.2e-07 < 1e-6)"
                       for k in range(1, 10))
    context = {}
    results = []
    for i, byte in enumerate((b"a", b"a", b"b")):
        out = tmp_path / f"iter{i}"
        out.mkdir()
        for name in ("wkb_error_study.csv", "smalltime_study.csv", "ghost_study.csv",
                     "ghost_control_study.csv", "ghost_n_study.csv"):
            (out / name).write_bytes(byte)
        it = Iteration(0, 1.0, 1.0, out, stdout)
        Selftest().evaluate(it, context)
        results.append(it.failed)
    assert results == [False, False, True]


class GuardAbort(Nls2d):
    """A config that validates but trips the solver's resolution guard (exit 3)."""

    name = "guard-abort"

    def config(self, seed):
        return {"schema_version": 1, "run": {"dim": 1, "points": 8, "eps": 0.01, "T": 0.01}}


def test_failed_iterations_are_counted(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "sampled", lambda fn: (fn(), run.PROBE_REF_S))
    deadline = time.monotonic() + 120
    result = run.run_workload(GuardAbort(), 0, 0.5, 0, tmp_path / "w", deadline)
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    assert result["samples"]["energy_drift"] == []


def test_speed_probe_samples_while_the_call_runs():
    try:
        result, kernel = run.sampled(lambda: time.sleep(0.5) or 7)
        assert result == 7 and 0.0 < kernel < 0.5
        _, kernel = run.sampled(lambda: None)  # too short for the sampler
        assert 0.0 < kernel < 0.5
    finally:
        run.stop_probe()


def test_times_are_scaled_by_the_probe_over_them(tmp_path, monkeypatch):
    # a host half as fast as the reference: the kernel takes 2 x PROBE_REF_S
    monkeypatch.setattr(run, "sampled", lambda fn: (fn(), 2 * run.PROBE_REF_S))
    deadline = time.monotonic() + 120
    result = run.run_workload(GuardAbort(), 0, 0.5, 0, tmp_path / "w", deadline)
    samples, raw = result["samples"], result["raw"]
    assert samples["wall_s"] == pytest.approx([t / 2 for t in raw["wall_raw_s"]])
    assert samples["setup_s"] == pytest.approx([t / 2 for t in raw["setup_raw_s"]])
    per_iteration = run.SETUP_PROBES_AFTER_ITERATION * result["attempted"]
    assert len(samples["setup_s"]) == run.SETUP_PROBES_FIRST + per_iteration


def test_trace_overhead_adds_imports_spans_and_counted_ffts():
    t = tr.Tracer(clock=FakeClock([0, 1, 2, 3]))
    for name in ("a", "b"):
        t.end(t.begin(name, "grid"))
    t.loose_fft_calls = 10
    t.import_s, t.span_cost_s, t.fft_cost_s = 0.5, 1e-3, 1e-4
    assert tr.summarize(t.dump())["trace.overhead_s"] == pytest.approx(0.5 + 2e-3 + 1e-3)

    t.measure_costs(samples=2000)
    assert 0.0 < t.fft_cost_s < 1e-3 and 0.0 < t.span_cost_s < 1e-3


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # the gated workloads; ghost-jobs2 and wkb-2d run only on request
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    layers = tr.summarize(tr.Tracer().dump())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        m: run.unit_of(m) for m in layers}
