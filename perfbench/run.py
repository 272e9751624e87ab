"""scnls benchmark: run the workloads, check outputs, report metrics.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Runs each workload through the real entry point (`python -m scnls.cli`),
one fresh process per iteration, against the checkout's own `src/`, and
checks every iteration's outputs.  Prints a table of metrics per workload
and, as the last line, one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

--trace 0 reports the end-to-end metrics (tracing off).  Times are scaled
to a reference host speed, measured by a probe kernel timed on the side
while they run; the table also prints the raw times.  --trace 1 runs
traced iterations instead and reports the per-layer metrics, medians over
the traced iterations.
Exits 1 when any output check fails and 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import atexit
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracer as tr
from workloads import WORKLOADS, Iteration

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
WORK = HERE / ".work"

# setup_s probes: one untimed warm-up fills the bytecode cache, then a few
# probes before the first iteration and a few after each, so that the median
# samples the whole run rather than one burst of host contention.
SETUP_PROBES_FIRST = 6
SETUP_PROBES_AFTER_ITERATION = 2
DEADLINE_S = 170.0

# The shared host's speed drifts by up to 2x within minutes, on plain Python
# loops as much as on numpy, so raw times of one commit spread wider than any
# useful bound.  While a child runs, a helper process times a small probe
# kernel every PROBE_INTERVAL_S (child.py probe); every time is scaled by
# PROBE_REF_S / (the mean kernel time over that same interval).  The
# reported seconds are those of a host on which the kernel takes PROBE_REF_S.
PROBE_REF_S = 0.01

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB",
                    "energy_drift": "relative"}
# printed in the table only: the unscaled times and the probe kernel means
RAW_UNITS = {"wall_raw_s": "s", "setup_raw_s": "s", "probe_kernel_s": "s"}


class HarnessError(RuntimeError):
    """The benchmark itself cannot run here (not a failed iteration)."""


def unit_of(metric):
    if metric.endswith("ns_per_point_step"):
        return "ns"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("fft_bytes_computed"):
        return "bytes_computed"
    if metric.endswith("bytes_written"):
        return "bytes"
    if metric.endswith(("_ratio", "_fraction")):
        return "ratio"
    return "count"


_probe = None


def _probe_command(command):
    global _probe
    if _probe is None:
        _probe = subprocess.Popen([sys.executable, str(CHILD), "probe"],
                                  stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                  text=True)
        atexit.register(stop_probe)
    _probe.stdin.write(command + "\n")
    _probe.stdin.flush()
    reply = _probe.stdout.readline()
    if not reply:
        raise HarnessError("the speed probe process ended")
    return reply


def sampled(fn):
    """Run fn() while the speed probe samples the host; return fn's result
    and the mean probe kernel time over the call.  The probe is a separate
    process also so that this one stays small: a child's ru_maxrss includes
    the memory of the process that spawned it."""
    _probe_command("start")
    try:
        result = fn()
    finally:
        reply = _probe_command("stop")
    return result, float(reply.split()[1])


def stop_probe():
    global _probe
    if _probe is not None:
        proc, _probe = _probe, None
        proc.stdin.close()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def child_env():
    env = dict(os.environ)
    env.pop("SCNLS_OUT_DIR", None)
    env.update(PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def run_process(argv, cwd, deadline):
    """Run argv to exit; return (exit code, wall s, peak RSS MiB, stdout, stderr)."""
    cwd.mkdir(parents=True, exist_ok=True)
    out_path, err_path = cwd / "stdout.txt", cwd / "stderr.txt"
    timeout = max(1.0, deadline - time.monotonic())
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        timer = threading.Timer(timeout, os.kill, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_maxrss / 1024.0,
            out_path.read_text(errors="replace"), err_path.read_text(errors="replace"))


def measure_setup(workload, config, wdir, deadline, count):
    """Wall times of `count` fresh processes that import scnls.cli and load
    and validate the config.  Also proves that the checkout's src/ is the
    package under test."""
    src = (ROOT / "src").resolve()
    times = []
    for _ in range(count):
        code, wall, _, out, err = run_process(
            [sys.executable, str(CHILD), "setup", workload.command, str(config)],
            wdir / "setup", deadline)
        if code != 0:
            raise HarnessError(f"setup probe failed ({code}): {err.strip()[-500:]}")
        module_file = Path(out.strip().splitlines()[-1]).resolve()
        if src not in module_file.parents:
            raise HarnessError(f"scnls resolves to {module_file}, not under {src}")
        times.append(wall)
    return times


def iterate(workload, config, wdir, context, index, deadline, trace_path=None):
    out = wdir / f"iter{index}"
    if trace_path is None:
        argv = [sys.executable, "-m", "scnls.cli"] + workload.cli_args(config, out)
    else:
        argv = ([sys.executable, str(CHILD), "trace", str(trace_path)]
                + workload.cli_args(config, out))
    code, wall, rss, stdout, stderr = run_process(argv, out, deadline)
    it = Iteration(code, wall, rss, out, stdout)
    workload.evaluate(it, context)
    if it.failed:
        print(f"{workload.name}: iteration {index} FAILED: {it.failure}; "
              f"stderr: {stderr.strip()[-300:]}", file=sys.stderr)
    return it


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_workload(workload, seed, seconds, trace, wdir, deadline):
    wdir.mkdir(parents=True)
    config = wdir / "config.json"
    config.write_text(json.dumps(workload.config(seed), sort_keys=True, indent=2) + "\n")

    measure_setup(workload, config, wdir, deadline, 1)
    raw_setup, kernel = sampled(
        lambda: measure_setup(workload, config, wdir, deadline, SETUP_PROBES_FIRST))
    kernels = [kernel]
    setup = [t * PROBE_REF_S / kernel for t in raw_setup]
    context = workload.prepare(
        config, wdir,
        lambda args, cwd: run_process([sys.executable, str(CHILD), *args], cwd, deadline)[0])
    if trace:
        return trace_workload(workload, config, wdir, context, seconds, deadline)

    iterations, walls = [], []
    start = time.perf_counter()
    while True:
        it, kernel = sampled(
            lambda: iterate(workload, config, wdir, context, len(iterations), deadline))
        iterations.append(it)
        kernels.append(kernel)
        walls.append(it.wall_s * PROBE_REF_S / kernel)
        probes, kernel = sampled(lambda: measure_setup(
            workload, config, wdir, deadline, SETUP_PROBES_AFTER_ITERATION))
        raw_setup += probes
        setup += [t * PROBE_REF_S / kernel for t in probes]
        elapsed = time.perf_counter() - start
        if elapsed + it.wall_s > seconds:
            break

    samples = {
        "wall_s": walls,
        "setup_s": setup,
        "peak_rss_mb": [it.peak_rss_mb for it in iterations],
        "energy_drift": [it.energy_drift for it in iterations if not it.failed],
    }
    raw = {"wall_raw_s": [it.wall_s for it in iterations], "setup_raw_s": raw_setup,
           "probe_kernel_s": kernels}
    return {"samples": samples, "raw": raw, "layers": None,
            "attempted": len(iterations), "failed": sum(it.failed for it in iterations)}


def trace_workload(workload, config, wdir, context, seconds, deadline):
    """Traced iterations for `seconds` (at least one); each per-layer metric
    is the median over them."""
    iterations, summaries = [], []
    start = time.perf_counter()
    while True:
        trace_path = wdir / f"trace{len(iterations)}.json"
        it = iterate(workload, config, wdir, context, len(iterations), deadline,
                     trace_path)
        iterations.append(it)
        if trace_path.exists():
            dump = json.loads(trace_path.read_text())
            summaries.append(tr.summarize(dump))
            if len(summaries) == 1:
                for name, calls, incl, own, ffts in tr.span_table(dump):
                    print(f"  span {name:<44} calls {calls:>7}  incl {incl:9.3f} s  "
                          f"self {own:9.3f} s  ffts {ffts:>8}", file=sys.stderr)
        if time.perf_counter() - start + it.wall_s > seconds:
            break
    layers = None
    if summaries:
        layers = {m: statistics.median(s[m] for s in summaries) for m in summaries[0]}
    return {"samples": {}, "raw": {}, "layers": layers, "traced": len(summaries),
            "attempted": len(iterations), "failed": sum(it.failed for it in iterations)}


def format_rows(name, result, trace):
    rows = []
    units = {**END_TO_END_UNITS, **RAW_UNITS}
    for metric, values in {**result["samples"], **result["raw"]}.items():
        if values:
            q1, med, q3 = quartiles(values)
            rows.append(f"{name:<12} {metric:<28} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                        f"{units[metric]:<14} {len(values)}")
    share = result["failed"] / result["attempted"]
    rows.append(f"{name:<12} {'failed_share':<28} {share:>14.6g} {'':>14} {'':>14} "
                f"{'fraction':<14} {result['attempted']}")
    if trace and result["layers"] is not None:
        for metric, value in result["layers"].items():
            rows.append(f"{name:<12} {metric:<28} {value:>14.6g} {'':>14} {'':>14} "
                        f"{unit_of(metric):<14} {result['traced']}")
    return rows


def metrics_of(result, trace):
    if trace:
        layers = result["layers"] or {}
        return {m: {"value": v, "unit": unit_of(m)} for m, v in layers.items()}
    out = {}
    for metric, values in result["samples"].items():
        # a workload whose every iteration failed has no drift to report
        value = statistics.median(values) if values else -1.0
        out[metric] = {"value": value, "unit": END_TO_END_UNITS[metric]}
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    if not (ROOT / "src" / "scnls" / "cli.py").is_file():
        print(f"error: no scnls sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    random.Random(args.seed).shuffle(names)

    WORK.mkdir(exist_ok=True)
    work = WORK / f"run-{os.getpid()}"
    results = {}
    try:
        for name in names:
            deadline = time.monotonic() + DEADLINE_S
            results[name] = run_workload(WORKLOADS[name], args.seed, args.seconds,
                                         args.trace, work / name, deadline)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        stop_probe()
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another invocation is still using it

    print(f"seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}  "
          f"order {' '.join(names)}")
    print(f"{'workload':<12} {'metric':<28} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'unit':<14} n")
    for name, result in results.items():
        print("\n".join(format_rows(name, result, args.trace)))

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if len(results) == 1:
        metrics = metrics_of(next(iter(results.values())), args.trace)
    else:
        metrics = {f"{name}/{m}": v for name, r in results.items()
                   for m, v in metrics_of(r, args.trace).items()}
    correct = failed == 0 and (not args.trace or all(
        r["layers"] is not None for r in results.values()))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
