"""Child-process entry points of the benchmark (run with PYTHONPATH=src).

    python perfbench/child.py setup <command> <config.json>
        Import scnls.cli, load and validate the config, print scnls.__file__.
    python perfbench/child.py trace <out.json> <cli args...>
        Run the CLI with every layer traced; write the spans to out.json.
    python perfbench/child.py drift <out.json> <cli args...>
        Run the CLI and write the largest relative energy drift over the
        saved times of every wavefunction run it made.
    python perfbench/child.py probe
        The speed probe: between a "start" and a "stop" line on stdin, time
        a small kernel every PROBE_INTERVAL_S; on "stop", print the number
        of samples and their mean in seconds.
"""

from __future__ import annotations

import json
import sys


def setup(command, config_path):
    import scnls
    import scnls.cli as cli

    cli.validate_config(cli.load_config(config_path), command)
    print(scnls.__file__)
    return 0


def trace(out_path, argv):
    import tracer as tr

    tracer = tr.install(tr.Tracer())
    from scnls import cli

    code = cli.run(argv)
    tracer.measure_costs()
    with open(out_path, "w") as fh:
        json.dump(tracer.dump(), fh)
    return code


def drift(out_path, argv):
    import tracer as tr

    modules = tr.scnls_modules()
    from scnls import cli, nls

    worst = []
    solve = nls.solve_nls

    def solve_and_measure(*args, **kwargs):
        traj = solve(*args, **kwargs)
        e0 = nls.semiclassical_energy(traj[0])
        if e0 != 0.0:
            worst.append(max(abs(nls.semiclassical_energy(s) - e0) for s in traj) / abs(e0))
        return traj

    tr.rebind(modules, {id(solve): (solve, solve_and_measure)})
    code = cli.run(argv)
    with open(out_path, "w") as fh:
        json.dump({"energy_drift": max(worst, default=None)}, fh)
    return code


PROBE_INTERVAL_S = 0.2


def probe():
    """Sample the host's speed of the moment with a kernel of about 10 ms:
    100 round trips of 1-D FFTs on 1,024 points and a 10,000-step Python
    loop.  It runs on the side of a child, about 5% of one core."""
    import threading
    import time

    import numpy as np

    start = np.random.default_rng(0).standard_normal(1024) + 0j

    def kernel():
        line = start
        for _ in range(100):
            line = np.fft.ifft(np.fft.fft(line) * 0.999)
        total = 0
        for i in range(10_000):
            total += i * i

    kernel()  # warm-up: FFT plans and bytecode
    samples, active, busy = [], threading.Event(), threading.Lock()

    def sample():
        t0 = time.perf_counter()
        kernel()
        samples.append(time.perf_counter() - t0)

    def sampler():
        while True:
            active.wait()
            with busy:
                if active.is_set():
                    sample()
            time.sleep(PROBE_INTERVAL_S)

    threading.Thread(target=sampler, daemon=True).start()
    for command in sys.stdin:
        if command.strip() == "start":
            samples.clear()
            active.set()
            print("ok", flush=True)
        else:
            active.clear()
            with busy:  # let a sample in flight finish
                if not samples:
                    sample()
                print(len(samples), sum(samples) / len(samples), flush=True)
    return 0


def main(argv):
    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        return setup(*rest)
    if mode == "trace":
        return trace(rest[0], rest[1:])
    if mode == "drift":
        return drift(rest[0], rest[1:])
    if mode == "probe":
        return probe()
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
