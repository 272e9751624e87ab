"""Outside-in tracer for the scnls package.

The tracer wraps the public functions and public methods of every scnls
layer module, and every transform entry point of numpy.fft and scipy.fft,
from outside the package: no scnls source is edited.  Each wrapped call
records a span (name, layer, thread, start, end, parent) in memory; FFT
calls are counted on the innermost open span of the calling thread.
`summarize` turns the spans into the per-layer metrics of BENCHMARK.json.

Span stacks are thread-local.  A task submitted to a ThreadPoolExecutor
inherits the span that submitted it as its parent, so a study span that
waits on its pool gets the worker spans as children and a small self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import os
import pkgutil
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

LAYERS = ("cli", "studies", "acceptance", "nls", "wkb", "grid", "report")

NUMPY_FFT = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn",
    "hfft", "ihfft",
)
SCIPY_FFT = NUMPY_FFT + (
    "hfft2", "ihfft2", "hfftn", "ihfftn",
    "dct", "idct", "dst", "idst", "dctn", "idctn", "dstn", "idstn",
)

NLS_SOLVERS = ("nls.solve_nls",)
WKB_SOLVERS = ("wkb.solve_grenier", "wkb.solve_limit_with_corrector")


class Span:
    __slots__ = ("id", "parent", "name", "layer", "thread", "start", "end",
                 "fft_calls", "fft_bytes", "info")

    def __init__(self, id, parent, name, layer, thread, start, end=None):
        self.id = id
        self.parent = parent
        self.name = name
        self.layer = layer
        self.thread = thread
        self.start = start
        self.end = end
        self.fft_calls = 0
        self.fft_bytes = 0
        self.info = None

    def to_list(self):
        return [self.id, self.parent, self.name, self.layer, self.thread,
                self.start, self.end, self.fft_calls, self.fft_bytes, self.info]

    @classmethod
    def from_list(cls, row):
        span = cls(*row[:7])
        span.fft_calls, span.fft_bytes, span.info = row[7], row[8], row[9]
        return span


class Tracer:
    """Spans and counters of one traced process, kept in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counters = defaultdict(float)
        self.pools = []
        self.loose_fft_calls = 0
        # what tracing itself costs: see measure_costs and summarize
        self.import_s = self.span_cost_s = self.fft_cost_s = 0.0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_id(self):
        stack = self._stack()
        return stack[-1].id if stack else getattr(self._local, "link", None)

    def begin(self, name, layer):
        span = Span(next(self._ids), self.current_id(), name, layer,
                    threading.get_ident(), self.clock())
        self._stack().append(span)
        return span

    def end(self, span):
        span.end = self.clock()
        self._stack().pop()
        self.spans.append(span)

    def count(self, name, n=1):
        with self._lock:
            self.counters[name] += n

    def wrap(self, fn, name, layer, on_return=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if on_return is not None:
                on_return(span, args, kwargs, result)
            return result

        return traced

    def count_fft(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            data = args[0] if args else kwargs.get("a", kwargs.get("x"))
            nbytes = getattr(data, "nbytes", 0) + getattr(out, "nbytes", 0)
            stack = self._stack()
            if stack:
                stack[-1].fft_calls += 1
                stack[-1].fft_bytes += nbytes
            else:
                with self._lock:
                    self.loose_fft_calls += 1
            return out

        return counted

    def measure_costs(self, samples=20000):
        """Time what one span and one counted FFT add to a call, on a no-op
        traced by a separate probe tracer in this (warm) process."""
        probe = Tracer()

        def noop(*args, **kwargs):
            return None

        def per_call(fn):
            t0 = time.perf_counter()
            for _ in range(samples):
                fn()
            return (time.perf_counter() - t0) / samples

        outer = probe.begin("outer", "probe")  # counted FFTs find an open span
        bare = min(per_call(noop) for _ in range(3))
        wrapped = probe.wrap(noop, "probe", "probe")
        self.span_cost_s = max(0.0, min(per_call(wrapped) for _ in range(3)) - bare)
        counted = probe.count_fft(noop)
        self.fft_cost_s = max(0.0, min(per_call(counted) for _ in range(3)) - bare)
        probe.end(outer)

    def dump(self):
        return {
            "spans": [s.to_list() for s in self.spans],
            "counters": dict(self.counters),
            "pools": [list(p) for p in self.pools],
            "loose_fft_calls": self.loose_fft_calls,
            "costs": [self.import_s, self.span_cost_s, self.fft_cost_s],
        }


# ----------------------------------------------------------------------
# installation: wrap from outside, then rebind by identity everywhere
# ----------------------------------------------------------------------

def _solver_hook(fn):
    """Record the requested step count, grid size and snapshot count."""
    signature = inspect.signature(fn)

    def hook(span, args, kwargs, result):
        bound = signature.bind(*args, **kwargs).arguments
        config = bound["config"]
        first = bound.get("u0", bound.get("a0"))
        span.info = {
            "steps": max(1, round(config.T / config.dt)),
            "points": first.grid.num_points,
            "saves": len(result),
        }
    return hook


def _writer_hook(span, args, kwargs, result):
    if isinstance(result, (str, os.PathLike)) and os.path.isfile(result):
        span.info = {"bytes": os.path.getsize(result)}


def _hook_for(name, fn):
    if name in NLS_SOLVERS or name in WKB_SOLVERS:
        return _solver_hook(fn)
    if name.startswith("report.write_"):
        return _writer_hook
    return None


def _traced_get_or_run(tracer, original):
    """RunCache.get_or_run that counts requests, misses and computations
    the cache threw away because another thread stored the key first."""

    def get_or_run(cache, key, fn):
        computed = []

        def compute():
            value = fn()
            computed.append(value)
            return value

        result = original(cache, key, compute)
        tracer.count("cache_requests")
        if computed:
            tracer.count("cache_misses")
            if computed[0] is not result:
                tracer.count("duplicate_runs")
        return result

    return get_or_run


def patch_pool(tracer, pool_class=ThreadPoolExecutor):
    """Give pool tasks their submitter as parent and record busy time."""
    original_init = pool_class.__init__
    original_submit = pool_class.submit
    original_shutdown = pool_class.shutdown

    def __init__(pool, max_workers=None, *args, **kwargs):
        original_init(pool, max_workers, *args, **kwargs)
        # [workers, opened, closed, busy seconds]
        pool._trace_record = [pool._max_workers, tracer.clock(), None, 0.0]
        tracer.pools.append(pool._trace_record)

    def submit(pool, fn, /, *args, **kwargs):
        parent = tracer.current_id()
        record = getattr(pool, "_trace_record", None)

        def task(*a, **k):
            tracer._local.link = parent
            t0 = tracer.clock()
            try:
                return fn(*a, **k)
            finally:
                busy = tracer.clock() - t0
                tracer._local.link = None
                if record is not None:
                    with tracer._lock:
                        record[3] += busy

        return original_submit(pool, task, *args, **kwargs)

    def shutdown(pool, *args, **kwargs):
        original_shutdown(pool, *args, **kwargs)
        record = getattr(pool, "_trace_record", None)
        if record is not None and record[2] is None:
            record[2] = tracer.clock()

    for name, fn in (("__init__", __init__), ("submit", submit), ("shutdown", shutdown)):
        setattr(pool_class, name, fn)


def rebind(modules, replacements):
    """Replace every module-level name (and module-level dict value) bound
    to an original function by its wrapper, so that `from .grid import norm`
    in another module is traced too."""
    for mod in modules:
        namespace = vars(mod)
        for name, obj in list(namespace.items()):
            new = replacements.get(id(obj))
            if new is not None and new[0] is obj:
                setattr(mod, name, new[1])
            elif isinstance(obj, dict):
                for key, value in list(obj.items()):
                    new = replacements.get(id(value))
                    if new is not None and new[0] is value:
                        obj[key] = new[1]


def scnls_modules():
    """The scnls package and every submodule, all imported."""
    pkg = importlib.import_module("scnls")
    for info in pkgutil.iter_modules(pkg.__path__):
        importlib.import_module(f"scnls.{info.name}")
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "scnls" or n.startswith("scnls."))]


def install(tracer):
    """Wrap the scnls layers and the FFT entry points for `tracer`."""
    modules = scnls_modules()
    replacements = {}
    for layer in LAYERS:
        mod = sys.modules[f"scnls.{layer}"]
        for name, obj in list(vars(mod).items()):
            if name.startswith("_"):
                continue
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                span_name = f"{layer}.{name}"
                wrapper = tracer.wrap(obj, span_name, layer, _hook_for(span_name, obj))
                replacements[id(obj)] = (obj, wrapper)
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for attr, member in list(vars(obj).items()):
                    if attr.startswith("_") or not inspect.isfunction(member):
                        continue
                    if (layer, obj.__name__, attr) == ("studies", "RunCache", "get_or_run"):
                        member = _traced_get_or_run(tracer, member)
                    setattr(obj, attr, tracer.wrap(
                        member, f"{layer}.{obj.__name__}.{attr}", layer))

    for module_name, names in (("numpy.fft", NUMPY_FFT), ("scipy.fft", SCIPY_FFT)):
        t0 = time.perf_counter()
        try:
            fft_mod = importlib.import_module(module_name)
        except ImportError:
            continue
        finally:
            tracer.import_s += time.perf_counter() - t0
        for name in names:
            original = getattr(fft_mod, name, None)
            if original is None:
                continue
            counted = tracer.count_fft(original)
            replacements[id(original)] = (original, counted)
            setattr(fft_mod, name, counted)

    rebind(modules, replacements)
    patch_pool(tracer)
    return tracer


# ----------------------------------------------------------------------
# summary: spans -> per-layer metrics
# ----------------------------------------------------------------------

def _covered(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Span id -> duration minus the part of it that child spans cover.

    Children may run on other threads (pool workers), where they overlap
    each other; the union of their intervals is what the parent did not
    spend itself."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - _covered(children.get(s.id, ()), s.start, s.end)
        for s in spans
    }


def summarize(dump):
    """Per-layer metrics from a Tracer.dump(); values are plain numbers."""
    spans = [Span.from_list(row) for row in dump["spans"]]
    own = self_times(spans)
    counters = defaultdict(float, dump["counters"])

    def named(*names):
        return [s for s in spans if s.name in names]

    def inclusive(*names):
        return sum(s.end - s.start for s in named(*names))

    def layer_self(layer):
        return sum(own[s.id] for s in spans if s.layer == layer)

    def layer_ffts(layer, field="fft_calls"):
        return sum(getattr(s, field) for s in spans if s.layer == layer)

    def solver_totals(names):
        runs = named(*names)
        steps = sum(s.info["steps"] for s in runs)
        point_steps = sum(s.info["steps"] * s.info["points"] for s in runs)
        busy = sum(own[s.id] for s in runs)
        ns = busy * 1e9 / point_steps if point_steps else 0.0
        return runs, steps, point_steps, ns

    m = {}
    runs, steps, point_steps, ns = solver_totals(NLS_SOLVERS)
    m["nls.calls"] = len(runs)
    m["nls.steps"] = steps
    m["nls.point_steps"] = point_steps
    m["nls.self_s"] = layer_self("nls")
    m["nls.ns_per_point_step"] = ns
    m["nls.fft_calls"] = layer_ffts("nls")
    m["nls.fft_bytes_computed"] = layer_ffts("nls", "fft_bytes")
    m["nls.saves"] = sum(s.info["saves"] for s in runs)

    runs, steps, point_steps, ns = solver_totals(WKB_SOLVERS)
    m["wkb.calls"] = len(runs)
    m["wkb.rk4_steps"] = steps
    m["wkb.self_s"] = layer_self("wkb")
    m["wkb.ns_per_point_step"] = ns
    m["wkb.fft_calls"] = layer_ffts("wkb")
    m["wkb.reconstruct_calls"] = len(named("wkb.reconstruct"))
    m["wkb.reconstruct_s"] = inclusive("wkb.reconstruct")

    for fn in ("norm", "resample", "tail_fraction"):
        m[f"grid.{fn}_calls"] = len(named(f"grid.{fn}"))
        m[f"grid.{fn}_s"] = inclusive(f"grid.{fn}")
    m["grid.fft_calls"] = layer_ffts("grid")

    requests, misses = counters["cache_requests"], counters["cache_misses"]
    m["studies.self_s"] = layer_self("studies")
    m["studies.cache_requests"] = int(requests)
    m["studies.cache_misses"] = int(misses)
    m["studies.cache_hit_ratio"] = (requests - misses) / requests if requests else 0.0
    m["studies.duplicate_runs"] = int(counters["duplicate_runs"])
    capacity = sum(w * (closed - opened) for w, opened, closed, _ in dump["pools"]
                   if closed is not None)
    busy = sum(p[3] for p in dump["pools"])
    m["studies.pool_busy_fraction"] = busy / capacity if capacity else 0.0

    for k in range(1, 10):
        m[f"acceptance.criterion_{k}_s"] = inclusive(
            f"acceptance.AcceptanceSuite.criterion_{k}")
    m["acceptance.self_s"] = layer_self("acceptance")

    rows = [s for s in spans if s.name.startswith("report.") and s.name.endswith("_rows")]
    writers = [s for s in spans if s.name.startswith("report.write_")]
    m["report.rows_s"] = sum(s.end - s.start for s in rows)
    m["report.write_s"] = sum(s.end - s.start for s in writers)
    m["report.bytes_written"] = sum((s.info or {}).get("bytes", 0) for s in writers)

    m["cli.validate_s"] = inclusive("cli.validate_config")
    m["trace.fft_calls"] = sum(s.fft_calls for s in spans) + dump["loose_fft_calls"]
    # the FFT-module imports only tracing makes, plus every span and every
    # counted FFT at the cost Tracer.measure_costs timed for one
    import_s, span_cost, fft_cost = dump["costs"]
    m["trace.overhead_s"] = (import_s + len(spans) * span_cost
                             + m["trace.fft_calls"] * fft_cost)
    return m


def span_table(dump, limit=15):
    """Rows (name, calls, inclusive s, self s, ffts), largest self time first."""
    spans = [Span.from_list(row) for row in dump["spans"]]
    own = self_times(spans)
    rows = defaultdict(lambda: [0, 0.0, 0.0, 0])
    for s in spans:
        row = rows[s.name]
        row[0] += 1
        row[1] += s.end - s.start
        row[2] += own[s.id]
        row[3] += s.fft_calls
    ordered = sorted(rows.items(), key=lambda kv: -kv[1][2])
    return [(name, *vals) for name, vals in ordered[:limit]]
