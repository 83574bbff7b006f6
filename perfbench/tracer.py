"""Span tracing from outside the package.

``Tracer.install`` wraps every public function of the ``simomac`` modules,
and every public method of their classes, at every module binding: the
modules import functions from each other by name, so patching only the
defining module would miss those calls.  Spans are kept in memory as
(id, parent_id, name, start, end, count, peak_mb) and handed back at the
end; ``summarize`` derives self time from the parent links.
"""

import functools
import importlib
import inspect
import pkgutil
import time
import tracemalloc

# Work counts recorded per call, from (args, result).
COUNTERS = {
    "linalg.sample_complex_gaussian": lambda args, result: int(result.size),
    "knn_entropy.knn_entropy_bits": lambda args, result: int(len(args[0])),
}

# Calls whose peak allocation is measured with tracemalloc.  Tracing every
# allocation slows Fraction-heavy code several-fold, so it is switched on
# only inside these calls.  None of them calls another; if one did, the
# inner call would report the outer call's peak so far.
MEMORY_TRACKED = {
    "converse.duality_bound_mac_user1",
    "converse.duality_bound_single_user",
    "region.grid_oracle_sup",
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._next_id = 0

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)
        track_memory = name in MEMORY_TRACKED

        # The span covers the wrapper's own bookkeeping (stack, counters,
        # tracemalloc start/stop), so tracing cost lands in the traced
        # function's self time, not in its caller's.
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = time.perf_counter()
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            started_tracemalloc = track_memory and not tracemalloc.is_tracing()
            if started_tracemalloc:
                tracemalloc.start()
            count, peak_mb = None, None
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    count = counter(args, result)
                return result
            finally:
                if track_memory:
                    peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
                if started_tracemalloc:
                    tracemalloc.stop()
                self._stack.pop()
                self.spans.append((span_id, parent, name, t0, time.perf_counter(), count,
                                   peak_mb))

        return traced

    def install(self, package):
        """Wrap the package's public functions and methods in place."""
        modules = [importlib.import_module(f"{package.__name__}.{m.name}")
                   for m in pkgutil.iter_modules(package.__path__)]
        prefix = package.__name__ + "."

        def span_name(obj):
            return f"{obj.__module__[len(prefix):]}.{obj.__qualname__}"

        wrappers = {}  # id(function) -> the one wrapper every binding gets
        classes = set()
        for module in modules:
            for attr, value in list(vars(module).items()):
                owner = getattr(value, "__module__", None) or ""
                if attr.startswith("_") or not owner.startswith(prefix):
                    continue
                if inspect.isfunction(value):
                    if id(value) not in wrappers:
                        wrappers[id(value)] = self.wrap(span_name(value), value)
                    setattr(module, attr, wrappers[id(value)])
                elif inspect.isclass(value) and value not in classes:
                    classes.add(value)
                    for meth, fn in list(vars(value).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            setattr(value, meth, self.wrap(span_name(fn), fn))


def summarize(spans):
    """Per function: self_s, total_s, calls, count, peak_mb, first_call_s."""
    child_time = {}
    for span_id, parent, _, t0, t1, _, _ in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
    out = {}
    for span_id, _, name, t0, t1, count, peak_mb in sorted(spans, key=lambda s: s[3]):
        agg = out.setdefault(name, {"self_s": 0.0, "total_s": 0.0, "calls": 0, "count": 0,
                                    "peak_mb": 0.0, "first_call_s": t1 - t0})
        agg["self_s"] += (t1 - t0) - child_time.get(span_id, 0.0)
        agg["total_s"] += t1 - t0
        agg["calls"] += 1
        agg["count"] += count or 0
        agg["peak_mb"] = max(agg["peak_mb"], peak_mb or 0.0)
    return out
