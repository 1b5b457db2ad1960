"""Spans recorded from outside the simulator, for the traced run only.

A span is ``(name, start, end, parent, job, thread)``: ``parent`` is the
index of the enclosing span on the same thread (-1 at the top) and ``job``
is the (workload, config, scale, cores) cell the work belongs to.  Spans
stay in memory and are written once, when the run ends.

:func:`instrument` wraps the public call sites of each layer for the
duration of a ``with`` block and restores them afterwards; nothing under
``src/`` changes.  The untraced run never calls it.
"""

from __future__ import annotations

import collections
import contextlib
import json
import threading
import time
from typing import Dict, List, Optional

#: Frame spans: they group work but are no layer of their own, so their
#: self time is the part of the wall that no layer accounts for.
FRAMES = ("pass", "job", "service.request")


class Tracer:
    """Thread-safe in-memory span recorder plus named counters."""

    enabled = True

    def __init__(self):
        self.spans: List[list] = []
        self.counters: Dict[str, float] = collections.Counter()
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, job: Optional[str] = None):
        stack = self._stack()
        parent = stack[-1] if stack else -1
        if job is None and parent >= 0:
            job = self.spans[parent][4]
        record = [name, time.perf_counter(), None, parent, job,
                  threading.get_ident()]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    def layers(self) -> Dict[str, dict]:
        """Per span name: calls, total duration and self time (seconds).

        Self time is the span's duration minus the durations of its
        direct children; children always run on the parent's thread.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _job, _thread in self.spans:
            if parent >= 0 and end is not None:
                child_time[parent] += end - start
        out: Dict[str, dict] = {}
        for index, (name, start, end, _p, _j, _t) in enumerate(self.spans):
            if end is None:
                continue
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                          "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += (end - start) - child_time[index]
        return out

    def calls_for_jobs(self, name: str, jobs) -> int:
        """How many ``name`` spans belong to one of ``jobs``."""
        return sum(1 for span in self.spans
                   if span[0] == name and span[4] in jobs)

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "job", "thread")
        with open(path, "w") as handle:
            json.dump({"spans": [dict(zip(keys, span))
                                 for span in self.spans],
                       "counters": dict(self.counters)}, handle)


class NullTracer:
    """Stand-in for the untraced run: spans cost one attribute lookup."""

    enabled = False
    _null = contextlib.nullcontext()

    def span(self, name: str, job: Optional[str] = None):
        return self._null


def cell_id(workload: str, config: str, scale) -> str:
    """The job ID: one (workload, config, scale, cores) cell."""
    return "%s/%s@%dx%d#%d/c%d" % (workload, config, scale.ops_per_txn,
                                   scale.txns, scale.seed, scale.cores)


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap every layer's public call site with a span while active."""
    from repro.harness import result_cache, runner, trace_cache
    from repro.multicore import system
    from repro.pipeline import core, replay
    from repro.workloads import base

    patches = []

    def patch(owner, attr, wrapper_factory):
        original = getattr(owner, attr)
        patches.append((owner, attr, original))
        setattr(owner, attr, wrapper_factory(original))

    def build(original):
        def wrapped(name, mode, scale, cache=None, params=None):
            if cache is not None:
                # Dispatches to the trace cache; its load, store and any
                # miss-time build are spans of their own.
                return original(name, mode, scale, cache=cache,
                                params=params)
            with tracer.span("build", cell_id(name, mode, scale)):
                built = original(name, mode, scale, params=params)
            tracer.count("build.instructions", len(built.trace))
            return built
        return wrapped

    def store_load(layer):
        def factory(original):
            def wrapped(self, key):
                with tracer.span(layer + ".load"):
                    value = original(self, key)
                tracer.count(layer + ".load_hits", value is not None)
                return value
            return wrapped
        return factory

    def store_store(layer):
        def factory(original):
            def wrapped(self, key, value):
                with tracer.span(layer + ".store"):
                    return original(self, key, value)
            return wrapped
        return factory

    def run_one(original):
        def wrapped(workload, config, scale=base.BENCH_SCALE, *args,
                    **kwargs):
            with tracer.span("job", cell_id(workload, config.name, scale)):
                return original(workload, config, scale, *args, **kwargs)
        return wrapped

    def meta_for(original):
        def wrapped(built):
            with tracer.span("replay.meta"):
                return original(built)
        return wrapped

    def trace_meta(original):
        class CountedTraceMeta(original):
            def __init__(self, *args, **kwargs):
                tracer.count("replay.meta_builds")
                super().__init__(*args, **kwargs)
        return CountedTraceMeta

    def core_run(original):
        def wrapped(self, *args, **kwargs):
            with tracer.span("pipeline.run"):
                stats = original(self, *args, **kwargs)
            tracer.count("pipeline.retired", stats.retired)
            return stats
        return wrapped

    def simulate_built(original):
        def wrapped(built, *args, **kwargs):
            with tracer.span("multicore.sim") as record:
                sim = original(built, *args, **kwargs)
            tracer.count("multicore.retired_%dc" % sim.cores,
                         sim.stats.retired)
            tracer.count("multicore.sim_s_%dc" % sim.cores,
                         record[2] - record[1])
            return sim
        return wrapped

    def check_run(original):
        def wrapped(*args, **kwargs):
            with tracer.span("consistency.check"):
                return original(*args, **kwargs)
        return wrapped

    patch(base, "build", build)
    patch(trace_cache.TraceCache, "load", store_load("trace_cache"))
    patch(trace_cache.TraceCache, "store", store_store("trace_cache"))
    patch(result_cache.ResultCache, "load", store_load("result_cache"))
    patch(result_cache.ResultCache, "store", store_store("result_cache"))
    patch(runner, "run_one", run_one)
    patch(runner, "meta_for", meta_for)
    patch(replay, "TraceMeta", trace_meta)
    patch(core.OutOfOrderCore, "run", core_run)
    patch(system, "simulate_built", simulate_built)
    patch(runner, "check_run", check_run)
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
