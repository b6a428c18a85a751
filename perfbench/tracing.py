"""Span tracing for the traced run, installed at run time.

The package is not edited: :func:`install` replaces the public callables
of each layer (``graph``, ``kernels``, ``tuner``, ``perfmodel``,
``specs``, ``sim``, ``serve``) with wrappers that record one span per
call — name, start, end, parent span and request id — and restores the
originals afterwards.  A module that imported a callable by name gets
the wrapper too, because every ``repro`` module binding the original is
rebound.

Self time is a span's duration minus the time its child spans cover,
accumulated per span name on the thread that ran it.  Spans of one
served request share the request's id: the serve wrappers look the id
up by the request's bindings dict, and nested spans inherit it.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional


class _ThreadState:
    """One thread's span stack and accumulators (merged at the end)."""

    def __init__(self):
        self.stack: List[list] = []
        self.spans: List[tuple] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.entries: Dict[str, int] = defaultdict(int)
        self.durations: Dict[str, List[float]] = defaultdict(list)
        self.values: Dict[str, List[float]] = defaultdict(list)
        self.counts: Dict[str, int] = defaultdict(int)
        self.dropped = 0


class Tracer:
    """Records spans around wrapped callables; see the module docstring."""

    #: Span names whose per-call durations are kept (for percentiles).
    TIMED = ("serve.graph_key", "serve.replay")

    #: Spans kept per thread; later ones are counted as dropped.
    MAX_SPANS_PER_THREAD = 100_000

    def __init__(self):
        #: While False, wrappers call straight through (see :meth:`paused`).
        self.enabled = True
        self.origin = time.perf_counter()
        self._local = threading.local()
        self._threads: List[_ThreadState] = []
        self._threads_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._patches: List[tuple] = []
        self._requests: Dict[int, tuple] = {}

    # -- per-thread state ----------------------------------------------------
    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._threads_lock:
                self._threads.append(state)
        return state

    def count(self, name: str, n: int = 1) -> None:
        self._state().counts[name] += n

    def value(self, name: str, v: float) -> None:
        self._state().values[name].append(v)

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside the block (the benchmark's own checks)."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    # -- requests --------------------------------------------------------------
    def note_request(self, bindings: dict, request_id: int,
                     due: float) -> None:
        """Tie a submitted request's bindings dict to its id and due time.

        The dict itself is held so its ``id()`` cannot be reused while
        the entry exists.
        """
        self._requests[id(bindings)] = (bindings, request_id, due)

    def request_of(self, bindings) -> Optional[tuple]:
        entry = self._requests.get(id(bindings))
        return entry[1:] if entry is not None else None

    # -- wrapping --------------------------------------------------------------
    def wrap(self, name: str, fn: Callable, *, request_arg: int = -1,
             on_enter: Optional[Callable] = None,
             on_exit: Optional[Callable] = None) -> Callable:
        """``fn`` recording a span called ``name`` per call.

        ``request_arg`` is the position of a request's bindings dict, used
        to find the request id of a root span.  ``on_enter(args, kwargs,
        start, request)`` returns a token that ``on_exit(token, args,
        kwargs, result)`` receives after a successful call.
        """
        tracer = self
        layer = name.split(".", 1)[0]
        keep = name in self.TIMED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            state = tracer._state()
            stack = state.stack
            parent = stack[-1] if stack else None
            request = parent[3] if parent is not None else None
            if request is None and 0 <= request_arg < len(args):
                request = tracer.request_of(args[request_arg])
            start = time.perf_counter()
            token = (on_enter(args, kwargs, start, request)
                     if on_enter is not None else None)
            frame = [next(tracer._ids), start, 0.0, request, layer]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[2] += duration
                state.self_s[name] += duration - frame[2]
                state.calls[name] += 1
                if parent is None or parent[4] != layer:
                    state.entries[name] += 1
                if keep:
                    state.durations[name].append(duration)
                if len(state.spans) < tracer.MAX_SPANS_PER_THREAD:
                    state.spans.append((
                        frame[0], name, start, end,
                        parent[0] if parent is not None else None,
                        request[0] if request is not None else None))
                else:
                    state.dropped += 1
            if on_exit is not None:
                on_exit(token, args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, **hooks) -> None:
        """Replace ``owner.attr`` (a module or class) with a traced wrapper.

        For a module-level function every ``repro`` module that bound the
        same object is rebound too.
        """
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        if isinstance(original, classmethod):
            wrapped = classmethod(self.wrap(name, original.__func__,
                                            **hooks))
        else:
            wrapped = self.wrap(name, original, **hooks)
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))
        if isinstance(owner, type):
            return
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original and (module, key) != (owner, attr):
                    setattr(module, key, wrapped)
                    self._patches.append((module, key, original))
            for table in vars(module).values():
                if isinstance(table, dict):
                    for key, value in list(table.items()):
                        if value is original:
                            table[key] = wrapped
                            self._patches.append((table, key, original))

    def patch_instance(self, obj, attr: str, name: str) -> None:
        """Wrap a callable stored on one instance (not restored)."""
        setattr(obj, attr, self.wrap(name, getattr(obj, attr)))

    def restore(self) -> None:
        """Put every patched original back, newest first."""
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- results ---------------------------------------------------------------
    def merged(self) -> dict:
        """Every thread's accumulators summed into one dict of dicts."""
        out = {key: defaultdict(float) for key in ("self_s", "calls",
                                                   "entries", "counts")}
        lists = {key: defaultdict(list) for key in ("durations", "values")}
        dropped = spans = 0
        with self._threads_lock:
            states = list(self._threads)
        for state in states:
            for key in out:
                for name, v in getattr(state, key).items():
                    out[key][name] += v
            for key in lists:
                for name, v in getattr(state, key).items():
                    lists[key][name].extend(v)
            dropped += state.dropped
            spans += len(state.spans)
        out.update(lists)
        out["spans"] = spans
        out["dropped"] = dropped
        return out

    def write(self, path) -> None:
        """Write every kept span as JSON (times in µs from tracer start)."""
        with self._threads_lock:
            states = list(self._threads)
        names: Dict[str, int] = {}
        rows = []
        for state in states:
            for sid, name, start, end, parent, request in state.spans:
                idx = names.setdefault(name, len(names))
                rows.append([sid, idx, round((start - self.origin) * 1e6, 1),
                             round((end - self.origin) * 1e6, 1), parent,
                             request])
        rows.sort()
        with open(path, "w") as fh:
            json.dump({
                "columns": ["id", "name", "start_us", "end_us", "parent",
                            "request"],
                "names": list(names),
                "dropped": sum(s.dropped for s in states),
                "spans": rows,
            }, fh, separators=(",", ":"))


def _kernel_constructors():
    """(module, attr) of every public kernel constructor."""
    import repro.kernels as kernels

    found = [(kernels, "build")]
    for module_name in sorted(sys.modules):
        if not module_name.startswith("repro.kernels."):
            continue
        module = sys.modules[module_name]
        for attr, value in vars(module).items():
            if (callable(value) and getattr(value, "__module__", None)
                    == module_name and not isinstance(value, type)
                    and (attr in ("build", "from_tuned")
                         or attr.startswith("build_"))):
                found.append((module, attr))
    return found


def install(tracer: Tracer) -> None:
    """Wrap every traced layer's public callables; see the table in
    ``METRICS.md`` for which callable feeds which metric."""
    import repro.graph.fuse as fuse
    import repro.graph.lower as lower
    import repro.perfmodel.counts as counts
    import repro.perfmodel.model as model
    import repro.serve.graph as serve_graph
    import repro.sim.access as access
    import repro.specs.atomic as atomic
    import repro.tuner as tuner
    import repro.tuner.verify as verify
    from repro.serve import CapturedGraph
    from repro.sim import LaunchPlan, PlanCache, Profiler, Simulator

    tracer.patch(fuse, "partition", "graph.partition")
    tracer.patch(fuse, "schedule", "graph.partition")
    tracer.patch(lower, "lower_network", "graph.lower")

    for owner, attr in _kernel_constructors():
        tracer.patch(owner, attr, "kernels.build")

    def tuned(_token, _args, _kwargs, result):
        if result.search_stats:
            tracer.count("tuner.candidates", result.search_stats["evaluated"])
        tracer.count("tuner.gated", len(result.gate_results))
        tracer.count("tuner.gate_passed",
                     sum(1 for g in result.gate_results if g.passed))

    tracer.patch(tuner, "tune", "tuner.tune", on_exit=tuned)
    tracer.patch(verify, "run_gate", "tuner.gate")

    tracer.patch(model, "estimate_kernel", "perfmodel.estimate")
    tracer.patch(counts, "count_kernel", "perfmodel.estimate")
    for attr in ("estimate_kernel", "estimate_counts"):
        tracer.patch(model.PerfModel, attr, "perfmodel.estimate")

    tracer.patch(atomic, "match_atomic", "specs.match_atomic")
    tracer.patch(atomic.AtomicSpec, "matches", "specs.matches")

    tracer.patch(Simulator, "run", "sim.run")

    def lookup_enter(args, _kwargs, _start, _request):
        return args[0].stats.misses

    def lookup_exit(misses_before, args, _kwargs, _result):
        hit = args[0].stats.misses == misses_before
        tracer.count("sim.plan_cache.hits" if hit else "sim.plan_cache.misses")

    tracer.patch(PlanCache, "lookup", "sim.plan_cache",
                 on_enter=lookup_enter, on_exit=lookup_exit)
    tracer.patch(LaunchPlan, "__init__", "sim.plan_compile")
    tracer.patch(LaunchPlan, "replay", "sim.replay")
    for attr in ("record", "end_exec", "apply_exec", "finish"):
        tracer.patch(Profiler, attr, "sim.profiler")
    tracer.patch(access, "accessor", "sim.index_compile")
    tracer.patch(access, "compile_expr", "sim.index_compile")

    tracer.patch(serve_graph, "graph_key", "serve.graph_key", request_arg=3)

    def replay_enter(args, kwargs, start, request):
        graph = args[0]
        observed = (graph.options.sanitize or graph.options.profile
                    or kwargs.get("sanitize") or kwargs.get("profile"))
        tracer.count("serve.replay.trace"
                     if graph.trace is not None and not observed
                     else "serve.replay.exact")
        if request is not None:
            tracer.value("serve.queue_wait", start - request[1])

    tracer.patch(CapturedGraph, "replay", "serve.replay", request_arg=1,
                 on_enter=replay_enter)
    tracer.patch(CapturedGraph, "capture", "serve.capture", request_arg=4)
