"""Out-of-program tracing: wrap layer entry points, keep spans in memory.

The benchmark times each layer from outside the program.  :func:`install`
replaces every entry point named in :data:`ENTRIES` with a wrapper that
records a span (name, start, end, parent span, request id) and adds the
call to per-thread totals.  A layer's *self time* is its spans' duration
minus the part covered by its child spans.

Layer functions are imported by name into other modules (for example
``repro.core.kpartition.subspace_closure``), so a module-level function is
patched at **every** binding in every loaded ``repro`` module that holds
the same object; methods are patched once, on their class.  The coverage
check in ``run.py`` then fails a traced run in which an entry expected on
the workload recorded no calls, so a wrapper on the wrong binding cannot
silently read 0.

Generator entry points (``schedule_work``, ``handle_request``) are timed per
resume: only the time spent inside the generator counts, not the time its
consumer spends between two items.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import pkgutil
import sys
import threading
from time import perf_counter

#: (metric prefix, module, attribute path) of every wrapped entry point.
#: ``rel.backend.*`` resolves to the class of ``repro.rel.get_backend()``.
ENTRIES = (
    ("linalg.lattice.subspace_closure", "repro.linalg.lattice", "subspace_closure"),
    ("sets.fourier_motzkin.project_out", "repro.sets.fourier_motzkin", "project_out"),
    ("sets.fourier_motzkin.basic_set_is_empty", "repro.sets.fourier_motzkin",
     "basic_set_is_empty"),
    ("sets.counting.card", "repro.sets.counting", "card"),
    ("sets.counting.card_upper", "repro.sets.counting", "card_upper"),
    ("core.paths.genpaths", "repro.core.paths", "genpaths"),
    ("core.brascamp_lieb.solve_exponents", "repro.core.brascamp_lieb", "solve_exponents"),
    ("core.interference.coeff_interf", "repro.core.interference", "coeff_interf"),
    ("core.decomposition.combine_sub_q", "repro.core.decomposition", "combine_sub_q"),
    ("analysis.strategies.KPartitionStrategy.run_task", "repro.analysis.strategies",
     "KPartitionStrategy.run_task"),
    ("analysis.strategies.WavefrontStrategy.run_task", "repro.analysis.strategies",
     "WavefrontStrategy.run_task"),
    ("rel.backend.check_reachability", "repro.rel.backend", "*.check_reachability"),
    ("rel.closure.transitive_closure", "repro.rel.closure", "transitive_closure"),
    ("pebble.cache.simulate_schedule", "repro.pebble.cache", "simulate_schedule"),
    ("pebble.schedules.tiled_schedule", "repro.pebble.schedules", "tiled_schedule"),
    ("pebble.schedules.lexicographic_schedule", "repro.pebble.schedules",
     "lexicographic_schedule"),
    ("upper.search.cdag_for", "repro.upper.search", "cdag_for"),
    ("ir.cdag.CDAG.expand", "repro.ir.cdag", "CDAG.expand"),
    ("analysis.store.BoundStore.get", "repro.analysis.store", "BoundStore.get"),
    ("analysis.store.BoundStore.put", "repro.analysis.store", "BoundStore.put"),
    ("analysis.store.BoundStore.get_task", "repro.analysis.store", "BoundStore.get_task"),
    ("analysis.store.BoundStore.put_task", "repro.analysis.store", "BoundStore.put_task"),
    ("analysis.store.BoundStore.get_simulation", "repro.analysis.store",
     "BoundStore.get_simulation"),
    ("analysis.store.BoundStore.put_simulation", "repro.analysis.store",
     "BoundStore.put_simulation"),
    ("core.bounds.IOBoundResult.from_dict", "repro.core.bounds", "IOBoundResult.from_dict"),
    ("core.bounds.IOBoundResult.to_dict", "repro.core.bounds", "IOBoundResult.to_dict"),
    ("service.AnalysisService.handle_request", "repro.service",
     "AnalysisService.handle_request"),
    ("analysis.scheduler.schedule_work", "repro.analysis.scheduler", "schedule_work"),
)

#: Kernel-definition modules register PolyBench kernels when imported.  They
#: are never imported up front: the server's lazy registry load, and its
#: startup race, must stay as it is without tracing.
_NOT_PRELOADED = {
    "repro.__main__",
    "repro.polybench.blas",
    "repro.polybench.datamining",
    "repro.polybench.solvers",
    "repro.polybench.stencils",
}

_CLOSURE = "linalg.lattice.subspace_closure"
_REQUEST = "service.AnalysisService.handle_request"


class _ThreadState:
    __slots__ = ("tid", "stack", "calls", "self_s", "spans", "top", "request", "rejects")

    def __init__(self, size: int):
        self.tid = threading.get_ident()
        self.stack: list[list] = []  # [entry index, start, child time, span id]
        self.calls = [0] * size
        self.self_s = [0.0] * size
        self.spans: list[tuple] = []
        self.top: list[tuple[float, float]] = []  # intervals of top-level spans
        self.request = None
        self.rejects = 0


class Tracer:
    """Per-thread span stacks and totals, merged when the run ends."""

    def __init__(self, span_cap: int = 100_000):
        self.names = [prefix for prefix, _, _ in ENTRIES]
        self.span_cap = span_cap
        self.epoch = perf_counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self.window: tuple[float, float] | None = None

    # -- recording ------------------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(len(self.names))
            with self._lock:
                self._states.append(state)
            self._local.state = state
        return state

    def _enter(self, state: _ThreadState, index: int) -> None:
        state.stack.append([index, perf_counter(), 0.0, next(self._ids)])

    def _leave(self, state: _ThreadState, count: bool) -> None:
        end = perf_counter()
        index, start, child, span_id = state.stack.pop()
        duration = end - start
        state.self_s[index] += duration - child
        if count:
            state.calls[index] += 1
        if state.stack:
            parent = state.stack[-1]
            parent[2] += duration
            parent_id = parent[3]
        else:
            parent_id = None
            state.top.append((start, end))
        if len(state.spans) < self.span_cap:
            state.spans.append((span_id, index, start, end, parent_id, state.request))

    def _wrap_function(self, fn, index: int):
        tracer = self

        if self.names[index] == _CLOSURE:
            # A rejection is changed=False for a kernel not already in the
            # lattice: the closure blew past its cap or its deadline.
            @functools.wraps(fn)
            def closure_wrapper(lattice, new_kernel, *args, **kwargs):
                state = tracer._state()
                known = len(lattice) > 0 and new_kernel in lattice
                tracer._enter(state, index)
                try:
                    result = fn(lattice, new_kernel, *args, **kwargs)
                finally:
                    tracer._leave(state, True)
                if not result[1] and not known:
                    state.rejects += 1
                return result

            return closure_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = tracer._state()
            tracer._enter(state, index)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._leave(state, True)

        return wrapper

    def _wrap_generator(self, fn, index: int):
        tracer = self
        is_request = self.names[index] == _REQUEST

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            request = _request_id(args[-1]) if is_request and args else None
            counted = finished = False
            try:
                while True:
                    state = tracer._state()
                    outer_request = state.request
                    if is_request:
                        state.request = request
                    tracer._enter(state, index)
                    try:
                        item = next(inner)
                    except BaseException:
                        finished = True  # StopIteration included
                        raise
                    finally:
                        tracer._leave(state, not counted)
                        counted = True
                        state.request = outer_request
                    yield item
            except StopIteration as stop:
                return stop.value
            finally:
                if not finished:
                    # Abandoned by its consumer: time the inner clean-up.
                    state = tracer._state()
                    tracer._enter(state, index)
                    try:
                        inner.close()
                    finally:
                        tracer._leave(state, False)

        return wrapper

    # -- results --------------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """``{prefix: {"calls", "self_s"}}`` summed over every thread."""
        totals = {name: {"calls": 0, "self_s": 0.0} for name in self.names}
        with self._lock:
            states = list(self._states)
        for state in states:
            for index, name in enumerate(self.names):
                totals[name]["calls"] += state.calls[index]
                totals[name]["self_s"] += state.self_s[index]
        return totals

    def closure_rejects(self) -> int:
        with self._lock:
            return sum(state.rejects for state in self._states)

    def covered_s(self, start: float, end: float) -> float:
        """Time in ``[start, end]`` covered by at least one top-level span."""
        with self._lock:
            intervals = sorted(
                (max(a, start), min(b, end))
                for state in self._states
                for a, b in state.top
                if b > start and a < end
            )
        covered = 0.0
        current_start = current_end = None
        for a, b in intervals:
            if current_end is None or a > current_end:
                if current_end is not None:
                    covered += current_end - current_start
                current_start, current_end = a, b
            else:
                current_end = max(current_end, b)
        if current_end is not None:
            covered += current_end - current_start
        return covered

    def summary(self) -> dict:
        """What a worker sends back: totals, rejections and coverage."""
        with self._lock:
            spans = sum(len(state.spans) for state in self._states)
        start, end = self.window if self.window else (self.epoch, perf_counter())
        return {
            "entries": self.totals(),
            "closure_rejects": self.closure_rejects(),
            "window_s": end - start,
            "covered_s": self.covered_s(start, end),
            "spans": spans,
        }

    def write_chrome_trace(self, path: str) -> int:
        """Write every kept span as Chrome trace-event JSON; returns the count."""
        pid = os.getpid()
        events = []
        with self._lock:
            states = list(self._states)
        for state in states:
            for span_id, index, start, end, parent_id, request in state.spans:
                name = self.names[index]
                args = {"span": span_id, "parent": parent_id}
                if request is not None:
                    args["request"] = request
                events.append({
                    "name": name,
                    "cat": name.split(".", 1)[0],
                    "ph": "X",
                    "ts": round((start - self.epoch) * 1e6, 3),
                    "dur": round((end - start) * 1e6, 3),
                    "pid": pid,
                    "tid": state.tid,
                    "args": args,
                })
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as stream:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, stream)
        return len(events)


def _request_id(line):
    """The ``id`` of a service request line, for tagging its spans."""
    try:
        request = json.loads(line)
    except (TypeError, ValueError):
        return None
    return request.get("id") if isinstance(request, dict) else None


def _preload() -> None:
    """Import every ``repro`` module that may hold a binding to patch."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name not in _NOT_PRELOADED and not info.name.startswith("repro.fuzz"):
            importlib.import_module(info.name)


def _resolve(module_name: str, path: str):
    """(owner, attribute, raw attribute value) of one entry point."""
    module = importlib.import_module(module_name)
    owner_name, _, attribute = path.rpartition(".")
    if owner_name == "*":
        from repro.rel import get_backend

        owner = type(get_backend())
    elif owner_name:
        owner = getattr(module, owner_name)
    else:
        owner = module
    raw = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
    return owner, attribute, raw


def install(tracer: Tracer) -> None:
    """Patch every entry point at every binding that holds it."""
    _preload()
    for index, (_, module_name, path) in enumerate(ENTRIES):
        owner, attribute, raw = _resolve(module_name, path)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if kind else raw
        if inspect.isgeneratorfunction(fn):
            wrapped = tracer._wrap_generator(fn, index)
        else:
            wrapped = tracer._wrap_function(fn, index)
        if isinstance(owner, type):
            setattr(owner, attribute, kind(wrapped) if kind else wrapped)
            continue
        for name, module in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")) or module is None:
                continue
            for binding, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, binding, wrapped)
