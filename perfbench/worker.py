"""The process under test: one cold derivation pass, one report, or a server.

``run.py`` starts this script in a fresh interpreter for every unit of work,
with ``src`` on ``PYTHONPATH`` and every ``REPRO_*`` knob unset, and passes
the job as one JSON argument.  The worker prints JSON lines on stdout:

* ``{"event": "ready", ...}`` once its imports (and, for ``serve``, the
  listening socket) are done — the end of set-up;
* ``{"event": "result", ...}`` with timings, outputs and counters.

A ``serve`` worker runs until its stdin closes, then drains the server and
prints its result.  With ``"trace": true`` the layer wrappers of
``tracer.py`` are installed before the timed part.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _environment() -> dict:
    """Versions and resolved backends, as this interpreter sees them."""
    from importlib.metadata import PackageNotFoundError, version

    from repro import rel
    from repro.sets import backend, counting, memo

    def installed(package: str) -> str | None:
        try:
            return version(package)
        except PackageNotFoundError:
            return None

    return {
        "python": sys.version.split()[0],
        "numpy": installed("numpy"),
        "sympy": installed("sympy"),
        "sets_backend": backend.get_backend().name,
        "count_backend": counting.count_backend(),
        "rel_backend": rel.get_backend().name,
        "sets_memo": memo.memo_enabled(),
        "executor": "serial",
    }


def _start_tracer(job: dict):
    if not job.get("trace"):
        return None
    sys.path.insert(0, HERE)
    import tracer

    active = tracer.Tracer()
    tracer.install(active)
    return active


def _counters() -> dict:
    """Process-wide counters the per-layer table reads as deltas."""
    from repro.analysis.scheduler import derivation_count, task_derivation_count
    from repro.upper.search import simulation_count

    return {
        "derivations": derivation_count(),
        "task_derivations": task_derivation_count(),
        "simulations": simulation_count(),
    }


def _memo_caches() -> dict:
    from repro import perf

    return {c.name: [c.hits, c.misses] for c in perf.snapshot().caches}


def _layer_report(active, before: dict | None, store=None) -> dict | None:
    """Everything a traced run turns into per-layer metrics."""
    if active is None:
        return None
    after = _counters()
    report = {
        "trace": active.summary(),
        "counters": {name: after[name] - before[name] for name in after},
        "memo": _memo_caches(),
        "store": None,
    }
    if store is not None:
        stats = store.stats(quick=True)
        report["store"] = {"hits": stats.hits, "misses": stats.misses, "writes": stats.writes}
    return report


def _finish_trace(active, job: dict) -> None:
    if active is not None and job.get("trace_file"):
        active.write_chrome_trace(job["trace_file"])


def run_setup(job: dict) -> None:
    """Set-up only: the imports every worker of this workload does."""
    _import_for(job["for"])
    _emit({"event": "ready"})
    _emit({"event": "result"})


def _import_for(mode: str) -> None:
    if mode == "derive":
        import repro.polybench  # noqa: F401
    elif mode == "report":
        import repro.analysis  # noqa: F401
        import repro.upper  # noqa: F401
    else:
        import repro.service  # noqa: F401


def run_derive(job: dict) -> None:
    """One cold pass: derive each kernel in turn, no store."""
    _import_for("derive")
    from repro.polybench import analyze_suite
    import sympy

    active = _start_tracer(job)
    before = _counters() if active is not None else None
    _emit({"event": "ready"})
    latencies, cpu_latencies = [], []
    results = []
    start, cpu_start = time.perf_counter(), time.process_time()
    for name in job["kernels"]:
        began, cpu_began = time.perf_counter(), time.process_time()
        (analysis,) = analyze_suite([name], store=None, executor="serial")
        latencies.append(time.perf_counter() - began)
        cpu_latencies.append(time.process_time() - cpu_began)
        results.append(analysis)
    end, cpu_end = time.perf_counter(), time.process_time()
    rss = _peak_rss_mb()
    if active is not None:
        active.window = (start, end)
    layers = _layer_report(active, before)
    outputs = {
        analysis.spec.name: {
            "asymptotic": sympy.sstr(analysis.result.asymptotic),
            "oi_upper": sympy.sstr(analysis.oi_upper),
        }
        for analysis in results
    }
    _finish_trace(active, job)
    _emit({
        "event": "result",
        "wall_s": end - start,
        "cpu_s": cpu_end - cpu_start,
        "latencies_s": latencies,
        "cpu_latencies_s": cpu_latencies,
        "peak_rss_mb": rss,
        "outputs": outputs,
        "layers": layers,
        "env": _environment(),
    })


def run_report(job: dict) -> None:
    """One cold tightness report, kernel by kernel, over a bounds-only store."""
    _import_for("report")
    from repro.analysis import BoundStore
    from repro.upper import tightness_report

    store = BoundStore(job["store"])
    active = _start_tracer(job)
    before = _counters() if active is not None else None
    _emit({"event": "ready"})
    latencies, cpu_latencies = [], []
    rows = []
    start, cpu_start = time.perf_counter(), time.process_time()
    for name in job["kernels"]:
        began, cpu_began = time.perf_counter(), time.process_time()
        report = tightness_report(
            [name],
            cache_words=job["cache_words"],
            store=store,
            executor="serial",
            target=job["target"],
            max_candidates=job["max_candidates"],
        )
        latencies.append(time.perf_counter() - began)
        cpu_latencies.append(time.process_time() - cpu_began)
        for row in report.rows:
            rows.append({**row.to_dict(), "derivations": report.derivations})
    end, cpu_end = time.perf_counter(), time.process_time()
    rss = _peak_rss_mb()
    if active is not None:
        active.window = (start, end)
    layers = _layer_report(active, before, store)
    _finish_trace(active, job)
    _emit({
        "event": "result",
        "wall_s": end - start,
        "cpu_s": cpu_end - cpu_start,
        "latencies_s": latencies,
        "cpu_latencies_s": cpu_latencies,
        "peak_rss_mb": rss,
        "rows": rows,
        "layers": layers,
        "env": _environment(),
    })


def run_serve(job: dict) -> None:
    """A TCP server over a copied store until stdin closes, then its stats."""
    _import_for("serve")
    from repro.analysis import BoundStore
    from repro.service import AnalysisService, ServiceServer

    store = BoundStore(job["store"])
    request_cpu = _time_requests(AnalysisService)
    active = _start_tracer(job)
    before = _counters() if active is not None else None
    service = AnalysisService(store=store, executor="serial")
    server = ServiceServer(("127.0.0.1", 0), service)
    serving = threading.Thread(target=server.serve_forever, name="serve")
    serving.start()
    started, cpu_started = time.perf_counter(), time.process_time()
    _emit({"event": "ready", "port": server.server_address[1]})
    try:
        sys.stdin.read()  # the benchmark closes stdin to stop the server
        end, cpu_end = time.perf_counter(), time.process_time()
    finally:
        server.shutdown()
        serving.join()
        server.server_close()  # joins every handler thread: a full drain
        service.close()
    rss = _peak_rss_mb()
    if active is not None:
        active.window = (started, end)
    layers = _layer_report(active, before, store)
    _finish_trace(active, job)
    _emit({
        "event": "result",
        "cpu_s": cpu_end - cpu_started,
        "request_cpu_s": request_cpu,
        "peak_rss_mb": rss,
        "layers": layers,
        "env": _environment(),
    })


def _time_requests(service_class) -> dict:
    """Record each request's CPU time in the thread that serves it.

    Keyed by request id; a request sent again keeps its last answer's time.
    Thread CPU time leaves out time the thread waits (for the GIL, the
    socket, or a host that has taken the CPU away), which wall time counts.
    """
    original = service_class.handle_request
    spent: dict = {}

    def handle_request(self, line):
        began = time.thread_time()
        try:
            yield from original(self, line)
        finally:
            try:
                request_id = json.loads(line).get("id")
            except (ValueError, AttributeError):
                request_id = None
            spent[request_id] = time.thread_time() - began

    service_class.handle_request = handle_request
    return spent


def run_fill(job: dict) -> None:
    """Fill a store with every registered kernel's bound (cold, serial)."""
    from repro.analysis import BoundStore
    from repro.polybench import analyze_suite, kernel_names

    _emit({"event": "ready"})
    names = kernel_names()
    analyze_suite(names, store=BoundStore(job["store"]), executor="serial")
    _emit({"event": "result", "kernels": names})


MODES = {
    "setup": run_setup,
    "derive": run_derive,
    "report": run_report,
    "serve": run_serve,
    "fill": run_fill,
}

if __name__ == "__main__":
    job = json.loads(sys.argv[1])
    MODES[job["mode"]](job)
