"""Set-algebra hot-path attribution and the optimised-vs-reference speedup.

Two measurements over cold full-suite derivations:

* **Attribution** — one in-process serial run of the whole PolyBench suite
  with :mod:`repro.perf` counting wall-time per subsystem (linear algebra,
  Fourier-Motzkin, counting, relation closure, pebble simulation) and
  hit/miss rates for every memo cache.  The tables are written to
  ``benchmarks/out/profile_subsystems.md`` and
  ``benchmarks/out/profile_memo_caches.md`` — this is the data that decided
  which loops got memoisation and vectorised kernels in the first place
  (rational linear algebra dominates: the subspace-lattice closure of
  Lemma 3.12 is the derivation's hot loop).

* **Speedup** — the same suite derived cold in two fresh subprocesses: once
  with every optimisation off, once with the defaults (kernels + memo).
  The reference leg's child patches the reference implementations in
  before deriving (``_REFERENCE_PATCHES``: textbook ``Fraction`` RREF, and
  the vectorised Fourier-Motzkin and enumeration kernels made to decline,
  so the pure pair loop and ``enumerate_points_pure`` run) and sets
  ``REPRO_SETS_MEMO=0``, which disables the content-hash caches *and* the
  on-object constraint canonical-form caching.  The two legs must produce
  byte-identical bounds — the optimised layer is perf-only — and the fast
  leg must be >= ``TARGET_SPEEDUP`` times faster
  (``benchmarks/out/profile_speedup.md``).

Methodology notes: fresh subprocesses for the speedup (in-process
back-to-back runs would share sympy's warmed global caches); the speedup
assertion is skipped on single-core containers, where scheduler contention
drowns the signal — the tables are still written for inspection.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pytest

from conftest import write_markdown_table

#: Cold-suite speedup the optimised path (memo + vectorised kernels) must
#: reach over the reference path on a machine with cores to spare.
TARGET_SPEEDUP = 1.5

#: Prepended to the reference leg's child: swap in the reference loops.
_REFERENCE_PATCHES = """
from repro.linalg import rational
from repro.sets.backend import NumpySetBackend
rational._rref_fraction_free = rational._rref_reference
NumpySetBackend.fm_combine = lambda self, lower, upper: None
NumpySetBackend.enumerate_points = lambda self, basic_set, params, bound: None
"""

_CHILD_SNIPPET = """
import json, time
import sympy
from repro.polybench.suite import analyze_suite
start = time.perf_counter()
analyses = analyze_suite(store=None, executor="serial")
wall = time.perf_counter() - start
bounds = {a.spec.name: sympy.sstr(a.result.expression) for a in analyses}
print(json.dumps({"seconds": wall, "bounds": bounds}))
"""


def _available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _suite_cold(overrides: dict[str, str], reference: bool = False) -> tuple[float, dict[str, str]]:
    """Cold full-suite derivation in a fresh interpreter; (wall, bounds)."""
    env = dict(os.environ)
    env.pop("REPRO_SETS_MEMO", None)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(os.path.dirname(__file__), "..", "src"),
                      env.get("PYTHONPATH")])
    )
    env.update(overrides)
    output = subprocess.run(
        [sys.executable, "-c", (_REFERENCE_PATCHES if reference else "") + _CHILD_SNIPPET],
        env=env, check=True, capture_output=True, text=True,
    )
    payload = json.loads(output.stdout.strip().splitlines()[-1])
    return float(payload["seconds"]), payload["bounds"]


def test_subsystem_attribution():
    """Profile the whole suite cold, in-process, and tabulate the shares."""
    from repro import perf
    from repro.polybench.suite import analyze_suite
    from repro.sets import memo

    perf.reset()
    memo.clear_all()
    start = time.perf_counter()
    analyze_suite(store=None, executor="serial")
    wall = time.perf_counter() - start
    snapshot = perf.snapshot()

    rows = []
    for timing in snapshot.timings:
        rows.append({
            "subsystem": timing.name,
            "calls": timing.calls,
            "inclusive (s)": round(timing.inclusive_s, 2),
            "exclusive (s)": round(timing.exclusive_s, 2),
            "share of wall": f"{100.0 * timing.exclusive_s / wall:.1f}%",
        })
    rows.append({
        "subsystem": "(wall)", "calls": "",
        "inclusive (s)": round(wall, 2), "exclusive (s)": round(wall, 2),
        "share of wall": "100.0%",
    })
    path = write_markdown_table("profile_subsystems", rows)

    cache_rows = [{
        "cache": c.name, "hits": c.hits, "misses": c.misses,
        "hit rate": f"{100.0 * c.hit_rate:.1f}%", "entries": c.size,
    } for c in snapshot.caches]
    cache_path = write_markdown_table("profile_memo_caches", cache_rows)
    print(f"wrote {path} and {cache_path}")

    # Exclusive columns partition instrumented time: they can never sum past
    # the wall clock (small tolerance for timer granularity).
    assert snapshot.total_exclusive_s <= wall * 1.05
    linalg = snapshot.timing("linalg")
    assert linalg is not None and linalg.calls > 0
    # Memoisation must actually engage on the suite.
    assert snapshot.memo_hits > 0


def test_optimised_path_speedup():
    """Cold suite: defaults vs reference path — identical bounds, faster."""
    slow_s, slow_bounds = _suite_cold({"REPRO_SETS_MEMO": "0"}, reference=True)
    fast_s, fast_bounds = _suite_cold({})

    speedup = slow_s / fast_s if fast_s > 0 else 1.0
    write_markdown_table("profile_speedup", [{
        "leg": "reference (reference loops, memo off)",
        "wall (s)": round(slow_s, 2), "speedup": "1.00x",
    }, {
        "leg": "optimised (kernels, memo on)",
        "wall (s)": round(fast_s, 2), "speedup": f"{speedup:.2f}x",
    }])

    # Byte-identical bounds across the legs: the optimised layer may never
    # change a derived formula, whatever the timing says.
    assert fast_bounds == slow_bounds

    cores = _available_cores()
    if cores < 2:
        pytest.skip(
            f"only {cores} CPU core(s) available: timing too contended for a "
            f"reliable speedup assertion (measured {speedup:.2f}x; table "
            "written for inspection)"
        )
    assert speedup >= TARGET_SPEEDUP, (
        f"expected the optimised set-algebra path to be >= {TARGET_SPEEDUP}x "
        f"faster on the cold suite, got {speedup:.2f}x "
        f"({slow_s:.1f}s -> {fast_s:.1f}s)"
    )
