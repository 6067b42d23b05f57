"""The topological fallback of schedule generators is observable (PR 6).

``tiled_schedule`` / ``lexicographic_schedule`` fall back to a plain
topological order when the requested order violates a dependence; since PR 6
the fallback is visible (``Schedule.used_fallback`` plus a
``TilingFallbackWarning``) so the tiling search can skip schedules that do
not realise the tiling they were asked for.  Each fallback also counts as
the ``pebble.tiling_fallback`` event of ``repro.perf``, and a CDAG sorts the
fallback's topological order only once.
"""

import warnings

import networkx as nx
import pytest

from repro import perf
from repro.ir import CDAG, ProgramBuilder
from repro.pebble import (
    Schedule,
    TilingFallbackWarning,
    lexicographic_schedule,
    tiled_schedule,
    topological_schedule,
)
from repro.polybench import get_kernel
from repro.upper.search import tile_sizes_for


def antidiagonal_program():
    """S[t, i] reads S[t-1, i+1]: rectangular t-tiling is illegal.

    With 2x2 tiles, sink S[1, 1] (tile (0, 0)) reads source S[0, 2] (tile
    (0, 1)) — the source's tile executes *after* the sink's, so the tiled
    order violates the dependence; tiles of t-extent 1 are legal.
    """
    return (
        ProgramBuilder("antidiag", ["T", "N"])
        .add_array("[T, N] -> { a[i] : 0 <= i < 1 }")
        .add_statement("[T, N] -> { S[t, i] : 0 <= t < T and 0 <= i < N }")
        .add_dependence(
            "[T, N] -> { S[t, i] -> S[t - 1, i + 1] : 1 <= t < T and 0 <= i < N - 1 }"
        )
        .add_dependence("[T, N] -> { S[t, i] -> a[i] : t = 0 and i = 0 }")
        .build()
    )


def reversed_chain_program():
    """S[i] reads S[i+1]: the lexicographic order itself is illegal."""
    return (
        ProgramBuilder("revchain", ["N"])
        .add_array("[N] -> { a[i] : 0 <= i < 1 }")
        .add_statement("[N] -> { S[i] : 0 <= i < N }")
        .add_dependence("[N] -> { S[i] -> S[i + 1] : 0 <= i < N - 1 }")
        .add_dependence("[N] -> { S[i] -> a[i] : i = N - 1 }")
        .build()
    )


@pytest.fixture
def antidiag_cdag():
    return CDAG.expand(antidiagonal_program(), {"T": 4, "N": 4})


class TestFallbackObservable:
    def test_illegal_tiling_sets_flag_and_warns(self, antidiag_cdag):
        with pytest.warns(TilingFallbackWarning):
            schedule = tiled_schedule(antidiag_cdag, {"S": (2, 2)})
        assert schedule.used_fallback
        assert schedule.requested == "tiled"
        # The fallback is still a legal schedule — just not the tiling.
        assert antidiag_cdag.is_valid_schedule(schedule)

    def test_warn_false_suppresses_the_warning(self, antidiag_cdag):
        with warnings.catch_warnings():
            warnings.simplefilter("error", TilingFallbackWarning)
            schedule = tiled_schedule(antidiag_cdag, {"S": (2, 2)}, warn=False)
        assert schedule.used_fallback

    def test_legal_tiling_does_not_fall_back(self, antidiag_cdag):
        with warnings.catch_warnings():
            warnings.simplefilter("error", TilingFallbackWarning)
            schedule = tiled_schedule(antidiag_cdag, {"S": (1, 2)})
        assert not schedule.used_fallback
        assert schedule.requested == "tiled"
        assert antidiag_cdag.is_valid_schedule(schedule)

    def test_lexicographic_fallback_observable(self):
        cdag = CDAG.expand(reversed_chain_program(), {"N": 5})
        with pytest.warns(TilingFallbackWarning):
            schedule = lexicographic_schedule(cdag)
        assert schedule.used_fallback
        assert schedule.requested == "lexicographic"
        assert cdag.is_valid_schedule(schedule)

    def test_valid_lexicographic_keeps_flag_clear(self, antidiag_cdag):
        with warnings.catch_warnings():
            warnings.simplefilter("error", TilingFallbackWarning)
            schedule = lexicographic_schedule(antidiag_cdag)
        assert not schedule.used_fallback

    def test_topological_schedule_never_falls_back(self, antidiag_cdag):
        schedule = topological_schedule(antidiag_cdag)
        assert isinstance(schedule, Schedule)
        assert not schedule.used_fallback
        assert schedule.requested == "topological"

    def test_schedule_behaves_like_a_list(self, antidiag_cdag):
        schedule = topological_schedule(antidiag_cdag)
        assert isinstance(schedule, list)
        assert len(schedule) == len(antidiag_cdag.compute_vertices())
        assert schedule[:3] == list(schedule)[:3]


def fallback_events(program, instance, shape) -> int:
    """How many ``pebble.tiling_fallback`` events one tiled schedule records."""
    cdag = CDAG.expand(program, instance)
    before = perf.snapshot().event("pebble.tiling_fallback")
    tiled_schedule(cdag, tile_sizes_for(program, shape), warn=False)
    return perf.snapshot().event("pebble.tiling_fallback") - before


class TestFallbackEvent:
    def test_time_tiled_stencil_records_the_event(self):
        program = get_kernel("jacobi-2d").program
        assert fallback_events(program, {"T": 4, "N": 8}, (2, 4, 4)) > 0

    def test_legal_gemm_tiling_records_nothing(self):
        program = get_kernel("gemm").program
        assert fallback_events(program, {"Ni": 6, "Nj": 6, "Nk": 6}, (2, 2, 2)) == 0

    def test_fallback_order_is_sorted_once_per_cdag(self, antidiag_cdag, monkeypatch):
        calls = []
        real = nx.topological_sort
        monkeypatch.setattr(nx, "topological_sort", lambda graph: calls.append(1) or real(graph))
        first = tiled_schedule(antidiag_cdag, {"S": (2, 2)}, warn=False)
        second = tiled_schedule(antidiag_cdag, {"S": (4, 2)}, warn=False)
        assert first.used_fallback and second.used_fallback
        assert first == second == topological_schedule(antidiag_cdag)
        assert len(calls) == 1
