"""The cache simulator against the original quadratic replacement policies.

``ReferenceLRUPolicy``, ``ReferenceBeladyPolicy`` and ``reference_simulate``
are the simulator as it stood before the policies kept their own indexes:
LRU rescans the whole touch history on every eviction, and Belady pops the
head of a use list and scans every resident value.  They are slow but
obviously correct, so they stay here as the oracle: ``simulate_schedule``
must report the same loads *and* evictions on every cell, under both
policies.
"""

from __future__ import annotations

import warnings
from collections import OrderedDict, defaultdict

import pytest

from repro.ir import CDAG, Vertex
from repro.pebble import (
    TilingFallbackWarning,
    lexicographic_schedule,
    simulate_schedule,
    tiled_schedule,
    topological_schedule,
)
from repro.pebble.game import GameState, Move
from repro.polybench import get_kernel
from repro.upper.search import tile_sizes_for

from .conftest import random_cdag


class ReferenceLRUPolicy:
    def __init__(self) -> None:
        self.last_use: "OrderedDict[Vertex, int]" = OrderedDict()

    def touch(self, vertex: Vertex, time: int) -> None:
        self.last_use[vertex] = time
        self.last_use.move_to_end(vertex)

    def choose_victim(self, resident: set[Vertex], protected: set[Vertex], time: int) -> Vertex:
        for vertex in self.last_use:
            if vertex in resident and vertex not in protected:
                return vertex
        # Fall back to any unprotected resident value.
        for vertex in resident:
            if vertex not in protected:
                return vertex
        raise RuntimeError("no evictable value: cache too small for one operation")


class ReferenceBeladyPolicy:
    """Optimal (furthest-next-use) replacement, given the whole schedule."""

    def __init__(self, future_uses: dict[Vertex, list[int]]):
        self.future_uses = future_uses

    def touch(self, vertex: Vertex, time: int) -> None:
        uses = self.future_uses.get(vertex)
        while uses and uses[0] <= time:
            uses.pop(0)

    def choose_victim(self, resident: set[Vertex], protected: set[Vertex], time: int) -> Vertex:
        best_vertex = None
        best_next_use = -1
        for vertex in resident:
            if vertex in protected:
                continue
            uses = self.future_uses.get(vertex, [])
            next_use = uses[0] if uses else float("inf")
            if next_use > best_next_use:
                best_next_use = next_use
                best_vertex = vertex
        if best_vertex is None:
            raise RuntimeError("no evictable value: cache too small for one operation")
        return best_vertex


def reference_simulate(
    cdag: CDAG, schedule: list[Vertex], capacity: int, policy: str
) -> tuple[int, int]:
    """The original simulation loop; returns ``(loads, evictions)``."""
    if policy == "lru":
        replacement = ReferenceLRUPolicy()
    else:
        future_uses: dict[Vertex, list[int]] = defaultdict(list)
        for time, vertex in enumerate(schedule):
            for operand in cdag.graph.predecessors(vertex):
                future_uses[operand].append(time)
        replacement = ReferenceBeladyPolicy(dict(future_uses))

    state = GameState(cdag, capacity)
    evictions = 0

    for time, vertex in enumerate(schedule):
        operands = list(cdag.graph.predecessors(vertex))
        protected = set(operands) | {vertex}
        for operand in operands:
            if operand in state.red:
                replacement.touch(operand, time)
                continue
            if len(state.red) >= capacity:
                victim = replacement.choose_victim(state.red, protected, time)
                state.apply(Move("evict", victim))
                evictions += 1
            state.apply(Move("load", operand))
            replacement.touch(operand, time)
        if len(state.red) >= capacity:
            victim = replacement.choose_victim(state.red, protected, time)
            state.apply(Move("evict", victim))
            evictions += 1
        state.apply(Move("compute", vertex))
        replacement.touch(vertex, time)

    return state.loads, evictions


def assert_matches_reference(cdag: CDAG, schedule: list[Vertex], capacity: int) -> None:
    for policy in ("lru", "opt"):
        result = simulate_schedule(cdag, list(schedule), capacity, policy=policy)
        expected = reference_simulate(cdag, list(schedule), capacity, policy)
        assert (result.loads, result.evictions) == expected, (
            f"{policy} at capacity {capacity}: "
            f"(loads, evictions) {(result.loads, result.evictions)} != reference {expected}"
        )


class TestRandomDags:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("capacity", [5, 6, 8, 12, 20])
    def test_matches_reference(self, seed, capacity):
        cdag = random_cdag(seed, operations=120)
        assert_matches_reference(cdag, topological_schedule(cdag), capacity)


class TestKernelCdags:
    CASES = [
        ("gemm", {"Ni": 6, "Nj": 6, "Nk": 6}, (2, 2, 4), 8),
        ("2mm", {"Ni": 5, "Nj": 5, "Nk": 5, "Nl": 5}, (1, 1, 1), 10),
        ("atax", {"M": 8, "N": 8}, (1, 1), 6),
        ("lu", {"N": 8}, (2, 4, 4), 12),
        ("jacobi-2d", {"T": 5, "N": 8}, (1, 4, 4), 16),
        ("trisolv", {"N": 10}, (2, 2), 5),
    ]

    @pytest.mark.parametrize("name,instance,shape,capacity", CASES)
    def test_matches_reference(self, name, instance, shape, capacity):
        program = get_kernel(name).program
        cdag = CDAG.expand(program, instance)
        schedule = tiled_schedule(cdag, tile_sizes_for(program, shape), warn=False)
        for cache_words in (capacity, 2 * capacity):
            assert_matches_reference(cdag, schedule, cache_words)

    @pytest.mark.parametrize("name,instance,shape,capacity", CASES)
    def test_lexicographic_order_matches_reference(self, name, instance, shape, capacity):
        cdag = CDAG.expand(get_kernel(name).program, instance)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TilingFallbackWarning)
            schedule = lexicographic_schedule(cdag, warn=False)
        assert_matches_reference(cdag, schedule, capacity)
