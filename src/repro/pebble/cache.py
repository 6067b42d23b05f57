"""Cache simulators that execute a schedule and count loads.

These play the role of the Dinero cache simulator in the paper's Sec. 8.2
experiment: given a schedule (an ordered list of compute vertices of an
explicit CDAG), they simulate a fully-associative fast memory of ``S`` values
with either an LRU or an optimal (Belady) replacement policy and return the
number of loads — which, divided into the operation count, gives the achieved
operational intensity of that schedule.

Every simulation is expressed as a sequence of red-white pebble game moves and
validated by :mod:`repro.pebble.game`, so the reported cost is guaranteed to
be the cost of a *legal* game; in particular it can never be below the IOLB
lower bound (the property the integration tests check).
"""

from __future__ import annotations

import heapq
from collections import OrderedDict, defaultdict
from dataclasses import dataclass

from ..ir import CDAG, Vertex
from .game import GameState, Move

from .. import perf


@dataclass
class SimulationResult:
    """Outcome of simulating one schedule against one cache configuration."""

    loads: int
    evictions: int
    operations: int
    capacity: int
    policy: str

    def operational_intensity(self, flops_per_op: float = 1.0) -> float:
        """Achieved OI = #flops / #words loaded."""
        if self.loads == 0:
            return float("inf")
        return self.operations * flops_per_op / self.loads


class _ReplacementPolicy:
    """Interface for replacement policies over a fully-associative cache.

    ``touch`` is called whenever a value is used or produced, ``evict`` right
    after the simulator evicts a value, and ``choose_victim`` when fast memory
    is full: it must return a resident value outside ``protected``.
    """

    def touch(self, vertex: Vertex, time: int) -> None:
        raise NotImplementedError

    def evict(self, vertex: Vertex) -> None:
        pass

    def choose_victim(self, resident: set[Vertex], protected: set[Vertex], time: int) -> Vertex:
        raise NotImplementedError


class _LRUPolicy(_ReplacementPolicy):
    """Least-recently-used replacement.

    ``last_use`` holds exactly the resident values, least recently used
    first, so a victim is found after skipping at most the protected ones.
    """

    def __init__(self) -> None:
        self.last_use: "OrderedDict[Vertex, int]" = OrderedDict()

    def touch(self, vertex: Vertex, time: int) -> None:
        self.last_use[vertex] = time
        self.last_use.move_to_end(vertex)

    def evict(self, vertex: Vertex) -> None:
        del self.last_use[vertex]

    def choose_victim(self, resident: set[Vertex], protected: set[Vertex], time: int) -> Vertex:
        for vertex in self.last_use:
            if vertex not in protected:
                return vertex
        raise RuntimeError("no evictable value: cache too small for one operation")


class _BeladyPolicy(_ReplacementPolicy):
    """Optimal (furthest-next-use) replacement, given the whole schedule.

    ``cursor[v]`` indexes the first use of ``v`` not yet reached.  Candidates
    sit in a lazy max-heap keyed by ``(-next_use, vertex)``, so ties break by
    vertex order; entries of evicted values, or whose next use has moved on,
    are dropped when they surface.
    """

    def __init__(self, future_uses: dict[Vertex, list[int]], never: int):
        self.future_uses = future_uses
        self.never = never
        self.cursor: dict[Vertex, int] = {}
        self.next_use: dict[Vertex, int] = {}
        self.heap: list[tuple[int, Vertex]] = []

    def touch(self, vertex: Vertex, time: int) -> None:
        uses = self.future_uses.get(vertex, ())
        index = self.cursor.get(vertex, 0)
        while index < len(uses) and uses[index] <= time:
            index += 1
        self.cursor[vertex] = index
        next_use = uses[index] if index < len(uses) else self.never
        self.next_use[vertex] = next_use
        heapq.heappush(self.heap, (-next_use, vertex))

    def choose_victim(self, resident: set[Vertex], protected: set[Vertex], time: int) -> Vertex:
        held = []
        victim = None
        while self.heap:
            entry = heapq.heappop(self.heap)
            negated_next_use, vertex = entry
            if vertex not in resident or -negated_next_use != self.next_use[vertex]:
                continue
            if vertex in protected:
                held.append(entry)
                continue
            victim = vertex
            break
        for entry in held:
            heapq.heappush(self.heap, entry)
        if victim is None:
            raise RuntimeError("no evictable value: cache too small for one operation")
        return victim


@perf.timed("pebble-sim")
def simulate_schedule(
    cdag: CDAG,
    schedule: list[Vertex],
    capacity: int,
    policy: str = "lru",
) -> SimulationResult:
    """Execute a topological schedule with the given replacement policy.

    Each scheduled operation loads (or reuses) its operands, computes its
    value into fast memory, and evicts as needed.  The move sequence is
    validated against the pebble-game rules, so the returned load count is the
    cost of a legal S-RW game.
    """
    if policy not in ("lru", "opt"):
        raise ValueError(f"unknown replacement policy {policy!r}")
    if not cdag.is_valid_schedule(schedule):
        raise ValueError("schedule is not a valid topological order of the CDAG")

    if policy == "lru":
        replacement: _ReplacementPolicy = _LRUPolicy()
    else:
        future_uses: dict[Vertex, list[int]] = defaultdict(list)
        for time, vertex in enumerate(schedule):
            for operand in cdag.graph.predecessors(vertex):
                future_uses[operand].append(time)
        replacement = _BeladyPolicy(dict(future_uses), never=len(schedule))

    state = GameState(cdag, capacity)
    evictions = 0

    for time, vertex in enumerate(schedule):
        operands = list(cdag.graph.predecessors(vertex))
        if len(operands) + 1 > capacity:
            raise ValueError(
                f"cache of {capacity} words cannot hold the {len(operands)} operands of {vertex}"
            )
        protected = set(operands) | {vertex}
        for operand in operands:
            if operand in state.red:
                replacement.touch(operand, time)
                continue
            if len(state.red) >= capacity:
                victim = replacement.choose_victim(state.red, protected, time)
                state.apply(Move("evict", victim))
                replacement.evict(victim)
                evictions += 1
            state.apply(Move("load", operand))
            replacement.touch(operand, time)
        if len(state.red) >= capacity:
            victim = replacement.choose_victim(state.red, protected, time)
            state.apply(Move("evict", victim))
            replacement.evict(victim)
            evictions += 1
        state.apply(Move("compute", vertex))
        replacement.touch(vertex, time)

    return SimulationResult(
        loads=state.loads,
        evictions=evictions,
        operations=len(schedule),
        capacity=capacity,
        policy=policy,
    )
