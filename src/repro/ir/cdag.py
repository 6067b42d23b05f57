"""Explicit CDAG expansion for concrete parameter values.

The CDAG (Def. 3.1) is the fully unrolled computation graph: one vertex per
statement instance and per input-array element, one edge per value flow.  The
paper only ever manipulates its compact DFG representation; we additionally
materialise it for *small* parameter instances, which gives us

* a ground truth for testing the polyhedral machinery (domains, dependences,
  In-sets) against brute-force enumeration, and
* the substrate on which the red-white pebble game and the cache simulators of
  :mod:`repro.pebble` run (the Sec. 8.2 experiment).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Mapping

import networkx as nx

from .program import AffineProgram

Vertex = tuple[str, tuple[int, ...]]

#: Process-wide count of CDAG expansions.  The symbolic wavefront validation
#: makes the default derivation pipeline expansion-free; tests assert that by
#: sampling this counter around a suite run.
_expansions = 0


def expand_count() -> int:
    """Number of CDAG expansions performed in this process since the last reset."""
    return _expansions


def reset_expand_count() -> int:
    """Reset the expansion counter; returns the prior count."""
    global _expansions
    previous = _expansions
    _expansions = 0
    return previous


@dataclass
class CDAG:
    """An explicit computational DAG for one parameter instance."""

    program: AffineProgram
    params: dict[str, int]
    graph: nx.DiGraph = field(default_factory=nx.DiGraph)
    inputs: set[Vertex] = field(default_factory=set)
    _topological: list[Vertex] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @classmethod
    def expand(cls, program: AffineProgram, params: Mapping[str, int]) -> "CDAG":
        """Materialise the CDAG of ``program`` for the given parameter values."""
        global _expansions
        _expansions += 1
        params = program.instance_values(params)
        cdag = cls(program, dict(params))
        graph = cdag.graph

        domains: dict[str, set[tuple[int, ...]]] = {}
        for array in program.arrays.values():
            points = set(array.domain.enumerate_points(params))
            domains[array.name] = points
            if array.is_input:
                for point in points:
                    vertex = (array.name, point)
                    graph.add_node(vertex, kind="input")
                    cdag.inputs.add(vertex)
        for statement in program.statements.values():
            points = set(statement.domain.enumerate_points(params))
            domains[statement.name] = points
            for point in points:
                graph.add_node((statement.name, point), kind="statement")

        for dep in program.dependences:
            source_points = domains.get(dep.source, set())
            for sink_point in dep.domain.enumerate_points(params):
                if sink_point not in domains[dep.sink]:
                    continue
                source_point = dep.function.apply_to_point(sink_point, params)
                if source_point in source_points:
                    graph.add_edge((dep.source, source_point), (dep.sink, sink_point))
        return cdag

    # -- queries -----------------------------------------------------------

    def compute_vertices(self) -> list[Vertex]:
        """All non-input vertices (the set ``V \\ I``)."""
        return [v for v, data in self.graph.nodes(data=True) if data["kind"] == "statement"]

    def statement_vertices(self, statement: str) -> list[Vertex]:
        return [v for v in self.compute_vertices() if v[0] == statement]

    def in_set(self, vertices: set[Vertex]) -> set[Vertex]:
        """In(P): vertices outside P with a successor inside P (Def. 3.4)."""
        result = set()
        for vertex in vertices:
            for predecessor in self.graph.predecessors(vertex):
                if predecessor not in vertices:
                    result.add(predecessor)
        return result

    def sources(self, vertices: set[Vertex]) -> set[Vertex]:
        """Sources(P): vertices of P with no predecessor inside P (Def. 3.8)."""
        result = set()
        for vertex in vertices:
            if all(p not in vertices for p in self.graph.predecessors(vertex)):
                result.add(vertex)
        return result

    def topological_order(self) -> list[Vertex]:
        """A topological order of all vertices, sorted once per CDAG.

        The order is kept after the first call, so the graph must be complete
        by then (:meth:`expand` returns it complete).
        """
        if self._topological is None:
            self._topological = list(nx.topological_sort(self.graph))
        return list(self._topological)

    def reachable_from(self, vertex: Vertex) -> set[Vertex]:
        return set(nx.descendants(self.graph, vertex))

    def is_valid_schedule(self, schedule: list[Vertex]) -> bool:
        """True when the schedule executes every compute vertex after its operands."""
        position: dict[Hashable, int] = {v: i for i, v in enumerate(schedule)}
        compute = set(self.compute_vertices())
        if set(schedule) != compute:
            return False
        for vertex in schedule:
            for predecessor in self.graph.predecessors(vertex):
                if predecessor in compute and position[predecessor] >= position[vertex]:
                    return False
        return True

    def __repr__(self) -> str:
        return (
            f"CDAG({self.program.name!r}, params={self.params}, "
            f"|V|={self.graph.number_of_nodes()}, |E|={self.graph.number_of_edges()})"
        )
