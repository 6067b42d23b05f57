"""Shared helpers for the pebble-game and cache-simulator tests."""

from __future__ import annotations

import random

from repro.ir import CDAG


def random_cdag(seed: int, operations: int = 40, inputs: int = 6) -> CDAG:
    """A seeded random DAG built directly (no affine program behind it).

    Statement vertex ``("S", (j,))`` may only read inputs and earlier
    statements, so the construction is acyclic by index; at most 4 operands
    per vertex keeps every operation simulable at small capacities.
    """
    rng = random.Random(seed)
    cdag = CDAG(program=None, params={})
    for index in range(inputs):
        vertex = ("in", (index,))
        cdag.graph.add_node(vertex, kind="input")
        cdag.inputs.add(vertex)
    for index in range(operations):
        vertex = ("S", (index,))
        cdag.graph.add_node(vertex, kind="statement")
        pool = [("in", (i,)) for i in range(inputs)]
        pool += [("S", (i,)) for i in range(index)]
        for operand in rng.sample(pool, k=min(len(pool), rng.randint(1, 4))):
            cdag.graph.add_edge(operand, vertex)
    return cdag
