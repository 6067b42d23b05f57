"""Schedule generators for explicit CDAGs.

The Sec. 8.2 experiment compares the IOLB upper bound on operational intensity
with the OI achieved by concrete schedules.  PLuTo-generated tiled code is not
available offline, so we generate schedules directly on the expanded CDAG:

* ``lexicographic_schedule`` — the original program order (statement instances
  sorted lexicographically on their iteration vectors, statements interleaved
  at the innermost shared level), i.e. the untiled baseline;
* ``tiled_schedule`` — a rectangularly tiled order of the same instances
  (tiles executed one after the other, lexicographically within a tile), the
  stand-in for PLuTo's tiling;
* ``topological_schedule`` — an arbitrary valid order, useful as a fallback
  for programs whose lexicographic order is not a topological order of the
  simplified DFG.

All generated schedules are checked for validity against the CDAG before use.
When the requested order violates a dependence (e.g. a rectangular tiling of
a stencil's time dimension, which is only legal after skewing), the generator
falls back to a plain topological order, which each CDAG sorts only once.
The fallback is *observable*: the returned :class:`Schedule` carries a
``used_fallback`` flag, a :class:`TilingFallbackWarning` is emitted and the
``pebble.tiling_fallback`` event of :mod:`repro.perf` is counted, so callers
such as the tiling search in :mod:`repro.upper` can skip schedules that no
longer reflect the tiling they asked for instead of scoring a meaningless
"tiling".
"""

from __future__ import annotations

import warnings
from operator import floordiv
from typing import Mapping, Sequence

from .. import perf
from ..ir import CDAG, Vertex

#: Degradation event: a requested order violated a dependence and a plain
#: topological order was returned instead.
TILING_FALLBACK = perf.register_event("pebble.tiling_fallback")


class TilingFallbackWarning(UserWarning):
    """The requested schedule order was illegal; a topological order was used."""


class Schedule(list):
    """A CDAG schedule: a plain list of vertices plus provenance flags.

    Subclasses ``list`` so every existing consumer (``simulate_schedule``,
    ``CDAG.is_valid_schedule``, slicing, ...) keeps working unchanged.

    Attributes
    ----------
    requested:
        The order that was asked for (``"lexicographic"``, ``"tiled"``,
        ``"topological"``).
    used_fallback:
        True when the requested order violated a dependence and the schedule
        is a plain topological order instead — i.e. the schedule does *not*
        realise the requested tiling/ordering.
    """

    def __init__(self, vertices, requested: str = "topological", used_fallback: bool = False):
        super().__init__(vertices)
        self.requested = requested
        self.used_fallback = used_fallback


def topological_schedule(cdag: CDAG) -> Schedule:
    """Any topological order of the compute vertices."""
    compute = set(cdag.compute_vertices())
    return Schedule(
        (v for v in cdag.topological_order() if v in compute),
        requested="topological",
    )


def _finish(cdag: CDAG, ordered: list[Vertex], requested: str, warn: bool) -> Schedule:
    """Validate a candidate order, falling back observably when illegal."""
    if cdag.is_valid_schedule(ordered):
        return Schedule(ordered, requested=requested)
    perf.record_event(TILING_FALLBACK)
    if warn:
        warnings.warn(
            f"{requested} order violates a dependence of {cdag.program.name!r}; "
            "falling back to a topological order (the schedule does not "
            "realise the requested ordering)",
            TilingFallbackWarning,
            stacklevel=3,
        )
    fallback = topological_schedule(cdag)
    return Schedule(fallback, requested=requested, used_fallback=True)


def lexicographic_schedule(
    cdag: CDAG, statement_order: Sequence[str] | None = None, warn: bool = True
) -> Schedule:
    """Program-order schedule: iteration vectors ascending, statements interleaved.

    Statement instances are ordered by their iteration vector first and by the
    statement's position in ``statement_order`` (default: program declaration
    order) to break ties, which reproduces the textual order of a loop nest in
    which the statements share their outer loops.  Falls back to a topological
    order when the result violates a dependence (``used_fallback`` is set on
    the returned schedule and a :class:`TilingFallbackWarning` is emitted
    unless ``warn=False``).
    """
    order = list(statement_order or cdag.program.statements.keys())
    rank = {name: index for index, name in enumerate(order)}

    def key(vertex: Vertex):
        name, point = vertex
        return (point + (float("inf"),) * 8)[:8], rank.get(name, len(rank))

    ordered = sorted(cdag.compute_vertices(), key=key)
    return _finish(cdag, ordered, "lexicographic", warn)


def tiled_schedule(
    cdag: CDAG,
    tile_sizes: Mapping[str, Sequence[int]],
    statement_order: Sequence[str] | None = None,
    warn: bool = True,
) -> Schedule:
    """Rectangularly tiled schedule.

    ``tile_sizes[statement]`` gives the tile edge length per dimension of that
    statement (1 = untiled dimension).  Instances are ordered by their tile
    coordinates first, then lexicographically within the tile.  Falls back to
    a topological order if the tiling is not legal for the CDAG — check
    ``schedule.used_fallback`` before treating the result as a realisation of
    the requested tiling (a :class:`TilingFallbackWarning` is emitted unless
    ``warn=False``).
    """
    order = list(statement_order or cdag.program.statements.keys())
    rank = {name: index for index, name in enumerate(order)}
    # A non-positive edge leaves its dimension untiled, like an edge of 1.
    edges = {
        name: tuple(size if size > 0 else 1 for size in sizes)
        for name, sizes in tile_sizes.items()
    }

    def key(vertex: Vertex):
        name, point = vertex
        sizes = edges.get(name)
        tile_coord = point if sizes is None else tuple(map(floordiv, point, sizes))
        return tile_coord, rank.get(name, len(rank)), point

    ordered = sorted(cdag.compute_vertices(), key=key)
    return _finish(cdag, ordered, "tiled", warn)
