"""Subgroup (subspace) lattice closure — Algorithm 2 of the paper.

Lemma 3.12 (Valdimarsson) lets the Brascamp-Lieb condition (2) be verified on
the lattice of subgroups generated by the projection kernels instead of on all
subgroups of Z^d.  Working over Q, the kernels are linear subspaces and the
lattice is the closure under subspace sum and intersection.

``subspace_closure`` mirrors the paper's Algorithm 2 with one deviation: the
paper drops a candidate projection whose closure does not converge within a
wall-clock budget; here the only budget is the element cap.  A closure that
grows past the cap returns the *original* lattice, so the caller simply skips
the new projection (a weaker but still valid bound), and the outcome is a
pure function of the inputs.
"""

from __future__ import annotations

from typing import Iterable

from .. import perf
from ..sets.memo import MISSING, MemoCache, memo_enabled, register
from .subspace import IntRows, Subspace, rows_intersection, rows_sum

DEFAULT_MAX_ELEMENTS = 256

#: Event counted each time a closure is rejected at its element cap.
CLOSURE_REJECTED = perf.register_event("linalg.closure_rejected")

# Closures keyed on (ambient dim, lattice contents, kernel, cap).  Both
# converged closures and size blow-ups are deterministic, so both are
# cached.  Values hold immutable Subspace tuples — a fresh SubspaceLattice
# is rebuilt per hit because lattices are mutable.
_CLOSURE_CACHE = register(MemoCache("linalg.closure", maxsize=8192))


class SubspaceLattice:
    """A finite set of subspaces closed under sum and intersection."""

    def __init__(self, dim_ambient: int, elements: Iterable[Subspace] = ()):
        self.dim_ambient = dim_ambient
        self.elements: set[Subspace] = set()
        for element in elements:
            if element.dim_ambient != dim_ambient:
                raise ValueError("lattice element in wrong ambient dimension")
            self.elements.add(element)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, subspace: Subspace) -> bool:
        return subspace in self.elements

    def nontrivial_elements(self) -> list[Subspace]:
        """Lattice elements other than {0}, sorted by dimension for determinism."""
        elems = [e for e in self.elements if not e.is_zero()]
        return sorted(elems, key=lambda e: (e.dim, e.basis))


def close_rows(
    elements: Iterable[IntRows], new: IntRows, max_elements: int
) -> set[IntRows] | None:
    """Close ``elements ∪ {new}`` under sum and intersection, on integer bases.

    ``elements`` must already be closed.  Returns the closed set, or ``None``
    once it holds more than ``max_elements`` bases.  Every pair is first
    summed: a sum as large as one operand means one contains the other, so
    the pair yields nothing new; a sum of dimension ``dim U + dim V`` means
    the intersection is {0}; only the remaining pairs need a kernel.

    Whether the cap is exceeded does not depend on the exploration order:
    the working set only ever holds elements of the full closure, and the
    loop stops only when it is closed or over the cap.
    """
    closed = set(elements)
    closed.add(new)
    if len(closed) > max_elements:
        return None
    worklist = [new]
    while worklist:
        current = worklist.pop()
        dim_current = len(current)
        for other in list(closed):
            dim_other = len(other)
            total = rows_sum(current, other)
            dim_total = len(total)
            if dim_total == dim_other or dim_total == dim_current:
                continue
            if dim_total == dim_current + dim_other:
                meet: IntRows = ()
            else:
                meet = rows_intersection(current, other)
            for candidate in (total, meet):
                if candidate not in closed:
                    closed.add(candidate)
                    worklist.append(candidate)
                    if len(closed) > max_elements:
                        return None
    return closed


@perf.timed("linalg")
def subspace_closure(
    lattice: SubspaceLattice,
    new_kernel: Subspace,
    max_elements: int = DEFAULT_MAX_ELEMENTS,
) -> tuple[SubspaceLattice, bool]:
    """Algorithm 2: tentatively add ``new_kernel`` and re-close the lattice.

    Returns ``(lattice, changed)``.  On a size blow-up the original lattice
    is returned unchanged with ``changed = False``, exactly like the paper's
    implementation drops the candidate projection, and the
    ``linalg.closure_rejected`` event is counted (on memo hits too).

    Closures are memoised on the lattice contents: per-path incremental
    lattices repeat the same closure states across statements, which makes
    this the single most valuable cache in the derivation pipeline.
    """
    if new_kernel.dim_ambient != lattice.dim_ambient:
        raise ValueError("kernel in wrong ambient dimension")
    if new_kernel in lattice and len(lattice) > 0:
        return lattice, False

    known = {element.rows: element for element in lattice.elements}
    key = None
    if memo_enabled():
        key = (lattice.dim_ambient, frozenset(known), new_kernel.rows, max_elements)
        cached = _CLOSURE_CACHE.lookup(key)
        if cached is not MISSING:
            elements, changed = cached
            if not changed:
                perf.record_event(CLOSURE_REJECTED)
                return lattice, False
            return SubspaceLattice(lattice.dim_ambient, elements), True

    closed = close_rows(known, new_kernel.rows, max_elements)
    if closed is None:
        perf.record_event(CLOSURE_REJECTED)
        if key is not None:
            _CLOSURE_CACHE.put(key, ((), False))
        return lattice, False
    # Only accepted lattices go back to Subspace objects; inputs are reused.
    known[new_kernel.rows] = new_kernel
    ambient = lattice.dim_ambient
    elements = tuple(
        known.get(rows) or Subspace.from_rows(ambient, rows) for rows in closed
    )
    if key is not None:
        _CLOSURE_CACHE.put(key, (elements, True))
    return SubspaceLattice(ambient, elements), True


def build_lattice(
    dim_ambient: int, kernels: Iterable[Subspace]
) -> tuple[SubspaceLattice, list[Subspace]]:
    """Build the lattice generated by ``kernels``, skipping any rejected at the cap.

    Returns the lattice together with the list of kernels that were actually
    incorporated (in input order).
    """
    lattice = SubspaceLattice(dim_ambient)
    accepted: list[Subspace] = []
    for kernel in kernels:
        lattice, changed = subspace_closure(lattice, kernel)
        if changed or kernel in lattice:
            accepted.append(kernel)
    return lattice, accepted
