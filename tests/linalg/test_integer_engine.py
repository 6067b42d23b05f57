"""Differential tests: the integer subspace engine against Fraction oracles.

:class:`repro.linalg.Subspace` and the lattice closure work on canonical
primitive-integer bases.  The oracles below are the textbook versions over
``fractions.Fraction``: RREF of the stacked bases for the sum, the kernel of
``[Uᵀ | −Vᵀ]`` for the intersection, and Algorithm 2's worklist loop on
Fraction bases for the closure.  They run the textbook Gauss-Jordan loop
(``_rref_reference``), not the integer elimination the engine and
:func:`repro.linalg.rref` share; :func:`test_rref_matches_textbook_gauss_jordan`
checks ``rref`` itself against the same loop.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg import Subspace, SubspaceLattice, rref, subspace_closure
from repro.linalg import lattice as lattice_module
from repro.linalg.lattice import DEFAULT_MAX_ELEMENTS, close_rows
from repro.linalg.rational import _rref_reference

#: The 7 kernel lines whose closure is the 28-element lattice heat-3d builds.
HEAT_3D_LINES = (
    (1, 0, 0, -2), (1, 0, 0, 0), (1, 0, -1, -1), (1, -1, 0, -1),
    (1, 0, 0, -1), (1, 0, 0, 2), (1, 0, 0, 1),
)

#: Four lines in general position in Q^3: their closure is infinite.
GENERIC_LINES_Q3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))


# -- Fraction oracles ---------------------------------------------------------


def fraction_basis(vectors) -> tuple:
    """Fraction RREF basis of the span (an empty tuple for {0})."""
    rows = tuple(tuple(Fraction(x) for x in v) for v in vectors)
    if not rows:
        return ()
    reduced, pivots = _rref_reference(rows)
    return tuple(reduced[i] for i in range(len(pivots)))


def fraction_nullspace(a: tuple) -> list:
    """Basis of {x : a @ x = 0}, one vector per free column of the RREF."""
    reduced, pivots = _rref_reference(a)
    basis = []
    for free in (c for c in range(len(a[0])) if c not in pivots):
        vector = [Fraction(0)] * len(a[0])
        vector[free] = Fraction(1)
        for row, pivot in enumerate(pivots):
            vector[pivot] = -reduced[row][free]
        basis.append(vector)
    return basis


def fraction_sum(a: tuple, b: tuple) -> tuple:
    return fraction_basis(a + b)


def fraction_intersection(n: int, a: tuple, b: tuple) -> tuple:
    if not a or not b:
        return ()
    columns = tuple(
        tuple([a[j][i] for j in range(len(a))] + [-b[j][i] for j in range(len(b))])
        for i in range(n)
    )
    vectors = []
    for combo in fraction_nullspace(columns):
        vectors.append(
            [sum((combo[j] * a[j][i] for j in range(len(a))), Fraction(0)) for i in range(n)]
        )
    return fraction_basis(vectors)


def integer_key(basis: tuple) -> tuple:
    """Each Fraction RREF row scaled by the lcm of its denominators."""
    out = []
    for row in basis:
        den = lcm(*(x.denominator for x in row))
        out.append(tuple(int(x * den) for x in row))
    return tuple(out)


def fraction_closure(n: int, elements, new, max_elements: int = DEFAULT_MAX_ELEMENTS):
    """Textbook Algorithm 2 on Fraction bases: the closed set, or None past the cap."""
    closed = set(elements) | {new}
    worklist = [new]
    while worklist:
        if len(closed) > max_elements:
            return None
        current = worklist.pop()
        for other in list(closed):
            for candidate in (
                fraction_intersection(n, current, other),
                fraction_sum(current, other),
            ):
                if candidate not in closed:
                    closed.add(candidate)
                    worklist.append(candidate)
                    if len(closed) > max_elements:
                        return None
    return closed


def oracle_lattice(n: int, lines) -> tuple[set | None, bool]:
    """Close the lines one at a time; returns (elements, last closure accepted)."""
    closed: set = set()
    for vector in lines:
        result = fraction_closure(n, closed, fraction_basis([vector]))
        if result is None:
            return closed, False
        closed = result
    return closed, True


# -- RREF ---------------------------------------------------------------------


@st.composite
def rational_matrices(draw):
    """Small rational matrices, wide or tall, with zero and duplicate rows."""
    n_rows = draw(st.integers(1, 6))
    n_cols = draw(st.integers(1, 6))
    entry = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
    rows = draw(st.lists(st.lists(entry, min_size=n_cols, max_size=n_cols),
                         min_size=n_rows, max_size=n_rows))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [Fraction(0)] * n_cols)
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), list(draw(st.sampled_from(rows))))
    return tuple(tuple(row) for row in rows)


@settings(max_examples=200, deadline=None)
@given(matrix=rational_matrices())
def test_rref_matches_textbook_gauss_jordan(matrix):
    reduced, pivots = rref(matrix)
    expected, expected_pivots = _rref_reference(matrix)
    assert pivots == list(expected_pivots)
    assert reduced == expected
    assert all(type(x) is Fraction for row in reduced for x in row)


def test_rref_of_empty_zero_and_integer_matrices():
    assert rref(()) == ((), [])
    zero = ((Fraction(0),) * 3,) * 2
    assert rref(zero) == (zero, [])
    # Plain-int input reduces exactly like its Fraction twin.
    ints = ((2, 4, 6), (1, 3, 5))
    twin = tuple(tuple(Fraction(x) for x in row) for row in ints)
    assert rref(ints) == rref(twin)
    assert rref(ints)[0] == _rref_reference(twin)[0]


# -- pairwise operations ------------------------------------------------------


def spanning_sets():
    """(n, spanning set of U, spanning set of V) in Q^n, n in 1..5."""
    return st.integers(1, 5).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n), max_size=n + 1),
            st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n), max_size=n + 1),
        )
    )


@settings(max_examples=60, deadline=None)
@given(case=spanning_sets())
def test_integer_ops_match_fraction_oracle(case):
    n, u_vectors, v_vectors = case
    u, v = Subspace(n, u_vectors), Subspace(n, v_vectors)
    fu, fv = fraction_basis(u_vectors), fraction_basis(v_vectors)
    # Canonical key: the lcm-scaled Fraction RREF, primitive, pivot > 0.
    assert u.rows == integer_key(fu)
    assert u.basis == fu
    assert Subspace.from_rows(n, u.rows) == u
    assert u.sum(v).basis == fraction_sum(fu, fv)
    assert u.intersection(v).basis == fraction_intersection(n, fu, fv)
    assert u.contains(v) == (fraction_sum(fu, fv) == fu)


@settings(max_examples=40, deadline=None)
@given(case=spanning_sets())
def test_canonical_rows_are_primitive_with_positive_pivot(case):
    n, u_vectors, _ = case
    for row in Subspace(n, u_vectors).rows:
        pivot = next(x for x in row if x)
        assert pivot > 0
        assert gcd(*row) == 1


# -- closure ------------------------------------------------------------------


def as_bases(lattice: SubspaceLattice) -> set:
    return {element.basis for element in lattice.elements}


@pytest.mark.parametrize(
    "n, lines, size",
    [(3, GENERIC_LINES_Q3, None), (4, HEAT_3D_LINES, 28)],
    ids=["generic-lines-Q3", "heat-3d"],
)
def test_closure_matches_fraction_oracle(n, lines, size):
    expected, expected_changed = oracle_lattice(n, lines)
    assert expected_changed == (size is not None)  # the generic lines blow up
    lattice = SubspaceLattice(n)
    changed = True
    for vector in lines:
        lattice, changed = subspace_closure(lattice, Subspace(n, [vector]))
        if not changed:
            break
    assert changed == expected_changed
    assert as_bases(lattice) == expected
    if size is not None:
        assert len(lattice) == size


def close_all(kernels):
    """close_rows over the kernels in turn; None once one is rejected."""
    closed: set | None = set()
    for kernel in kernels:
        closed = close_rows(closed, kernel, DEFAULT_MAX_ELEMENTS)
        if closed is None:
            return None
    return closed


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("n, lines", [(3, GENERIC_LINES_Q3), (4, HEAT_3D_LINES)])
def test_shuffled_exploration_order_gives_same_closure(monkeypatch, seed, n, lines):
    """Rejection and the closed set do not depend on the exploration order."""
    kernels = [Subspace(n, [vector]).rows for vector in lines]
    expected = close_all(kernels)
    rng = random.Random(seed)

    def shuffled(items):
        out = [*items]
        rng.shuffle(out)
        return out

    # close_rows snapshots the working set with list(); shuffling every
    # snapshot changes which pairs are visited first and so the worklist.
    monkeypatch.setattr(lattice_module, "list", shuffled, raising=False)
    assert close_all(kernels) == expected
