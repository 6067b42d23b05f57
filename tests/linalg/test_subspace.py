"""Unit and property tests for subspaces and the subgroup lattice closure."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg import Subspace, SubspaceLattice, build_lattice, subspace_closure


def span(*vectors):
    return Subspace.span(list(vectors))


class TestSubspace:
    def test_zero_and_full(self):
        assert Subspace.zero(3).dim == 0
        assert Subspace.full(3).dim == 3

    def test_canonical_equality(self):
        a = span((1, 0, 0), (0, 1, 0))
        b = span((1, 1, 0), (1, -1, 0))
        assert a == b
        assert hash(a) == hash(b)

    def test_contains_vector(self):
        plane = span((1, 0, 0), (0, 1, 0))
        assert plane.contains_vector((3, -2, 0))
        assert not plane.contains_vector((0, 0, 1))

    def test_contains_subspace(self):
        plane = span((1, 0, 0), (0, 1, 0))
        line = span((1, 1, 0))
        assert plane.contains(line)
        assert not line.contains(plane)

    def test_sum_of_lines_is_plane(self):
        line_x = span((1, 0, 0))
        line_y = span((0, 1, 0))
        assert line_x.sum(line_y) == span((1, 0, 0), (0, 1, 0))

    def test_intersection_of_planes_is_line(self):
        xy = span((1, 0, 0), (0, 1, 0))
        yz = span((0, 1, 0), (0, 0, 1))
        assert xy.intersection(yz) == span((0, 1, 0))

    def test_intersection_of_skew_lines_is_zero(self):
        assert span((1, 0, 0)).intersection(span((0, 1, 0))).is_zero()

    def test_projection_rank(self):
        # phi = projection with kernel e3; rank of phi(plane xz) should be 1.
        kernel = span((0, 0, 1))
        xz = span((1, 0, 0), (0, 0, 1))
        assert xz.projection_rank(kernel) == 1
        full = Subspace.full(3)
        assert full.projection_rank(kernel) == 2

    def test_ambient_mismatch_raises(self):
        import pytest

        with pytest.raises(ValueError):
            span((1, 0)).sum(span((1, 0, 0)))


class TestLattice:
    def test_closure_with_orthogonal_kernels(self):
        lattice = SubspaceLattice(3)
        for vec in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
            lattice, changed = subspace_closure(lattice, span(vec))
            assert changed
        dims = sorted(e.dim for e in lattice.nontrivial_elements())
        # 3 lines, 3 planes (pairwise sums), and the full space.
        assert dims == [1, 1, 1, 2, 2, 2, 3]

    def test_closure_is_idempotent(self):
        lattice, accepted = build_lattice(3, [span((1, 0, 0)), span((0, 1, 0))])
        size = len(lattice)
        lattice2, changed = subspace_closure(lattice, span((1, 0, 0)))
        assert not changed
        assert len(lattice2) == size
        assert len(accepted) == 2

    def test_closure_contains_sums_and_intersections(self):
        lattice, _ = build_lattice(3, [span((1, 0, 0), (0, 1, 0)), span((0, 1, 0), (0, 0, 1))])
        assert span((0, 1, 0)) in lattice  # the intersection
        assert Subspace.full(3) in lattice  # the sum

    def test_closure_ignores_the_clock(self, monkeypatch):
        # No wall-clock budget: with a clock that jumps 1000 s per read the
        # closure still converges to the same lattice, so a closure result
        # is a pure function of its inputs.
        import time

        from repro.sets import memo

        lattice = SubspaceLattice(3, [span((1, 0, 0))])
        kernel = span((0, 1, 0))
        memo.clear_all()
        expected, changed = subspace_closure(lattice, kernel)
        assert changed
        ticks = iter(range(0, 10**9, 1000))
        monkeypatch.setattr(time, "monotonic", lambda: float(next(ticks)))
        memo.clear_all()
        result, changed = subspace_closure(lattice, kernel)
        assert changed
        assert result.elements == expected.elements

    def test_rejection_is_a_counted_event(self):
        # Four lines in general position in Q^3 generate an infinite lattice:
        # the fourth closure blows past the cap.  Each rejection counts the
        # event exactly once, whether computed or served from the memo.
        from repro import perf
        from repro.linalg.lattice import CLOSURE_REJECTED
        from repro.sets import memo

        memo.clear_all()
        lattice, _ = build_lattice(3, [span((1, 0, 0)), span((0, 1, 0)), span((0, 0, 1))])
        kernel = span((1, 1, 1))
        for _ in range(2):  # computed, then a memo hit of the cached blow-up
            before = perf.snapshot().event(CLOSURE_REJECTED)
            result, changed = subspace_closure(lattice, kernel)
            assert not changed and result is lattice
            assert perf.snapshot().event(CLOSURE_REJECTED) == before + 1
        # An accepted closure and an already-present kernel count nothing.
        before = perf.snapshot().event(CLOSURE_REJECTED)
        subspace_closure(SubspaceLattice(3, [span((1, 0, 0))]), span((0, 1, 0)))
        subspace_closure(lattice, span((1, 0, 0)))
        assert perf.snapshot().event(CLOSURE_REJECTED) == before

    def test_converged_closure_is_memoised(self):
        from repro.sets import memo

        memo.clear_all()
        lattice = SubspaceLattice(3, [span((1, 0, 0))])
        kernel = span((0, 1, 0))
        first, changed_first = subspace_closure(lattice, kernel)
        second, changed_second = subspace_closure(lattice, kernel)
        assert changed_first and changed_second
        assert first.elements == second.elements
        # The hit must rebuild a fresh lattice (lattices are mutable).
        assert first is not second


vectors3 = st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)).filter(
    lambda v: any(v)
)


@settings(max_examples=40, deadline=None)
@given(vectors3, vectors3)
def test_sum_contains_both_operands(v1, v2):
    a, b = span(v1), span(v2)
    total = a.sum(b)
    assert total.contains(a) and total.contains(b)


@settings(max_examples=40, deadline=None)
@given(vectors3, vectors3)
def test_intersection_contained_in_both(v1, v2):
    a, b = span(v1), span(v2)
    meet = a.intersection(b)
    assert a.contains(meet) and b.contains(meet)


@settings(max_examples=40, deadline=None)
@given(vectors3, vectors3)
def test_modularity_dimension_formula(v1, v2):
    a, b = span(v1), span(v2)
    assert a.sum(b).dim + a.intersection(b).dim == a.dim + b.dim
