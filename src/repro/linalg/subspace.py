"""Linear subspaces of Q^d.

The kernels of the geometric projections used in the Brascamp-Lieb reasoning
(Sec. 5.1 of the paper) are linear subspaces of the iteration space.  The
subgroup lattice of Lemma 3.12 is, in our rational setting, the closure of
those kernels under subspace sum and intersection.

A :class:`Subspace` is represented by its *canonical integer basis*: the
reduced row echelon form of any spanning set with every row scaled by the
lcm of its denominators.  Each row is then primitive (its entries have gcd
1) with a positive pivot, and dividing a row by its pivot gives back the
``Fraction`` RREF row, so the two forms are in bijection and two equal
subspaces compare and hash identically.  Sums and intersections run on the
integer rows (:func:`rows_sum`, :func:`rows_intersection`), which is also
what the lattice closure's worklist loop uses: no ``Fraction`` arithmetic
on the hot path.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .. import perf
from ..sets.memo import MemoCache, memo_enabled, register
from .rational import Row, integer_row, reduce_integer_rows, to_fraction_matrix

#: Canonical integer basis: primitive rows in reduced echelon shape.
IntRows = tuple[tuple[int, ...], ...]

# Sum / intersection results keyed on the (order-normalised) operand keys.
# Subspaces are immutable and canonical, so sharing result objects is safe
# and both operations are symmetric up to canonicalisation.
_PAIR_CACHE = register(MemoCache("linalg.subspace_ops"))


def canonical_rows(rows: Iterable[Sequence[int]]) -> IntRows:
    """Canonical integer basis of the span of integer ``rows``."""
    reduced, pivots = reduce_integer_rows([list(row) for row in rows])
    out = []
    for row, c in zip(reduced, pivots):
        g = gcd(*row)
        if row[c] < 0:
            g = -g
        out.append(tuple(row) if g == 1 else tuple(x // g for x in row))
    return tuple(out)


def rows_sum(a: IntRows, b: IntRows) -> IntRows:
    """Canonical basis of U + V, for canonical bases ``a`` of U and ``b`` of V."""
    if not a:
        return b
    if not b:
        return a
    return canonical_rows(a + b)


def rows_intersection(a: IntRows, b: IntRows) -> IntRows:
    """Canonical basis of U ∩ V, via the kernel of ``[Uᵀ | −Vᵀ]``.

    x lies in U ∩ V iff x = sum c_i u_i = sum d_j v_j, i.e. iff the
    coefficient vector (c, d) lies in the kernel of ``[Uᵀ | −Vᵀ]``.  The
    rows of ``a`` and of ``b`` are each independent, so the ``c`` parts of
    a kernel basis map to a basis of U ∩ V.
    """
    if not a or not b:
        return ()
    n_a, n = len(a), len(a[0])
    stacked = [[u[i] for u in a] + [-v[i] for v in b] for i in range(n)]
    reduced, pivots = reduce_integer_rows(stacked)
    # Integer kernel vector per free column f: x_f = L, x_p = -row[f] * L / row[p].
    scale = 1
    for row, p in zip(reduced, pivots):
        scale = lcm(scale, row[p])
    pivot_set = set(pivots)
    vectors = []
    for free in range(n_a + len(b)):
        if free in pivot_set:
            continue
        coeffs = [0] * n_a
        if free < n_a:
            coeffs[free] = scale
        for row, p in zip(reduced, pivots):
            if p < n_a and row[free]:
                coeffs[p] = -row[free] * (scale // row[p])
        vectors.append([sum(c * u[i] for c, u in zip(coeffs, a) if c) for i in range(n)])
    return canonical_rows(vectors)


class Subspace:
    """A linear subspace of Q^d, canonically represented by an integer basis."""

    __slots__ = ("dim_ambient", "_key", "_basis", "_hash")

    def __init__(self, dim_ambient: int, vectors: Iterable[Sequence] = ()):
        self.dim_ambient = dim_ambient
        matrix = to_fraction_matrix(vectors)
        for row in matrix:
            if len(row) != dim_ambient:
                raise ValueError(
                    f"vector of length {len(row)} in ambient dimension {dim_ambient}"
                )
        self._key: tuple[int, IntRows] = (
            dim_ambient, canonical_rows(integer_row(row) for row in matrix)
        )
        self._basis: tuple[Row, ...] | None = None
        self._hash: int | None = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rows(cls, dim_ambient: int, rows: IntRows) -> "Subspace":
        """Wrap an already canonical integer basis (no re-reduction)."""
        obj = cls.__new__(cls)
        obj.dim_ambient = dim_ambient
        obj._key = (dim_ambient, rows)
        obj._basis = None
        obj._hash = None
        return obj

    @classmethod
    def zero(cls, dim_ambient: int) -> "Subspace":
        """The trivial subspace {0}."""
        return cls.from_rows(dim_ambient, ())

    @classmethod
    def full(cls, dim_ambient: int) -> "Subspace":
        """The whole ambient space Q^d."""
        rows = tuple(
            tuple(1 if i == j else 0 for j in range(dim_ambient)) for i in range(dim_ambient)
        )
        return cls.from_rows(dim_ambient, rows)

    @classmethod
    def span(cls, vectors: Iterable[Sequence], dim_ambient: int | None = None) -> "Subspace":
        """Subspace spanned by the given vectors."""
        vectors = [list(v) for v in vectors]
        if dim_ambient is None:
            if not vectors:
                raise ValueError("cannot infer ambient dimension from an empty span")
            dim_ambient = len(vectors[0])
        return cls(dim_ambient, vectors)

    # -- basic queries -----------------------------------------------------

    @property
    def rows(self) -> IntRows:
        """The canonical integer basis (primitive rows, positive pivots)."""
        return self._key[1]

    @property
    def basis(self) -> tuple[Row, ...]:
        """The ``Fraction`` RREF basis: each integer row divided by its pivot."""
        basis = self._basis
        if basis is None:
            out = []
            for row in self._key[1]:
                pivot = next(x for x in row if x)
                out.append(tuple(Fraction(x, pivot) for x in row))
            basis = self._basis = tuple(out)
        return basis

    @property
    def dim(self) -> int:
        """Dimension (rank) of the subspace."""
        return len(self._key[1])

    def is_zero(self) -> bool:
        """True for the trivial subspace."""
        return not self._key[1]

    def contains_vector(self, vector: Sequence) -> bool:
        """True when the vector lies in the subspace."""
        row = integer_row(vector)
        if len(row) != self.dim_ambient:
            raise ValueError("vector in wrong ambient dimension")
        return len(rows_sum(self.rows, canonical_rows([row]))) == self.dim

    def contains(self, other: "Subspace") -> bool:
        """True when ``other`` is a sub-subspace of this one."""
        self._check_ambient(other)
        return len(rows_sum(self.rows, other.rows)) == self.dim

    # -- lattice operations ------------------------------------------------

    def content_key(self) -> tuple[int, IntRows]:
        """Ambient dimension plus the canonical integer basis.

        This is the representation itself, not a derived cache: int tuples
        hash cheaply (``Fraction`` hashing computes a modular inverse per
        entry), so every memo keyed on subspaces uses it directly.
        """
        return self._key

    @perf.timed("linalg")
    def sum(self, other: "Subspace") -> "Subspace":
        """Subspace sum (join): span of the union of both bases (memoised)."""
        self._check_ambient(other)
        return self._pair_op("sum", rows_sum, other)

    @perf.timed("linalg")
    def intersection(self, other: "Subspace") -> "Subspace":
        """Subspace intersection (meet), see :func:`rows_intersection` (memoised)."""
        self._check_ambient(other)
        return self._pair_op("cap", rows_intersection, other)

    def _pair_op(self, name: str, op, other: "Subspace") -> "Subspace":
        def compute() -> Subspace:
            return Subspace.from_rows(self.dim_ambient, op(self.rows, other.rows))

        if not memo_enabled():
            return compute()
        ka, kb = self._key, other._key
        if kb < ka:
            ka, kb = kb, ka
        return _PAIR_CACHE.get_or_compute((name, ka, kb), compute)

    def projection_rank(self, kernel: "Subspace") -> int:
        """rank(phi(H)) where phi is any linear map with kernel ``kernel`` and H = self.

        By rank-nullity on the restriction of phi to H:
        rank(phi(H)) = dim(H) - dim(H cap ker(phi)).
        """
        return self.dim - self.intersection(kernel).dim

    # -- dunder ------------------------------------------------------------

    def _check_ambient(self, other: "Subspace") -> None:
        if self.dim_ambient != other.dim_ambient:
            raise ValueError("subspaces live in different ambient spaces")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(self._key)
            if memo_enabled():
                self._hash = h
        return h

    def __repr__(self) -> str:
        rows = ", ".join(
            "(" + ", ".join(str(x) for x in row) + ")" for row in self.basis
        )
        return f"Subspace(dim={self.dim}, ambient={self.dim_ambient}, basis=[{rows}])"
