"""Unit tests for the set-algebra kernels, memoisation and canonical caching.

The trust boundary (DESIGN.md "Set-algebra engine"): the vectorised
kernels and memo caches are *perf-only* — the reference loops are the
semantic oracle, and every optimised path must be byte-identical or
decline.  These tests pin:

* ``fm_combine`` parity with :func:`fm_combine_reference` in exact order,
  and the decline guards (fractional coefficients, int64 overflow);
* ``enumerate_points`` parity including point *order*, and its guards;
* the ``REPRO_SETS_MEMO`` kill switch, including the on-object canonical
  form caching it must also disable (so benchmark slow legs are faithful);
* constraint interning and set fingerprints;
* the ``simplify`` redundancy rules (the re-canonicalisation bugfix sweep).
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from repro.sets import (
    EQ,
    GE,
    BasicSet,
    Constraint,
    LinExpr,
    MEMO_ENV,
    Space,
    get_backend,
    memo_enabled,
    parse_set,
)
from repro.sets import memo
from repro.sets.backend import ENUMERATION_GRID_LIMIT, NumpySetBackend
from repro.sets.basic_set import _intern_table, interned_count
from repro.sets.fourier_motzkin import eliminate_variable, fm_combine_reference, project_out


@pytest.fixture
def clean_memo(monkeypatch):
    yield monkeypatch
    monkeypatch.undo()
    memo.refresh_enabled()
    memo.clear_all()


class TestEngine:
    def test_single_instance_named_numpy(self):
        assert get_backend() is get_backend()
        assert isinstance(get_backend(), NumpySetBackend)
        assert get_backend().name == "numpy"

    def test_get_backend_takes_no_selection(self):
        with pytest.raises(TypeError):
            get_backend("numpy")


# -- Fourier-Motzkin parity ---------------------------------------------------


def _random_system(rng: random.Random, nvars: int = 3, n: int = 6) -> list[Constraint]:
    names = [f"x{k}" for k in range(nvars)]
    constraints = []
    for _ in range(n):
        coeffs = {name: rng.randint(-3, 3) for name in rng.sample(names, rng.randint(1, nvars))}
        if not any(coeffs.values()):
            coeffs[names[0]] = 1
        kind = EQ if rng.random() < 0.2 else GE
        constraints.append(Constraint(LinExpr(coeffs, rng.randint(-5, 5)), kind))
    return constraints


def _random_pairs(rng: random.Random, sign: int) -> list[tuple[Fraction, LinExpr]]:
    """FM bound pairs ``(coeff, rest)`` with ``sign * coeff > 0``."""
    names = ["y0", "y1", "y2"]
    pairs = []
    for _ in range(rng.randint(0, 4)):
        coeffs = {name: Fraction(rng.randint(-4, 4)) for name in rng.sample(names, rng.randint(0, 3))}
        rest = LinExpr(coeffs, Fraction(rng.randint(-6, 6)))
        pairs.append((Fraction(sign * rng.randint(1, 4)), rest))
    return pairs


def _canonical(constraints: list[Constraint]) -> list[Constraint]:
    """``eliminate_variable``'s final pass over combined constraints."""
    return [c.normalized() for c in constraints if not c.is_trivially_true()]


def _same(left: list[Constraint], right: list[Constraint]) -> bool:
    """Byte identity: same constraints, same order, same printed form."""
    return [(c.key(), repr(c)) for c in left] == [(c.key(), repr(c)) for c in right]


class TestFmCombineParity:
    def test_kernel_matches_reference_loop_in_order(self):
        rng = random.Random(424242)
        backend = get_backend()
        compared = 0
        for _ in range(200):
            lower, upper = _random_pairs(rng, 1), _random_pairs(rng, -1)
            fast = backend.fm_combine(lower, upper)
            assert fast is not None
            assert _same(fast, _canonical(fm_combine_reference(lower, upper)))
            compared += bool(fast)
        assert compared > 100

    def test_eliminate_variable_unchanged_when_kernel_declines(self, clean_memo):
        rng = random.Random(424242)
        systems = [_random_system(rng) for _ in range(60)]
        memo.clear_all()
        optimised = [repr(eliminate_variable(system, "x0")) for system in systems]

        clean_memo.setattr(NumpySetBackend, "fm_combine", lambda self, lower, upper: None)
        memo.clear_all()
        reference = [repr(eliminate_variable(system, "x0")) for system in systems]

        assert optimised == reference

    def test_reference_loop_pairs_lower_outer_unnormalised(self):
        lower = [(Fraction(1), LinExpr({"y": 1}, 0)), (Fraction(2), LinExpr({}, 4))]
        upper = [(Fraction(-1), LinExpr({}, 3)), (Fraction(-3), LinExpr({"y": -2}, 0))]
        combined = fm_combine_reference(lower, upper)
        # |b|*r1 + a*r2 >= 0 per (lower, upper) pair, lower pairs outer.
        assert combined == [
            Constraint(LinExpr({"y": 1}, 3), GE),
            Constraint(LinExpr({"y": 1}, 0), GE),
            Constraint(LinExpr({}, 10), GE),
            Constraint(LinExpr({"y": -4}, 12), GE),
        ]
        # Raw: the pass that divides out the gcd runs in eliminate_variable.
        assert combined[3] != combined[3].normalized()

    def test_reference_loop_empty_side_combines_to_nothing(self):
        pair = (Fraction(1), LinExpr({"y": 1}, 0))
        assert fm_combine_reference([], [(-pair[0], pair[1])]) == []
        assert fm_combine_reference([pair], []) == []

    def test_overflowing_elimination_falls_back_to_reference_loop(self):
        # 2^33 * 2^33 products overflow the int64 guard, so the kernel
        # declines for real and eliminate_variable runs the reference loop.
        big = 1 << 33
        system = [
            Constraint(LinExpr({"x": big, "y": 1}, 0), GE),
            Constraint(LinExpr({"x": -big - 1}, big * big), GE),
        ]
        lower = [(Fraction(big), LinExpr({"y": 1}, 0))]
        upper = [(Fraction(-big - 1), LinExpr({}, big * big))]
        assert get_backend().fm_combine(lower, upper) is None
        result = eliminate_variable(system, "x")
        assert _same(result, _canonical(fm_combine_reference(lower, upper)))
        # (big + 1) * y + big * big^2 >= 0, exact in unbounded integers.
        assert result == [Constraint(LinExpr({"y": big + 1}, big ** 3), GE).normalized()]

    def test_empty_sides_combine_to_nothing(self):
        backend = get_backend()
        assert backend.fm_combine([], [(Fraction(-1), LinExpr({"y": 1}, 0))]) == []
        assert backend.fm_combine([(Fraction(1), LinExpr({"y": 1}, 0))], []) == []

    def test_fractional_coefficient_declines(self):
        backend = get_backend()
        lower = [(Fraction(1, 2), LinExpr({"y": 1}, 0))]
        upper = [(Fraction(-1), LinExpr({}, 4))]
        assert backend.fm_combine(lower, upper) is None

    def test_fractional_rest_declines(self):
        backend = get_backend()
        lower = [(Fraction(1), LinExpr({"y": Fraction(1, 3)}, 0))]
        upper = [(Fraction(-1), LinExpr({}, 4))]
        assert backend.fm_combine(lower, upper) is None

    def test_int64_overflow_declines(self):
        backend = get_backend()
        big = 1 << 33
        lower = [(Fraction(big), LinExpr({"y": big}, 0))]
        upper = [(Fraction(-big), LinExpr({}, big))]
        assert backend.fm_combine(lower, upper) is None

    def test_combination_drops_trivially_true_rows(self):
        # x >= 0 and x <= 5 combine to the trivially-true 5 >= 0: the
        # kernel must drop it exactly like the reference loop's filter.
        backend = get_backend()
        lower = [(Fraction(1), LinExpr({}, 0))]
        upper = [(Fraction(-1), LinExpr({}, 5))]
        assert backend.fm_combine(lower, upper) == []


# -- enumeration parity -------------------------------------------------------


class TestEnumerationParity:
    def test_point_order_is_identical(self):
        triangle = parse_set("{ T[i, j] : 0 <= i and i <= 6 and i <= j and j <= 6 }")
        piece = triangle.pieces[0]
        backend = get_backend()
        points = backend.enumerate_points(piece, {}, 2000)
        assert points is not None
        assert points == piece.enumerate_points_pure({})

    def test_parametric_set_matches_pure(self):
        band = parse_set("[N] -> { D[i, j] : 0 <= i and i <= N - 1 and i <= j and j <= i + 2 }")
        piece = band.pieces[0]
        backend = get_backend()
        points = backend.enumerate_points(piece, {"N": 8}, 2000)
        assert points == piece.enumerate_points_pure({"N": 8})

    def test_empty_range_short_circuits(self):
        empty = parse_set("{ E[i] : 3 <= i and i <= 1 }")
        backend = get_backend()
        assert backend.enumerate_points(empty.pieces[0], {}, 2000) == []

    def test_oversized_grid_declines(self):
        unbounded = BasicSet(Space("U", ("i", "j", "k"), ()))
        backend = get_backend()
        assert backend.enumerate_points(unbounded, {}, 2000) is None
        # Sanity: the declined grid really is beyond the limit.
        assert 4001 ** 3 > ENUMERATION_GRID_LIMIT

    def test_free_name_declines_to_pure_path(self):
        space = Space("F", ("i",), ())
        leaky = BasicSet(space, [Constraint(LinExpr({"i": 1, "M": -1}, 0), GE)])
        backend = get_backend()
        assert backend.enumerate_points(leaky, {}, 10) is None

    def test_non_integer_parameter_declines(self):
        band = parse_set("[N] -> { D[i] : 0 <= i and i <= N }")
        backend = get_backend()
        assert backend.enumerate_points(band.pieces[0], {"N": 1.5}, 10) is None

    def test_huge_parameter_declines_and_falls_back_to_pure(self):
        # N folds into an int64 constant column; 2^70 cannot be stored.
        piece = parse_set("[N] -> { D[i] : 0 <= i and i <= N }").pieces[0]
        params = {"N": 1 << 70}
        assert get_backend().enumerate_points(piece, params, 10) is None
        assert piece.enumerate_points(params, 10) == [(i,) for i in range(11)]

    def test_declined_parameter_falls_back_to_pure(self):
        piece = parse_set("[N] -> { D[i] : 0 <= i and i <= N }").pieces[0]
        assert piece.enumerate_points({"N": 1.5}) == [(0,), (1,)]
        assert piece.enumerate_points({"N": 1.5}) == piece.enumerate_points_pure({"N": 1.5})

    def test_oversized_grid_falls_back_to_pure(self):
        # The 61^3 bounding box is past the grid limit; the set itself is
        # the 10 points with i + j + k <= 2.
        corner = parse_set(
            "{ C[i, j, k] : 0 <= i and i <= 60 and 0 <= j and j <= 60 and "
            "0 <= k and k <= 60 and i + j + k <= 2 }"
        ).pieces[0]
        assert 61 ** 3 > ENUMERATION_GRID_LIMIT
        assert get_backend().enumerate_points(corner, {}, 2000) is None
        points = corner.enumerate_points({})
        assert points == corner.enumerate_points_pure({})
        assert sorted(points) == sorted(
            (i, j, k) for i in range(3) for j in range(3) for k in range(3) if i + j + k <= 2
        )


# -- the memo kill switch -----------------------------------------------------


class TestMemoKillSwitch:
    def test_env_disables_caches(self, clean_memo):
        clean_memo.setenv(MEMO_ENV, "0")
        memo.refresh_enabled()
        assert not memo_enabled()
        cache = memo.MemoCache("test.kill_switch", maxsize=8)
        calls = []
        cache.get_or_compute("k", lambda: calls.append(1) or len(calls))
        cache.get_or_compute("k", lambda: calls.append(1) or len(calls))
        assert len(calls) == 2  # recomputed: nothing was cached
        assert len(cache) == 0

    def test_kill_switch_disables_on_object_canonical_caching(self, clean_memo):
        # The benchmark's slow leg relies on this: with the switch off,
        # normalisation must recompute (pre-memoisation behaviour), not be
        # served from the frozen object or the intern table.
        clean_memo.setenv(MEMO_ENV, "0")
        memo.refresh_enabled()
        constraint = Constraint(LinExpr({"i": 2}, 4), GE)
        first = constraint.normalized()
        second = constraint.normalized()
        assert first == second
        assert first is not second

    def test_memo_on_interns_and_caches_normal_forms(self, clean_memo):
        clean_memo.setenv(MEMO_ENV, "1")
        memo.refresh_enabled()
        a = Constraint(LinExpr({"i": 2}, 4), GE)
        b = Constraint(LinExpr({"i": 2}, 4), GE)
        assert a.normalized() is a.normalized()
        assert a.normalized() is b.normalized()
        assert a.normalized().expr.coeffs == {"i": 1}

    def test_cache_overflow_flushes(self):
        cache = memo.MemoCache("test.overflow", maxsize=4)
        if not memo_enabled():
            pytest.skip("memo disabled in this environment")
        for k in range(6):
            cache.get_or_compute(k, lambda k=k: k)
        assert len(cache) <= 4


# -- fingerprints and interning ----------------------------------------------


class TestFingerprints:
    def test_structurally_equal_sets_share_a_fingerprint(self):
        a = parse_set("[N] -> { S[i] : 0 <= i and i <= N - 1 }").pieces[0]
        b = parse_set("[N] -> { S[i] : 0 <= i and i <= N - 1 }").pieces[0]
        assert a is not b
        assert a.fingerprint() == b.fingerprint()

    def test_different_sets_have_different_fingerprints(self):
        a = parse_set("{ S[i] : 0 <= i and i <= 5 }").pieces[0]
        b = parse_set("{ S[i] : 0 <= i and i <= 6 }").pieces[0]
        assert a.fingerprint() != b.fingerprint()

    def test_scaled_constraints_canonicalise_to_one_fingerprint(self):
        a = parse_set("{ S[i] : 0 <= 2*i and 2*i <= 10 }").pieces[0]
        b = parse_set("{ S[i] : 0 <= i and i <= 5 }").pieces[0]
        assert a.fingerprint() == b.fingerprint()

    def test_interned_count_reports_table_size(self):
        if not memo_enabled():
            pytest.skip("memo disabled in this environment")
        before = interned_count()
        Constraint(LinExpr({"zq_unique_dim": 3}, 9), GE).normalized()
        assert interned_count() >= before
        assert interned_count() == len(_intern_table)


# -- canonicalisation and simplify (the bugfix sweep) -------------------------


class TestCanonicalisation:
    def test_scaled_to_integers_returns_self_when_canonical(self):
        expr = LinExpr({"i": 2, "j": -3}, 5)
        assert expr.scaled_to_integers() is expr

    def test_scaled_to_integers_clears_denominators(self):
        expr = LinExpr({"i": Fraction(1, 2)}, 1)
        scaled = expr.scaled_to_integers()
        assert scaled.coeffs == {"i": 1}
        assert scaled.const == 2

    def test_scaled_to_integers_divides_common_factor(self):
        expr = LinExpr({"i": -2, "j": 4}, -6)
        scaled = expr.scaled_to_integers()
        assert scaled.coeffs == {"i": -1, "j": 2}
        assert scaled.const == -3


class TestSimplify:
    def _set(self, constraints):
        return BasicSet(Space("S", ("i", "j"), ("N",)), constraints)

    def test_keeps_only_the_tightest_parallel_bound(self):
        loose = Constraint(LinExpr({"i": 1}, 3), GE)   # i >= -3
        tight = Constraint(LinExpr({"i": 1}, 0), GE)   # i >= 0
        simplified = self._set([loose, tight]).simplify()
        assert len(simplified.constraints) == 1
        assert simplified.constraints[0].expr.const == 0

    def test_drops_inequality_implied_by_equality(self):
        eq = Constraint(LinExpr({"i": 1}, -5), EQ)     # i == 5
        ge = Constraint(LinExpr({"i": 1}, 0), GE)      # i >= 0, implied
        simplified = self._set([eq, ge]).simplify()
        assert simplified.constraints == (eq.normalized(),)

    def test_keeps_inequality_stricter_than_equality(self):
        eq = Constraint(LinExpr({"i": 1}, -5), EQ)     # i == 5
        ge = Constraint(LinExpr({"i": 1}, -7), GE)     # i >= 7: contradicts
        simplified = self._set([eq, ge]).simplify()
        assert len(simplified.constraints) == 2

    def test_identity_when_nothing_is_redundant(self):
        s = self._set([
            Constraint(LinExpr({"i": 1}, 0), GE),
            Constraint(LinExpr({"j": 1, "N": -1}, 0), GE),
        ])
        assert s.simplify() is s

    def test_simplify_is_memoised_by_fingerprint(self):
        if not memo_enabled():
            pytest.skip("memo disabled in this environment")
        memo.SIMPLIFY_CACHE.clear()
        a = self._set([Constraint(LinExpr({"i": 1}, 3), GE),
                       Constraint(LinExpr({"i": 1}, 0), GE)])
        b = self._set([Constraint(LinExpr({"i": 1}, 3), GE),
                       Constraint(LinExpr({"i": 1}, 0), GE)])
        assert a.simplify() is b.simplify()


# -- memoised set queries -----------------------------------------------------


class TestQueryMemoisation:
    def test_repeated_emptiness_checks_hit_the_cache(self):
        if not memo_enabled():
            pytest.skip("memo disabled in this environment")
        from repro.sets.fourier_motzkin import basic_set_is_empty

        memo.EMPTINESS_CACHE.clear()
        memo.EMPTINESS_CACHE.reset_counters()
        piece = parse_set("[N] -> { S[i] : 0 <= i and i <= N - 1 }").pieces[0]
        first = basic_set_is_empty(piece)
        hits_before = memo.EMPTINESS_CACHE.hits
        # A structurally equal set built independently must hit the cache.
        clone = parse_set("[N] -> { S[i] : 0 <= i and i <= N - 1 }").pieces[0]
        second = basic_set_is_empty(clone)
        assert second == first
        assert memo.EMPTINESS_CACHE.hits == hits_before + 1

    def test_projection_cache_returns_shared_result(self):
        if not memo_enabled():
            pytest.skip("memo disabled in this environment")
        memo.PROJECTION_CACHE.clear()
        a = parse_set("{ S[i, j] : 0 <= i and i <= 5 and i <= j and j <= 7 }").pieces[0]
        b = parse_set("{ S[i, j] : 0 <= i and i <= 5 and i <= j and j <= 7 }").pieces[0]
        assert project_out(a, ["j"]) is project_out(b, ["j"])

    def test_projection_results_are_correct_under_memo(self):
        piece = parse_set("{ S[i, j] : 0 <= i and i <= 5 and i <= j and j <= 7 }").pieces[0]
        projected = project_out(piece, ["j"])
        assert projected.space.dims == ("i",)
        points = {p[0] for p in piece.enumerate_points({})}
        assert set(p[0] for p in projected.enumerate_points({})) == points
