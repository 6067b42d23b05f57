"""JSON serialization: exact round-trips of results, documents and caches."""

import json

import sympy

from repro.analysis import (
    AnalysisConfig,
    Analyzer,
    load_results,
    program_fingerprint,
    results_from_document,
    results_to_document,
    save_results,
)
from repro.core import IOBoundResult
from repro.polybench import get_kernel


def _analyze(name, **config_kwargs):
    spec = get_kernel(name)
    config_kwargs.setdefault("max_depth", spec.max_depth)
    return Analyzer(AnalysisConfig(**config_kwargs)).analyze(spec.program)


class TestResultRoundTrip:
    def test_gemm_round_trip_preserves_expressions(self):
        result = _analyze("gemm")
        reloaded = IOBoundResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert reloaded.expression == result.expression
        assert reloaded.smooth == result.smooth
        assert reloaded.asymptotic == result.asymptotic
        assert reloaded.input_size == result.input_size
        assert reloaded.total_flops == result.total_flops
        assert reloaded.parameters == result.parameters
        assert reloaded.log == result.log

    def test_round_trip_preserves_sub_bounds_and_may_spill(self):
        result = _analyze("gemm")
        reloaded = IOBoundResult.from_dict(result.to_dict())
        assert len(reloaded.sub_bounds) == len(result.sub_bounds)
        for original, loaded in zip(result.sub_bounds, reloaded.sub_bounds):
            assert loaded.expression == original.expression
            assert loaded.smooth == original.smooth
            assert loaded.method == original.method
            assert loaded.statement == original.statement
            assert loaded.depth == original.depth
            assert set(loaded.may_spill) == {
                s for s, d in original.may_spill.items() if d.pieces
            }
            for statement, domain in loaded.may_spill.items():
                assert repr(domain) == repr(original.may_spill[statement])

    def test_wavefront_result_round_trip(self):
        result = _analyze("durbin")
        reloaded = IOBoundResult.from_dict(result.to_dict())
        assert reloaded.asymptotic == result.asymptotic
        assert {b.method for b in reloaded.sub_bounds} == {
            b.method for b in result.sub_bounds
        }

    def test_reloaded_result_still_evaluates(self):
        result = _analyze("gemm")
        reloaded = IOBoundResult.from_dict(result.to_dict())
        instance = {"Ni": 40, "Nj": 40, "Nk": 40, "S": 64}
        assert reloaded.evaluate(instance) == result.evaluate(instance)
        assert sympy.simplify(reloaded.oi_upper_bound() - result.oi_upper_bound()) == 0

    def test_max_and_min_rebuild_exactly(self):
        # Stored Max/Min are rebuilt without re-evaluation; the result must
        # still be the very expression that was stored.
        from repro.core.bounds import expr_from_text

        n, m, s = sympy.symbols("N M S", positive=True, integer=True)
        for expr in (
            sympy.Max(n * m / sympy.sqrt(s), n**2 / 2, m - 3),
            sympy.Min(n, m) + sympy.Max(n, 2) * sympy.floor(m / 3),
        ):
            rebuilt = expr_from_text(sympy.srepr(expr))
            assert rebuilt == expr
            assert sympy.srepr(rebuilt) == sympy.srepr(expr)

    def test_malicious_expression_rejected(self):
        """Deserialization must not eval arbitrary code from a document."""
        data = _analyze("gemm").to_dict()
        data["asymptotic"] = "__import__('os').system('true')"
        try:
            IOBoundResult.from_dict(data)
        except ValueError as error:
            assert "refusing" in str(error)
        else:
            raise AssertionError("expected malicious payload to be rejected")

    def test_schema_mismatch_rejected(self):
        data = _analyze("gemm").to_dict()
        data["schema"] = 999
        try:
            IOBoundResult.from_dict(data)
        except ValueError as error:
            assert "schema" in str(error)
        else:
            raise AssertionError("expected a schema ValueError")


class TestDocuments:
    def test_document_round_trip(self, tmp_path):
        results = [_analyze("gemm"), _analyze("atax")]
        path = save_results(results, tmp_path / "bounds.json")
        reloaded = load_results(path)
        assert sorted(reloaded) == ["atax", "gemm"]
        assert reloaded["gemm"].asymptotic == results[0].asymptotic
        assert reloaded["atax"].smooth == results[1].smooth

    def test_document_schema_guard(self):
        document = results_to_document([_analyze("gemm")])
        document["schema"] = -1
        try:
            results_from_document(document)
        except ValueError as error:
            assert "schema" in str(error)
        else:
            raise AssertionError("expected a schema ValueError")


class TestFingerprintAndCache:
    def test_fingerprint_is_stable_and_discriminating(self):
        gemm = get_kernel("gemm").program
        atax = get_kernel("atax").program
        assert program_fingerprint(gemm) == program_fingerprint(gemm)
        assert program_fingerprint(gemm) != program_fingerprint(atax)

    def test_disk_cache_hit_returns_equal_bound(self, tmp_path):
        spec = get_kernel("gemm")
        analyzer = Analyzer(AnalysisConfig(max_depth=0, cache_dir=tmp_path))
        first = analyzer.analyze(spec.program)
        assert list(tmp_path.glob("objects/*/*.json"))
        second = analyzer.analyze(spec.program)
        assert second.smooth == first.smooth
        assert second.asymptotic == first.asymptotic

    def test_cache_key_depends_on_config(self, tmp_path):
        spec = get_kernel("gemm")
        a = Analyzer(AnalysisConfig(max_depth=0, cache_dir=tmp_path))
        b = Analyzer(AnalysisConfig(max_depth=0, gamma=0.5, cache_dir=tmp_path))
        assert a.cache_key(spec.program) != b.cache_key(spec.program)

    def test_corrupt_cache_entry_is_recomputed(self, tmp_path):
        spec = get_kernel("gemm")
        analyzer = Analyzer(AnalysisConfig(max_depth=0, cache_dir=tmp_path))
        fresh = analyzer.analyze(spec.program)
        (entry,) = (
            p for p in tmp_path.glob("objects/*/*.json") if not p.stem.endswith("-task")
        )
        entry.write_text("{ not json")
        again = analyzer.analyze(spec.program)
        assert again.smooth == fresh.smooth
