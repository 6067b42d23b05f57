"""Regression tests for the batch alignment contract of ``analyze_many``.

The docstring promises an output list index-aligned with the input programs.
An earlier implementation filtered ``None`` slots out of the result list
instead, so a single silently-failed derivation would shift every later
result onto the wrong program — callers zipping ``programs`` with the return
value would mis-attribute bounds.  ``analyze_many`` must raise instead.
"""

from __future__ import annotations

import pytest

from repro.analysis import (
    AnalysisConfig,
    Analyzer,
    BoundStore,
    derivation_count,
    reset_derivation_count,
)
from repro.analysis import analyzer as analyzer_module
from repro.polybench import get_kernel

KERNELS = ["gemm", "atax", "mvt"]


class TestBatchAlignment:
    def test_results_align_with_inputs_even_with_duplicates(self, tmp_path):
        programs = [get_kernel(name).program for name in KERNELS]
        programs.append(get_kernel("gemm").program)  # duplicate of index 0
        analyzer = Analyzer(AnalysisConfig(max_depth=0), store=BoundStore(tmp_path))
        reset_derivation_count()
        results = analyzer.analyze_many(programs)
        assert [r.program_name for r in results] == [p.name for p in programs]
        # The duplicate shares one derivation rather than re-deriving.
        assert derivation_count() == len(KERNELS)

    def test_mixed_cached_and_fresh_batch_stays_aligned(self, tmp_path):
        analyzer = Analyzer(AnalysisConfig(max_depth=0), store=BoundStore(tmp_path))
        gemm = get_kernel("gemm").program
        analyzer.analyze(gemm)  # pre-populate one entry
        programs = [get_kernel(name).program for name in ["atax", "gemm", "mvt"]]
        results = analyzer.analyze_many(programs)
        assert [r.program_name for r in results] == ["atax", "gemm", "mvt"]

    def test_silent_none_result_raises_instead_of_misaligning(self, monkeypatch):
        """A derivation that produces no result must not shrink the batch."""
        programs = [get_kernel(name).program for name in KERNELS]
        real_combine = analyzer_module.combine_plan

        def broken_combine(plan, task_results):
            if plan.program.name == "atax":
                return None  # simulate a silently failed combination
            return real_combine(plan, task_results)

        monkeypatch.setattr(analyzer_module, "combine_plan", broken_combine)
        analyzer = Analyzer(AnalysisConfig(max_depth=0))
        with pytest.raises(RuntimeError, match=r"indices \[1\].*atax"):
            analyzer.analyze_many(programs)


class TestSingleProgramCollector:
    @pytest.mark.parametrize("name,max_depth", [("gemm", 0), ("durbin", 1)])
    def test_analyze_matches_streamed_result(self, name, max_depth):
        """``analyze`` collects the same stream as ``analyze_stream``: the
        serial one-program result equals the one streamed out of a batch
        run on a thread pool, field for field."""
        program = get_kernel(name).program
        analyzer = Analyzer(AnalysisConfig(max_depth=max_depth))
        single = analyzer.analyze(program)
        streamed = dict(
            analyzer.analyze_stream(
                [get_kernel("atax").program, program], executor="thread"
            )
        )
        assert single.to_dict() == streamed[name].to_dict()
        assert single.log == streamed[name].log
