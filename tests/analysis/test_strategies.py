"""Strategy registry: built-ins, custom plug-ins, and the batch entry point."""

import pytest
import sympy

from repro.analysis import (
    AnalysisConfig,
    Analyzer,
    DerivationTask,
    TaskResult,
    available_strategies,
    get_strategy,
    register_strategy,
    unregister_strategy,
)
from repro.polybench import get_kernel


class OneTaskStrategy:
    """Base for test plug-ins: one whole-program task, keyed by name only."""

    name = "test-one-task"

    def plan(self, dfg, config):
        return [DerivationTask(strategy=self.name, statement="all")]

    def run_task(self, dfg, config, instance, task):
        return TaskResult(task=task)

    def task_signature(self, config):
        return (self.name,)


class TestRegistry:
    def test_builtins_registered(self):
        assert "kpartition" in available_strategies()
        assert "wavefront" in available_strategies()

    def test_get_strategy_instantiates(self):
        strategy = get_strategy("kpartition")
        assert strategy.name == "kpartition"
        assert callable(strategy.run_task)

    def test_unknown_strategy_lists_alternatives(self):
        with pytest.raises(KeyError, match="kpartition"):
            get_strategy("definitely-not-registered")

    def test_duplicate_registration_rejected(self):
        class Duplicate(OneTaskStrategy):
            name = "kpartition"

        with pytest.raises(ValueError, match="already registered"):
            register_strategy(Duplicate)

    def test_factory_without_name_rejected(self):
        with pytest.raises(ValueError, match="name"):
            register_strategy(lambda: None)

    def test_derive_only_strategy_rejected_at_registration(self):
        """A strategy without the task methods fails when it is registered,
        naming the missing method, not with an AttributeError mid-run."""

        class DeriveOnly:
            name = "test-derive-only"
            derive = lambda self, dfg, config, instance, log: []  # noqa: E731

        with pytest.raises(ValueError, match=r"test-derive-only.*plan\(\)"):
            register_strategy(DeriveOnly)
        assert "test-derive-only" not in available_strategies()

        class NoSignature(OneTaskStrategy):
            name = "test-no-signature"
            task_signature = None

        with pytest.raises(ValueError, match=r"task_signature\(\)"):
            register_strategy(NoSignature)


    @pytest.mark.parametrize("method", ["plan", "run_task", "task_signature"])
    def test_each_missing_task_method_is_named(self, method):
        """Dropping any one of the three task methods is caught at
        registration, and the error names that method."""
        missing = type(f"Missing_{method}", (OneTaskStrategy,), {method: None})
        missing.name = f"test-missing-{method}"
        with pytest.raises(ValueError, match=rf"{missing.name}.*{method}\(\)"):
            register_strategy(missing)
        assert missing.name not in available_strategies()

    def test_non_class_factory_is_checked_on_an_instance(self):
        """A factory that is not a class is called once and its product
        checked, so a lambda returning a derive-only object is rejected."""

        class DeriveOnly:
            derive = lambda self, dfg, config, instance, log: []  # noqa: E731

        with pytest.raises(ValueError, match=r"test-lambda.*plan\(\)"):
            register_strategy(lambda: DeriveOnly(), name="test-lambda")
        assert "test-lambda" not in available_strategies()


class TestCustomStrategy:
    def test_noop_strategy_plugs_into_the_driver(self):
        """A registered no-op strategy runs through Analyzer unchanged: the
        driver still combines sub-bounds and adds the compulsory misses."""

        calls = []

        class NoOpStrategy(OneTaskStrategy):
            name = "test-noop"

            def run_task(self, dfg, config, instance, task):
                calls.append(dfg.program.name)
                return TaskResult(task=task, log=["noop: nothing derived"])

        register_strategy(NoOpStrategy)
        try:
            program = get_kernel("gemm").program
            result = Analyzer(AnalysisConfig(strategies=("test-noop",))).analyze(program)
        finally:
            unregister_strategy("test-noop")

        assert calls == ["gemm"]
        assert result.sub_bounds == []
        assert "noop: nothing derived" in result.log
        # No sub-bounds -> the bound degenerates to the compulsory input misses.
        assert sympy.simplify(result.smooth - program.input_size()) == 0

    def test_custom_strategy_composes_with_builtins(self):
        class MarkerStrategy(OneTaskStrategy):
            name = "test-marker"

            def run_task(self, dfg, config, instance, task):
                return TaskResult(task=task, log=["marker ran"])

        register_strategy(MarkerStrategy)
        try:
            config = AnalysisConfig(strategies=("kpartition", "test-marker"), max_depth=0)
            result = Analyzer(config).analyze(get_kernel("gemm").program)
        finally:
            unregister_strategy("test-marker")

        assert "marker ran" in result.log
        assert any(b.method == "kpartition" for b in result.sub_bounds)

    def test_kpartition_only_config_skips_wavefront(self):
        program = get_kernel("durbin").program
        full = Analyzer(AnalysisConfig(max_depth=1)).analyze(program)
        kpart_only = Analyzer(
            AnalysisConfig(max_depth=1, strategies=("kpartition",))
        ).analyze(program)
        assert any(b.method == "wavefront" for b in full.sub_bounds)
        assert not any(b.method == "wavefront" for b in kpart_only.sub_bounds)


class TestAnalyzeMany:
    KERNELS = ["gemm", "atax", "mvt", "trisolv", "bicg"]

    def test_parallel_matches_sequential(self):
        """Acceptance: analyze_many over >= 5 PolyBench kernels with n_jobs=2
        matches the sequential results."""
        programs = [get_kernel(name).program for name in self.KERNELS]
        sequential = Analyzer(AnalysisConfig(max_depth=0)).analyze_many(programs)
        parallel = Analyzer(AnalysisConfig(max_depth=0, n_jobs=2)).analyze_many(programs)
        assert [r.program_name for r in parallel] == [r.program_name for r in sequential]
        for seq, par in zip(sequential, parallel):
            assert sympy.simplify(seq.smooth - par.smooth) == 0
            assert sympy.simplify(seq.asymptotic - par.asymptotic) == 0

    def test_batch_preserves_input_order(self):
        names = list(reversed(self.KERNELS))
        programs = [get_kernel(name).program for name in names]
        results = Analyzer(AnalysisConfig(max_depth=0)).analyze_many(programs)
        assert [r.program_name for r in results] == names

    def test_suite_honours_n_jobs_on_config(self):
        """analyze_suite must not silently reset parallelism requested via
        the config object (regression: the n_jobs parameter clobbered it)."""
        from repro.analysis import AnalysisConfig
        from repro.polybench import analyze_suite

        analyses = analyze_suite(
            self.KERNELS[:3], config=AnalysisConfig(max_depth=0, n_jobs=2)
        )
        assert [a.spec.name for a in analyses] == self.KERNELS[:3]
        reference = analyze_suite(self.KERNELS[:3], max_depth=0)
        for batch, ref in zip(analyses, reference):
            assert sympy.simplify(batch.result.smooth - ref.result.smooth) == 0

    def test_batch_uses_disk_cache(self, tmp_path):
        programs = [get_kernel(name).program for name in self.KERNELS[:3]]
        analyzer = Analyzer(AnalysisConfig(max_depth=0, cache_dir=tmp_path))
        first = analyzer.analyze_many(programs)
        entries = list(tmp_path.glob("objects/*/*.json"))
        results = [p for p in entries if not p.stem.endswith("-task")]
        tasks = [p for p in entries if p.stem.endswith("-task")]
        assert len(results) == 3
        assert tasks, "task-level entries must be memoised alongside results"
        second = analyzer.analyze_many(programs)
        for a, b in zip(first, second):
            assert a.asymptotic == b.asymptotic
