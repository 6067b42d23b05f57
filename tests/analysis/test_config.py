"""AnalysisConfig: validation, defaults, signatures and serialisation."""

import pytest

from repro.analysis import (
    DEFAULT_CACHE_SIZE,
    DEFAULT_GAMMA,
    DEFAULT_PARAM_VALUE,
    AnalysisConfig,
    Analyzer,
)
from repro.polybench import get_kernel


class TestDefaults:
    def test_default_fields(self):
        config = AnalysisConfig()
        assert config.instance is None
        assert config.gamma == DEFAULT_GAMMA
        assert config.max_depth == 1
        assert config.validate_wavefront is True
        assert config.wavefront_validation_instance is None
        assert config.max_subcdags_per_statement == 1
        assert config.strategies == ("kpartition", "wavefront")
        assert config.n_jobs == 1
        assert config.cache_dir is None

    def test_heuristic_instance_defaults(self):
        config = AnalysisConfig()
        instance = config.heuristic_instance(("Ni", "Nj"))
        assert instance == {
            "Ni": DEFAULT_PARAM_VALUE,
            "Nj": DEFAULT_PARAM_VALUE,
            "S": DEFAULT_CACHE_SIZE,
        }

    def test_heuristic_instance_overrides(self):
        config = AnalysisConfig(instance={"Ni": 7, "S": 32})
        assert config.heuristic_instance(("Ni", "Nj")) == {
            "Ni": 7,
            "Nj": DEFAULT_PARAM_VALUE,
            "S": 32,
        }

    def test_strategies_normalised_to_tuple(self):
        config = AnalysisConfig(strategies=["kpartition"])
        assert config.strategies == ("kpartition",)


class TestValidation:
    @pytest.mark.parametrize("gamma", [-0.1, 1.5])
    def test_gamma_out_of_range(self, gamma):
        with pytest.raises(ValueError, match="gamma"):
            AnalysisConfig(gamma=gamma)

    def test_negative_max_depth(self):
        with pytest.raises(ValueError, match="max_depth"):
            AnalysisConfig(max_depth=-1)

    def test_zero_subcdag_rounds(self):
        with pytest.raises(ValueError, match="max_subcdags_per_statement"):
            AnalysisConfig(max_subcdags_per_statement=0)

    def test_zero_jobs(self):
        with pytest.raises(ValueError, match="n_jobs"):
            AnalysisConfig(n_jobs=0)

    def test_empty_strategies(self):
        with pytest.raises(ValueError, match="strategies"):
            AnalysisConfig(strategies=())

    def test_unknown_strategy_fails_at_analysis_time(self):
        config = AnalysisConfig(strategies=("no-such-strategy",))
        with pytest.raises(KeyError, match="no-such-strategy"):
            Analyzer(config).analyze(get_kernel("gemm").program)

    def test_unknown_wavefront_validation_mode(self):
        with pytest.raises(ValueError, match="wavefront_validation"):
            AnalysisConfig(wavefront_validation="both")

    def test_wavefront_validation_default_and_signature(self):
        assert AnalysisConfig().wavefront_validation == "symbolic"
        symbolic = AnalysisConfig().signature()
        concrete = AnalysisConfig(wavefront_validation="concrete").signature()
        assert symbolic != concrete  # different semantics -> different cache keys

    def test_concrete_validation_mode_still_derives_durbin(self):
        config = AnalysisConfig(max_depth=1, wavefront_validation="concrete")
        result = Analyzer(config).analyze(get_kernel("durbin").program)
        assert any(b.method == "wavefront" for b in result.sub_bounds)


class TestRoundTripAndSignature:
    def test_dict_round_trip(self):
        config = AnalysisConfig(
            instance={"Ni": 12}, gamma=0.5, max_depth=2, n_jobs=3, cache_dir="/tmp/x"
        )
        assert AnalysisConfig.from_dict(config.to_dict()) == config

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown"):
            AnalysisConfig.from_dict({"gama": 0.5})

    def test_signature_ignores_execution_fields(self):
        base = AnalysisConfig()
        assert base.signature() == AnalysisConfig(n_jobs=4, cache_dir="/tmp/c").signature()
        assert base.signature() != AnalysisConfig(gamma=0.5).signature()

    def test_replace(self):
        config = AnalysisConfig().replace(max_depth=3)
        assert config.max_depth == 3
        assert config.gamma == DEFAULT_GAMMA
