"""ModelSpec: validation, JSON round-trips and the engines it builds."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api import ALGORITHMS, BACKEND_NAMES, ModelSpec, build_engine
from repro.api.spec import BACKEND_OPTIONS
from repro.core.warplda import WarpLDA
from repro.streaming.online import OnlineTrainer
from repro.training.parallel import ParallelTrainer


class TestValidation:
    def test_defaults_construct(self):
        spec = ModelSpec()
        assert spec.algorithm == "warplda"
        assert spec.backend == "serial"
        assert spec.backend_options == {}

    def test_every_algorithm_accepted(self):
        for algorithm in ALGORITHMS:
            assert ModelSpec(algorithm=algorithm).algorithm == algorithm

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            ModelSpec(algorithm="plsa")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            ModelSpec(backend="gpu")

    @pytest.mark.parametrize("bad", [0, -3])
    def test_nonpositive_topics_rejected(self, bad):
        with pytest.raises(ValueError, match="num_topics must be positive"):
            ModelSpec(num_topics=bad)

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError, match="beta must be positive"):
            ModelSpec(beta=-0.01)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError, match="alpha entries must be positive"):
            ModelSpec(alpha=-1.0)

    def test_vector_alpha_serial_only(self):
        spec = ModelSpec(num_topics=3, alpha=[0.1, 0.2, 0.3])
        assert spec.alpha == [0.1, 0.2, 0.3]
        with pytest.raises(ValueError, match="scalar"):
            ModelSpec(
                num_topics=3,
                alpha=[0.1, 0.2, 0.3],
                backend="parallel",
                backend_options={"backend": "inline"},
            )

    def test_unknown_backend_option_rejected(self):
        with pytest.raises(ValueError, match="backend options"):
            ModelSpec(backend="parallel", backend_options={"num_shards": 4})
        with pytest.raises(ValueError, match="backend options"):
            ModelSpec(backend="serial", backend_options={"num_workers": 2})

    def test_backend_option_values_validated_at_construction(self):
        # The target trainer's own schedule check runs during spec validation.
        with pytest.raises(ValueError, match="decay"):
            ModelSpec(backend="online", backend_options={"decay": 1.5})
        with pytest.raises(ValueError, match="iterations_per_epoch"):
            ModelSpec(
                backend="parallel", backend_options={"iterations_per_epoch": 0}
            )

    def test_bad_kernel_and_seed_rejected(self):
        with pytest.raises(ValueError, match="kernel"):
            ModelSpec(kernel="simd")
        with pytest.raises(ValueError, match="seed"):
            ModelSpec(seed="zero")
        with pytest.raises(ValueError, match="seed"):
            ModelSpec(seed=True)

    def test_numpy_integer_seed_coerced(self):
        spec = ModelSpec(seed=np.int64(3))
        assert spec.seed == 3 and type(spec.seed) is int
        assert ModelSpec.from_json(spec.to_json()) == spec

    def test_configs_reject_vector_alpha(self, tiny_corpus):
        # The trainers' keywords are JSON-serialised (checkpoint sidecars,
        # snapshot metadata): a vector alpha must fail at construction, not
        # at save time.
        alpha = np.array([0.1, 0.2, 0.3])
        with pytest.raises(ValueError, match="scalar"):
            ParallelTrainer(tiny_corpus, backend="inline", num_topics=3, alpha=alpha)
        with pytest.raises(ValueError, match="scalar"):
            OnlineTrainer(num_topics=3, alpha=alpha)

    def test_parallel_build_options_validated_at_construction(self):
        with pytest.raises(ValueError, match="num_workers"):
            ModelSpec(backend="parallel", backend_options={"num_workers": 0})
        with pytest.raises(ValueError, match="'process' or"):
            ModelSpec(backend="parallel", backend_options={"backend": "threads"})


class TestSerialisation:
    def test_dict_round_trip(self):
        spec = ModelSpec(
            num_topics=12,
            algorithm="lightlda",
            alpha=0.3,
            beta=0.02,
            num_mh_steps=4,
            kernel="scalar",
            backend="online",
            backend_options={"window_docs": 64, "decay": 0.99},
            seed=7,
        )
        assert ModelSpec.from_dict(spec.to_dict()) == spec

    def test_json_round_trip(self):
        spec = ModelSpec(num_topics=5, seed=1)
        assert ModelSpec.from_json(spec.to_json()) == spec
        assert json.loads(spec.to_json())["num_topics"] == 5

    def test_partial_dict_fills_defaults(self):
        spec = ModelSpec.from_dict({"num_topics": 9})
        assert spec == ModelSpec(num_topics=9)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown ModelSpec keys"):
            ModelSpec.from_dict({"num_topics": 5, "topics": 5})

    def test_non_object_json_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            ModelSpec.from_json("[1, 2, 3]")

    def test_file_round_trip(self, tmp_path):
        spec = ModelSpec(num_topics=6, algorithm="cgs", seed=3)
        path = spec.save(tmp_path / "spec.json")
        assert ModelSpec.load(path) == spec

    def test_vector_alpha_survives_json(self):
        spec = ModelSpec(num_topics=3, alpha=[0.1, 0.2, 0.3])
        assert ModelSpec.from_json(spec.to_json()) == spec

    def test_numpy_alpha_normalised_to_json_stable_form(self):
        vector = ModelSpec(num_topics=3, alpha=np.full(3, 0.2))
        assert vector.alpha == [0.2, 0.2, 0.2]
        scalar = ModelSpec(num_topics=3, alpha=np.float64(0.5))
        assert scalar.alpha == 0.5 and isinstance(scalar.alpha, float)
        # Both must round-trip through JSON without a serialisation error.
        for spec in (vector, scalar):
            assert ModelSpec.from_json(spec.to_json()) == spec


class TestBuildEngine:
    def test_backend_names_cover_option_table(self):
        assert set(BACKEND_NAMES) == set(BACKEND_OPTIONS) == {
            "serial",
            "parallel",
            "online",
        }

    def test_serial_builds_a_sampler(self, tiny_corpus):
        spec = ModelSpec(num_topics=7, num_mh_steps=3, beta=0.02, kernel="scalar", seed=4)
        sampler = build_engine(spec, tiny_corpus)
        assert isinstance(sampler, WarpLDA)
        assert (sampler.num_topics, sampler.num_mh_steps, sampler.kernel) == (
            7,
            3,
            "scalar",
        )

    def test_serial_baseline_runs_its_best_kernel(self, tiny_corpus):
        # SparseLDA has no slab path, so the requested slab kernel builds it
        # on scalar, exactly like direct construction through build_sampler.
        spec = ModelSpec(num_topics=7, algorithm="sparselda")
        assert build_engine(spec, tiny_corpus).kernel == "scalar"

    def test_parallel_builds_a_trainer(self, small_corpus):
        spec = ModelSpec(
            num_topics=7,
            algorithm="cgs",
            backend="parallel",
            backend_options={
                "iterations_per_epoch": 2,
                "num_workers": 3,
                "backend": "inline",
            },
        )
        with build_engine(spec, small_corpus) as trainer:
            assert isinstance(trainer, ParallelTrainer)
            assert trainer.num_workers == 3
            assert trainer.config["sampler"] == "cgs"
            assert trainer.config["iterations_per_epoch"] == 2

    def test_online_builds_a_trainer(self):
        spec = ModelSpec(
            num_topics=7,
            algorithm="cgs",
            backend="online",
            backend_options={"window_docs": 32, "decay": 0.9, "publish_every": 2},
        )
        trainer = build_engine(spec)
        assert isinstance(trainer, OnlineTrainer)
        assert (trainer.num_topics, trainer.window_docs, trainer.decay) == (7, 32, 0.9)

    def test_with_backend_and_options(self):
        spec = ModelSpec(num_topics=4, seed=0)
        online = spec.with_backend("online", window_docs=16)
        assert online.backend == "online"
        assert online.backend_options == {"window_docs": 16}
        assert online.seed == 0
        assert spec.with_options(num_topics=8).num_topics == 8
