"""One validator: every entry point raises the same error for the same mistake."""

from __future__ import annotations

import json
import shutil

import numpy as np
import pytest

from repro.api import LDA, SPEC_METADATA_KEY, ModelSpec
from repro.api.cli import main
from repro.api.estimator import iter_token_batches
from repro.core.warplda import WarpLDA
from repro.evaluation.likelihood import log_joint_likelihood
from repro.evaluation.perplexity import held_out_perplexity
from repro.serving import ModelSnapshot, em_fold_in, mh_fold_in
from repro.samplers.registry import SAMPLER_REGISTRY, build_sampler
from repro.streaming.online import OnlineTrainer
from repro.streaming.pipeline import StreamingPipeline
from repro.training.checkpoint import Checkpoint
from repro.training.parallel import ParallelTrainer

#: The run descriptions that carry a whole run's hyper-parameters.
RUNS = ("ModelSpec", "ParallelTrainer", "OnlineTrainer")


def entry_points(corpus, num_mh_steps=False):
    """Every way to describe a run, as ``name -> callable(**options)``.

    With ``num_mh_steps`` only the entry points that carry an MH step count
    (the exact samplers have no such knob).
    """
    points = {"ModelSpec": ModelSpec}
    points["ParallelTrainer"] = lambda **kw: ParallelTrainer(
        corpus, num_workers=2, backend="inline", **kw
    )
    points["OnlineTrainer"] = lambda **kw: OnlineTrainer(**kw)
    points["build_sampler"] = lambda **kw: build_sampler(
        "warplda", corpus, **{"num_topics": 5, **kw}
    )
    for name, sampler_cls in SAMPLER_REGISTRY.items():
        if num_mh_steps and name not in ("warplda", "lightlda", "aliaslda"):
            continue
        points[name] = lambda cls=sampler_cls, **kw: cls(
            corpus, **{"num_topics": 5, **kw}
        )
    return points


class TestValidationConsistency:
    @pytest.mark.parametrize("name", RUNS)
    def test_zero_topics_rejected_everywhere(self, small_corpus, name):
        with pytest.raises(ValueError, match="num_topics must be positive"):
            entry_points(small_corpus)[name](num_topics=0)

    @pytest.mark.parametrize("name", RUNS)
    def test_negative_beta_rejected_everywhere(self, small_corpus, name):
        with pytest.raises(ValueError, match="beta must be positive"):
            entry_points(small_corpus)[name](num_topics=5, beta=-0.01)

    @pytest.mark.parametrize("name", RUNS)
    def test_negative_alpha_rejected_everywhere(self, small_corpus, name):
        with pytest.raises(ValueError, match="alpha"):
            entry_points(small_corpus)[name](num_topics=5, alpha=-1.0)

    def test_samplers_reject_directly(self, small_corpus):
        for sampler_cls in SAMPLER_REGISTRY.values():
            with pytest.raises(ValueError, match="num_topics must be positive"):
                sampler_cls(small_corpus, num_topics=0)
            with pytest.raises(ValueError, match="beta must be positive"):
                sampler_cls(small_corpus, num_topics=5, beta=-1.0)

    @pytest.mark.parametrize(
        "options, message",
        [
            ({"kernel": "fast"}, "kernel must be 'slab' or 'scalar', got 'fast'"),
            ({"kernel": "jit"}, "kernel must be 'slab' or 'scalar', got 'jit'"),
            ({"threads": 0}, "threads must be positive, got 0"),
            ({"threads": True}, "threads must be an int or None, got True"),
            ({"num_mh_steps": 0}, "num_mh_steps must be positive, got 0"),
        ],
        ids=["kernel", "retired-kernel", "threads-zero", "threads-bool", "mh-steps"],
    )
    def test_run_options_raise_the_same_text_everywhere(
        self, small_corpus, options, message
    ):
        points = entry_points(small_corpus, num_mh_steps="num_mh_steps" in options)
        assert len(points) >= 7
        for name, make in points.items():
            with pytest.raises(ValueError) as raised:
                make(**options)
            assert str(raised.value) == message, name

    @pytest.mark.parametrize("name", [*sorted(SAMPLER_REGISTRY), "ParallelTrainer"])
    def test_zero_evaluate_every_raises_the_same_text_everywhere(
        self, small_corpus, name
    ):
        """Every training loop that takes a tracker rejects a zero evaluation
        stride with the one text, before it runs a sweep."""
        if name == "ParallelTrainer":
            with ParallelTrainer(
                small_corpus, num_workers=2, num_topics=5, seed=0, backend="inline"
            ) as trainer:
                with pytest.raises(ValueError) as raised:
                    trainer.train(2, evaluate_every=0)
                assert trainer.epochs_completed == 0
        else:
            sampler = SAMPLER_REGISTRY[name](small_corpus, num_topics=5, seed=0)
            with pytest.raises(ValueError) as raised:
                sampler.fit(2, evaluate_every=0)
            assert sampler.iterations_completed == 0
        assert str(raised.value) == "evaluate_every must be positive, got 0"

    def test_word_proposal_checked_by_spec_and_sampler(self, small_corpus):
        message = "word_proposal must be 'mixture' or 'alias', got 'bogus'"
        for make in (
            lambda: ModelSpec(word_proposal="bogus"),
            lambda: WarpLDA(small_corpus, num_topics=5, word_proposal="bogus"),
        ):
            with pytest.raises(ValueError) as raised:
                make()
            assert str(raised.value) == message


#: Every integer scheduling option: ``option -> (spec backend, CLI
#: subcommand, direct construction with the value)``.
INTEGER_OPTIONS = {
    "num_workers": (
        "parallel",
        "train",
        lambda corpus, value: ParallelTrainer(corpus, value, backend="inline"),
    ),
    "iterations_per_epoch": (
        "parallel",
        "train",
        lambda corpus, value: ParallelTrainer(
            corpus, backend="inline", iterations_per_epoch=value
        ),
    ),
    "window_docs": ("online", "stream", lambda _, value: OnlineTrainer(window_docs=value)),
    "sweeps_per_batch": (
        "online",
        "stream",
        lambda _, value: OnlineTrainer(sweeps_per_batch=value),
    ),
    "publish_every": (
        "online",
        "stream",
        lambda _, value: StreamingPipeline(OnlineTrainer(), publish_every=value),
    ),
    "batch_docs": (
        "online",
        "stream",
        lambda corpus, value: list(iter_token_batches(corpus, value)),
    ),
}


class TestIntegerOptions:
    @pytest.mark.parametrize("value", [1.5, 2.0, True], ids=["float", "whole-float", "bool"])
    @pytest.mark.parametrize("option", sorted(INTEGER_OPTIONS))
    def test_non_int_rejected_at_construction(self, small_corpus, tmp_path, option, value):
        """Spec, direct construction and CLI all reject a non-int count with
        one text, before anything runs."""
        backend, command, construct = INTEGER_OPTIONS[option]
        message = f"{option} must be an int, got {value!r}"
        with pytest.raises(ValueError) as raised:
            ModelSpec(backend=backend, backend_options={option: value})
        assert str(raised.value) == message
        with pytest.raises(ValueError) as raised:
            construct(small_corpus, value)
        assert str(raised.value) == message
        # The CLI's flags are typed int; a spec file is how a float reaches it.
        path = tmp_path / "spec.json"
        path.write_text(
            json.dumps({"backend": backend, "backend_options": {option: value}})
        )
        with pytest.raises(SystemExit) as exited:
            main([command, "--synthetic", "--spec", str(path)])
        assert str(exited.value) == f"invalid model spec: {message}"


#: Where a prior enters; the last three take α only.
PRIOR_ENTRY_POINTS = (
    "ModelSpec",
    "WarpLDA",
    "log_joint_likelihood",
    "ModelSnapshot",
    "held_out_perplexity",
    "em_fold_in",
    "mh_fold_in",
)


def prior_entry_points(corpus):
    """Every place a Dirichlet prior enters, as ``name -> callable(alpha, beta)``.

    The fold-ins and perplexity take no β; each gets a batch with an empty
    document, the case a zero α turns into NaN.
    """
    num_topics, vocab = 3, corpus.vocabulary_size
    phi = np.full((num_topics, vocab), 1.0 / vocab)
    docs = [corpus.document_words(0), np.empty(0, dtype=np.int64)]
    counts = np.array([[1, 0, 0]])
    return {
        "ModelSpec": lambda a, b: ModelSpec(num_topics=num_topics, alpha=a, beta=b),
        "WarpLDA": lambda a, b: WarpLDA(corpus, num_topics=num_topics, alpha=a, beta=b),
        "log_joint_likelihood": lambda a, b: log_joint_likelihood(counts, counts, a, b),
        "ModelSnapshot": lambda a, b: ModelSnapshot(phi, a, b, corpus.vocabulary),
        "held_out_perplexity": lambda a, b: held_out_perplexity(corpus, phi, a),
        "em_fold_in": lambda a, b: em_fold_in(docs, phi, a),
        "mh_fold_in": lambda a, b: mh_fold_in(docs, phi, a, rng=0),
    }


class TestPriorValues:
    """One α/β check: NaN, ±inf and values <= 0 fail at every entry point."""

    ALPHA, BETA = [0.5, 0.5, 0.5], 0.01

    @pytest.mark.parametrize("value", [np.nan, np.inf, 0.0, -1.0])
    @pytest.mark.parametrize(
        "prior, name",
        [("alpha", name) for name in PRIOR_ENTRY_POINTS]
        + [("beta", name) for name in PRIOR_ENTRY_POINTS[:4]],
    )
    def test_rejected(self, small_corpus, prior, name, value):
        build = prior_entry_points(small_corpus)[name]
        build(self.ALPHA, self.BETA)  # the valid priors construct
        if prior == "alpha":
            with pytest.raises(ValueError, match="alpha entries must be positive"):
                build([value, 0.5, 0.5], self.BETA)
        else:
            with pytest.raises(ValueError, match="beta must be positive"):
                build(self.ALPHA, value)


def _rewrite_kernel(path, *keys):
    """Rewrite the ``kernel`` entry at ``keys`` of a JSON file to the retired name."""
    document = json.loads(path.read_text())
    node = document
    for key in keys:
        node = node[key]
    assert node["kernel"] == "slab"
    node["kernel"] = "jit"
    path.write_text(json.dumps(document))


class TestRetiredKernelName:
    """Artefacts written while ``"jit"`` was a kernel name still load, as ``"slab"``."""

    def test_spec_dict_and_spec_file(self, tmp_path):
        assert ModelSpec.from_dict({"kernel": "jit"}) == ModelSpec(kernel="slab")
        path = ModelSpec(num_topics=7).save(tmp_path / "spec.json")
        _rewrite_kernel(path)
        assert ModelSpec.load(path) == ModelSpec(num_topics=7, kernel="slab")

    def test_snapshot_sidecar(self, small_corpus, tmp_path):
        model = LDA(num_topics=4, seed=0).fit(small_corpus, num_iterations=1)
        path = model.save(tmp_path / "model.npz")
        _rewrite_kernel(tmp_path / "model.npz.json", "metadata", "model_spec")
        loaded = LDA.load(path)
        assert loaded.spec == model.spec
        assert loaded.export_snapshot() == model.export_snapshot()

    def test_checkpoint_resumes_byte_identically_to_slab(self, small_corpus, tmp_path):
        with ParallelTrainer(
            small_corpus, num_workers=2, num_topics=5, seed=11, backend="inline"
        ) as trainer:
            trainer.train(2)
            trainer.save_checkpoint(tmp_path / "slab")
        shutil.copytree(tmp_path / "slab", tmp_path / "retired")
        _rewrite_kernel(tmp_path / "retired" / "checkpoint.json", "config")
        resumed = {}
        for name in ("slab", "retired"):
            checkpoint = Checkpoint.load(tmp_path / name)
            assert checkpoint.config["kernel"] == "slab"
            with checkpoint.restore(small_corpus, backend="inline") as trainer:
                trainer.train(2)
                blob = trainer.export_snapshot().save(tmp_path / f"{name}.npz")
                resumed[name] = (trainer.assignments(), blob.read_bytes())
        np.testing.assert_array_equal(resumed["retired"][0], resumed["slab"][0])
        assert resumed["retired"][1] == resumed["slab"][1]


@pytest.mark.parametrize("algorithm", ["aliaslda", "lightlda"])
class TestSlabNamedForScalarOnlySampler:
    """AliasLDA and LightLDA had a slab path once; artefacts naming it run scalar."""

    def test_spec_file_builds_and_exports_scalar(self, small_corpus, tmp_path, algorithm):
        path = tmp_path / "spec.json"
        path.write_text(
            json.dumps({"algorithm": algorithm, "kernel": "slab", "num_topics": 4, "seed": 0})
        )
        model = LDA(ModelSpec.load(path)).fit(small_corpus, num_iterations=1)
        assert model.spec.kernel == "slab"
        assert model.model.kernel == "scalar"
        assert model.export_snapshot().metadata[SPEC_METADATA_KEY]["kernel"] == "scalar"

    def test_checkpoint_resumes_and_exports_scalar(self, small_corpus, tmp_path, algorithm):
        with ParallelTrainer(
            small_corpus, num_workers=2, num_topics=4, seed=3, backend="inline",
            sampler=algorithm, kernel="slab",
        ) as trainer:
            trainer.train(1)
            trainer.save_checkpoint(tmp_path / "ckpt")
        config = json.loads((tmp_path / "ckpt" / "checkpoint.json").read_text())["config"]
        assert (config["sampler"], config["kernel"]) == (algorithm, "slab")
        with Checkpoint.load(tmp_path / "ckpt").restore(
            small_corpus, backend="inline"
        ) as resumed:
            assert {w._runner.sampler.kernel for w in resumed._workers} == {"scalar"}
            resumed.train(1)
            assert resumed.epochs_completed == 2
        options = {"num_workers": 2, "backend": "inline"}
        with LDA(ModelSpec(backend="parallel", backend_options=options)) as model:
            model.fit(
                small_corpus, num_iterations=1, checkpoint_dir=tmp_path / "ckpt", resume=True
            )
            assert model.spec.algorithm == algorithm
            embedded = model.export_snapshot().metadata[SPEC_METADATA_KEY]
            assert embedded["kernel"] == "scalar"
