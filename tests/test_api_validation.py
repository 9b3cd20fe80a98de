"""One validator: every entry point raises the same error for the same mistake."""

from __future__ import annotations

import pytest

from repro.api import ModelSpec
from repro.core.warplda import WarpLDA
from repro.samplers.registry import SAMPLER_REGISTRY
from repro.streaming.online import OnlineTrainer, OnlineTrainerConfig
from repro.training.parallel import ParallelTrainer, TrainerConfig

CONFIGS = {
    "ModelSpec": ModelSpec,
    "TrainerConfig": TrainerConfig,
    "OnlineTrainerConfig": OnlineTrainerConfig,
}


def entry_points(corpus, num_mh_steps=False):
    """Every way to describe a run, as ``name -> callable(**options)``.

    With ``num_mh_steps`` only the entry points that carry an MH step count
    (the exact samplers have no such knob).
    """
    points = dict(CONFIGS)
    points["ParallelTrainer"] = lambda **kw: ParallelTrainer(
        corpus, num_workers=2, backend="inline", **kw
    )
    points["OnlineTrainer"] = lambda **kw: OnlineTrainer(**kw)
    for name, sampler_cls in SAMPLER_REGISTRY.items():
        if num_mh_steps and name not in ("warplda", "lightlda", "aliaslda"):
            continue
        points[name] = lambda cls=sampler_cls, **kw: cls(
            corpus, **{"num_topics": 5, **kw}
        )
    return points


class TestValidationConsistency:
    @pytest.mark.parametrize("make", CONFIGS.values(), ids=CONFIGS)
    def test_zero_topics_rejected_everywhere(self, make):
        with pytest.raises(ValueError, match="num_topics must be positive"):
            make(num_topics=0)

    @pytest.mark.parametrize("make", CONFIGS.values(), ids=CONFIGS)
    def test_negative_beta_rejected_everywhere(self, make):
        with pytest.raises(ValueError, match="beta must be positive"):
            make(num_topics=5, beta=-0.01)

    @pytest.mark.parametrize("make", CONFIGS.values(), ids=CONFIGS)
    def test_negative_alpha_rejected_everywhere(self, make):
        with pytest.raises(ValueError, match="alpha"):
            make(num_topics=5, alpha=-1.0)

    def test_samplers_reject_directly(self, small_corpus):
        for sampler_cls in SAMPLER_REGISTRY.values():
            with pytest.raises(ValueError, match="num_topics must be positive"):
                sampler_cls(small_corpus, num_topics=0)
            with pytest.raises(ValueError, match="beta must be positive"):
                sampler_cls(small_corpus, num_topics=5, beta=-1.0)

    @pytest.mark.parametrize(
        "options, message",
        [
            ({"kernel": "fast"}, "kernel must be 'slab', 'scalar' or 'jit', got 'fast'"),
            ({"threads": 0}, "threads must be positive, got 0"),
            ({"threads": True}, "threads must be an int or None, got True"),
            ({"num_mh_steps": 0}, "num_mh_steps must be positive, got 0"),
        ],
        ids=["kernel", "threads-zero", "threads-bool", "mh-steps"],
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

    def test_word_proposal_checked_by_spec_and_sampler(self, small_corpus):
        message = "word_proposal must be 'mixture' or 'alias', got 'bogus'"
        for make in (
            lambda: ModelSpec(word_proposal="bogus"),
            lambda: WarpLDA(small_corpus, num_topics=5, word_proposal="bogus"),
        ):
            with pytest.raises(ValueError) as raised:
                make()
            assert str(raised.value) == message
