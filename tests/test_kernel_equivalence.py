"""Kernel/scalar equivalence: invariants, conditionals and perplexity parity.

The slab kernels must (a) keep every count structure exactly consistent with
the assignments after each iteration, (b) enumerate the very same Eq. (1)
conditional the scalar CGS exposes, and (c) land on the same held-out
perplexity as the scalar oracle on a corpus with sharp planted topics.  A
single chain's held-out perplexity still varies ~1.5% seed to seed (the
posterior has near-equivalent modes the finite chains settle into), so the
parity check compares each path's *mean over three seeds* — per-sampler
budgets in the parametrization, sized so a kernel bug (a wrong conditional
shifts perplexity far more than the sub-1.5% path offsets measured here)
fails deterministically while seed re-rolls do not.
"""

import numpy as np
import pytest

from repro.core.warplda import WarpLDA
from repro.corpus import SyntheticCorpusSpec, generate_lda_corpus
from repro.evaluation.perplexity import held_out_perplexity
from repro.kernels import block_conditionals
from repro.samplers import (
    AliasLDASampler,
    CollapsedGibbsSampler,
    LightLDASampler,
)

KERNEL_SAMPLERS = [CollapsedGibbsSampler, AliasLDASampler, LightLDASampler]


@pytest.fixture(scope="module")
def sharp_corpus():
    """Sharp, well-separated planted topics: a stable parity testbed."""
    spec = SyntheticCorpusSpec(
        num_documents=200,
        vocabulary_size=150,
        mean_document_length=40,
        num_topics=4,
        doc_topic_concentration=0.05,
        topic_word_concentration=0.02,
    )
    return generate_lda_corpus(spec, seed=0)


@pytest.fixture(scope="module")
def sharp_split(sharp_corpus):
    return sharp_corpus.split(0.75, seed=1)


class TestCountInvariants:
    @pytest.mark.parametrize("sampler_class", KERNEL_SAMPLERS)
    def test_consistency_after_every_kernel_iteration(
        self, small_corpus, sampler_class
    ):
        sampler = sampler_class(small_corpus, num_topics=5, seed=0, kernel="slab")
        for _ in range(3):
            sampler.fit(1)
            assert sampler.state.check_consistency()

    def test_warplda_counts_after_every_kernel_iteration(self, small_corpus):
        model = WarpLDA(small_corpus, num_topics=5, seed=0, kernel="slab")
        for _ in range(3):
            model.fit(1)
            np.testing.assert_array_equal(
                model.topic_counts,
                np.bincount(model.assignments, minlength=model.num_topics),
            )
            assert model.proposals.min() >= 0
            assert model.proposals.max() < model.num_topics

    @pytest.mark.parametrize("sampler_class", KERNEL_SAMPLERS)
    def test_kernel_choice_is_validated(self, tiny_corpus, sampler_class):
        with pytest.raises(ValueError, match="kernel"):
            sampler_class(tiny_corpus, num_topics=3, kernel="vectorised")

    def test_kernel_reproducible_from_seed(self, tiny_corpus):
        first = WarpLDA(tiny_corpus, num_topics=3, seed=9, kernel="slab").fit(3)
        second = WarpLDA(tiny_corpus, num_topics=3, seed=9, kernel="slab").fit(3)
        np.testing.assert_array_equal(first.assignments, second.assignments)

    @pytest.mark.parametrize("sampler_class", KERNEL_SAMPLERS)
    def test_imported_global_counts_survive_kernel_sweeps(
        self, small_corpus, sampler_class
    ):
        # Data-parallel epochs add external word-topic counts onto the live
        # ones; a kernel sweep must update them incrementally, never rebuild
        # them down to the shard-local contribution — which is what makes
        # clear_external_counts() an exact subtraction.
        sampler = sampler_class(small_corpus, num_topics=5, seed=0, kernel="slab")
        external = np.random.default_rng(1).integers(
            0, 5, size=(small_corpus.vocabulary_size, 5)
        ).astype(np.int64)
        sampler.set_external_counts(external)
        sampler.fit(2)
        local = np.zeros_like(external)
        np.add.at(local, (small_corpus.token_words, sampler.assignments), 1)
        np.testing.assert_array_equal(sampler.state.word_topic - local, external)
        np.testing.assert_array_equal(sampler.word_topic_counts(), local)
        sampler.clear_external_counts()
        assert sampler.state.check_consistency()

    def test_pre_kernel_checkpoint_config_resumes_on_scalar(
        self, small_corpus, tmp_path
    ):
        import json

        from repro.training import Checkpoint, ParallelTrainer

        with ParallelTrainer(
            small_corpus, 2, seed=0, backend="inline", sampler="cgs", num_topics=7
        ) as trainer:
            trainer.save_checkpoint(tmp_path / "ckpt")
        assert Checkpoint.load(tmp_path / "ckpt").config["kernel"] == "slab"
        # A checkpoint written before the kernel layer carries no kernel key.
        meta_path = tmp_path / "ckpt" / "checkpoint.json"
        meta = json.loads(meta_path.read_text())
        del meta["config"]["kernel"]
        meta_path.write_text(json.dumps(meta))
        checkpoint = Checkpoint.load(tmp_path / "ckpt")
        assert checkpoint.config["kernel"] == "scalar"
        with checkpoint.restore(small_corpus, backend="inline") as resumed:
            assert resumed.config["kernel"] == "scalar"


class TestCgsBlockConditionals:
    def test_matches_conditional_distribution_per_token(self, small_corpus):
        sampler = CollapsedGibbsSampler(
            small_corpus, num_topics=5, seed=2, kernel="scalar"
        )
        sampler.fit(1)  # leave uniform init so the counts carry structure
        stop = min(64, small_corpus.num_tokens)
        block = block_conditionals(
            sampler.state, 0, stop, sampler.alpha, sampler.beta, sampler.beta_sum
        )
        for token_index in range(stop):
            np.testing.assert_allclose(
                block[token_index],
                sampler.conditional_distribution(token_index),
                rtol=1e-12,
            )

    def test_stale_counts_substitute(self, small_corpus):
        sampler = CollapsedGibbsSampler(small_corpus, num_topics=5, seed=2)
        words = small_corpus.token_words[0:16]
        frozen_word_rows = sampler.state.word_topic[words].astype(np.float64)
        frozen_topic = sampler.state.topic_counts.copy()
        live = block_conditionals(
            sampler.state, 0, 16, sampler.alpha, sampler.beta, sampler.beta_sum
        )
        stale = block_conditionals(
            sampler.state,
            0,
            16,
            sampler.alpha,
            sampler.beta,
            sampler.beta_sum,
            word_rows=frozen_word_rows,
            topic_counts=frozen_topic,
        )
        np.testing.assert_allclose(live, stale)


#: Seeds averaged per path in the parity check.  Three independent chains
#: cut the ~1.5% single-seed spread to under 1% on the mean.
PARITY_SEEDS = (0, 1, 2)


class TestPerplexityParity:
    @pytest.mark.parametrize(
        "build, iterations, budget",
        [
            (lambda c, k, s: WarpLDA(c, num_topics=4, seed=s, kernel=k), 30, 0.02),
            # The blocked CGS kernel's inner passes mix faster per sweep than
            # the sequential scan, so at any finite horizon its mean sits
            # 1-1.5% *below* the scalar oracle's (measured over 20 seeds);
            # the budget covers that real offset plus the 3-seed-mean noise.
            (
                lambda c, k, s: CollapsedGibbsSampler(
                    c, num_topics=4, seed=s, kernel=k
                ),
                25,
                0.035,
            ),
            (
                lambda c, k, s: AliasLDASampler(c, num_topics=4, seed=s, kernel=k),
                25,
                0.02,
            ),
            # LightLDA's delayed kernel mixes more slowly early on; both
            # paths sit on the shared plateau by 50 sweeps.
            (
                lambda c, k, s: LightLDASampler(c, num_topics=4, seed=s, kernel=k),
                50,
                0.02,
            ),
        ],
        ids=["warplda", "cgs", "aliaslda", "lightlda"],
    )
    def test_held_out_perplexity_parity(
        self, sharp_split, build, iterations, budget
    ):
        train, held = sharp_split
        means = {}
        for kernel in ("scalar", "slab"):
            runs = [
                build(train, kernel, seed).fit(iterations)
                for seed in PARITY_SEEDS
            ]
            means[kernel] = float(
                np.mean(
                    [
                        held_out_perplexity(held, m.phi(), m.alpha)
                        for m in runs
                    ]
                )
            )
        gap = abs(means["slab"] - means["scalar"])
        assert gap / means["scalar"] < budget, means
