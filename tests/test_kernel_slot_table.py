"""WarpLDA's K-free row counts: slot-table exactness and the K-scaling guard.

``repro.kernels.warp`` reads a row's delayed counts ``c[row, topic]`` through
a per-row slot table of width ``W = slot_table_width(K, slab_len)``, keyed
``row * W + slot`` over the chunk's real tokens, instead of a dense ``(R, K)``
histogram.  Two things are pinned here:

* **exactness** — the table returns exactly the dense histogram's values for
  any topics (property tests, adversarial collisions included), with the
  frozen external counts added on top where they are installed; one chunk's
  chain and a whole trajectory are byte-equal to a dense oracle (the width
  helper patched to return ``K``);
* **K-independence, by counting** — the chunk list and every allocated table
  cell are the same at ``K = 2**14`` and ``K = 2**20``, nothing on the
  positioning path — external counts installed or not — allocates a table
  along a ``K`` axis, and the installed table's proposal side costs
  ``O(ΣE + V)``, not ``O(VK)``;
* **the reused workspace** — a chunk built after another has used the same
  :class:`_SlotWorkspace` reads exactly the dense oracle (no stale slot
  leaks), a build allocates O(tokens) however wide its rows' tables are, and
  a phase makes one workspace per running task, not one per chunk.
"""

import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.core.warplda import WarpLDA
from repro.corpus import SyntheticCorpusSpec, generate_lda_corpus
from repro.kernels import warp
from repro.kernels.buckets import MIN_SLOT_WIDTH, corpus_buckets
from repro.kernels.proposals import token_layout
from repro.kernels.warp import (
    _external_counts,
    _phase_chunks,
    _slot_counts,
    _SlotWorkspace,
    _workspace_cells,
    document_phase,
    external_proposal_table,
    slot_table_width,
    word_phase,
)


def dense_histogram(current, row, num_rows, num_topics):
    """The ``(R, K)`` oracle, built the slow obvious way."""
    table = np.zeros((num_rows, num_topics))
    np.add.at(table, (row, current), 1.0)
    return table


def dense_lookup(current, row, num_rows, num_topics, topics):
    return dense_histogram(current, row, num_rows, num_topics)[row, topics]


def ragged(matrix, lengths):
    """The real tokens of a padded ``(R, L)`` matrix and their local row ids."""
    matrix, lengths = np.asarray(matrix), np.asarray(lengths)
    mask = np.arange(matrix.shape[1])[None, :] < lengths[:, None]
    return matrix[mask], token_layout(lengths)[1]


@st.composite
def chunks(draw):
    """A ragged chunk, a width below or at ``K``, and topics to query."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    num_rows = draw(st.integers(1, 6))
    slab_len = 1 << draw(st.integers(0, 5))
    num_topics = draw(st.integers(1, 300))
    # Any power of two is a legal width; small ones make every slot contested.
    width = min(num_topics, 1 << draw(st.integers(0, 7)))
    lengths = rng.integers(1, slab_len + 1, size=num_rows)
    # Few distinct topics per row (a trained document) or many (a fresh one).
    pool = rng.integers(num_topics, size=(num_rows, draw(st.integers(1, 8))))
    picks = rng.integers(pool.shape[1], size=(num_rows, slab_len))
    current, row = ragged(np.take_along_axis(pool, picks, axis=1), lengths)
    # Half the queries hit the chunk's own topics, half are arbitrary.
    queries = np.where(
        rng.random(current.size) < 0.5,
        rng.permutation(current),
        rng.integers(num_topics, size=current.size),
    )
    return current, row, num_rows, num_topics, width, queries


class TestSlotTableExactness:
    @seed(20260928)
    @settings(max_examples=300, deadline=None)
    @given(chunks())
    def test_matches_dense_histogram(self, chunk):
        current, row, num_rows, num_topics, width, queries = chunk
        count_at, count_current = _slot_counts(current, row, num_rows, num_topics, width)
        for topics in (queries, current):
            np.testing.assert_array_equal(
                count_at(topics), dense_lookup(current, row, num_rows, num_topics, topics)
            )
        # The counts at the chunk's own topics, as the builder hands them to
        # the chain.
        np.testing.assert_array_equal(
            count_current, dense_lookup(current, row, num_rows, num_topics, current)
        )

    @seed(20260929)
    @settings(max_examples=100, deadline=None)
    @given(chunks(), st.integers(0, 2**32 - 1))
    def test_external_term_adds_exactly(self, chunk, table_seed):
        # What the chain reads with frozen external counts installed: slot
        # lookup + E[word, topic] == (dense local + external)[row, topic].
        current, row, num_rows, num_topics, width, queries = chunk
        rng = np.random.default_rng(table_seed)
        external = rng.integers(0, 5, size=(num_rows + 3, num_topics))
        external[rng.integers(num_rows + 3)] = 0  # a word the other shards never saw
        words = rng.permutation(num_rows + 3)[:num_rows]
        count_at, _ = _slot_counts(current, row, num_rows, num_topics, width)
        external_at = _external_counts(external, words[row])
        combined = dense_histogram(current, row, num_rows, num_topics) + external[words]
        for topics in (queries, current):
            np.testing.assert_array_equal(
                count_at(topics) + external_at(topics), combined[row, topics]
            )

    @pytest.mark.parametrize("width", [1, 2, 64])
    def test_all_topics_congruent_mod_width(self, width):
        # Every topic of every row lands in slot 0: one owner, the rest overflow.
        num_topics = width * 9
        current, row = ragged((np.arange(24).reshape(3, 8) % 9) * width, [8, 5, 1])
        queries = np.arange(current.size) % num_topics
        count_at, _ = _slot_counts(current, row, 3, num_topics, width)
        for topics in (current, queries):
            np.testing.assert_array_equal(
                count_at(topics), dense_lookup(current, row, 3, num_topics, topics)
            )

    def test_one_topic_more_than_slots(self):
        # K = W + 1: topics 0 and W share slot 0, every other slot is private.
        width, num_topics = 64, 65
        lengths = [4, 4, 3]
        current, row = ragged([[0, 64, 64, 3], [64, 64, 64, 64], [0, 1, 2, 3]], lengths)
        queries, _ = ragged([[64, 0, 5, 3], [0, 64, 1, 2], [64, 3, 0, 2]], lengths)
        count_at, _ = _slot_counts(current, row, 3, num_topics, width)
        np.testing.assert_array_equal(
            count_at(queries), dense_lookup(current, row, 3, num_topics, queries)
        )

    def test_single_cell_rows_and_padded_tails(self):
        # L = 1 rows, and short rows of a long slab: what would have been the
        # padded tail is simply not there, so it can never be counted.
        ones, row = np.array([7, 300, 7]), np.arange(3)
        count_at, _ = _slot_counts(ones, row, 3, 1000, 64)
        np.testing.assert_array_equal(count_at(ones), [1.0, 1.0, 1.0])
        np.testing.assert_array_equal(count_at(ones[::-1] + 64), [0.0] * 3)

        current, row = ragged([[5, 69, 133, 5, 69, 133, 5, 69]] * 2, [1, 2])
        np.testing.assert_array_equal(current, [5, 5, 69])
        count_at, _ = _slot_counts(current, row, 2, 200, 64)
        queries = np.array([69, 69, 133])
        np.testing.assert_array_equal(count_at(current), [1.0, 1.0, 1.0])
        np.testing.assert_array_equal(count_at(queries), [0.0, 1.0, 0.0])

    def test_single_topic_model_is_dense(self):
        current, row = ragged(np.zeros((2, 4), dtype=np.int64), [4, 2])
        count_at, _ = _slot_counts(current, row, 2, 1, slot_table_width(1, 4))
        np.testing.assert_array_equal(count_at(current), [4.0] * 4 + [2.0] * 2)

    def test_absent_topics_read_zero(self):
        current, row = np.array([3, 3, 67, 131]), np.zeros(4, dtype=np.int64)
        count_at, _ = _slot_counts(current, row, 1, 512, 64)
        # Same slot as an owner, same slot as an overflowed topic, empty slot.
        np.testing.assert_array_equal(
            count_at(np.array([195, 259, 4, 3])), [0.0, 0.0, 0.0, 2.0]
        )


class TestSlotTableWidth:
    def test_dense_at_or_below_the_floor(self):
        for num_topics in (1, 8, MIN_SLOT_WIDTH):
            for slab_len in (1, 64, 4096):
                assert slot_table_width(num_topics, slab_len) == num_topics

    def test_twice_the_slab_above_the_floor(self):
        assert slot_table_width(16384, 1) == MIN_SLOT_WIDTH
        assert slot_table_width(16384, 32) == MIN_SLOT_WIDTH
        assert slot_table_width(16384, 128) == 256
        assert slot_table_width(16384, 16384) == 16384
        assert slot_table_width(100, 64) == 100

    def test_a_narrow_table_is_a_power_of_two(self):
        for num_topics in (65, 100, 1000, 1 << 20):
            for slab_len in (1, 2, 32, 64, 1024):
                width = slot_table_width(num_topics, slab_len)
                assert width == num_topics or width & (width - 1) == 0


@pytest.fixture
def dense_oracle(monkeypatch):
    """Patch the width helper so every chunk builds the dense ``(R, K)`` table."""

    def patch():
        monkeypatch.setattr(warp, "slot_table_width", lambda num_topics, slab_len: num_topics)

    return patch


@pytest.fixture(scope="module")
def corpus():
    spec = SyntheticCorpusSpec(
        num_documents=60, vocabulary_size=150, mean_document_length=40, num_topics=6
    )
    return generate_lda_corpus(spec, seed=5)


def run_phases(corpus, num_topics, rng_seed):
    """One word phase and one document phase from a fixed random state."""
    rng = np.random.default_rng(rng_seed)
    assignments = rng.integers(num_topics, size=corpus.num_tokens)
    proposals = rng.integers(num_topics, size=(2, corpus.num_tokens))
    alpha = np.full(num_topics, 50.0 / num_topics)
    beta, beta_sum = 0.01, 0.01 * corpus.vocabulary_size
    stale = np.bincount(assignments, minlength=num_topics).astype(np.float64)
    word_phase(
        assignments, proposals, corpus_buckets(corpus, "word"), stale,
        num_topics, 2, beta, beta_sum, rng,
    )  # fmt: skip
    stale = np.bincount(assignments, minlength=num_topics).astype(np.float64)
    document_phase(
        assignments, proposals, corpus_buckets(corpus, "doc"), stale,
        alpha, float(alpha.sum()), num_topics, 2, beta_sum, rng,
    )  # fmt: skip
    return assignments, proposals


class TestDenseOracle:
    # K = 512 on this corpus: all but the longest rows get W < K (the slot
    # tables really run) and every bucket is one chunk on both sides (the cap
    # binds on neither, so both consume the same per-chunk RNG streams).
    NUM_TOPICS = 512

    def test_cap_is_not_binding(self, corpus, dense_oracle):
        all_buckets = {axis: corpus_buckets(corpus, axis) for axis in ("word", "doc")}
        for buckets in all_buckets.values():
            assert len(_phase_chunks(buckets, self.NUM_TOPICS, None)) == len(buckets)
            narrow = [
                slot_table_width(self.NUM_TOPICS, b.slab_len) < self.NUM_TOPICS for b in buckets
            ]
            assert sum(narrow) >= len(buckets) - 1
        dense_oracle()
        for buckets in all_buckets.values():
            assert len(_phase_chunks(buckets, self.NUM_TOPICS, None)) == len(buckets)

    def test_chain_output_is_bit_equal(self, corpus, dense_oracle):
        slot = run_phases(corpus, self.NUM_TOPICS, rng_seed=11)
        dense_oracle()
        dense = run_phases(corpus, self.NUM_TOPICS, rng_seed=11)
        np.testing.assert_array_equal(slot[0], dense[0])
        np.testing.assert_array_equal(slot[1], dense[1])

    @pytest.mark.parametrize("threads", [1, 2])
    def test_whole_trajectory_is_byte_equal(self, corpus, dense_oracle, threads):
        def fit():
            return WarpLDA(
                corpus, num_topics=self.NUM_TOPICS, seed=3, threads=threads
            ).fit(5)

        slot = fit()
        dense_oracle()
        dense = fit()
        assert slot.assignments.tobytes() == dense.assignments.tobytes()
        assert slot.proposals.tobytes() == dense.proposals.tobytes()
        assert slot.rng.bit_generator.state == dense.rng.bit_generator.state


class TestKScalingGuard:
    """Counts, not clocks: the work the kernel sets up must not depend on K."""

    SMALL, LARGE = 1 << 14, 1 << 20
    MAX_CELLS = 1 << 10  # small enough that this corpus really is chunked

    def table_cells(self, corpus, num_topics):
        return sum(
            chunk.num_rows * slot_table_width(num_topics, chunk.slab_len)
            for axis in ("word", "doc")
            for chunk in _phase_chunks(corpus_buckets(corpus, axis), num_topics, self.MAX_CELLS)
        )

    def test_chunk_list_and_table_cells_do_not_depend_on_k(self, corpus):
        for axis in ("word", "doc"):
            buckets = corpus_buckets(corpus, axis)
            small = _phase_chunks(buckets, self.SMALL, self.MAX_CELLS)
            large = _phase_chunks(buckets, self.LARGE, self.MAX_CELLS)
            assert len(small) == len(large) > len(buckets)
            for a, b in zip(small, large):
                np.testing.assert_array_equal(a.rows, b.rows)
                assert a.num_rows * slot_table_width(self.SMALL, a.slab_len) <= self.MAX_CELLS
        cells = self.table_cells(corpus, self.SMALL)
        assert cells == self.table_cells(corpus, self.LARGE)
        padded = sum(
            bucket.num_rows * bucket.slab_len
            for axis in ("word", "doc")
            for bucket in corpus_buckets(corpus, axis)
        )
        assert cells <= 4 * padded

    def test_positioning_path_allocates_nothing_along_k(self, corpus):
        # Same chunks, same shapes: the peak of everything the phases allocate
        # may not grow with K.  The one K-vector they read, the shared
        # ``stale_topic_counts``, is allocated before tracing starts; a single
        # K-long array of even one byte per topic would add 1 MiB at LARGE.
        def peak(num_topics):
            rng = np.random.default_rng(0)
            assignments = rng.integers(num_topics, size=corpus.num_tokens)
            proposals = rng.integers(num_topics, size=(1, corpus.num_tokens))
            stale = np.bincount(assignments, minlength=num_topics).astype(np.float64)
            alpha = np.full(num_topics, 50.0 / num_topics)
            word_buckets = corpus_buckets(corpus, "word")
            doc_buckets = corpus_buckets(corpus, "doc")
            tracemalloc.start()
            try:
                word_phase(
                    assignments, proposals, word_buckets, stale, num_topics, 1,
                    0.01, 1.5, rng, threads=1, max_cells=self.MAX_CELLS,
                )  # fmt: skip
                document_phase(
                    assignments, proposals, doc_buckets, stale, alpha, 50.0,
                    num_topics, 1, 1.5, rng, threads=1, max_cells=self.MAX_CELLS,
                )  # fmt: skip
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # The one K-long array a phase may allocate is the reciprocal of the
        # shared ``stale_topic_counts`` (float64, once per phase, not per
        # chunk or token): the peak grows by exactly that vector and by
        # nothing else — one more K-long array of even one byte per topic
        # would add 1 MiB at LARGE.
        small, large = peak(self.SMALL), peak(self.LARGE)
        assert abs((large - small) - 8 * (self.LARGE - self.SMALL)) < 64 * 1024

    def test_external_counts_allocate_no_row_by_k_array(self, corpus, monkeypatch):
        # The proposal side of installed counts is ΣE pseudo-tokens plus
        # V + 1 offsets, and the chunks and their tables are the positioning
        # path's own: on a sparse table (ΣE << VK) building the proposal
        # table and running the phase together peak below one byte per
        # (V, K) cell.
        num_topics, max_cells = 4096, 1 << 12
        num_words = corpus.vocabulary_size
        buckets = corpus_buckets(corpus, "word")
        chunks = _phase_chunks(buckets, num_topics, max_cells)
        rng = np.random.default_rng(4)
        external = np.zeros((num_words, num_topics), dtype=np.int64)
        for word in range(num_words):
            used = rng.choice(num_topics, size=8, replace=False)
            external[word, used] = rng.integers(1, 4, size=8)
        external[buckets[0].rows[0]] = 0
        total = int(external.sum())

        seen = self.record_tables(monkeypatch)
        tracemalloc.start()
        try:
            proposal = external_proposal_table(external)
            table_peak = tracemalloc.get_traced_memory()[1]
            self.run_word_phase(
                corpus, num_topics, max_cells,
                external_word_topic=external, external_proposal=proposal,
            )  # fmt: skip
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert seen == [
            (c.num_rows, slot_table_width(num_topics, c.slab_len)) for c in chunks
        ]
        assert all(width < num_topics for _, width in seen)
        assert table_peak < 32 * (total + num_words + 1)
        assert peak < num_words * num_topics

    @staticmethod
    def record_tables(monkeypatch):
        """Record ``(rows, width)`` of every count table a phase builds."""
        seen = []
        original = warp._slot_counts

        def recording(current, row, num_rows, num_topics, width, *workspace):
            seen.append((num_rows, width))
            return original(current, row, num_rows, num_topics, width, *workspace)

        monkeypatch.setattr(warp, "_slot_counts", recording)
        return seen

    @staticmethod
    def run_word_phase(corpus, num_topics, max_cells, **kwargs):
        rng = np.random.default_rng(2)
        assignments = rng.integers(num_topics, size=corpus.num_tokens)
        proposals = rng.integers(num_topics, size=(1, corpus.num_tokens))
        stale = np.bincount(assignments, minlength=num_topics).astype(np.float64)
        word_phase(
            assignments, proposals, corpus_buckets(corpus, "word"), stale,
            num_topics, 1, 0.01, 1.5, rng, threads=1, max_cells=max_cells, **kwargs,
        )  # fmt: skip


class TestWorkspaceReuse:
    @seed(20261020)
    @settings(max_examples=200, deadline=None)
    @given(chunks(), chunks())
    def test_second_chunk_reads_the_dense_oracle(self, first, second):
        cells = max(chunk[2] * chunk[4] for chunk in (first, second))
        # Both chunks' topics fit either cell layout; int64 if either needs it.
        workspace = _SlotWorkspace(cells, max(first[3], second[3]))
        for current, row, num_rows, num_topics, width, queries in (first, second):
            count_at, count_current = _slot_counts(
                current, row, num_rows, num_topics, width, workspace
            )
            for topics in (queries, current):
                np.testing.assert_array_equal(
                    count_at(topics), dense_lookup(current, row, num_rows, num_topics, topics)
                )
            np.testing.assert_array_equal(
                count_current, dense_lookup(current, row, num_rows, num_topics, current)
            )
            workspace.release()
            # Released means pristine: nothing of this chunk is left to leak.
            assert (workspace.cell == -1).all() and not workspace.contested.any()

    def test_heavy_collisions_after_reuse(self):
        # Every row holds topics congruent mod W, so both levels contest and
        # the sorted overflow is reached; the same cells then serve a chunk
        # whose topics would match the first chunk's stale owners.
        width, num_topics = 4, 4 * 64
        workspace = _SlotWorkspace(3 * width, num_topics)
        first, row = ragged((np.arange(24).reshape(3, 8) % 8) * width * width, [8, 8, 8])
        second, _ = ragged(np.full((3, 8), 4 * width), [8, 8, 8])
        for current in (first, second, first):
            count_at, count_current = _slot_counts(
                current, row, 3, num_topics, width, workspace
            )
            for topics in (first, second, current + 1):
                np.testing.assert_array_equal(
                    count_at(topics), dense_lookup(current, row, 3, num_topics, topics)
                )
            workspace.release()

    @pytest.mark.parametrize("num_topics", [1 << 16, (1 << 16) + 1, 1 << 31])
    def test_cell_layout_holds_the_largest_topics_and_counts(self, num_topics):
        # int32 cells up to K = 2**16, int64 above: the top topic and a row
        # of K / 2 - 1 tokens (the longest a narrow table holds, W = 2 L < K)
        # read back exactly, next to a topic that lost its slot.
        width = 1 << 14
        top, length = num_topics - 1, min(num_topics // 2 - 1, 1 << 15)
        current = np.array([top] * length + [top - width, 0])
        row = np.zeros(current.size, dtype=np.int64)
        count_at, count_current = _slot_counts(current, row, 1, num_topics, width)
        queries = np.resize([top, top - width, 0, top - 1], current.size)
        expected = np.resize([length, 1, 1, 0], current.size)
        np.testing.assert_array_equal(count_at(queries), expected)
        np.testing.assert_array_equal(count_current[[0, -2, -1]], [length, 1, 1])

    def test_same_chunk_built_twice_reads_the_same(self):
        rng = np.random.default_rng(6)
        lengths = rng.integers(1, 33, size=40)
        current, row = ragged(rng.integers(3000, size=(40, 32)), lengths)
        queries = rng.integers(3000, size=current.size)
        workspace = _SlotWorkspace(40 * 64, 3000)
        reads = []
        for _ in range(2):
            count_at, count_current = _slot_counts(current, row, 40, 3000, 64, workspace)
            reads.append((count_at(queries).tobytes(), count_current.tobytes()))
            workspace.release()
        assert reads[0] == reads[1]

    def test_build_allocates_per_token_not_per_cell(self):
        # One-token rows under a 64-slot table: R·W is 64 cells per token, so
        # anything sized by the table would cost at least 512 bytes per token.
        num_rows, width = 4096, 64
        current = np.random.default_rng(8).integers(1 << 20, size=num_rows)
        row = np.arange(num_rows)
        workspace = _SlotWorkspace(num_rows * width, 1 << 20)
        tracemalloc.start()
        try:
            count_at, _ = _slot_counts(current, row, num_rows, 1 << 20, width, workspace)
            count_at(current[::-1].copy())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 128 * num_rows

    @staticmethod
    def run_phases(corpus, num_topics, max_cells, threads):
        """A word and a document phase from a fixed state; the end state's bytes."""
        rng = np.random.default_rng(12)
        assignments = rng.integers(num_topics, size=corpus.num_tokens)
        proposals = rng.integers(num_topics, size=(2, corpus.num_tokens))
        alpha = np.full(num_topics, 0.1)
        stale = np.bincount(assignments, minlength=num_topics).astype(np.float64)
        word_phase(
            assignments, proposals, corpus_buckets(corpus, "word"), stale,
            num_topics, 2, 0.01, 1.5, rng, threads=threads, max_cells=max_cells,
        )  # fmt: skip
        stale = np.bincount(assignments, minlength=num_topics).astype(np.float64)
        document_phase(
            assignments, proposals, corpus_buckets(corpus, "doc"), stale, alpha,
            float(alpha.sum()), num_topics, 2, 1.5, rng, threads=threads,
            max_cells=max_cells,
        )  # fmt: skip
        return assignments.tobytes() + proposals.tobytes()

    @pytest.mark.parametrize("threads", [1, 2])
    def test_one_workspace_per_running_task(self, corpus, monkeypatch, threads):
        num_topics, max_cells = 1 << 14, 1 << 10
        made = []
        original = warp._SlotWorkspace

        def counting(cells, num_topics):
            made.append(cells)
            return original(cells, num_topics)

        monkeypatch.setattr(warp, "_SlotWorkspace", counting)
        chunks = {
            axis: _phase_chunks(corpus_buckets(corpus, axis), num_topics, max_cells)
            for axis in ("word", "doc")
        }
        assert min(len(phase) for phase in chunks.values()) > 4
        self.run_phases(corpus, num_topics, max_cells, threads)
        # Per phase: at most one per running task, each sized by the chunks.
        expected = {_workspace_cells(phase, num_topics) for phase in chunks.values()}
        assert 2 <= len(made) <= 2 * threads
        assert set(made) == expected
        assert max(made) <= max_cells

    def test_phase_is_thread_count_invariant_with_many_chunks(self, corpus):
        # Many chunks share few workspaces, in whatever order the threads
        # take them; the result may not depend on it.
        num_topics, max_cells = 4096, 1 << 10
        one = self.run_phases(corpus, num_topics, max_cells, threads=1)
        assert self.run_phases(corpus, num_topics, max_cells, threads=2) == one

    def test_workspaces_are_not_shared_under_thread_stress(self, corpus):
        # More threads than cores and a tiny switch interval: two tasks in
        # one workspace at once would mix their slots and change the result.
        num_topics, max_cells = 4096, 1 << 9
        one = self.run_phases(corpus, num_topics, max_cells, threads=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                assert self.run_phases(corpus, num_topics, max_cells, threads=6) == one
        finally:
            sys.setswitchinterval(interval)


class TestExternalProposalTable:
    @staticmethod
    def reference(table):
        """Pseudo-tokens by ``np.repeat`` over every cell, in row-major order."""
        num_words, num_topics = table.shape
        topics = np.repeat(np.tile(np.arange(num_topics), num_words), table.reshape(-1))
        offsets = np.concatenate([[0], np.cumsum(table.sum(axis=1))])
        return topics, offsets

    @pytest.mark.parametrize(
        "num_words, num_topics, density",
        [(0, 5, 0.5), (7, 1, 0.5), (30, 3, 0.0), (60, 70, 0.05), (40, 300, 0.5), (1, 4096, 0.01)],
    )
    def test_matches_the_repeat_reference(self, num_words, num_topics, density):
        rng = np.random.default_rng(num_words * 1000 + num_topics)
        table = rng.integers(1, 5, size=(num_words, num_topics))
        table[rng.random(table.shape) >= density] = 0
        if num_words > 2:
            table[rng.integers(num_words)] = 0  # a word with no mass
        topics, offsets = external_proposal_table(table)
        expected_topics, expected_offsets = self.reference(table)
        np.testing.assert_array_equal(topics, expected_topics)
        np.testing.assert_array_equal(offsets, expected_offsets)
        assert offsets.dtype == np.int64
        assert topics.dtype == np.min_scalar_type(num_topics - 1)
