"""Tests for the partitioning strategies and the imbalance index (Fig. 4)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed import (
    imbalance_index,
    partition_words_dynamic,
    partition_words_greedy,
    partition_words_static,
)
from repro.distributed.partition import imbalance_by_strategy, partition_loads


def zipf_sizes(num_words=2000, exponent=1.1, total=200_000):
    ranks = np.arange(1, num_words + 1, dtype=np.float64)
    probabilities = ranks ** (-exponent)
    probabilities /= probabilities.sum()
    return np.round(probabilities * total).astype(np.int64) + 1


class TestImbalanceIndex:
    def test_perfect_balance_is_zero(self):
        assert imbalance_index(np.array([10, 10, 10])) == pytest.approx(0.0)

    def test_known_value(self):
        assert imbalance_index(np.array([30, 10, 20])) == pytest.approx(0.5)

    def test_scale_invariant(self):
        loads = np.array([30, 10, 20])
        assert imbalance_index(loads * 7) == pytest.approx(imbalance_index(loads))

    def test_all_zero_loads(self):
        assert imbalance_index(np.array([0, 0])) == 0.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            imbalance_index(np.array([]))
        with pytest.raises(ValueError):
            imbalance_index(np.array([-1, 2]))


class TestStrategies:
    @pytest.mark.parametrize(
        "strategy",
        [
            lambda sizes, p: partition_words_static(sizes, p, rng=0),
            partition_words_dynamic,
            partition_words_greedy,
        ],
        ids=["static", "dynamic", "greedy"],
    )
    def test_every_word_is_assigned_to_a_valid_partition(self, strategy):
        sizes = zipf_sizes(num_words=500)
        assignment = strategy(sizes, 8)
        assert assignment.shape == sizes.shape
        assert assignment.min() >= 0
        assert assignment.max() < 8
        loads = partition_loads(sizes, assignment, 8)
        assert loads.sum() == sizes.sum()

    def test_greedy_beats_static_and_dynamic(self):
        """Fig. 4's qualitative result on power-law column sizes."""
        sizes = zipf_sizes()
        for num_partitions in (4, 16, 64):
            greedy = imbalance_index(
                partition_loads(sizes, partition_words_greedy(sizes, num_partitions), num_partitions)
            )
            static = imbalance_index(
                partition_loads(
                    sizes, partition_words_static(sizes, num_partitions, rng=0), num_partitions
                )
            )
            dynamic = imbalance_index(
                partition_loads(
                    sizes, partition_words_dynamic(sizes, num_partitions), num_partitions
                )
            )
            assert greedy <= dynamic
            assert greedy <= static
            if sizes.max() <= sizes.sum() / num_partitions:
                # Whenever a balanced partition is feasible (no single word
                # exceeds the fair share) greedy is near perfect.  When the
                # largest word dominates, imbalance is unavoidable — the
                # effect the paper notes for hundreds of machines.
                assert greedy < 0.1

    def test_imbalance_grows_with_partition_count(self):
        """The paper observes greedy imbalance rising once partitions are many."""
        sizes = zipf_sizes(num_words=300)
        few = imbalance_index(
            partition_loads(sizes, partition_words_greedy(sizes, 2), 2)
        )
        many = imbalance_index(
            partition_loads(sizes, partition_words_greedy(sizes, 128), 128)
        )
        assert many >= few

    def test_document_partitioning_is_balanced(self):
        lengths = np.full(100, 50)
        assignment = partition_words_greedy(lengths, 10)
        loads = partition_loads(lengths, assignment, 10)
        assert imbalance_index(loads) == pytest.approx(0.0)

    @pytest.mark.parametrize("assignment", [[0, 2], [-1, 0]])
    def test_loads_reject_assignment_outside_partitions(self, assignment):
        # bincount(minlength=P) would otherwise grow phantom partitions and
        # the imbalance index would average over them.
        with pytest.raises(ValueError, match="outside"):
            partition_loads(np.array([3, 4]), np.array(assignment), 2)

    def test_loads_reject_mismatched_shapes(self):
        with pytest.raises(ValueError, match="same shape"):
            partition_loads(np.array([3, 4, 5]), np.array([0, 1]), 2)

    def test_loads_of_no_items_are_all_zero(self):
        loads = partition_loads(np.array([], dtype=np.int64), np.array([], dtype=np.int64), 3)
        assert loads.shape == (3,)
        assert loads.sum() == 0

    @pytest.mark.parametrize("num_partitions", [1, 3, 7])
    def test_static_deals_equal_word_counts(self, num_partitions):
        sizes = zipf_sizes(num_words=100)
        assignment = partition_words_static(sizes, num_partitions, rng=0)
        words = np.bincount(assignment, minlength=num_partitions)
        assert words.sum() == sizes.size
        assert words.max() - words.min() <= 1

    def test_static_is_reproducible_for_a_seed(self):
        sizes = zipf_sizes(num_words=200)
        first = partition_words_static(sizes, 8, rng=5)
        assert np.array_equal(first, partition_words_static(sizes, 8, rng=5))
        assert not np.array_equal(first, partition_words_static(sizes, 8, rng=6))

    def test_dynamic_cuts_contiguous_slices_in_word_order(self):
        sizes = zipf_sizes(num_words=500)
        assignment = partition_words_dynamic(sizes, 8)
        assert assignment[0] == 0
        assert (np.diff(assignment) >= 0).all()
        assert assignment.max() < 8

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            partition_words_greedy(np.array([1, 2]), 0)
        with pytest.raises(ValueError):
            partition_words_greedy(np.array([]), 2)
        with pytest.raises(ValueError):
            partition_words_greedy(np.array([-1, 2]), 2)


class TestFig4Driver:
    def test_series_are_reproducible_for_a_seed(self):
        sizes = zipf_sizes(num_words=400)
        assert imbalance_by_strategy(sizes, [2, 8], rng=3) == imbalance_by_strategy(
            sizes, [2, 8], rng=3
        )

    def test_series_cover_all_strategies_and_counts(self):
        sizes = zipf_sizes(num_words=400)
        results = imbalance_by_strategy(sizes, [2, 8, 32], rng=0)
        assert set(results) == {"static", "dynamic", "greedy"}
        assert all(len(values) == 3 for values in results.values())
        # Greedy dominates at every partition count.
        for index in range(3):
            assert results["greedy"][index] <= results["static"][index]


class TestProperties:
    @pytest.mark.parametrize(
        "strategy",
        [
            lambda sizes, p: partition_words_static(sizes, p, rng=0),
            partition_words_dynamic,
        ],
        ids=["static", "dynamic"],
    )
    @given(
        sizes=st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=200),
        num_partitions=st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=60, deadline=None)
    def test_partition_is_valid_and_conserves_load(self, strategy, sizes, num_partitions):
        sizes = np.array(sizes, dtype=np.int64)
        assignment = strategy(sizes, num_partitions)
        loads = partition_loads(sizes, assignment, num_partitions)
        assert loads.shape == (num_partitions,)
        assert loads.sum() == sizes.sum()

    @given(
        sizes=st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=200),
        num_partitions=st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=60, deadline=None)
    def test_greedy_partition_is_valid_and_conserves_load(self, sizes, num_partitions):
        sizes = np.array(sizes, dtype=np.int64)
        assignment = partition_words_greedy(sizes, num_partitions)
        loads = partition_loads(sizes, assignment, num_partitions)
        assert loads.sum() == sizes.sum()
        assert assignment.min() >= 0
        assert assignment.max() < num_partitions

    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=1000), min_size=4, max_size=100),
        num_partitions=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=40, deadline=None)
    def test_greedy_max_load_is_within_bound(self, sizes, num_partitions):
        """LPT greedy guarantee: max load <= mean load + max item size."""
        sizes = np.array(sizes, dtype=np.int64)
        assignment = partition_words_greedy(sizes, num_partitions)
        loads = partition_loads(sizes, assignment, num_partitions)
        assert loads.max() <= sizes.sum() / num_partitions + sizes.max()
