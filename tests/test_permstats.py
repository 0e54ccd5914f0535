"""Permutation statistics and their Stirling-number distributions."""

from itertools import permutations

import pytest

from pqtouchard import (
    OrderedPartition,
    decompose,
    ltr_max_count,
    ltr_max_distribution,
    nse,
    nse_distribution,
    nse_perm,
    stirling1_unsigned,
)
from pqtouchard import partitions
from pqtouchard.cli import main


class TestDecompose:
    def test_identity(self):
        moved, kept = decompose([1, 2, 3, 4])
        assert moved == frozenset()
        assert kept == frozenset({1, 2, 3, 4})

    def test_reversed(self):
        # only the final 1 is a right-to-left minimum
        moved, kept = decompose([3, 2, 1])
        assert kept == frozenset({3})
        assert moved == frozenset({1, 2})

    def test_mixed(self):
        moved, kept = decompose([3, 2, 5, 1, 4])
        assert kept == frozenset({4, 5})
        assert moved == frozenset({1, 2, 3})

    def test_partition_of_positions(self):
        for n in range(1, 7):
            for word in permutations(range(1, n + 1)):
                moved, kept = decompose(word)
                assert moved & kept == frozenset()
                assert len(moved) + len(kept) == n
                assert moved | kept == frozenset(range(1, n + 1))
                assert len(moved) == nse_perm(word)

    def test_invalid_words(self):
        with pytest.raises(ValueError, match="not a permutation"):
            decompose([1, 3])
        with pytest.raises(ValueError, match="not a permutation"):
            decompose([2, 2, 1])
        with pytest.raises(ValueError, match="integers"):
            decompose([1.0, 2])


class TestCounts:
    def test_nse_examples(self):
        assert nse_perm([1, 2, 3]) == 0
        assert nse_perm([2, 3, 1]) == 2
        assert nse_perm([3, 2, 1]) == 2

    def test_ltr_examples(self):
        assert ltr_max_count([1, 2, 3, 4]) == 4
        assert ltr_max_count([4, 1, 2, 3]) == 1
        assert ltr_max_count([2, 1, 4, 3]) == 2

    def test_single_block_partition_agrees(self):
        for word in permutations(range(1, 6)):
            assert nse_perm(word) == nse(OrderedPartition([word]))


class TestDistributions:
    def test_small_nse(self):
        assert nse_distribution(1) == [1]
        assert nse_distribution(3) == [1, 3, 2]

    def test_small_ltr(self):
        assert ltr_max_distribution(1) == [0, 1]
        assert ltr_max_distribution(4) == [0, 6, 11, 6, 1]

    def test_nse_is_reversed_stirling_row(self):
        for n in range(1, 8):
            expected = [stirling1_unsigned(n, n - j) for j in range(n)]
            assert nse_distribution(n) == expected

    def test_ltr_is_stirling_row(self):
        for n in range(1, 8):
            expected = [stirling1_unsigned(n, k) for k in range(n + 1)]
            assert ltr_max_distribution(n) == expected

    def test_duality(self):
        # having k left-to-right maxima is as common as nse = n-k
        for n in range(1, 8):
            by_nse = nse_distribution(n)
            by_ltr = ltr_max_distribution(n)
            for k in range(1, n + 1):
                assert by_ltr[k] == by_nse[n - k]

    def test_totals(self):
        total = 1
        for n in range(1, 8):
            total *= n
            assert sum(nse_distribution(n)) == total

    def test_budget(self):
        with pytest.raises(ValueError, match="budget"):
            nse_distribution(10)
        with pytest.raises(ValueError, match="positive"):
            ltr_max_distribution(0)

    def test_budget_is_read_at_call_time(self, monkeypatch, capsys):
        # 5! = 120 words: over a budget of 100 set after import
        monkeypatch.setattr(partitions, "OBJECT_BUDGET", 100)
        for scan in (nse_distribution, ltr_max_distribution):
            with pytest.raises(ValueError, match="budget of 100 objects"):
                scan(5)
        assert main(["perm-stats", "--n", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "budget of 100 objects" in captured.err
