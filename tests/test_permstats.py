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
from pqtouchard import partitions, permstats
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

    def test_tallies_equal_the_per_word_definition(self):
        # every word of S_m through S_9, read one at a time by both loops
        for m in range(10):
            by_nse, by_ltr = [0] * max(m, 1), [0] * (m + 1)
            for word in permutations(range(m)):
                by_nse[m - partitions._rl_min_count(word)] += 1
                by_ltr[permstats._ltr_max_count(word)] += 1
            assert partitions._nse_counts(m) == tuple(by_nse), m
            assert by_nse == [stirling1_unsigned(m, m - j) for j in range(max(m, 1))]
            assert by_ltr == [stirling1_unsigned(m, k) for k in range(m + 1)]
            if m:
                assert ltr_max_distribution(m) == by_ltr, m
            else:
                assert partitions._record_tally(0, permstats._ltr_max_count, max) == [1]

    def test_budget(self):
        # S_13 is scanned in 517,320 words of 13 entries; S_14 in 2,525,040
        assert nse_distribution(13) == [stirling1_unsigned(13, 13 - j) for j in range(13)]
        with pytest.raises(ValueError, match="budget"):
            nse_distribution(14)
        with pytest.raises(ValueError, match="positive"):
            ltr_max_distribution(0)

    def test_budget_is_read_at_call_time(self, monkeypatch, capsys):
        # S_5 is scanned in 44 words of 5 entries, 220 elements: over a
        # budget of 100 set after import.  The scan is priced as the llp cell
        # (5, 1), with its one block order of 2 elements, and refused in the
        # shared shape
        monkeypatch.setattr(partitions, "ELEMENT_BUDGET", 100)
        refusal = "permutation scan for n=5 reads 222 elements, over the budget of 100"
        for scan in (nse_distribution, ltr_max_distribution):
            with pytest.raises(ValueError, match=f"^{refusal}$"):
                scan(5)
        assert main(["perm-stats", "--n", "5"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {refusal}\n")
