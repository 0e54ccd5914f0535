"""Enumeration of the four partition flavors and the nsb/nse statistics."""

import os
import resource
import subprocess
import sys
import time
from collections import Counter
from itertools import permutations, product
from math import comb, perm
from pathlib import Path

import pytest

import pqtouchard.partitions as partitions
from pqtouchard import (
    VAR_ORDER,
    MultiPoly,
    OrderedPartition,
    count_partitions,
    dist_poly,
    enumerate_partitions,
    factorial,
    nsb,
    nse,
    nse_distribution,
    s_uv,
    stat_report,
    stirling1_unsigned,
    tables,
    verify_identity,
)


# the slots of u and v in a term's exponent vector
U, V = VAR_ORDER.index("u"), VAR_ORDER.index("v")


def P(text):
    return OrderedPartition.from_string(text)


class TestOrderedPartition:
    def test_round_trip_digits(self):
        pi = P("32/681/57/4")
        assert pi.blocks == ((3, 2), (6, 8, 1), (5, 7), (4,))
        assert pi.to_string() == "32/681/57/4"
        assert str(pi) == "32/681/57/4"

    def test_round_trip_commas(self):
        pi = OrderedPartition([[10, 3], [2, 11], [1, 4, 5, 6, 7, 8, 9]])
        text = pi.to_string()
        assert text == "10,3/2,11/1,4,5,6,7,8,9"
        assert OrderedPartition.from_string(text) == pi

    def test_empty(self):
        pi = OrderedPartition(())
        assert pi.n == 0 and pi.k == 0
        assert OrderedPartition.from_string("") == pi

    def test_validation(self):
        with pytest.raises(ValueError, match="nonempty"):
            OrderedPartition([[1], []])
        with pytest.raises(ValueError, match="twice"):
            OrderedPartition([[1, 2], [2]])
        with pytest.raises(ValueError, match="cover"):
            OrderedPartition([[1], [3]])
        with pytest.raises(ValueError, match="positive"):
            OrderedPartition([[0, 1]])
        with pytest.raises(ValueError):
            OrderedPartition.from_string("1a/2")

    def test_identity_independent_of_source(self):
        assert P("12/3") == OrderedPartition([(1, 2), (3,)])
        assert hash(P("12/3")) == hash(OrderedPartition([(1, 2), (3,)]))
        assert P("12/3") != P("21/3")


class TestStatistics:
    def test_worked_example(self):
        pi = P("32/681/57/4")
        assert nsb(pi) == 2
        assert nse(pi) == 3

    def test_single_block(self):
        assert nsb(P("321")) == 0
        assert nse(P("321")) == 2
        assert nse(P("123")) == 0

    def test_singleton_blocks(self):
        assert nsb(P("2/1/3")) == 1
        assert nse(P("2/1/3")) == 0

    def test_sorted_partition_is_standard(self):
        assert nsb(P("1/24/3")) == 0
        assert nse(P("1/24/3")) == 0

    def test_bounds(self):
        for pi in enumerate_partitions(5, 3, "llp"):
            assert 0 <= nsb(pi) <= pi.k - 1
            assert 0 <= nse(pi) <= pi.n - pi.k

    def test_nse_ignores_block_order(self):
        for pi in enumerate_partitions(4, 2, "llp"):
            reordered = OrderedPartition(tuple(reversed(pi.blocks)))
            assert nse(pi) == nse(reordered)

    def test_nsb_ignores_element_order(self):
        for pi in enumerate_partitions(4, 2, "llp"):
            sorted_blocks = OrderedPartition(tuple(sorted(b) for b in pi.blocks))
            assert nsb(pi) == nsb(sorted_blocks)


class TestEnumeration:
    def test_two_elements_one_block(self):
        assert [str(pi) for pi in enumerate_partitions(2, 1, "llp")] == ["12", "21"]

    def test_all_singletons(self):
        assert [str(pi) for pi in enumerate_partitions(3, 3, "ssp")] == ["1/2/3"]

    def test_llp_3_2_has_12_objects(self):
        objects = list(enumerate_partitions(3, 2, "llp"))
        assert len(objects) == 12
        assert len(set(objects)) == 12

    def test_deterministic_order(self):
        first = [str(pi) for pi in enumerate_partitions(4, 2, "llp")]
        second = [str(pi) for pi in enumerate_partitions(4, 2, "llp")]
        assert first == second

    def test_out_of_range_is_empty(self):
        assert list(enumerate_partitions(3, 4, "ssp")) == []
        assert list(enumerate_partitions(3, 0, "llp")) == []

    def test_flavors_are_canonical(self):
        for pi in enumerate_partitions(4, 2, "ssp"):
            assert all(b == tuple(sorted(b)) for b in pi.blocks)
            minima = [min(b) for b in pi.blocks]
            assert minima == sorted(minima)
        for pi in enumerate_partitions(4, 2, "lsp"):
            assert all(b == tuple(sorted(b)) for b in pi.blocks)
        for pi in enumerate_partitions(4, 2, "slp"):
            minima = [min(b) for b in pi.blocks]
            assert minima == sorted(minima)

    def test_each_flavor_count_matches_enumeration(self):
        for n in range(8):
            for k in range(n + 2):
                for flavor in partitions.FLAVORS:
                    run = sum(1 for _ in enumerate_partitions(n, k, flavor))
                    assert run == count_partitions(n, k, flavor)

    def test_objects_come_by_skeleton_then_block_order_then_words(self):
        # the stream's order stated directly: for each skeleton, each kept
        # block order, then each choice of block words
        ordered = {
            "ssp": (False, False),
            "lsp": (True, False),
            "slp": (False, True),
            "llp": (True, True),
        }
        for n in range(7):
            for k in range(n + 2):
                for flavor, (blocks, words) in ordered.items():
                    expected = [
                        words_of_order
                        for sk in partitions._skeletons(n, k)
                        for order in (permutations(sk) if blocks else [sk])
                        for words_of_order in (
                            product(*map(permutations, order)) if words else [order]
                        )
                    ]
                    got = [pi.blocks for pi in enumerate_partitions(n, k, flavor)]
                    assert got == expected, (n, k, flavor)

    def test_skeletons_come_in_growth_string_order(self):
        # the skeleton order sets every flavor's order, and so the CLI's
        # bytes.  Stated on its own: the set partitions of {1..n} listed by
        # their restricted growth strings a (element i + 1 in block a[i],
        # a[i] <= 1 + max(a[:i])) in lexicographic order
        strings = [()]
        for n in range(9):
            by_k = {}
            for a in strings:
                k = max(a, default=-1) + 1
                blocks = tuple(
                    tuple(i + 1 for i, b in enumerate(a) if b == j) for j in range(k)
                )
                by_k.setdefault(k, []).append(blocks)
            for k in range(-1, n + 2):
                assert list(partitions._skeletons(n, k)) == by_k.get(k, []), (n, k)
            # each string extended by every block it may open or join, in order
            strings = [a + (b,) for a in strings for b in range(max(a, default=-1) + 2)]

    def test_enumerated_objects_equal_validated_ones(self):
        for n in range(7):
            for k in range(n + 2):
                for flavor in partitions.FLAVORS:
                    for pi in enumerate_partitions(n, k, flavor):
                        checked = OrderedPartition(pi.blocks)
                        assert pi == checked
                        assert hash(pi) == hash(checked)

    def test_unknown_flavor(self):
        with pytest.raises(ValueError, match="flavor"):
            enumerate_partitions(3, 2, "sets")

    def test_negative_n(self):
        with pytest.raises(ValueError):
            enumerate_partitions(-1, 0, "ssp")


class TestBudget:
    def test_budget_refusal_and_force(self, monkeypatch):
        monkeypatch.setattr(partitions, "OBJECT_BUDGET", 50)
        with pytest.raises(ValueError, match="force"):
            enumerate_partitions(4, 2, "llp")
        assert sum(1 for _ in enumerate_partitions(4, 2, "llp", force=True)) == 72
        # slp(4,2), 36 objects, fits where llp(4,2), 72 objects, does not
        assert sum(1 for _ in enumerate_partitions(4, 2, "slp")) == 36

    def test_dist_poly_respects_budget(self, monkeypatch):
        monkeypatch.setattr(partitions, "OBJECT_BUDGET", 50)
        with pytest.raises(ValueError, match="force"):
            dist_poly(4, 2)
        poly = dist_poly(4, 2, force=True)
        assert poly.evaluate({"u": 1, "v": 1}) == 72

    def test_dist_poly_enumerates_each_cell_once(self, monkeypatch):
        streams = []
        skeletons = partitions._skeletons

        def counting(n, k):
            streams.append((n, k))
            return skeletons(n, k)

        monkeypatch.setattr(partitions, "_skeletons", counting)
        report = stat_report(6, 3)
        assert streams == [(6, 3)]
        # nothing is kept between calls: each one streams the cell once
        assert dist_poly(6, 3) == report.poly
        assert dist_poly(6, 3, force=False) == report.poly
        assert streams == [(6, 3)] * 3
        # a lowered budget refuses without force, before any stream
        monkeypatch.setattr(partitions, "OBJECT_BUDGET", 720)
        with pytest.raises(ValueError, match="force"):
            dist_poly(6, 3)
        assert streams == [(6, 3)] * 3
        assert dist_poly(6, 3, force=True) == report.poly
        assert streams == [(6, 3)] * 4

    def test_every_flavor_is_budgeted(self, monkeypatch):
        monkeypatch.setattr(partitions, "OBJECT_BUDGET", 50)
        for n, k, flavor, count in (
            (6, 3, "ssp", 90),
            (5, 3, "lsp", 150),
            (5, 2, "slp", 240),
            (4, 2, "llp", 72),
        ):
            refusal = f"{flavor} enumeration for n={n}, k={k} visits {count} objects"
            with pytest.raises(ValueError, match=f"{refusal}.*budget of 50"):
                enumerate_partitions(n, k, flavor)
            with pytest.raises(ValueError, match=refusal):
                dist_poly(n, k, flavor=flavor)
            forced = enumerate_partitions(n, k, flavor, force=True)
            assert sum(1 for _ in forced) == count
            poly = dist_poly(n, k, force=True, flavor=flavor)
            assert poly.evaluate({"u": 1, "v": 1}) == count

    def test_objects_longer_than_the_budget_are_refused(self, monkeypatch):
        # past the budget in n, only these cells have a count within it: one
        # object each, which lists n elements
        monkeypatch.setattr(partitions, "OBJECT_BUDGET", 50)
        for k, flavor in ((1, "ssp"), (1, "lsp"), (51, "ssp"), (51, "slp")):
            assert count_partitions(51, k, flavor) == 1
            refusal = (
                f"{flavor} enumeration for n=51, k={k} visits objects of 51 elements, "
                "over the budget of 50"
            )
            with pytest.raises(ValueError, match=refusal):
                enumerate_partitions(51, k, flavor)
            with pytest.raises(ValueError, match=refusal):
                dist_poly(51, k, flavor=flavor)
            assert sum(1 for _ in enumerate_partitions(51, k, flavor, force=True)) == 1
        assert sum(1 for _ in enumerate_partitions(50, 1, "ssp")) == 1
        # an empty cell lists nothing, at any n
        assert list(enumerate_partitions(10**400, 10**400 + 1, "llp")) == []

    def test_n_past_the_list_length_limit_is_refused_when_forced(self):
        n = 10**400
        # the count needs no list, and no table row
        assert count_partitions(n, 1, "ssp") == count_partitions(n, 1, "lsp") == 1
        assert count_partitions(n, n, "ssp") == 1
        for flavor in partitions.FLAVORS:
            with pytest.raises(ValueError, match="over the list length limit of"):
                enumerate_partitions(n, 1, flavor, force=True)
            with pytest.raises(ValueError, match="over the list length limit of"):
                dist_poly(n, n, force=True, flavor=flavor)

    def test_counts_past_the_factorial_limit_are_refused(self):
        n = 10**400
        # slp(n,1) and llp(n,1) are n!: more than sys.maxsize factors
        for k, flavor in ((1, "slp"), (1, "llp"), (n, "lsp"), (n, "llp")):
            refusal = (
                f"{flavor} count for n={n}, k={k} is a product of more than "
                f"{sys.maxsize} factors"
            )
            with pytest.raises(ValueError, match=refusal):
                count_partitions(n, k, flavor)
        assert count_partitions(n, 1, "ssp") == count_partitions(n, 1, "lsp") == 1
        assert count_partitions(n, n, "slp") == 1
        assert count_partitions(n, n - 1, "slp") == n * (n - 1)

    def test_huge_counts_are_refused_at_once(self):
        # unbounded, the first would grow the Stirling-2 triangle toward row
        # 10**400 and the second compute (2^63 - 1)!; 1 GB of address space
        # stops the first should the budget fail
        code = (
            "from pqtouchard import count_partitions\n"
            "for n, k, flavor in ((10**400, 2, 'ssp'), (2**63 - 1, 3, 'llp')):\n"
            "    try:\n"
            "        count_partitions(n, k, flavor)\n"
            "    except ValueError as exc:\n"
            "        print(exc)\n"
        )
        start = time.perf_counter()
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=30,
            env={**os.environ, "PYTHONPATH": str(Path(partitions.__file__).parents[1])},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)),
        )
        wall = time.perf_counter() - start
        assert result.stdout.splitlines() == [
            f"ssp count for n={10**400}, k=2 computes up to a 1203-digit number of digits, "
            "over the budget of 10000000",
            f"llp count for n={2**63 - 1}, k=3 computes up to 175244068700240740371 digits, "
            "over the budget of 10000000",
        ], result.stderr
        assert wall < 1

    def test_count_digit_budget_edge(self):
        # the Stirling-2 triangle, each row priced as `table` prices it,
        # grows to row 217, and llp(n,1) = n! is refused past n = 1,428,571
        # before any factor is multiplied
        assert count_partitions(217, 108, "ssp") == tables.stirling2(217, 108)
        assert count_partitions(217, 2, "lsp") == 2 * tables.stirling2(217, 2)
        for n, k, flavor in ((218, 108, "ssp"), (218, 2, "lsp"), (1_428_572, 1, "llp")):
            with pytest.raises(ValueError, match=f"{flavor} count for n={n}, k={k} computes"):
                count_partitions(n, k, flavor)

    def test_multi_cell_checks_refuse_before_enumerating(self, monkeypatch):
        streams = []
        skeletons = partitions._skeletons

        def counting(n, k):
            streams.append((n, k))
            return skeletons(n, k)

        monkeypatch.setattr(partitions, "_skeletons", counting)
        monkeypatch.setattr(partitions, "OBJECT_BUDGET", 100)
        # lsp(5,3) = 150 is the first cell over; n <= 4 fits
        with pytest.raises(ValueError, match="lsp enumeration for n=5, k=3"):
            verify_identity("lsp-slice", 9)
        assert streams == []
        assert verify_identity("lsp-slice", 5, force=True).passed

    @pytest.mark.parametrize("budget", [50, 720, 2_000_000])
    def test_bounds_decide_as_the_count_does(self, monkeypatch, budget):
        monkeypatch.setattr(partitions, "OBJECT_BUDGET", budget)
        for n in range(41):
            for k in range(-1, n + 2):
                for flavor in partitions.FLAVORS:
                    over = count_partitions(n, k, flavor) > budget
                    try:
                        partitions._check_size(n, k, flavor, False)
                    except ValueError:
                        assert over, (n, k, flavor)
                    else:
                        assert not over, (n, k, flavor)

    def test_large_cells_are_decided_without_the_tables(self, monkeypatch):
        fresh = {
            name: ([(1,)], getattr(tables, name)[1])
            for name in ("_BINOMIAL", "_STIRLING2", "_STIRLING1")
        }
        for name, triangle in fresh.items():
            monkeypatch.setattr(tables, name, triangle)
        admitted = {(1, "ssp"), (1, "lsp"), (1200, "ssp"), (1200, "slp"), (1199, "slp")}
        cells = [(k, f) for k in (1, 1200) for f in partitions.FLAVORS]
        cells += [(1199, f) for f in ("lsp", "slp", "llp")]
        for k, flavor in cells:
            try:
                partitions._check_size(1200, k, flavor, False)
            except ValueError as exc:
                assert (k, flavor) not in admitted
                assert "budget of 2000000" in str(exc)
            else:
                assert (k, flavor) in admitted
        assert [len(rows) for rows, _ in fresh.values()] == [1, 1, 1]

    def test_long_counts_are_given_by_their_length(self):
        with pytest.raises(ValueError, match="visits a 33-digit number of objects"):
            enumerate_partitions(30, 1, "llp")
        # str() refuses an int this long
        assert partitions._size(factorial(2000)) == "a 5736-digit number of"
        assert partitions._size(10**30 - 1) == str(10**30 - 1)
        assert partitions._size(10**30) == "a 31-digit number of"
        assert partitions._size(10**31 - 1) == "a 31-digit number of"
        assert partitions._size(10**31) == "a 32-digit number of"

    def test_huge_refusals_compute_no_factorial(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a factorial was computed")

        monkeypatch.setattr(partitions, "factorial", refuse)
        monkeypatch.setattr(partitions, "perm", refuse)
        # llp(n, n-1) = n!*(n-1) and slp(n, 1) = n!
        for k, flavor, digits in ((199999, "llp", 973356), (1, "slp", 973351)):
            with pytest.raises(ValueError, match=(
                f"{flavor} enumeration for n=200000, k={k} visits a {digits}-digit "
                "number of objects, over the budget of 2000000"
            )):
                partitions._check_size(200000, k, flavor, False)
        monkeypatch.undo()
        # slp(n, n-1) = n*(n-1) is small and stated exactly
        with pytest.raises(ValueError, match="visits 39999800000 objects"):
            partitions._check_size(200000, 199999, "slp", False)
        # lsp(n, n) = n!: n past the budget is decided first, and k! is
        # built no further than the budget's bit length, past which every
        # k! is over the budget
        built = []
        real = partitions.factorial
        monkeypatch.setattr(partitions, "factorial", lambda m: built.append(m) or real(m))
        for n, size in (
            (2_000_000, "at least 51090942171709440000 objects"),
            (2_000_001, "objects of 2000001 elements"),
            (2**63, f"objects of {2**63} elements"),
            (10**400, "objects of a 401-digit number of elements"),
        ):
            refusal = f"lsp enumeration for n={n}, k={n} visits {size}, over the budget of 2000000"
            for check in (partitions._check_size, dist_poly):
                with pytest.raises(ValueError, match=refusal):
                    check(n, n, flavor="lsp", force=False)
        assert built == [partitions.OBJECT_BUDGET.bit_length()] * 2

    def test_non_integer_k_is_rejected(self):
        with pytest.raises(ValueError, match="k must be an integer"):
            enumerate_partitions(3, 2.0, "ssp")


class TestCounts:
    def test_spot_values(self):
        assert count_partitions(3, 2, "llp") == 12
        assert count_partitions(4, 2, "ssp") == 7
        assert count_partitions(3, 2, "slp") == 6
        assert count_partitions(3, 2, "lsp") == 6
        assert count_partitions(0, 0, "llp") == 1
        assert count_partitions(5, 9, "lsp") == 0

    def test_large_values_use_closed_form(self):
        # far beyond any enumeration budget
        assert count_partitions(30, 1, "llp") == partitions.factorial(30)
        assert count_partitions(12, 12, "slp") == 1

    def test_near_diagonal_closed_forms_equal_the_table(self):
        for n in range(1, 61):
            for k in range(max(n - 2, 1), n + 1):
                s = tables.stirling2(n, k)
                assert count_partitions(n, k, "ssp") == s, (n, k)
                assert count_partitions(n, k, "lsp") == factorial(k) * s, (n, k)

    def test_near_diagonal_counts_grow_no_table(self):
        rows = len(tables._STIRLING2[0])
        assert count_partitions(5000, 4999, "ssp") == comb(5000, 2)
        assert count_partitions(5000, 4998, "ssp") == comb(5000, 3) + 3 * comb(5000, 4)
        assert len(tables._STIRLING2[0]) == rows
        # a refusal near the diagonal is decided without the table too
        with pytest.raises(ValueError, match="visits 12497500 objects"):
            enumerate_partitions(5000, 4999, "ssp")
        assert len(tables._STIRLING2[0]) == rows


class TestDistPoly:
    def test_two_one(self):
        v = MultiPoly.var("v")
        assert dist_poly(2, 1) == 1 + v

    def test_three_two(self):
        u, v = MultiPoly.var("u"), MultiPoly.var("v")
        assert dist_poly(3, 2) == 3 * (1 + u) * (1 + v)

    def test_diagonal_is_stirling1_row(self):
        for n in range(1, 7):
            expected = MultiPoly.const(0)
            for i in range(n):
                u_i = MultiPoly.var("u", i)
                expected = expected + stirling1_unsigned(n, n - i) * u_i
            assert dist_poly(n, n) == expected

    def test_degree_bounds(self):
        for n in range(1, 7):
            for k in range(1, n + 1):
                poly = dist_poly(n, k)
                assert all(key[U] <= k - 1 and key[V] <= n - k for key in poly.terms)

    @pytest.mark.parametrize("flavor", partitions.FLAVORS)
    def test_equals_the_per_object_tally(self, flavor):
        for n in range(7):
            for k in range(n + 2):
                objects = enumerate_partitions(n, k, flavor, force=True)
                counts = Counter((nsb(pi), nse(pi)) for pi in objects)
                poly = dist_poly(n, k, force=True, flavor=flavor)
                tally = sum(
                    c * MultiPoly.var("u", i) * MultiPoly.var("v", j)
                    for (i, j), c in counts.items()
                )
                assert poly == tally, (n, k)
                if flavor == "lsp":
                    assert all(key[V] == 0 for key in poly.terms)
                if flavor == "slp":
                    assert all(key[U] == 0 for key in poly.terms)

    def test_visits_no_object(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an object was generated")

        monkeypatch.setattr(partitions, "_generate", refuse)
        # llp(8,4) has 1,411,200 objects
        assert dist_poly(8, 4) == s_uv(8, 4)


def kernel_scans(m):
    """Words _record_tally scans for m >= 1: m!/j! prefixes and the (j + 1)!
    words of range(j + 1), with j the cheapest split."""
    return min(perm(m, m - j) + factorial(j + 1) for j in range(m))


class TestSharedScan:
    """dist_poly and nse_distribution tally nse with the one S_m tally."""

    @pytest.fixture
    def scans(self, monkeypatch):
        calls = []
        rl_min_count = partitions._rl_min_count

        def counting(seq):
            calls.append(1)
            return rl_min_count(seq)

        # permstats reads the scan through partitions, so one patch covers both
        monkeypatch.setattr(partitions, "_rl_min_count", counting)
        return calls

    def test_each_word_is_scanned_once_per_cell(self, scans):
        # llp(8,8): the tally of the 8! block orders and one for the eight 1-blocks
        dist_poly(8, 8)
        assert len(scans) == kernel_scans(8) + kernel_scans(1)
        # llp(8,2): the 2! block orders and one tally per block length 1..7;
        # the shape (4, 4) tallies length 4 once
        scans.clear()
        dist_poly(8, 2)
        assert len(scans) == kernel_scans(2) + sum(kernel_scans(b) for b in range(1, 8))

    def test_cost_does_not_depend_on_earlier_calls(self, scans):
        # no tally is shared across calls, so each call pays the same
        # whether or not an earlier one tallied S_8
        assert nse_distribution(8) == [stirling1_unsigned(8, 8 - j) for j in range(8)]
        alone = len(scans)
        scans.clear()
        dist_poly(8, 8)
        dist_poly(8, 1)
        scans.clear()
        nse_distribution(8)
        # far below the 8! = 40,320 words counted
        assert len(scans) == alone == kernel_scans(8) == 1_056
        # nor is a cell's tally kept: the same cell, asked again, pays again
        # (ssp orders no block and no element, so it scans no word)
        for flavor in ("lsp", "slp", "llp"):
            costs = []
            for _ in range(2):
                scans.clear()
                dist_poly(6, 3, flavor=flavor)
                costs.append(len(scans))
            assert costs[0] == costs[1] > 0, flavor

    def test_an_empty_cell_scans_nothing(self, scans):
        assert not dist_poly(3, 6)
        assert scans == []

    def test_one_block_slp_cell_is_the_symmetric_group(self):
        for n in range(1, 8):
            by_words = sum(
                c * MultiPoly.var("v", j) for j, c in enumerate(nse_distribution(n))
            )
            assert dist_poly(n, 1, flavor="slp") == by_words
