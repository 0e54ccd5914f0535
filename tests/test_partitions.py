"""Enumeration of the four partition flavors and the nsb/nse statistics."""

import os
import resource
import subprocess
import sys
import time
import tracemalloc
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

    def test_block_shapes_count_the_skeletons(self):
        # each shape once, as the block lengths past 1 of the skeletons it
        # counts, largest first, and the counts sum to S(n,k)
        for n in range(11):
            for k in range(-1, n + 2):
                listed = list(partitions._block_shapes(n, k))
                stream = Counter(
                    tuple(sorted((len(b) for b in sk if len(b) > 1), reverse=True))
                    for sk in partitions._skeletons(n, k)
                )
                assert dict(listed) == stream and len(listed) == len(stream), (n, k)
                assert sum(dict(listed).values()) == tables.stirling2(n, k), (n, k)

    def test_block_shapes_hold_no_single_block(self):
        # a shape lists at most min(k, n-k) blocks, each of two or more entries
        for n in range(13):
            for k in range(1, n + 1):
                for shape, _ in partitions._block_shapes(n, k):
                    assert 1 not in shape and len(shape) <= min(k, n - k), (n, k, shape)

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
        monkeypatch.setattr(partitions, "ELEMENT_BUDGET", 200)
        with pytest.raises(ValueError, match="force"):
            enumerate_partitions(4, 2, "llp")
        assert sum(1 for _ in enumerate_partitions(4, 2, "llp", force=True)) == 72
        # slp(4,2), 36 objects of 4 elements, fits where llp(4,2), 72, does not
        assert sum(1 for _ in enumerate_partitions(4, 2, "slp")) == 36

    def test_dist_poly_respects_budget(self, monkeypatch):
        # llp(4,2) reads 41 elements: its word tallies of lengths 2 (twice,
        # orders and blocks) and 3, and its p(2) = 2 shapes of 2 parts and 2 digits
        monkeypatch.setattr(partitions, "ELEMENT_BUDGET", 40)
        with pytest.raises(ValueError, match="force"):
            dist_poly(4, 2)
        poly = dist_poly(4, 2, force=True)
        assert poly.evaluate({"u": 1, "v": 1}) == 72

    def test_dist_poly_enumerates_each_cell_once(self, monkeypatch):
        calls = []
        shapes = partitions._block_shapes

        def counting(n, k):
            calls.append((n, k))
            return shapes(n, k)

        monkeypatch.setattr(partitions, "_block_shapes", counting)
        report = stat_report(6, 3)
        assert calls == [(6, 3)]
        # nothing is kept between calls: each one lists the cell's shapes once
        assert dist_poly(6, 3) == report.poly
        assert dist_poly(6, 3, force=False) == report.poly
        assert calls == [(6, 3)] * 3
        # a lowered budget refuses without force, before any shape is listed
        monkeypatch.setattr(partitions, "ELEMENT_BUDGET", 100)
        with pytest.raises(ValueError, match="force"):
            dist_poly(6, 3)
        assert calls == [(6, 3)] * 3
        assert dist_poly(6, 3, force=True) == report.poly
        assert calls == [(6, 3)] * 4

    def test_dist_poly_lists_no_skeleton(self, monkeypatch):
        # cells of few shapes are tallied by shape, not by set partition:
        # ssp(2000,1999) has C(2000,2) set partitions, each of one pair, and
        # ssp(n,1) and ssp(n,n) have one, of 2,000,000 elements
        def never(n, k):
            raise AssertionError("dist_poly streamed skeletons")

        monkeypatch.setattr(partitions, "_skeletons", never)
        n = 2_000_000
        for cell, count in (((2000, 1999), comb(2000, 2)), ((n, 1), 1), ((n, n), 1)):
            start = time.perf_counter()
            assert dist_poly(*cell, flavor="ssp") == MultiPoly.const(count), cell
            assert time.perf_counter() - start < 10, cell

    def test_a_tally_holds_one_list_of_parts(self):
        # the shapes keep only their blocks past one entry, so ssp(n,n) holds
        # one list of n parts, 8 bytes each, and the near-diagonal cells,
        # one shape of one pair each, are priced by it, not per shape
        n = 2_000_000
        tracemalloc.start()
        try:
            assert dist_poly(n, n, flavor="ssp") == MultiPoly.const(1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * n, peak
        for flavor, count in (("ssp", comb(n, 2)), ("slp", 2 * comb(n, 2))):
            assert dist_poly(n, n - 1, flavor=flavor).evaluate({"u": 1, "v": 1}) == count

    def test_partition_count_is_exact(self):
        def brute(m, top):
            # the partitions of m into parts of at most top, largest part first
            return 1 if m == 0 else sum(brute(m - part, part) for part in range(1, min(m, top) + 1))

        assert [partitions._partition_count(m) for m in range(31)] == [brute(m, m) for m in range(31)]

    def test_cells_off_the_diagonal_are_priced_by_their_shapes(self):
        # n - k = 20 leaves p(20) = 627 shapes, where exp(pi*sqrt(2(n-k)/3))
        # allowed about 38,000; S(n, n-d) from the second-order Eulerian
        # numbers (Concrete Mathematics, 6.43), with no table grown
        d, eulerian = 20, [1]
        for m in range(1, d + 1):
            eulerian = [
                (j + 1) * (eulerian[j] if j < len(eulerian) else 0)
                + (2 * m - 1 - j) * (eulerian[j - 1] if 0 < j <= len(eulerian) else 0)
                for j in range(m)
            ]
        for n in (21, 30, 40, 2000, 20000):
            count = sum(e * comb(n + d - 1 - j, 2 * d) for j, e in enumerate(eulerian))
            if n <= 40:
                assert count == count_partitions(n, n - d, "ssp")
            assert partitions._check_size(n, n - d, "ssp", False) == "ssp"
            assert dist_poly(n, n - d, flavor="ssp").evaluate({"u": 1, "v": 1}) == count

    def test_enumeration_prices_the_elements_it_lists(self):
        # the identities' largest cells and the benchmark's fit; the first
        # ssp cell past the element budget, the first object past the length
        # budget, and the two cells that ran for minutes or out of memory do not
        for n, k, flavor in ((8, 4, "llp"), (8, 5, "llp"), (288, 287, "ssp"),
                             (partitions.LENGTH_BUDGET, 1, "ssp"),
                             *((6, 3, flavor) for flavor in partitions.FLAVORS)):
            assert partitions._check_enumeration(n, k, flavor, False) == flavor
        refused = (
            (289, 288, "ssp", "lists 12027024 elements, over the budget of 12000000"),
            (1200, 1199, "ssp", "lists 863280000 elements, over the budget of 12000000"),
            (partitions.LENGTH_BUDGET + 1, 1, "lsp",
             "lists objects of 250001 elements, over the budget of 250000"),
            (2_000_000, 2_000_000, "slp",
             "lists objects of 2000000 elements, over the budget of 250000"),
        )
        for n, k, flavor, text in refused:
            with pytest.raises(ValueError, match=f"{flavor} enumeration for n={n}, k={k} {text}"):
                enumerate_partitions(n, k, flavor)
            assert partitions._check_enumeration(n, k, flavor, True) == flavor
        # dist_poly lists no object, so the same cells are priced by their
        # tallies: one shape each, of 288 and of 2,000,000 parts
        assert dist_poly(289, 288, flavor="ssp") == MultiPoly.const(comb(289, 2))
        assert dist_poly(2_000_000, 2_000_000, flavor="slp") == MultiPoly.const(1)

    def test_every_flavor_is_budgeted(self, monkeypatch):
        monkeypatch.setattr(partitions, "ELEMENT_BUDGET", 30)
        # each cell's objects, and the elements its tally reads, summed up
        # to the term over the budget: slp(5,2) stops at its word tally of
        # length 4, 72 elements, after 27 for lengths 2 and 3
        for n, k, flavor, count, read in (
            (7, 3, "ssp", 301, 40),
            (5, 3, "lsp", 150, 32),
            (5, 2, "slp", 240, 99),
            (4, 2, "llp", 72, 41),
        ):
            # stated as the count times n, or as the k^(n-k)*n lower bound
            listed = f"{flavor} enumeration for n={n}, k={k} lists (at least )?[0-9]+ elements"
            with pytest.raises(ValueError, match=f"^{listed}, over the budget of 30;"):
                enumerate_partitions(n, k, flavor)
            tallied = f"{flavor} tally for n={n}, k={k} reads {read} elements"
            with pytest.raises(ValueError, match=f"^{tallied}, over the budget of 30;"):
                dist_poly(n, k, flavor=flavor)
            forced = enumerate_partitions(n, k, flavor, force=True)
            assert sum(1 for _ in forced) == count
            poly = dist_poly(n, k, force=True, flavor=flavor)
            assert poly.evaluate({"u": 1, "v": 1}) == count

    def test_objects_longer_than_the_budget_are_refused(self, monkeypatch):
        # these cells hold one object each, which lists n elements; their
        # tallies read one shape of k parts and list no object
        monkeypatch.setattr(partitions, "LENGTH_BUDGET", 50)
        for k, flavor in ((1, "ssp"), (1, "lsp"), (51, "ssp"), (51, "slp")):
            assert count_partitions(51, k, flavor) == 1
            refusal = (
                f"{flavor} enumeration for n=51, k={k} lists objects of 51 elements, "
                "over the budget of 50"
            )
            with pytest.raises(ValueError, match=refusal):
                enumerate_partitions(51, k, flavor)
            assert dist_poly(51, k, flavor=flavor) == MultiPoly.const(1)
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
        calls = []
        shapes = partitions._block_shapes

        def counting(n, k):
            calls.append((n, k))
            return shapes(n, k)

        monkeypatch.setattr(partitions, "_block_shapes", counting)
        monkeypatch.setattr(partitions, "ELEMENT_BUDGET", 100)
        # lsp(5,5), whose block orders read 220 elements, is the first cell
        # over; every cell of n <= 4 reads at most 77
        with pytest.raises(ValueError, match="lsp tally for n=5, k=5 reads 220 elements"):
            verify_identity("lsp-slice", 9)
        assert calls == []
        assert verify_identity("lsp-slice", 5, force=True).passed
        assert (5, 3) in calls

    @pytest.mark.parametrize("budget", [50, 720, 2_000_000])
    def test_check_decides_as_the_stated_price_does(self, monkeypatch, budget):
        # a cell's price is the least budget that admits it, and its refusal
        # one below states that price; a cell is admitted exactly when its
        # price is within the budget
        def refusal(n, k, flavor, budget):
            monkeypatch.setattr(partitions, "ELEMENT_BUDGET", budget)
            try:
                partitions._check_size(n, k, flavor, False)
            except ValueError as exc:
                return str(exc)
            return None

        def price(n, k, flavor):
            low, high = 0, 10**8
            while low < high:
                mid = (low + high) // 2
                low, high = (low, mid) if refusal(n, k, flavor, mid) is None else (mid + 1, high)
            return low

        for n in range(14):
            for k in range(-1, n + 2):
                for flavor in partitions.FLAVORS:
                    cost = price(n, k, flavor)
                    if not 1 <= k <= n:
                        assert cost == 0, (n, k, flavor)
                        continue
                    text = refusal(n, k, flavor, cost - 1)
                    assert text.startswith(
                        f"{flavor} tally for n={n}, k={k} reads {cost} elements, "
                        f"over the budget of {cost - 1};"
                    ), (n, k, flavor)
                    admitted = refusal(n, k, flavor, budget) is None
                    assert admitted == (cost <= budget), (n, k, flavor)

    def test_no_cell_the_object_count_admitted_is_lost(self):
        # the rule this price replaced admitted every cell of at most
        # 2,000,000 objects
        for n in range(1, 151):
            for k in range(1, n + 1):
                for flavor in partitions.FLAVORS:
                    if count_partitions(n, k, flavor) <= 2_000_000:
                        assert partitions._check_size(n, k, flavor, False) == flavor

    def test_enumeration_admits_the_cells_within_the_element_budget(self):
        for n in range(61):
            for k in range(-1, n + 2):
                for flavor in partitions.FLAVORS:
                    within = count_partitions(n, k, flavor) * n <= partitions.ELEMENT_BUDGET
                    try:
                        partitions._check_enumeration(n, k, flavor, False)
                    except ValueError:
                        assert not within, (n, k, flavor)
                    else:
                        assert within, (n, k, flavor)

    def test_huge_cells_are_refused_fast(self):
        # ssp(500000,2) has 250,000 shapes, each counted by a binomial of
        # about 150,000 digits: its parts alone would fit the budget
        start = time.perf_counter()
        with pytest.raises(ValueError, match="ssp tally for n=500000, k=2 reads"):
            dist_poly(500_000, 2, flavor="ssp")
        assert time.perf_counter() - start < 1
        start = time.perf_counter()
        result = subprocess.run(
            [sys.executable, "-m", "pqtouchard.cli", "dist", "--n", "14", "--k", "1",
             "--oracle"], capture_output=True, text=True, timeout=30,
            env={**os.environ, "PYTHONPATH": str(Path(partitions.__file__).parents[1])},
        )
        assert time.perf_counter() - start < 1
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr.startswith(
            "error: llp tally for n=14, k=1 reads 35350562 elements, over the budget of 12000000;"
        )

    def test_large_cells_are_decided_without_the_tables(self, monkeypatch):
        fresh = {
            name: ([(1,)], getattr(tables, name)[1])
            for name in ("_BINOMIAL", "_STIRLING2", "_STIRLING1")
        }
        for name, triangle in fresh.items():
            monkeypatch.setattr(tables, name, triangle)

        def refuse(*args):
            raise AssertionError("a count was computed")

        for name in ("count_partitions", "stirling2", "factorial"):
            monkeypatch.setattr(partitions, name, refuse)
        admitted = set()
        for n in (1200, 10**6, 10**400):
            for k in (1, 2, n - 1, n):
                for flavor in partitions.FLAVORS:
                    try:
                        partitions._check_size(n, k, flavor, False)
                    except ValueError as exc:
                        assert "over the budget of 12000000" in str(exc) or (
                            "over the list length limit" in str(exc) and n > sys.maxsize
                        ), exc
                    else:
                        admitted.add((n, k, flavor))
        n = 10**6
        assert admitted == {
            (1200, 1, "ssp"), (1200, 1, "lsp"), (1200, 2, "ssp"), (1200, 2, "lsp"),
            (1200, 1199, "ssp"), (1200, 1199, "slp"), (1200, 1200, "ssp"), (1200, 1200, "slp"),
            (n, 1, "ssp"), (n, 1, "lsp"), (n, n - 1, "ssp"), (n, n - 1, "slp"),
            (n, n, "ssp"), (n, n, "slp"),
        }
        assert [len(rows) for rows, _ in fresh.values()] == [1, 1, 1]

    def test_long_counts_are_given_by_their_length(self):
        with pytest.raises(ValueError, match="lists a 34-digit number of elements"):
            enumerate_partitions(30, 1, "llp")
        # str() refuses an int this long
        assert partitions._size(factorial(2000)) == "a 5736-digit number of"
        assert partitions._size(10**30 - 1) == str(10**30 - 1)
        assert partitions._size(10**30) == "a 31-digit number of"
        assert partitions._size(10**31 - 1) == "a 31-digit number of"
        assert partitions._size(10**31) == "a 32-digit number of"

    def test_huge_refusals_compute_no_factorial(self, monkeypatch):
        built = []

        def small(real):
            # the tally's scan counts read m!/j! and (j + 1)! for m <= 14
            return lambda *args: built.append(args[0]) or real(*args)

        monkeypatch.setattr(partitions, "factorial", small(partitions.factorial))
        monkeypatch.setattr(partitions, "perm", small(partitions.perm))
        # llp(n, n-1) = n!*(n-1) and slp(n, 1) = n!, stated as their length
        # times n, or as the k^(n-k)*n lower bound; the tallies, as their
        # scans up to length 14 (llp's block orders of 199,999 and its blocks
        # of 2 entries, slp's one block of 200,000)
        for k, flavor, size, read in ((199999, "llp", "at least 39999800000", 35350566),
                                      (1, "slp", "a 973356-digit number of", 35350560)):
            with pytest.raises(ValueError, match=(
                f"{flavor} enumeration for n=200000, k={k} lists {size} elements, "
                "over the budget of 12000000"
            )):
                enumerate_partitions(200000, k, flavor)
            with pytest.raises(ValueError, match=(
                f"{flavor} tally for n=200000, k={k} reads {read} elements, "
                "over the budget of 12000000"
            )):
                partitions._check_size(200000, k, flavor, False)
        assert max(built) <= 14
        # slp(n, n-1) = n*(n-1) objects, bounded from below by k^(n-k)*n
        # elements; its tally reads one shape of n-1 parts
        with pytest.raises(ValueError, match="lists at least 39999800000 elements"):
            enumerate_partitions(200000, 199999, "slp")
        assert partitions._check_size(200000, 199999, "slp", False) == "slp"
        # lsp(n, n) = n!: its tally of n-element block orders is priced at
        # the first length over the budget, and an enumeration builds k! no
        # further than the budget's bit length, past which every k! is over it
        built.clear()
        bits = partitions.ELEMENT_BUDGET.bit_length()
        for n, size in (
            (2_000_000, "reads 35350560 elements, over the budget of 12000000"),
            (2**62, "reads 35350560 elements, over the budget of 12000000"),
            (2**63, f"objects for n={2**63}, k={2**63} hold {2**63} elements, "
                    "over the list length limit"),
        ):
            for check in (partitions._check_size, dist_poly):
                with pytest.raises(ValueError, match=size):
                    check(n, n, flavor="lsp", force=False)
        assert max(built) <= 14
        built.clear()
        with pytest.raises(ValueError, match=(
            "lsp enumeration for n=250000, k=250000 lists at least "
            f"{factorial(bits) * 250000} elements"
        )):
            enumerate_partitions(250000, 250000, "lsp")
        assert built == [bits]

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
        with pytest.raises(ValueError, match="lists at least 24995000 elements"):
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
        # llp(8,8): the tally of the 8! block orders alone, since a block of
        # one entry has the one word, with nse 0, and is not scanned
        dist_poly(8, 8)
        assert len(scans) == kernel_scans(8)
        # llp(8,2): the 2! block orders and one tally per block length 2..7;
        # the shape (4, 4) tallies length 4 once
        scans.clear()
        dist_poly(8, 2)
        assert len(scans) == kernel_scans(2) + sum(kernel_scans(b) for b in range(2, 8))

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

    def test_the_price_counts_the_scans_the_tally_makes(self):
        # _check_size prices a word tally by _split(m), the scans
        # _record_tally makes with the split it takes from there
        for m in range(1, 10):
            words = []
            records = partitions._rl_min_count
            partitions._record_tally(m, lambda word: words.append(word) or records(word), min)
            assert len(words) == partitions._split(m)[0] == kernel_scans(m), m

    def test_an_empty_cell_scans_nothing(self, scans):
        assert not dist_poly(3, 6)
        assert scans == []

    def test_one_block_slp_cell_is_the_symmetric_group(self):
        for n in range(1, 8):
            by_words = sum(
                c * MultiPoly.var("v", j) for j, c in enumerate(nse_distribution(n))
            )
            assert dist_poly(n, 1, flavor="slp") == by_words
