"""Enumeration of the four partition flavors and the nsb/nse statistics."""

import pytest

import pqtouchard.partitions as partitions
from pqtouchard import (
    MultiPoly,
    OrderedPartition,
    count_partitions,
    dist_poly,
    enumerate_partitions,
    factorial,
    nsb,
    nse,
    stat_report,
    stirling1_unsigned,
    verify_identity,
)


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
            assert pi.block_minima() == tuple(sorted(pi.block_minima()))
        for pi in enumerate_partitions(4, 2, "lsp"):
            assert all(b == tuple(sorted(b)) for b in pi.blocks)
        for pi in enumerate_partitions(4, 2, "slp"):
            assert pi.block_minima() == tuple(sorted(pi.block_minima()))

    def test_each_flavor_count_matches_enumeration(self):
        for n in range(8):
            for k in range(n + 2):
                for flavor in partitions.FLAVORS:
                    run = sum(1 for _ in enumerate_partitions(n, k, flavor))
                    assert run == count_partitions(n, k, flavor)

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
        partitions._tally.cache_clear()
        with pytest.raises(ValueError, match="force"):
            dist_poly(4, 2)
        poly = dist_poly(4, 2, force=True)
        assert poly.evaluate({"u": 1, "v": 1}) == 72

    def test_dist_poly_enumerates_each_cell_once(self, monkeypatch):
        streams = []
        generate = partitions._generate

        def counting(n, k, flavor):
            streams.append((n, k, flavor))
            return generate(n, k, flavor)

        monkeypatch.setattr(partitions, "_generate", counting)
        partitions._tally.cache_clear()
        report = stat_report(6, 3)
        assert dist_poly(6, 3) is report.poly
        assert dist_poly(6, 3, force=False) is report.poly
        assert streams == [(6, 3, "llp")]
        # the budget is checked before the cache, so a cached cell over a
        # lowered budget is still refused without force
        monkeypatch.setattr(partitions, "OBJECT_BUDGET", 720)
        with pytest.raises(ValueError, match="force"):
            dist_poly(6, 3)
        assert dist_poly(6, 3, force=True) is report.poly


    def test_every_flavor_is_budgeted(self, monkeypatch):
        monkeypatch.setattr(partitions, "OBJECT_BUDGET", 50)
        partitions._tally.cache_clear()
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

    def test_multi_cell_checks_refuse_before_enumerating(self, monkeypatch):
        streams = []
        generate = partitions._generate

        def counting(n, k, flavor):
            streams.append((n, k, flavor))
            return generate(n, k, flavor)

        monkeypatch.setattr(partitions, "_generate", counting)
        monkeypatch.setattr(partitions, "OBJECT_BUDGET", 100)
        partitions._tally.cache_clear()
        # lsp(5,3) = 150 is the first cell over; n <= 4 fits
        with pytest.raises(ValueError, match="lsp enumeration for n=5, k=3"):
            verify_identity("lsp-slice", 9)
        assert streams == []
        assert verify_identity("lsp-slice", 5, force=True).passed

    def test_long_counts_are_given_by_their_length(self):
        with pytest.raises(ValueError, match="visits a 33-digit number of objects"):
            enumerate_partitions(30, 1, "llp")
        # str() refuses an int this long
        assert partitions._size(factorial(2000)) == "a 5736-digit number of"
        assert partitions._size(10**30 - 1) == str(10**30 - 1)
        assert partitions._size(10**30) == "a 31-digit number of"
        assert partitions._size(10**31 - 1) == "a 31-digit number of"
        assert partitions._size(10**31) == "a 32-digit number of"

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


class TestDistPoly:
    def test_two_one(self):
        v = MultiPoly.var("v")
        assert dist_poly(2, 1) == 1 + v

    def test_three_two(self):
        u, v = MultiPoly.var("u"), MultiPoly.var("v")
        assert dist_poly(3, 2) == 3 * (1 + u) * (1 + v)

    def test_diagonal_is_stirling1_row(self):
        u = MultiPoly.var("u")
        for n in range(1, 7):
            expected = MultiPoly.const(0)
            for i in range(n):
                expected = expected + stirling1_unsigned(n, n - i) * u**i
            assert dist_poly(n, n) == expected

    def test_degree_bounds(self):
        for n in range(1, 7):
            for k in range(1, n + 1):
                poly = dist_poly(n, k)
                assert poly.degree("u") <= k - 1
                assert poly.degree("v") <= n - k

    def test_cached(self):
        assert dist_poly(5, 2) is dist_poly(5, 2)
