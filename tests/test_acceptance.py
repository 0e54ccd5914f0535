"""Top-level correctness gates.

Each test pins one load-bearing claim of the package against an
independent route: closed forms against exhaustive enumeration, the three
polynomial routes against each other, and the numeric series oracle
against exact evaluation.  Everything is exact integer or rational
equality; there are no tolerances anywhere.
"""

from fractions import Fraction
from itertools import permutations

from pqtouchard import (
    MultiPoly,
    avg_nse,
    decompose,
    dist_poly,
    enumerate_partitions,
    factorial,
    ltr_max_count,
    nse,
    nse_perm,
    s_pq,
    s_uv,
    stirling1_signed,
    stirling1_unsigned,
    stirling2,
    taylor_oracle,
    touchard_eval,
    touchard_poly,
    touchard_series,
)
from pqtouchard.tables import binomial

X = MultiPoly.var("x")


def test_distribution_formula_matches_exhaustive_enumeration():
    # every list-of-lists cell with 1 <= k <= n <= 8, about 5.5e6 objects
    # in all (1.4e6 in llp(8,4)); monomial-for-monomial equality
    for n in range(1, 9):
        for k in range(1, n + 1):
            assert s_uv(n, k) == dist_poly(n, k), (n, k)


def test_sorted_blocks_slice_counts_sets_of_lists():
    # coefficient of u^0: partitions whose block openers already increase,
    # i.e. sets of lists; entry at v^j must be c(n,n-j) * S(n-j,k)
    for n in range(1, 9):
        for k in range(1, n + 1):
            expected = MultiPoly.const(0)
            for j in range(n - k + 1):
                v_j = MultiPoly.var("v", j)
                expected = (
                    expected + stirling1_unsigned(n, n - j) * stirling2(n - j, k) * v_j
                )
            assert dist_poly(n, k).substitute("u", 0) == expected, (n, k)


def test_sorted_elements_slice_counts_lists_of_sets():
    # coefficient of v^0: partitions whose blocks are already increasing,
    # i.e. lists of sets; entry at u^i must be S(n,k) * c(k,k-i)
    for n in range(1, 9):
        for k in range(1, n + 1):
            expected = MultiPoly.const(0)
            for i in range(k):
                u_i = MultiPoly.var("u", i)
                expected = (
                    expected + stirling2(n, k) * stirling1_unsigned(k, k - i) * u_i
                )
            assert dist_poly(n, k).substitute("v", 0) == expected, (n, k)


def test_corner_evaluations_count_all_four_flavors():
    for n in range(1, 9):
        for k in range(1, n + 1):
            poly = dist_poly(n, k)
            assert poly.evaluate({"u": 0, "v": 0}) == stirling2(n, k)
            assert poly.evaluate({"u": 1, "v": 0}) == factorial(k) * stirling2(n, k)
            assert poly.evaluate({"u": 0, "v": 1}) == (
                factorial(n) // factorial(k) * binomial(n - 1, k - 1)
            )
            assert poly.evaluate({"u": 1, "v": 1}) == (
                factorial(n) * binomial(n - 1, k - 1)
            )


def test_all_three_routes_agree_through_n_12():
    # series composition, the explicit alternating sum, and the Stirling
    # substitution must produce identical trivariate polynomials
    series = touchard_series(12)
    for n in range(13):
        from_substitution = touchard_poly(n)
        assert series[n] == from_substitution, n
        assert touchard_poly(n, "explicit") == from_substitution, n
        expanded = sum(
            (s_pq(n, k) * MultiPoly.var("x", k) for k in range(1, n + 1)),
            MultiPoly.const(int(n == 0)),
        )
        assert expanded == from_substitution, n


def test_classical_and_doubled_specializations():
    # p=q=1 collapses to the ordinary Touchard polynomials with Stirling-2
    # coefficients; p=q=2 counts fully ordered objects, n! * x * (1+x)^(n-1)
    bell_prefix = [1, 1, 2, 5, 15, 52, 203, 877]
    for n in range(8):
        assert touchard_eval(n, 1, 1, 1) == bell_prefix[n]
    for n in range(16):
        classical = touchard_poly(n).substitute("p", 1).substitute("q", 1)
        expected = MultiPoly.const(0)
        for k in range(n + 1):
            expected = expected + stirling2(n, k) * MultiPoly.var("x", k)
        assert classical == expected, n
    for n in range(1, 16):
        doubled = touchard_poly(n).substitute("p", 2).substitute("q", 2)
        expected = factorial(n) * X
        for _ in range(n - 1):
            expected = expected * (1 + X)
        assert doubled == expected, n


def test_taylor_oracle_matches_evaluation_on_rational_grid():
    points = [Fraction(-1), Fraction(1, 2), Fraction(2), Fraction(3)]
    for x in (Fraction(1, 2), Fraction(1), Fraction(2)):
        for p in points:
            for q in points:
                coeffs = taylor_oracle(x, p, q, 10)
                for n in range(11):
                    assert coeffs[n] * factorial(n) == touchard_eval(n, x, p, q), (
                        x, p, q, n,
                    )


def test_stirling_convolution_and_orthogonality():
    # c * S convolution counts sets of lists; the signed convolution is the
    # inverse relation between the two Stirling triangles
    for n in range(1, 31):
        for k in range(1, n + 1):
            lhs = sum(stirling1_unsigned(n, l) * stirling2(l, k) for l in range(n + 1))
            assert lhs == factorial(n) // factorial(k) * binomial(n - 1, k - 1), (n, k)
    for n in range(31):
        for k in range(n + 1):
            signed = sum(
                stirling1_signed(n, l) * stirling2(l, k) for l in range(n + 1)
            )
            assert signed == (1 if n == k else 0), (n, k)


def test_average_nse_formula_matches_enumeration():
    assert avg_nse(2) == Fraction(1, 3)
    for n in range(1, 8):
        moved = 0
        objects = 0
        for k in range(1, n + 1):
            for pi in enumerate_partitions(n, k, "slp"):
                moved += nse(pi)
                objects += 1
        assert avg_nse(n) == Fraction(moved, objects), n


def test_permutation_decomposition_and_distributions():
    # exhaustive over S_n for n <= 8: the moved/kept split is a partition
    # of the positions, and both statistics have Stirling-1 distributions
    for n in range(1, 9):
        nse_counts = [0] * n
        ltr_counts = [0] * (n + 1)
        for word in permutations(range(1, n + 1)):
            moved, kept = decompose(word)
            assert moved & kept == frozenset()
            assert len(moved) + len(kept) == n
            j = nse_perm(word)
            assert len(moved) == j
            nse_counts[j] += 1
            ltr_counts[ltr_max_count(word)] += 1
        for j in range(n):
            assert nse_counts[j] == stirling1_unsigned(n, n - j), (n, j)
        for k in range(1, n + 1):
            assert ltr_counts[k] == nse_counts[n - k], (n, k)
