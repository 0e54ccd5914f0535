"""Number tables: recurrences, row sums, and independent brute-force counts."""

import os
import subprocess
import sys
import textwrap
from itertools import permutations, product
from pathlib import Path

import pytest

from pqtouchard import (
    VAR_ORDER,
    MultiPoly,
    bell,
    binomial,
    cli,
    exp_q,
    factorial,
    stirling1_signed,
    stirling1_unsigned,
    stirling2,
    tables,
)

TABLE_FUNCTIONS = (
    binomial, stirling2, stirling1_unsigned, stirling1_signed, bell, factorial,
)


def brute_stirling2(n, k):
    """Count surjections [n] -> [k] directly, then divide out block labels."""
    if k == 0:
        return 1 if n == 0 else 0
    hits = sum(
        1 for word in product(range(k), repeat=n) if len(set(word)) == k
    )
    return hits // factorial(k)


def cycle_count(word):
    seen = set()
    count = 0
    for start in range(len(word)):
        if start not in seen:
            count += 1
            j = start
            while j not in seen:
                seen.add(j)
                j = word[j] - 1
    return count


class TestBinomial:
    def test_examples(self):
        assert binomial(7, 3) == 35
        assert binomial(5, 0) == 1
        assert binomial(4, 6) == 0
        assert binomial(4, -1) == 0

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)

    def test_pascal(self):
        for n in range(1, 31):
            for k in range(n + 1):
                assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


class TestStirling2:
    def test_examples(self):
        assert stirling2(4, 2) == 7
        assert stirling2(3, 0) == 0
        assert stirling2(0, 0) == 1
        for n in range(21):
            assert stirling2(n, n) == 1

    def test_recurrence(self):
        for n in range(1, 31):
            for k in range(1, n + 1):
                assert stirling2(n, k) == k * stirling2(n - 1, k) + stirling2(
                    n - 1, k - 1
                )

    def test_against_surjection_count(self):
        for n in range(7):
            for k in range(n + 2):
                assert stirling2(n, k) == brute_stirling2(n, k)


class TestStirling1:
    def test_examples(self):
        assert stirling1_unsigned(3, 1) == 2
        assert stirling1_unsigned(3, 2) == 3
        for n in range(21):
            assert stirling1_unsigned(n, n) == 1

    def test_signed(self):
        assert stirling1_signed(3, 1) == 2
        assert stirling1_signed(3, 2) == -3
        assert stirling1_signed(4, 4) == 1

    def test_recurrence(self):
        for n in range(1, 31):
            for k in range(1, n + 1):
                assert stirling1_unsigned(n, k) == (n - 1) * stirling1_unsigned(
                    n - 1, k
                ) + stirling1_unsigned(n - 1, k - 1)

    def test_against_cycle_counts(self):
        for n in range(1, 7):
            rows = [0] * (n + 1)
            for word in permutations(range(1, n + 1)):
                rows[cycle_count(word)] += 1
            for k in range(n + 1):
                assert stirling1_unsigned(n, k) == rows[k]

    def test_row_sums_are_factorials(self):
        for n in range(21):
            assert sum(stirling1_unsigned(n, k) for k in range(n + 1)) == factorial(n)


class TestBell:
    def test_examples(self):
        assert bell(0) == 1
        assert bell(3) == 5
        assert bell(5) == 52

    def test_row_sums(self):
        for n in range(21):
            assert bell(n) == sum(stirling2(n, k) for k in range(n + 1))


def q_product_poly(n, var="q"):
    """Q_n(var) = var * (2*var - 1) * ... * (n*var - (n-1)), the coefficient
    n + 1 of exp_q (the rows of `table --name q-product`)."""
    return exp_q(n + 1, MultiPoly.var(var) - 1)[n + 1]


class TestQProduct:
    def test_examples(self):
        q = MultiPoly.var("q")
        assert q_product_poly(0) == 1
        assert q_product_poly(2) == 2 * MultiPoly.var("q", 2) - q
        assert q_product_poly(1, "p") == MultiPoly.var("p")

    def test_value_at_one(self):
        for n in range(21):
            assert q_product_poly(n).evaluate({"q": 1}) == 1

    def test_shift_gives_stirling1_row(self):
        # substituting q = v + 1 into the (n-1)-st product turns the
        # coefficient of v^j into the unsigned Stirling-1 value c(n, n-j)
        v = MultiPoly.var("v")
        for n in range(1, 16):
            shifted = q_product_poly(n - 1).substitute("q", v + 1)
            for j in range(n):
                assert shifted.monomial_coefficient({"v": j}) == stirling1_unsigned(
                    n, n - j
                )
            slot = VAR_ORDER.index("v")
            assert all(key[slot] <= n - 1 for key in shifted.terms)


class TestStream:
    @pytest.mark.parametrize("name", ["_BINOMIAL", "_STIRLING2", "_STIRLING1"])
    def test_streamed_rows_are_the_kept_rows(self, name):
        # `table` and avg_nse step each row from the last and drop it; every
        # row must be the one the memoized readers keep
        triangle = getattr(tables, name)
        assert list(tables._stream(triangle, 300)) == tables._rows(triangle, 300)

    def test_signed_rows_are_the_signed_entries(self):
        # `table`'s signed triangle steps s(n,k) itself, by weights 1 - m, as
        # Decimals; it must equal the signed unsigned entries, and
        # (1 - m) * Decimal(0) is Decimal("-0"), which no entry may print as
        rows = cli._TRIANGLES["stirling1-signed"](60)
        for n, row in enumerate(rows):
            assert row == tuple(str(stirling1_signed(n, k)) for k in range(n + 1)), n
            assert "-0" not in row, n

    @pytest.mark.parametrize("name", ["stirling2", "stirling1", "stirling1-signed"])
    def test_fma_rows_are_the_int_rows(self, name):
        # each Stirling entry `table` prints is one exact fma on Decimals;
        # every row through 300 must be the int triangle's, signed for
        # stirling1-signed, and none may print as "-0"
        triangle = tables._STIRLING2 if name == "stirling2" else tables._STIRLING1
        signed = name == "stirling1-signed"
        rows = list(cli._TRIANGLES[name](300))
        assert len(rows) == 301
        for n, (row, kept) in enumerate(zip(rows, tables._rows(triangle, 300))):
            ints = [-c if signed and (n - k) % 2 else c for k, c in enumerate(kept)]
            assert row == tuple(map(str, ints)), n
            assert type(row) is cli._Numerals and "-0" not in row, n


class TestChecks:
    @pytest.mark.parametrize("n", [-1, True, 2.0], ids=["negative", "bool", "float"])
    @pytest.mark.parametrize("fn", TABLE_FUNCTIONS, ids=lambda fn: fn.__name__)
    def test_bad_n_rejected(self, fn, n):
        args = (n,) if fn in (bell, factorial) else (n, 0)
        with pytest.raises(ValueError, match="nonnegative integer"):
            fn(*args)

    def test_out_of_range_k_grows_nothing(self):
        rows = (tables._BINOMIAL[0], tables._STIRLING2[0])
        before = [len(r) for r in rows]
        assert binomial(5000, 6000) == 0
        assert stirling2(5000, -1) == 0
        assert [len(r) for r in rows] == before


class TestConcurrency:
    def test_parallel_growth_is_consistent(self):
        # a fresh interpreter, so the eight threads grow the tables from row 0;
        # the expected values never touch the tables
        script = textwrap.dedent(
            """
            import math, sys, threading
            from pqtouchard import binomial, stirling2

            def stirling2_sum(n, k):
                terms = ((-1) ** i * math.comb(k, i) * (k - i) ** n for i in range(k + 1))
                return sum(terms) // math.factorial(k)

            errors = []

            def worker(seed):
                for n in range(seed, 160, 7):
                    if binomial(n, n // 2) != math.comb(n, n // 2):
                        errors.append(("binomial", n))
                    if stirling2(n // 2, n // 4) != stirling2_sum(n // 2, n // 4):
                        errors.append(("stirling2", n))

            sys.setswitchinterval(1e-6)
            threads = [threading.Thread(target=worker, args=(s,)) for s in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            print(sum(t.is_alive() for t in threads), errors)
            """
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(Path(tables.__file__).parents[1])},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "0 []\n"
