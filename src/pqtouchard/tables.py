"""Memoized exact integer tables.

Binomials, Stirling numbers of both kinds, Bell numbers, factorials, and the
coefficient polynomials Q_n of the deformed exponential series.  Tables grow
row by row on demand and are kept for the process lifetime.  Rows are stored
as tuples, so a published row can never change; growth is serialized by a
lock and readers never block.
"""

from __future__ import annotations

import threading
from itertools import count, repeat

from .poly import MultiPoly


# w in row[j] = w*prev[j] + prev[j-1] for j = 0..m of row m of each triangle
def _binomial_weights(m):
    return repeat(1)


def _stirling2_weights(m):
    return count()


def _stirling1_weights(m):
    return repeat(m - 1)


class NumberTables:
    """Grow-on-demand caches for the integer triangles and sequences."""

    def __init__(self):
        self._lock = threading.RLock()
        self._binomial: list[tuple[int, ...]] = [(1,)]
        self._stirling2: list[tuple[int, ...]] = [(1,)]
        self._stirling1: list[tuple[int, ...]] = [(1,)]
        self._bell: list[int] = [1]
        self._factorial: list[int] = [1]
        self._q_product: dict[str, list[MultiPoly]] = {}

    @staticmethod
    def _check_n(n: int):
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise ValueError(f"n must be a nonnegative integer, got {n!r}")

    def _triangle(self, rows: list, weights, n: int, k: int) -> int:
        """Entry (n, k) of a triangle grown by row[j] = w*prev[j] + prev[j-1].

        weights(m) yields w for j = 0..m of row m; 0 outside 0 <= k <= n.
        """
        self._check_n(n)
        if k < 0 or k > n:
            return 0
        if n >= len(rows):
            with self._lock:
                while len(rows) <= n:
                    prev = rows[-1]
                    m = len(rows)
                    rows.append(
                        tuple(
                            w * a + b
                            for w, a, b in zip(weights(m), prev + (0,), (0,) + prev)
                        )
                    )
        return rows[n][k]

    def binomial(self, n: int, k: int) -> int:
        """C(n, k); 0 outside 0 <= k <= n."""
        return self._triangle(self._binomial, _binomial_weights, n, k)

    def stirling2(self, n: int, k: int) -> int:
        """Partitions of an n-set into k nonempty blocks; 0 outside range."""
        return self._triangle(self._stirling2, _stirling2_weights, n, k)

    def stirling1_unsigned(self, n: int, k: int) -> int:
        """Permutations of an n-set with k cycles; 0 outside range."""
        return self._triangle(self._stirling1, _stirling1_weights, n, k)

    def stirling1_signed(self, n: int, k: int) -> int:
        value = self.stirling1_unsigned(n, k)
        return -value if (n - k) % 2 else value

    def bell(self, n: int) -> int:
        """Row sum of the stirling2 triangle."""
        self._check_n(n)
        cache = self._bell
        if n >= len(cache):
            with self._lock:
                while len(cache) <= n:
                    m = len(cache)
                    self.stirling2(m, 0)
                    cache.append(sum(self._stirling2[m]))
        return cache[n]

    def factorial(self, n: int) -> int:
        self._check_n(n)
        cache = self._factorial
        if n >= len(cache):
            with self._lock:
                while len(cache) <= n:
                    cache.append(cache[-1] * len(cache))
        return cache[n]

    def q_product_poly(self, n: int, var: str = "q") -> MultiPoly:
        """Q_n(var) = var * (2*var - 1) * ... * (n*var - (n-1)), with Q_0 = 1."""
        self._check_n(n)
        with self._lock:
            seq = self._q_product.setdefault(var, [MultiPoly.const(1)])
            while len(seq) <= n:
                m = len(seq)
                seq.append(seq[-1] * (MultiPoly.var(var) * m - (m - 1)))
        return seq[n]


TABLES = NumberTables()


def binomial(n: int, k: int) -> int:
    return TABLES.binomial(n, k)


def stirling2(n: int, k: int) -> int:
    return TABLES.stirling2(n, k)


def stirling1_unsigned(n: int, k: int) -> int:
    return TABLES.stirling1_unsigned(n, k)


def stirling1_signed(n: int, k: int) -> int:
    return TABLES.stirling1_signed(n, k)


def bell(n: int) -> int:
    return TABLES.bell(n)


def factorial(n: int) -> int:
    return TABLES.factorial(n)


def q_product_poly(n: int, var: str = "q") -> MultiPoly:
    return TABLES.q_product_poly(n, var)
