"""Memoized exact integer tables.

Binomials, Stirling numbers of both kinds, Bell numbers and factorials.
The three triangles grow row by row on demand under one lock and are kept
for the process lifetime; Bell numbers are Stirling-2 row sums and
factorials come from math.  Rows are stored as tuples and only ever
appended, so a published row never changes and readers never block;
`table` and avg_nse, which read each row once, stream theirs and keep none
(`table`'s Stirling kinds as exact Decimals, see _exact_stream).
"""

from __future__ import annotations

import math
import threading
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Rounded
from itertools import accumulate, count, repeat
from operator import add, mul

_lock = threading.RLock()


def _check_n(n: int, name: str = "n", low: int | None = 0):
    """Refuse n unless an int, not a bool, of at least low (0, 1 or None)."""
    if not isinstance(n, int) or isinstance(n, bool) or low is not None and n < low:
        kind = {0: "a nonnegative", 1: "a positive", None: "an"}[low]
        raise ValueError(f"{name} must be {kind} integer, got {n!r}")


# a context that rounds nothing: no precision or exponent an entry can pass,
# and Rounded, which every rounding signals (inexact or not), raises
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Rounded])


def _pascal(weights):
    """Step of a triangle grown by row[j] = w*prev[j] + prev[j-1], where
    weights(m) yields w for j = 0..m of row m."""
    return lambda prev, m: tuple(map(add, map(mul, weights(m), prev + (0,)), (0,) + prev))


# every weight is 1, so a row is the sum of two shifted copies of the last
_BINOMIAL = ([(1,)], lambda prev, m: tuple(map(add, prev + (0,), (0,) + prev)))
_STIRLING2 = ([(1,)], _pascal(lambda m: count()))
_STIRLING1 = ([(1,)], _pascal(lambda m: repeat(m - 1)))


def _stream(triangle, n: int):
    """Rows 0..n of a triangle, each stepped from the one before and kept
    nowhere: a reader that drops each row holds O(n) entries."""
    return accumulate(range(1, n + 1), triangle[1], initial=(1,))


def _exact_stream(weights, n: int):
    """Rows 0..n of a triangle grown as _pascal's, as exact Decimals, whose
    str() is linear in the digits (an int's is quadratic): weights(m,
    columns) yields w from columns, the Decimals 0..n made once, and each
    entry is one _EXACT.fma, which no caller's context can round."""
    columns = list(map(Decimal, range(n + 1)))
    zero = (columns[0],)

    def step(prev, m):
        return tuple(map(_EXACT.fma, weights(m, columns), prev + zero, zero + prev))

    return accumulate(range(1, n + 1), step, initial=(Decimal(1),))


def _rows(triangle, n: int) -> list[tuple[int, ...]]:
    """Rows 0..n of an n its caller checked, after appending step(rows[m-1], m)
    for each missing row m: the one place a triangle grows or is read whole."""
    rows, step = triangle
    if n >= len(rows):
        with _lock:
            while len(rows) <= n:
                m = len(rows)
                rows.append(step(rows[m - 1], m))
    return rows[: n + 1]


def _entry(triangle, n: int, k: int) -> int:
    _check_n(n)
    if k < 0 or k > n:
        return 0
    rows = triangle[0]
    return (rows[n] if n < len(rows) else _rows(triangle, n)[n])[k]


def binomial(n: int, k: int) -> int:
    """C(n, k); 0 outside 0 <= k <= n."""
    return _entry(_BINOMIAL, n, k)


def stirling2(n: int, k: int) -> int:
    """Partitions of an n-set into k nonempty blocks; 0 outside range."""
    return _entry(_STIRLING2, n, k)


def stirling1_unsigned(n: int, k: int) -> int:
    """Permutations of an n-set with k cycles; 0 outside range."""
    return _entry(_STIRLING1, n, k)


def stirling1_signed(n: int, k: int) -> int:
    value = stirling1_unsigned(n, k)
    return -value if (n - k) % 2 else value


def bell(n: int) -> int:
    """Row sum of the stirling2 triangle."""
    _check_n(n)
    return sum(_rows(_STIRLING2, n)[n])


def factorial(n: int) -> int:
    # the check stays: math.factorial(True) is 1
    _check_n(n)
    return math.factorial(n)
