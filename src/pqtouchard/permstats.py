"""Statistics on permutations: right-to-left minima and left-to-right maxima.

A permutation is any sequence containing each of 1..n exactly once.  The
positions that survive a right-to-left minimum scan are exactly the
elements that never move when the word is sorted by repeatedly shifting
out-of-order elements right, which ties these statistics to the
single-block partition case.
"""

from __future__ import annotations

from .partitions import _block_nse, _check_size, _nse_counts, _record_tally
from .tables import _check_n


def check_permutation(word) -> tuple[int, ...]:
    """Validate and return the word as a tuple; must be a bijection on {1..n}."""
    word = tuple(word)
    for value in word:
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"permutation entries must be integers, got {value!r}")
    if set(word) != set(range(1, len(word) + 1)):
        raise ValueError(f"not a permutation of 1..{len(word)}: {word}")
    return word


def decompose(word):
    """Split positions into (moved, kept) = (NSE set, RLM set), 1-based.

    RLM holds the positions of right-to-left minima; NSE is the complement.
    The two sets are disjoint and their sizes sum to n.
    """
    word = check_permutation(word)
    positions = frozenset(range(1, len(word) + 1))
    rlm = frozenset(i for i in positions if word[i - 1] == min(word[i - 1 :]))
    return positions - rlm, rlm


def nse_perm(word) -> int:
    """Number of entries that are not right-to-left minima."""
    return _block_nse(check_permutation(word))


def _ltr_max_count(word) -> int:
    count = 0
    ceiling = None
    for value in word:
        if ceiling is None or value > ceiling:
            count += 1
            ceiling = value
    return count


def ltr_max_count(word) -> int:
    """Number of entries larger than everything before them."""
    return _ltr_max_count(check_permutation(word))


def _check_budget(n: int) -> int:
    _check_n(n, low=1)
    # the scan of S_n is the word tally of the llp cell (n, 1), priced so
    _check_size(n, 1, "llp", False, hint="", what=f"permutation scan for n={n}")
    return n


def nse_distribution(n: int) -> list[int]:
    """Entry j counts permutations in S_n with nse = j, for j = 0..n-1.

    Exhaustive over S_n: equals the reversed unsigned Stirling-1 row
    c(n,n-j).  It is the tally dist_poly reads block orders and block words
    with, partitions._nse_counts.
    """
    return list(_nse_counts(_check_budget(n)))


def ltr_max_distribution(n: int) -> list[int]:
    """Entry k counts permutations in S_n with k left-to-right maxima.

    Exhaustive over S_n, tallied prefix by suffix (see
    partitions._record_tally) with the _ltr_max_count loop; entry 0 is
    always 0 since every nonempty word has a first maximum.  Mirrors
    nse_distribution: entry k equals entry n-k there.
    """
    return _record_tally(_check_budget(n), _ltr_max_count, max)
