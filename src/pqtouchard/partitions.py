"""Block partitions of {1..n} and the nsb/nse statistics.

Four flavors of partition into k nonempty blocks, distinguished by whether
the block collection is ordered and whether the elements inside a block
are ordered:

    ssp  set of sets     counted by S(n,k)
    lsp  list of sets    counted by k!*S(n,k)
    slp  set of lists    counted by (n!/k!)*C(n-1,k-1)
    llp  list of lists   counted by n!*C(n-1,k-1)

Everything here is brute-force enumeration; it is the ground truth the
closed forms elsewhere are checked against.  Inside, partitions are plain
tuples of block tuples; only the public OrderedPartition constructor checks
input.  No cell over OBJECT_BUDGET objects is enumerated unless forced.
"""

from __future__ import annotations

from functools import cache
from itertools import accumulate, permutations, product
from math import log10

from .poly import MultiPoly
from .tables import binomial, factorial, stirling2

FLAVORS = ("ssp", "lsp", "slp", "llp")

# objects one cell may visit without force: every llp cell up to n = 8
# (the largest is 8!*C(7,3) = 1,411,200) and all 9! permutations fit;
# llp(9,2) = 2,903,040 and 10! do not
OBJECT_BUDGET = 2_000_000


class OrderedPartition:
    """Blocks of distinct positive integers whose union is exactly {1..n}.

    Both the block order and the element order inside each block are
    significant, so this represents a list-of-lists object; the other three
    flavors are the subsets of these that are canonically sorted in one or
    both senses.
    """

    __slots__ = ("blocks",)

    def __init__(self, blocks):
        blocks = tuple(tuple(b) for b in blocks)
        seen = set()
        for block in blocks:
            if not block:
                raise ValueError("blocks must be nonempty")
            for e in block:
                if not isinstance(e, int) or isinstance(e, bool) or e < 1:
                    raise ValueError(f"elements must be positive integers, got {e!r}")
                if e in seen:
                    raise ValueError(f"element {e} appears twice")
                seen.add(e)
        n = len(seen)
        if seen and max(seen) != n:
            raise ValueError(f"elements must cover 1..{n} with no gaps")
        self.blocks = blocks

    @classmethod
    def _wrap(cls, blocks: tuple[tuple[int, ...], ...]) -> "OrderedPartition":
        """The partition of block tuples the generator built; nothing is checked."""
        pi = object.__new__(cls)
        pi.blocks = blocks
        return pi

    @property
    def n(self) -> int:
        return sum(len(b) for b in self.blocks)

    @property
    def k(self) -> int:
        return len(self.blocks)

    def block_minima(self) -> tuple[int, ...]:
        return tuple(min(b) for b in self.blocks)

    def __eq__(self, other):
        if not isinstance(other, OrderedPartition):
            return NotImplemented
        return self.blocks == other.blocks

    def __hash__(self):
        return hash(self.blocks)

    def __repr__(self):
        return f"OrderedPartition({self.to_string()!r})"

    def __str__(self):
        return self.to_string()

    @classmethod
    def from_string(cls, text: str) -> "OrderedPartition":
        """Parse slash notation: `32/681/57/4`, or comma form `10,3/2,11` past 9."""
        text = text.strip()
        if not text:
            return cls(())
        blocks = []
        for part in text.split("/"):
            if "," in text:
                blocks.append([int(e) for e in part.split(",")])
            else:
                if not part.isdigit():
                    raise ValueError(f"cannot parse block {part!r}")
                blocks.append([int(ch) for ch in part])
        return cls(blocks)

    def to_string(self) -> str:
        sep = "" if self.n <= 9 else ","
        return "/".join(sep.join(str(e) for e in b) for b in self.blocks)


def _rl_min_count(seq) -> int:
    """Number of right-to-left minima: entries smaller than everything after them."""
    count = 0
    floor = None
    for value in reversed(seq):
        if floor is None or value < floor:
            count += 1
            floor = value
    return count


def _nsb(blocks) -> int:
    return len(blocks) - _rl_min_count([min(b) for b in blocks])


def _nse(blocks) -> int:
    return sum(len(b) - _rl_min_count(b) for b in blocks)


def nsb(pi: OrderedPartition) -> int:
    """Blocks that must move right so the block minima increase left to right.

    A block stays put exactly when its minimum is a right-to-left minimum
    of the sequence of block minima.
    """
    return _nsb(pi.blocks)


def nse(pi: OrderedPartition) -> int:
    """Elements that must move right so every block is increasing.

    Within each block the elements that stay are its right-to-left minima;
    block order contributes nothing.
    """
    return _nse(pi.blocks)


def _skeletons(n: int, k: int):
    """Canonical set partitions (blocks ordered by minimum, each increasing),
    restricted growth strings in lexicographic order (TAOCP 7.2.1.5)."""
    if n == 0 or not 1 <= k <= n:
        if n == k == 0:
            yield ()
        return
    # a[i] is the block of element i + 1; this is the first string with k blocks
    a = [0] * (n - k + 1) + list(range(1, k))
    while True:
        blocks = [[] for _ in range(k)]
        for element, block in enumerate(a, 1):
            blocks[block].append(element)
        yield tuple(map(tuple, blocks))
        # step up the rightmost entry that is neither a new maximum nor k - 1,
        # then refill the rest with the smallest tail that still reaches k blocks
        top = list(accumulate(a, max))
        for i in range(n - 1, 0, -1):
            if a[i] <= top[i - 1] and a[i] + 1 < k:
                a[i] += 1
                used = max(top[i - 1], a[i])
                a[i + 1 :] = [0] * (n - i - k + used) + list(range(used + 1, k))
                break
        else:
            return


def enumerate_partitions(n: int, k: int, flavor: str, force: bool = False):
    """Stream every partition of {1..n} into k blocks of the given flavor.

    Each object appears exactly once, in a deterministic order.  Out-of-range
    k gives an empty stream.  A cell of more than OBJECT_BUDGET objects is
    refused, with its size stated, unless force is true.
    """
    flavor = _check_size(n, k, flavor, force)
    return map(OrderedPartition._wrap, _generate(n, k, flavor))


def _size(count: int) -> str:
    # str() refuses an int past 4300 digits, and its digits would say no more
    if count < 10**30:
        return str(count)
    digits = int((count.bit_length() - 1) * log10(2)) + 1
    return f"a {digits + (count >= 10**digits)}-digit number of"


def _check_size(n, k, flavor, force, hint="pass force=True (--force) to run it anyway"):
    """The flavor's name, after rejecting a bad flavor, n or k, and a cell
    over OBJECT_BUDGET unless forced; hint says how to get past the budget."""
    flavor = _check_flavor(flavor)
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValueError(f"n must be a nonnegative integer, got {n!r}")
    if not isinstance(k, int) or isinstance(k, bool):
        raise ValueError(f"k must be an integer, got {k!r}")
    if force or not 1 <= k <= n:
        return flavor
    # every flavor has at least S(n,k) >= k^(n-k) objects (1..k in separate
    # blocks), so most huge cells are refused without growing the tables to
    # row n; k^e with 2^e > OBJECT_BUDGET already decides, so e is capped
    floor = k ** min(n - k, OBJECT_BUDGET.bit_length())
    count = floor if floor > OBJECT_BUDGET else count_partitions(n, k, flavor)
    if count > OBJECT_BUDGET:
        least = "at least " if floor > OBJECT_BUDGET else ""
        raise ValueError(
            f"{flavor} enumeration for n={n}, k={k} visits {least}{_size(count)} "
            f"objects, over the budget of {OBJECT_BUDGET}; {hint}"
        )
    return flavor


def _check_flavor(flavor: str) -> str:
    name = str(flavor).lower()
    if name not in FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}: choose from {', '.join(FLAVORS)}")
    return name


def _generate(n, k, flavor):
    """Every object of the cell as a tuple of block tuples, in a fixed order."""
    order_blocks = flavor in ("lsp", "llp")
    order_elements = flavor in ("slp", "llp")
    for sk in _skeletons(n, k):
        for arrangement in permutations(sk) if order_blocks else (sk,):
            if order_elements:
                yield from product(*(permutations(b) for b in arrangement))
            else:
                yield arrangement


def dist_poly(n: int, k: int, force: bool = False, flavor: str = "llp") -> MultiPoly:
    """Joint distribution sum of u^nsb * v^nse over all objects of a flavor.

    Computed by visiting every object and cached once per (n, k, flavor).
    The budget is checked on every call before the cache is consulted, so a
    result computed with force=True does not answer a later call without
    it.  Evaluating the result at u=v=1 recovers the object count.
    """
    flavor = _check_size(n, k, flavor, force)
    return _tally(n, k, flavor)


@cache
def _tally(n: int, k: int, flavor: str) -> MultiPoly:
    counts: dict[tuple[int, int], int] = {}
    for blocks in _generate(n, k, flavor):
        stats = (_nsb(blocks), _nse(blocks))
        counts[stats] = counts.get(stats, 0) + 1
    return MultiPoly(("u", "v"), counts)


def count_partitions(n: int, k: int, flavor: str) -> int:
    """Number of flavor objects, by closed form."""
    flavor = _check_size(n, k, flavor, force=True)  # nothing is enumerated here
    if n == 0 or k <= 0:
        return 1 if (n == 0 and k == 0) else 0
    if flavor == "ssp":
        return stirling2(n, k)
    if flavor == "lsp":
        return factorial(k) * stirling2(n, k)
    if flavor == "slp":
        return factorial(n) // factorial(k) * binomial(n - 1, k - 1)
    return factorial(n) * binomial(n - 1, k - 1)
