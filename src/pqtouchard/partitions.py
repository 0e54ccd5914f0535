"""Block partitions of {1..n} and the nsb/nse statistics.

Four flavors of partition into k nonempty blocks, distinguished by whether
the block collection is ordered and whether the elements inside a block
are ordered:

    ssp  set of sets     counted by S(n,k)
    lsp  list of sets    counted by k!*S(n,k)
    slp  set of lists    counted by (n!/k!)*C(n-1,k-1)
    llp  list of lists   counted by n!*C(n-1,k-1)

Everything here is brute-force enumeration; it is the ground truth the
closed forms elsewhere are checked against.
"""

from __future__ import annotations

from functools import cache
from itertools import permutations, product

from .poly import MultiPoly
from .tables import binomial, factorial, stirling2

FLAVORS = ("ssp", "lsp", "slp", "llp")

# n! * C(n-1, k-1) objects summed over k is ~5.2M at n=8; past that a
# single cell is no longer a desk-scale run
_LLP_BUDGET = 8


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


def nsb(pi: OrderedPartition) -> int:
    """Blocks that must move right so the block minima increase left to right.

    A block stays put exactly when its minimum is a right-to-left minimum
    of the sequence of block minima.
    """
    minima = pi.block_minima()
    return len(minima) - _rl_min_count(minima)


def nse(pi: OrderedPartition) -> int:
    """Elements that must move right so every block is increasing.

    Within each block the elements that stay are its right-to-left minima;
    block order contributes nothing.
    """
    return sum(len(b) - _rl_min_count(b) for b in pi.blocks)


def _skeletons(n: int, k: int):
    # canonical set partitions: blocks ordered by minimum, each increasing;
    # restricted-growth order, so enumeration is deterministic
    if n == 0:
        if k == 0:
            yield ()
        return
    if k <= 0 or k > n:
        return
    blocks: list[list[int]] = []

    def place(i: int):
        if len(blocks) + (n - i + 1) < k:
            return
        if i > n:
            if len(blocks) == k:
                yield tuple(tuple(b) for b in blocks)
            return
        for b in blocks:
            b.append(i)
            yield from place(i + 1)
            b.pop()
        if len(blocks) < k:
            blocks.append([i])
            yield from place(i + 1)
            blocks.pop()

    yield from place(1)


def enumerate_partitions(n: int, k: int, flavor: str, force: bool = False):
    """Stream every partition of {1..n} into k blocks of the given flavor.

    Each object appears exactly once, in a deterministic order.  Out-of-range
    k gives an empty stream.  llp streams with n > 8 are refused unless
    force is true, because the object count n!*C(n-1,k-1) stops being
    desk-scale there.
    """
    flavor = _check_flavor(flavor)
    _check_size(n, k, flavor, force)
    return _generate(n, k, flavor)


def _check_size(n: int, k: int, flavor: str, force: bool) -> None:
    """Reject a bad n, and an llp stream over the budget unless forced."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValueError(f"n must be a nonnegative integer, got {n!r}")
    if flavor == "llp" and 1 <= k <= n and n > _LLP_BUDGET and not force:
        raise ValueError(
            f"llp enumeration for n={n} exceeds the n<={_LLP_BUDGET} budget "
            f"({factorial(n) * binomial(n - 1, k - 1)} objects); "
            "pass force=True (--force) to run it anyway"
        )


def _check_flavor(flavor: str) -> str:
    name = str(flavor).lower()
    if name not in FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}: choose from {', '.join(FLAVORS)}")
    return name


def _generate(n, k, flavor):
    if flavor == "ssp":
        for sk in _skeletons(n, k):
            yield OrderedPartition(sk)
    elif flavor == "lsp":
        for sk in _skeletons(n, k):
            for arrangement in permutations(sk):
                yield OrderedPartition(arrangement)
    elif flavor == "slp":
        for sk in _skeletons(n, k):
            for words in product(*(permutations(b) for b in sk)):
                yield OrderedPartition(words)
    else:
        for sk in _skeletons(n, k):
            for arrangement in permutations(sk):
                for words in product(*(permutations(b) for b in arrangement)):
                    yield OrderedPartition(words)


def dist_poly(n: int, k: int, force: bool = False) -> MultiPoly:
    """Joint distribution sum of u^nsb * v^nse over all llp objects.

    Computed by full enumeration and cached once per (n, k).  The budget is
    checked on every call before the cache is consulted, so a result
    computed with force=True does not answer a later call without it.
    Evaluating the result at u=v=1 recovers the llp count.
    """
    _check_size(n, k, "llp", force)
    return _llp_dist(n, k)


@cache
def _llp_dist(n: int, k: int) -> MultiPoly:
    counts: dict[tuple[int, int], int] = {}
    for pi in _generate(n, k, "llp"):
        stats = (nsb(pi), nse(pi))
        counts[stats] = counts.get(stats, 0) + 1
    return MultiPoly(("u", "v"), counts)


def count_partitions(n: int, k: int, flavor: str) -> int:
    """Number of flavor objects, by closed form."""
    flavor = _check_flavor(flavor)
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValueError(f"n must be a nonnegative integer, got {n!r}")
    if n == 0 or k <= 0:
        return 1 if (n == 0 and k == 0) else 0
    if flavor == "ssp":
        return stirling2(n, k)
    if flavor == "lsp":
        return factorial(k) * stirling2(n, k)
    if flavor == "slp":
        return factorial(n) // factorial(k) * binomial(n - 1, k - 1)
    return factorial(n) * binomial(n - 1, k - 1)
