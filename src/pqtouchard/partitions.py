"""Block partitions of {1..n} and the nsb/nse statistics.

Four flavors of partition into k nonempty blocks, distinguished by whether
the block collection is ordered and whether the elements inside a block
are ordered:

    ssp  set of sets     counted by S(n,k)
    lsp  list of sets    counted by k!*S(n,k)
    slp  set of lists    counted by (n!/k!)*C(n-1,k-1)
    llp  list of lists   counted by n!*C(n-1,k-1)

Everything here counts exhaustively; it is the ground truth the closed
forms elsewhere are checked against.  dist_poly tallies block orders and
block words with _nse_counts, an exact count of all words of m distinct
entries made prefix by suffix (_record_tally), and pairs them per block
shape, counted by _block_shapes with no set partition listed, by
multiplication.  One generator of block orders, _arrangements, feeds
both _generate, whose objects enumerate_partitions streams, and _records,
the CLI's text, nsb and nse of each object, made per block order and per
distinct block without building the object.  Inside, partitions are
plain tuples of block tuples; only the public OrderedPartition
constructor checks input.  No cell is tallied (dist_poly; permstats scans
S_n as the llp cell (n, 1)) or enumerated past ELEMENT_BUDGET elements
read or listed unless forced; _over_budget words every refusal over a
budget.  No result is cached: each dist_poly call tallies its cell.
"""

from __future__ import annotations

import sys
from collections import Counter
from itertools import accumulate, permutations, product, repeat
from math import comb, factorial, lgamma, log, log10, perm, pi, prod, sqrt

from .poly import MultiPoly, _wrap
from .tables import _check_n, stirling2

FLAVORS = ("ssp", "lsp", "slp", "llp")

# Elements an exhaustive run reads or lists without force.  An enumeration
# lists objects times n: llp(8,4) and llp(8,5), 11,289,600, in 1.7-2.0 s
# (--stats; 5.4-6.9 s as json) at 18 MB; near each flavor's top, up to 8.3 s
# (ssp(288,287), json) and 137 MB (lsp(19,2)); ssp(1200,1199), 863,280,000,
# ran past 60 s (cold, --out, 2-vCPU VM).  A tally reads its word scans and
# shapes: all llp cells to n = 13 and S_13 fit; the slowest found, ssp(6297,2),
# took 1.35 s, and ssp(n,n) at the edge, n = 11,999,999, 0.06 s at 106 MB
ELEMENT_BUDGET = 12_000_000
# Elements of one object, held at once while it is listed, with their
# texts and words: slp(n,n), n singleton blocks, peaks at 148 MB in 1.6 s
# at n = 250,000 (cold, --out), and at n = 2,000,000 it ran out of a 1 GB
# address space
LENGTH_BUDGET = 250_000


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
            if "," not in text and not part.isdigit():
                raise ValueError(f"cannot parse block {part!r}")
            blocks.append(list(map(int, part.split(",") if "," in text else part)))
        return cls(blocks)

    def to_string(self) -> str:
        n = self.n
        return "/".join(_block_text(b, n) for b in self.blocks)


def _block_text(block, n: int) -> str:
    """A block of a partition of {1..n} in slash notation: its digits, or
    its elements separated by commas past n = 9."""
    return ("" if n <= 9 else ",").join(map(str, block))


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
    return len(pi.blocks) - _rl_min_count(list(map(min, pi.blocks)))


def nse(pi: OrderedPartition) -> int:
    """Elements that must move right so every block is increasing.

    Within each block the elements that stay are its right-to-left minima;
    block order contributes nothing.
    """
    return sum(map(_block_nse, pi.blocks))


def _block_nse(block) -> int:
    """A block's term of nse: its elements that are not right-to-left minima."""
    return len(block) - _rl_min_count(block)


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
    k gives an empty stream.  A cell of objects longer than LENGTH_BUDGET
    elements, or of more than ELEMENT_BUDGET elements in all, is refused,
    with its size stated, unless force is true.
    """
    flavor = _check_enumeration(n, k, flavor, force)
    return map(OrderedPartition._wrap, _generate(n, k, flavor))


def _size(count) -> str:
    # str() refuses an int past 4300 digits, and its digits would say no more;
    # a float is the log10 of a count too long to compute
    if isinstance(count, float):
        return f"a {int(count) + 1}-digit number of"
    if count < 10**30:
        return str(count)
    digits = int((count.bit_length() - 1) * log10(2)) + 1
    return f"a {digits + (count >= 10**digits)}-digit number of"


def _over_budget(what: str, size, unit: str, budget: int, hint: str = "") -> ValueError:
    """The refusal of a request whose size passes its budget, worded here
    alone: what, size and unit, the budget, then hint when there is a way
    past it."""
    text = f"{what} {_size(size)} {unit}, over the budget of {budget}"
    return ValueError(f"{text}; {hint}" if hint else text)


def _check_cell(n, k, flavor, held=False) -> str:
    """The flavor's name, after rejecting a bad flavor, n or k and, for a cell
    held (tallied or listed), n past sys.maxsize, the list length limit."""
    name = str(flavor).lower()
    if name not in FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}: choose from {', '.join(FLAVORS)}")
    _check_n(n)
    _check_n(k, "k", None)
    if held and 1 <= k <= n and n > sys.maxsize:
        limit = f"over the list length limit of {sys.maxsize}"
        raise ValueError(f"{name} objects for n={n}, k={k} hold {_size(n)} elements, {limit}")
    return name


_FORCE_HINT = "pass force=True (--force) to run it anyway"


def _split(m: int) -> tuple[int, int]:
    """(scans, j) of _record_tally(m), m >= 1: m!/j! prefixes and the (j + 1)!
    words of range(j + 1) scanned, at the split j that scans least."""
    return min((perm(m, m - j) + perm(j + 1), j) for j in range(m))


def _check_size(n, k, flavor, force, hint=_FORCE_HINT, what=""):
    """The flavor's name, after _check_cell and, unless forced, the refusal
    of a nonempty cell whose tally (dist_poly) reads over ELEMENT_BUDGET
    elements, priced with no table or count, stating the price up to the
    term over the budget; hint is the way past it, what names the request."""
    flavor = _check_cell(n, k, flavor, held=True)
    if force or not 1 <= k <= n:
        return flavor
    what = (what or f"{flavor} tally for n={n}, k={k}") + " reads"
    orders = (k,) if flavor in ("lsp", "llp") else ()
    blocks = range(2 if k > 1 else max(n, 2), n - k + 2) if flavor in ("slp", "llp") else ()
    read = 0  # m per scan of a word tally of length m; scans rise with m
    for m in range(1, max((*orders, *blocks[-1:]), default=0) + 1):
        if (cost := m * _split(m)[0]) > ELEMENT_BUDGET:
            raise _over_budget(what, read + cost, "elements", ELEMENT_BUDGET, hint)
        read += ((m in orders) + (m in blocks)) * cost
    # the k - i single blocks once, then per shape at most i parts past 1 and
    # a count's digits, in log10 (finite at n <= sys.maxsize):
    # p(n,k) <= C(n-1,k-1), over 2^64 past j = 64, and p(n,k) <= p(n-k),
    # exact to n - k = 100 (p(100) is over 10^8), then < exp(pi*sqrt(2(n-k)/3))
    # (Erdos 1942); a count is at most the cell's (slp, llp) or
    # S(n,k) <= C(n,k)*k^(n-k) <= (e*n/i)^i*k^(n-k), precise at any n
    shapes = (log10(_partition_count(n - k)) if n - k <= 100
              else pi * sqrt(2 * (n - k) / 3) / log(10))
    if (j := min(k - 1, n - k)) <= 64:
        shapes = min(shapes, log10(comb(n - 1, j)))
    i = min(k, n - k)
    digits = (_log10_count(n, k, flavor) if flavor in ("slp", "llp")
              else (i and i * (log10(n / i) + 1 / log(10))) + (n - k) * log10(k))
    per_shape = i + int(digits) + 1
    # past 10^30 shapes, far past any budget, the length is all a refusal states
    price = (shapes + log10(per_shape) if shapes > 30
             else read + k - i + round(10**shapes) * per_shape)
    if shapes > 30 or price > ELEMENT_BUDGET:
        raise _over_budget(what, price, "elements", ELEMENT_BUDGET, hint)
    return flavor


def _partition_count(m: int) -> int:
    """p(m), the partitions of m, counted by adding one part size at a time."""
    p = [1] + [0] * m
    for part in range(1, m + 1):
        for t in range(part, m + 1):
            p[t] += p[t - part]
    return p[m]


def _check_enumeration(n, k, flavor, force) -> str:
    """The flavor's name, after _check_cell and, unless forced, the refusal
    of a nonempty cell of objects longer than LENGTH_BUDGET elements or of
    more than ELEMENT_BUDGET elements, objects times n, in all."""
    flavor = _check_cell(n, k, flavor, held=True)
    if force or not 1 <= k <= n:
        return flavor
    what = f"{flavor} enumeration for n={n}, k={k} lists"
    if n > LENGTH_BUDGET:
        raise _over_budget(f"{what} objects of", n, "elements", LENGTH_BUDGET, _FORCE_HINT)
    # S(n,k) >= k^e, e = n-k (1..k in separate blocks, then the other e),
    # and lsp's k!*S(n,k) refuse most cells with no table grown, each capped
    # where it alone passes the budget (at its bit length; k^e needs k >= 2)
    bits = ELEMENT_BUDGET.bit_length()
    low = k ** min(n - k, bits) * (factorial(min(k, bits)) if flavor == "lsp" else 1) * n
    if low > ELEMENT_BUDGET:
        raise _over_budget(f"{what} at least", low, "elements", ELEMENT_BUDGET, _FORCE_HINT)
    if flavor in ("slp", "llp") and (log_size := _log10_count(n, k, flavor) + log10(n)) > 31:
        # far past the budget: its length is all a refusal states, with no n!
        raise _over_budget(what, log_size, "elements", ELEMENT_BUDGET, _FORCE_HINT)
    # the count decides the rest: near the diagonal (closed forms) or small
    if (elements := count_partitions(n, k, flavor) * n) > ELEMENT_BUDGET:
        raise _over_budget(what, elements, "elements", ELEMENT_BUDGET, _FORCE_HINT)
    return flavor


def _log10_count(n: int, k: int, flavor: str) -> float:
    """log10 of the slp or llp count (n!/k!, or n!, times C(n-1,k-1)) from
    lgamma, for 1 <= k <= n."""
    logs = lgamma(n + 1) + lgamma(n) - lgamma(k) - lgamma(n - k + 1)
    if flavor == "slp":
        logs -= lgamma(k + 1)
    return logs / log(10)


def _arrangements(n, k, flavor):
    """Each skeleton of the cell in every block order the flavor keeps: all
    k! for lsp and llp, the skeleton's own for ssp and slp."""
    ordered = flavor in ("lsp", "llp")
    for sk in _skeletons(n, k):
        yield from permutations(sk) if ordered else (sk,)


def _generate(n, k, flavor):
    """Every object of the cell as a tuple of block tuples, in a fixed order:
    each block order, then for slp and llp each choice of block words."""
    if flavor in ("ssp", "lsp"):
        yield from _arrangements(n, k, flavor)
        return
    for order in _arrangements(n, k, flavor):
        yield from product(*map(permutations, order))


def _records(n, k, flavor, stats):
    """The (text,), or with stats (text, nsb, nse), of each object of the
    cell in _generate's order, with no object built.  nsb reads only the
    block minima (b[0], as skeleton blocks increase): one scan per block
    order.  nse sums per-block terms: each distinct block lists its words'
    texts and terms once, and an order's records are their products,
    joined and summed with no loop per object.  ssp and lsp have one word
    per block and one record per order."""
    one_word = flavor in ("ssp", "lsp")
    # block -> its text, or the tuples of its words' texts and nse terms,
    # which product reads without a copy.  An lsp block recurs only in its
    # own skeleton's k! orders, so lsp keeps at most k blocks, one skeleton's:
    # a full cache is emptied at the next skeleton's first new block.  The
    # others keep every block, whose words recur across skeletons
    words = {}
    held = k if flavor == "lsp" else None
    for order in _arrangements(n, k, flavor):
        moved = k - _rl_min_count([b[0] for b in order]) if stats else 0
        found = []
        for block in order:
            word = words.get(block)
            if word is None:
                if len(words) == held:
                    words.clear()
                word = words[block] = (
                    _block_text(block, n)
                    if one_word
                    else (tuple(_block_text(w, n) for w in permutations(block)),
                          tuple(map(_block_nse, permutations(block))))
                )
            found.append(word)
        if one_word:
            text = "/".join(found)
            yield (text, moved, 0) if stats else (text,)
            continue
        texts = map("/".join, product(*[word[0] for word in found]))
        if stats:
            yield from zip(texts, repeat(moved), map(sum, product(*[word[1] for word in found])))
        else:
            yield from zip(texts)


def _record_tally(m: int, records, best) -> list[int]:
    """Entry r counts the words of range(m) with r left-to-right records.

    records(word) counts the entries that beat every entry before them, and
    best (min or max) is the word's last record.  A word is a prefix of
    m - j entries and an order of the other j.  A suffix entry is a record
    of the word exactly when it is a record of (b, *suffix) other than b,
    b the prefix's best entry.  Relabelling b and the remaining entries in
    order by range(j + 1) keeps every comparison, so over the j! orders
    that count is distributed as records(w) - 1 over the words w of
    range(j + 1) that start with c, the rank of b.  Each prefix is scanned
    once for its records and c, each word of range(j + 1) once, and the two
    are paired by multiplication: each of the m! words is counted once,
    with its exact statistic, after m!/j! + (j + 1)! scans, the least over
    j (1,056 for m = 8, 3,744 for m = 9).
    """
    if not m:
        return [1]  # the empty word, with no records
    j = _split(m)[1]
    suffixes = [[0] * (j + 1) for _ in range(j + 1)]  # [c][records past b]
    for word in permutations(range(j + 1)):
        suffixes[word[0]][records(word) - 1] += 1
    prefixes = Counter()  # (records, c) -> prefixes
    for prefix in permutations(range(m), m - j):
        b = best(prefix)
        # c: the entries below b, less the prefix's
        prefixes[records(prefix), b - sorted(prefix).index(b)] += 1
    counts = [0] * (m + 1)
    for (r, c), ways in prefixes.items():
        for t, orders in enumerate(suffixes[c]):
            counts[r + t] += ways * orders
    return counts


def _nse_counts(m: int) -> tuple[int, ...]:
    """Entry j counts the words of m distinct entries with m - rl_min_count = j.

    Reversal maps the words onto themselves and right-to-left minima to
    left-to-right ones, so this is _record_tally of the left-to-right minima
    (_rl_min_count of the reversed word): the reversed unsigned Stirling-1
    row c(m, m-j), (1,) for the empty word.
    """
    tally = _record_tally(m, lambda word: _rl_min_count(word[::-1]), min)
    return tuple(tally[m - j] for j in range(max(m, 1)))


def _block_shapes(n: int, k: int):
    """Each block shape of the cell (a partition of n into k parts) as the
    lengths of its blocks of two or more entries, largest first, with its
    number of set partitions, n!/(prod b! * prod m!) over the blocks b and
    the multiplicities m of the lengths (Comtet, Advanced Combinatorics,
    1974); the other blocks, k less that many, are single.  The shapes come
    without recursion by TAOCP 7.2.1.4 Algorithm H, parts largest first,
    and each count is a product of binomials, with no n!: the m blocks of
    length s take C(r, s*m) of the r elements left by longer blocks, and
    split them in prod over 2 <= i <= m of C(s*i - 1, s - 1) ways (the
    least element left picks its s - 1 partners); single blocks, last, take
    the rest in one way.
    """
    if not 1 <= k <= n:
        if n == k == 0:
            yield (), 1
        return
    a = [1] * k  # the parts, largest first
    a[0] = n - k + 1
    while True:
        # the parts past 1, a prefix of a, each size with its multiplicity
        parts, ways, left = tuple(a[: a.index(1)] if a[-1] == 1 else a), 1, n
        for size, m in Counter(parts).items():
            ways *= comb(left, size * m)
            ways *= prod(comb(size * i - 1, size - 1) for i in range(2, m + 1))
            left -= size * m
        yield parts, ways
        if a[0] - a[-1] <= 1:
            return  # the most balanced partition comes last
        if a[1] < a[0] - 1:
            a[0] -= 1
            a[1] += 1
            continue
        # the first part below a[0] - 1 grows by one; the parts before it
        # take its new value, and a[0] the rest of their sum
        j, total = 2, a[0] + a[1] - 1
        while a[j] >= a[0] - 1:
            total += a[j]
            j += 1
        a[j] += 1
        a[1:j] = [a[j]] * (j - 1)
        a[0] = total - a[j] * (j - 1)


def dist_poly(n: int, k: int, force: bool = False, flavor: str = "llp") -> MultiPoly:
    """Joint distribution sum of u^nsb * v^nse over all objects of a flavor,
    tallied one block shape at a time.

    Every object of the cell comes from exactly one skeleton (the set
    partition it sorts to) by choosing a block order, any of the k! for
    lsp/llp or the skeleton's own for ssp/slp, and independently a word for
    each block, any of its b! for slp/llp or the increasing one for
    ssp/lsp.  nsb reads only the sequence of block minima, so it depends on
    the block order alone; nse sums len(w) - rl_min_count(w) over the
    blocks, so it depends on the words alone and is a sum of independent
    per-block terms.  Over one skeleton the pair (nsb, nse) is therefore
    distributed as the product of the nsb tally over its block orders with
    the convolution, over its blocks, of the per-block word tallies, and
    the cell's tally is the sum of these products over its skeletons.

    Both tallies are _nse_counts, since rl_min_count compares entries only.
    A skeleton's block minima are k distinct entries, and its block orders
    are all k! words of them, so the nsb tally is _nse_counts(k) for every
    skeleton; a block of length b has b distinct entries, so its word tally
    is _nse_counts(b).  An unordered flavor keeps the skeleton's own block
    order or the increasing word, one choice with the statistic 0, so its
    tally is (1,), as is a block of one entry, which _block_shapes leaves
    out.  A skeleton's tally thus depends only on its block shape, the
    multiset of its block lengths, and _block_shapes gives each shape with
    its number of skeletons, counted, not listed.  Each tally is formed once
    per cell, the words once per block length, the convolution once per
    shape, and only the pairing is counted by multiplication.

    The budget prices these scans and shapes (_check_size).  Nothing is
    kept between calls: each call tallies its cell again.  Evaluating
    the result at u=v=1 recovers the object count.
    """
    flavor = _check_size(n, k, flavor, force)
    shapes = dict(_block_shapes(n, k))
    # an empty cell (k > n) has no block order to scan
    orders = _nse_counts(k) if shapes and flavor in ("lsp", "llp") else (1,)
    # the word tallies of slp and llp blocks, all of b > 1 entries; an ssp
    # or lsp block has one word, of nse 0, and the convolution skips it
    words = (
        {b: _nse_counts(b) for b in set().union(*shapes)}
        if flavor in ("slp", "llp")
        else {}
    )
    by_nse = Counter()  # nse -> word tuples, over every skeleton
    for shape, skeletons in shapes.items():
        tally = Counter({0: skeletons})
        for length in filter(words.__contains__, shape):
            # convolve with the word tally of one more block
            step = Counter()
            for i, a in tally.items():
                for j, b in enumerate(words[length]):
                    step[i + j] += a * b
            tally = step
        by_nse.update(tally)
    return _wrap(
        {(0, 0, 0, i, j): a * b for i, a in enumerate(orders) for j, b in by_nse.items()}
    )


# Digits count_partitions may compute.  A product of factors, each at most
# n, has at most their count times n's digits, so llp(n,1) = n! is computed
# up to n = 1,428,571 (22 s, 32 MB, one process on a 2-vCPU VM), and the
# Stirling-2 triangle that ssp and lsp read off the diagonal grows to row
# 217 (8 ms).
COUNT_DIGIT_BUDGET = 10_000_000


def count_partitions(n: int, k: int, flavor: str) -> int:
    """Number of flavor objects, by closed form.  A count that would
    compute more than COUNT_DIGIT_BUDGET digits, by a bound decided before
    any work, is refused with its size stated."""
    flavor = _check_cell(n, k, flavor)  # nothing is enumerated here
    if not 1 <= k <= n:
        return 1 if n == k == 0 else 0
    pick = min(k - 1, n - k)  # C(n-1,k-1) multiplies this many factors
    # the factors each math call multiplies: k!; n!/k! and C(n-1,k-1); n! and C(n-1,k-1)
    factors = {"ssp": (), "lsp": (k,), "slp": (n - k, pick), "llp": (n, pick)}[flavor]
    if max(factors, default=0) > sys.maxsize:
        raise ValueError(
            f"{flavor} count for n={n}, k={k} is a product of more than "
            f"{sys.maxsize} factors, over the limit of the math module"
        )
    # S(n,k) is at most C(n,4) near the diagonal; off it, it is read from
    # the Stirling-2 triangle, whose rows up to n hold (n+1)(n+2)/2 entries
    # of at most n!, priced as `table` prices them: floor(log10 n!) + 1
    # digits by lgamma, or, past sys.maxsize, n times n's digits (n! <= n^n)
    # so that lgamma never meets an n too large for a float
    table = k > 1 and n - k > 2
    if flavor in ("ssp", "lsp") and not table:
        factors += (4,)
    size = n.bit_length() * 30103 // 100_000 + 1  # n's digits: log10(2) < 0.30103
    digits = size * sum(factors)
    if flavor in ("ssp", "lsp") and table:
        top = n * size if n > sys.maxsize else int(lgamma(n + 1) / log(10)) + 1
        digits += (n + 1) * (n + 2) // 2 * top
    if digits > COUNT_DIGIT_BUDGET:
        what = f"{flavor} count for n={n}, k={k} computes up to"
        raise _over_budget(what, digits, "digits", COUNT_DIGIT_BUDGET)
    if flavor in ("ssp", "lsp"):
        if table:
            s = stirling2(n, k)
        else:
            # by closed form, so that a refused cell does not grow the
            # table to row n: one block, or near the diagonal all blocks
            # single, one pair, or one triple or two pairs with the rest single
            s = 1 if k == 1 else (1, comb(n, 2), comb(n, 3) + 3 * comb(n, 4))[n - k]
        return s if flavor == "ssp" else factorial(k) * s
    if flavor == "slp":
        return perm(n, n - k) * comb(n - 1, k - 1)
    return factorial(n) * comb(n - 1, k - 1)
