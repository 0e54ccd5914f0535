"""Deformed Touchard polynomials T_n(x;p,q) and the identities behind them.

Three independent routes compute the same polynomials:

  substitution   sum of x^k * s_pq(n,k), with s_pq the product of the two
                 one-variable factors of the distribution polynomial
                 s_uv(n,k) = A_{n,k}(v) * B_k(u), each shifted by
                 MultiPoly.substitute (u -> p-1, v -> q-1)
  explicit       the closed five-fold sum over signed Stirling numbers and
                 binomials, split into an (i, m) sum alpha_{k,m} and a
                 (j, l) sum beta_{n,k,l} whose products are the coefficients:
                 O(n^3) integer products instead of O(n^5)
  composition    exp_p(x*(exp_q(t) - 1)) composed by powers:
                 T_n = sum_k exp_p[k] x^k S(n,k), with S(n,k) the
                 coefficients of (exp_q(t) - 1)^k / k!, Carlitz's degenerate
                 Stirling numbers, whose rows grow by a two-term step on
                 integer coefficient lists in q (_power_rows); column 1 is
                 exp_q - 1, so exp_p[k] = Q_{k-1}(p) is read from it, and
                 only row n is built

Two scalar routes give T_n at one rational point without building a
polynomial:

  scalar sum          touchard_eval: the explicit sum at the point, over one
                      common denominator, in O(n^2) integer operations on
                      whole Stirling rows, each triangle grown once
  scalar composition  touchard_series(order, x, p, q): the composition route
                      itself, its rows run at the point on integers, giving
                      T_0..T_N with one Fraction per entry; the eval command
                      reads row n alone (_composed_value), in O(n) memory

plus a numeric-only oracle (taylor_oracle) that expands the same closed
form as an ordinary power series with rational binomial exponents, by
Miller's power recurrence run twice on integers.
verify_identity cross-checks all of them and the enumeration oracle.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import accumulate, count, islice, product, repeat
from math import comb, gcd
from operator import mul

from .partitions import _check_size, count_partitions, dist_poly
from .poly import MultiPoly, _add_products, _exact, _wrap
from .series import EgfSeries, _miller, _unscale
from .tables import (
    _STIRLING1,
    _STIRLING2,
    _check_n,
    _rows,
    _stream,
    binomial,
    factorial,
    stirling1_signed,
    stirling1_unsigned,
    stirling2,
)

ROUTES = ("substitution", "explicit", "composition")


X, P, Q = (MultiPoly.var(name) for name in "xpq")


def exp_q(order: int, v) -> EgfSeries:
    """Deformed exponential exp_q(t) through t^order, where v = q - 1.

    The coefficient of t^n/n! is Q_{n-1}(q) = prod_{0<m<n} (1 + m*v),
    multiplied out in the ring of v: polynomials for
    v = MultiPoly.var("q") - 1, rationals for an int or a Fraction v, and
    all 1 (e^t) for v = 0.  Any other v (a float, a bool) is refused.
    """
    _check_n(order, "order")
    _exact(v, "v", symbolic=True)
    one = v * 0 + 1  # the ring's 1: a constant polynomial for a polynomial v
    coeffs = [one, one][: order + 1]
    factor = 1
    for _ in range(2, order + 1):
        factor = factor + v
        coeffs.append(coeffs[-1] * factor)
    return EgfSeries(coeffs)


def _factors(n: int, k: int) -> tuple[MultiPoly, MultiPoly]:
    """A_{n,k}(v) = sum_j c(n,n-j) S(n-j,k) v^j and B_k(u) = sum_i c(k,k-i) u^i,
    the factors of s_uv(n,k), after its argument check; 0 and 0, read from no
    table, outside 0 <= k <= n, where A has no term."""
    for value, name in ((n, "n"), (k, "k")):
        if not (isinstance(value, int) and value < 0):
            _check_n(value, name)
    if not 0 <= k <= n:
        return MultiPoly.const(0), MultiPoly.const(0)
    a = {
        (0, 0, 0, 0, j): stirling1_unsigned(n, n - j) * stirling2(n - j, k)
        for j in range(n - k + 1)
    }
    # i = k contributes only when k = 0, where c(0,0) = 1 picks up the
    # empty partition; for k >= 1 that extra term is c(k,0) = 0
    b = {(0, 0, 0, i, 0): stirling1_unsigned(k, k - i) for i in range(k + 1)}
    return _wrap(a), _wrap(b)


def s_uv(n: int, k: int) -> MultiPoly:
    """Closed form of the joint nsb/nse distribution over lists of lists.

    Coefficient of u^i v^j is c(n,n-j) * S(n-j,k) * c(k,k-i) with c unsigned
    Stirling-1 and S Stirling-2.  Out-of-range (n,k) gives the zero
    polynomial, except s_uv(0,0) = 1 (empty partition).  A non-integer n
    or k is refused.
    """
    a, b = _factors(n, k)
    return a * b


def s_pq(n: int, k: int) -> MultiPoly:
    """Connection coefficients of T_n: s_uv at u = p-1, v = q-1.

    Each one-variable factor of s_uv is shifted on its own, so substitute
    never runs on the two-variable product.
    """
    a, b = _factors(n, k)
    return a.substitute("v", Q - 1) * b.substitute("u", P - 1)


# the package's one cache, kept because callers repeat keys: eval-vs-poly
# reads T_0..T_10 at each of its 75 points.  It keys on the arguments as
# written, so touchard_poly(5) and touchard_poly(5, "substitution") are two
# entries, and code in the package passes the route.  Keyed by type as
# well: 2.0 or True must not find the entry of 2 or 1 and skip the check
@lru_cache(maxsize=None, typed=True)
def touchard_poly(n: int, route: str = "substitution") -> MultiPoly:
    """T_n(x;p,q) as an exact polynomial; all routes agree.

    T_0 = 1 by convention, and for n >= 1 there is no x-free term.
    """
    _check_n(n)
    if route not in ROUTES:
        raise ValueError(f"unknown route {route!r}: choose from {', '.join(ROUTES)}")
    if n == 0:
        return MultiPoly.const(1)
    if route == "substitution":
        # every product goes into one term map, with no partial sum copied
        terms = {}
        for k in range(1, n + 1):
            _add_products(terms, s_pq(n, k).terms, MultiPoly.var("x", k).terms)
        return _wrap(terms)
    if route == "composition":
        # row n alone: each row before it is dropped once the next is built
        return _row_terms(*next(islice(_symbolic_rows(n), n, None)))
    return _explicit_poly(n)


def _shifted(coeffs: list[int]) -> list[int]:
    """Entry m is (-1)^m * sum_i coeffs[i] * C(i,m)."""
    d = len(coeffs)
    sums = (sum(coeffs[i] * comb(i, m) for i in range(m, d)) for m in range(d))
    return [-c if m % 2 else c for m, c in enumerate(sums)]


def _explicit_poly(n: int) -> MultiPoly:
    # the paper's five-fold sum over signed Stirling numbers s, S and
    # binomials, split in two: the coefficient of x^k p^m q^l is
    #   alpha_{k,m}   = (-1)^m sum_{i<k} s(k,k-i) C(i,m)
    #   beta_{n,k,l}  = (-1)^l sum_{j<=n-k} s(n,n-j) S(n-j,k) C(j,l)
    # times each other.  The (i, m) sum depends on k only, so each half is
    # O(n^2) per k and the whole is O(n^3) integer products, not O(n^5);
    # the terms go straight into one map with no polynomial arithmetic
    terms = {}
    for k in range(1, n + 1):
        alpha = _shifted([stirling1_signed(k, k - i) for i in range(k)])
        beta = _shifted(
            [stirling1_signed(n, n - j) * stirling2(n - j, k) for j in range(n - k + 1)]
        )
        for m, a in enumerate(alpha):
            if a:
                for l, b in enumerate(beta):
                    terms[(k, m, l, 0, 0)] = a * b
    return _wrap(terms)


def _power_rows(order: int, v0: int, v1: int, f: int):
    """Rows n = 0..order of U(n,k) = f^(n-k) * S(n,k), k = 0..n, where
    S(n,k) = [t^n/n!] (exp_q(t) - 1)^k / k! and q - 1 = (v0 + v1*q) / f,
    each U(n,k) the integer coefficient list of a polynomial in q.

    (1 + (1-q)t) * exp_q' = exp_q gives Carlitz's degenerate Stirling step
    S(n+1,k) = (k + n(q-1)) * S(n,k) + S(n,k-1) from S(0,.) = [1], which
    scales to U(n+1,k) = (k*f + n*v) * U(n,k) + U(n,k-1) with v = v0 + v1*q.
    Symbolic q is (v0, v1, f) = (-1, 1, 1): U(n,k) = S(n,k) has degree
    n - k in q, so n - k + 1 coefficients.  A rational point q - 1 = e/f is
    (e, 0, f), and every list has one entry.  At q = 1 the rows are the
    Stirling-2 rows, and column 1 is exp_q - 1: f^(n-1) * Q_{n-1}(q).
    """
    row = [[1]]
    for n in range(order + 1):
        yield row
        shift = n * v1
        # U(n,-1) = 0 as long as U(n+1,0); U(n,n+1) = 0 is the empty list
        zero = [0] * (n + 2 if v1 else 1)
        row = [
            [c * a + shift * b + u for a, b, u in zip(us + [0], [0] + us, lower)]
            for c, us, lower in zip(count(n * v0, f), row + [[]], [zero] + row)
        ]


def _symbolic_rows(order: int):
    """(alpha, row) for n = 0..order: row n of the symbolic power rows, and
    alpha[k] the coefficient list in p of exp_p[k] = Q_{k-1}(p), k = 0..n
    (one list, grown in place).  Column 1 of row k is Q_{k-1}(q) (k >= 1),
    read here as a list in p, so no second product loop runs; exp_p[0] = 1."""
    alpha = []
    for n, row in enumerate(_power_rows(order, -1, 1, 1)):
        alpha.append(row[1] if n else [1])
        yield alpha, row


def _row_terms(alpha, row) -> MultiPoly:
    """T_n from row n: the coefficient of x^k p^m q^l is alpha_{k,m} * U(n,k)_l,
    written straight into one term map."""
    return _wrap(
        {
            (k, m, l, 0, 0): a * u
            for k, (coeffs, us) in enumerate(zip(alpha, row))
            for m, a in enumerate(coeffs)
            for l, u in enumerate(us)
        }
    )


def touchard_series(order: int, x=X, p=P, q=Q) -> EgfSeries:
    """EGF of the T_n through t^order: exp_p composed around x*(exp_q(t) - 1).

    x, p, q are either the variables themselves (the default), giving the
    polynomials T_0..T_order, or rationals, giving their values at that
    point without a polynomial; any other polynomial is refused.
    Composition by powers: with S(n,k) = [t^n/n!] (exp_q(t) - 1)^k / k!,
    T_n = sum_k exp_p[k] x^k S(n,k), over the power rows (_power_rows) on
    integers.  Symbolic: the coefficient of x^k p^m q^l is
    alpha_{k,m} * U(n,k)_l (_row_terms).  At a point, each row's value is
    one Horner sum and one Fraction (_point_rows).
    """
    _check_n(order, "order")
    for a, name in zip((x, p, q), "xpq"):
        _exact(a, name, symbolic=True)
    if any(isinstance(a, MultiPoly) for a in (x, p, q)):
        if (x, p, q) != (X, P, Q):
            raise ValueError(
                "x, p and q must be all symbolic or all rational, and symbolic "
                "they must be the variables x, p and q themselves"
            )
        return EgfSeries(_row_terms(*pair) for pair in _symbolic_rows(order))
    rows, value = _point_rows(order, x, p, q)
    return EgfSeries(value(n, row) for n, row in enumerate(rows))


def _point_rows(order: int, x, p, q):
    """The power rows n = 0..order at a rational point, generated, and
    value(n, row), T_n from row n.  At x = a/b, p - 1 = c/d, q - 1 = e/f,
    exp_p[k] (x*f)^k = N_k / (b*d)^k with N_0 = 1 and
    N_k = (a*f)^k * d * prod_{0<m<k} (d + m*c), so T_n is
    sum_k N_k (b*d)^(n-k) U(n,k) over (b*d)^n f^n: one Horner sum in b*d
    and one Fraction."""
    a, b = x.as_integer_ratio()
    c, d = (p - 1).as_integer_ratio()
    e, f = (q - 1).as_integer_ratio()
    bd = b * d
    weights = list(
        accumulate((a * f * (d + m * c) for m in range(order)), mul, initial=1)
    )

    def value(n: int, row) -> Fraction:
        total = 0
        for w, (u,) in zip(weights, row):
            total = total * bd + w * u
        return Fraction(total, (bd * f) ** n)

    return _power_rows(order, e, 0, f), value


def _composed_value(n: int, x, p, q) -> Fraction:
    """T_n at a rational point from row n of the scalar composition alone:
    each row is dropped once the next is built, and one Horner sum runs."""
    _check_n(n)
    rows, value = _point_rows(n, _exact(x, "x"), _exact(p, "p"), _exact(q, "q"))
    return value(n, next(islice(rows, n, None)))


def touchard_eval(n: int, x, p, q) -> Fraction:
    """Exact value of T_n at a rational point, with no polynomial built.

    Sums T_n = sum_j c(n,n-j) v^j sum_k S(n-j,k) x^k prod_{m<k} (1 + m*u)
    at u = p-1, v = q-1 (the closed form behind s_uv) in integers over the
    one denominator (b*d*f)^n, where x = a/b, u = c/d and v = e/f in lowest
    terms: O(n^2) big-integer operations on the Stirling tables, each grown
    to row n once and then read row by row.
    """
    _check_n(n)
    # an int has a numerator and a denominator too: no Fraction is needed
    x, u, v = _exact(x, "x"), _exact(p, "p") - 1, _exact(q, "q") - 1
    a, b = x.numerator, x.denominator
    c, d = u.numerator, u.denominator
    e, f = v.numerator, v.denominator
    # weights[k] = a^k * prod_{m<k} (d + m*c) * (b*d)^(n-k), which is
    # x^k * prod_{m<k} (1 + m*u) over the denominator (b*d)^n
    rising = accumulate((a * (d + k * c) for k in range(n)), mul, initial=1)
    powers = list(accumulate(repeat(b * d, n), mul, initial=1))
    weights = list(map(mul, rising, reversed(powers)))
    cycles = _rows(_STIRLING1, n)[n]  # c(n, m), m = 0..n
    rows = _rows(_STIRLING2, n)  # S(m, .) for every m <= n
    # the sum over m = n - j by Horner's rule in e, carrying f^m; v = 0
    # (e = 0, f = 1) leaves only the m = n term
    total, fm = 0, 1
    for m in range(0 if e else n, n + 1):
        total = total * e + cycles[m] * fm * sum(map(mul, rows[m], weights))
        fm *= f
    return Fraction(total, (b * d * f) ** n)


def taylor_oracle(x, p, q, order: int) -> list[Fraction]:
    """Ordinary Taylor coefficients of the closed form, entry n = T_n/n!.

    Expands (1 + (1-p)x((1 + (1-q)t)^{1/(1-q)} - 1))^{1/(1-p)} with Miller's
    power recurrence, twice and entirely in integers (series._miller), so
    it is independent of exp_q, the power rows and the Stirling sums.  With
    1 - q = c/d, the inner series is w = (c/d)t: W_1 = c over D = d, and
    its scaled coefficients G_k give g_k = G_k / (k! (|c|d)^k).  With
    (1-p)x = P/Q, the outer w_k = (P/Q) g_k for k >= 1 is W_k / (k! D^k)
    with W_k = P Q^(k-1) G_k and D = |c|dQ.  With p = pn/pd, 1 - p and its
    inverse (pd - pn)/pd and pd/(pd - pn) are in lowest terms, as are those
    of q, so only P/Q takes a gcd.  Needs p != 1 and q != 1; the classical
    limits live on the series route instead.
    """
    _check_n(order, "order")
    x, p, q = _exact(x, "x"), _exact(p, "p"), _exact(q, "q")
    if p == 1 or q == 1:
        raise ValueError(
            "taylor_oracle needs p != 1 and q != 1 (rational exponents "
            "1/(1-p), 1/(1-q)); use touchard_series or touchard_eval for "
            "the classical limits"
        )
    c, d = q.denominator - q.numerator, q.denominator  # 1 - q = c/d
    r, pd = p.denominator - p.numerator, p.denominator  # 1 - p = r/pd
    inner = _miller([0, c], Fraction(d, c), order)
    g = gcd(r * x.numerator, pd * x.denominator)
    P, Q = r * x.numerator // g, pd * x.denominator // g
    powers = accumulate(repeat(Q, order), mul, initial=P)  # P * Q^(k-1)
    outer = _miller([0, *map(mul, powers, inner[1:])], Fraction(pd, r), order)
    # T_n / n! = G_n / (n! * (|r| * D)^n), |r| the denominator of 1/(1-p)
    return _unscale(outer, abs(r * c) * d * Q)


def avg_nse(n: int) -> Fraction:
    """Average nse over all sets-of-lists partitions of {1..n}, any k:
    sum_k (n-k) c(n,k) B(k) over sum_k c(n,k) B(k), with c(n,.) and the
    Stirling-2 rows that sum to B(k) streamed, so no table grows."""
    _check_n(n, low=1)
    cycles = deque(_stream(_STIRLING1, n), maxlen=1).pop()
    terms = [c * sum(row) for c, row in zip(cycles, _stream(_STIRLING2, n))]
    return Fraction(sum(map(mul, range(n, -1, -1), terms)), sum(terms))


@dataclass(frozen=True)
class StatReport:
    """Per-(n,k) comparison of the enumerated distribution with closed forms."""

    n: int
    k: int
    poly: MultiPoly
    formula: MultiPoly
    cardinality: int
    checks: tuple[tuple[str, bool], ...]

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.checks)


def stat_report(n: int, k: int, force: bool = False) -> StatReport:
    """Enumerate the (n,k) cell and check it against every closed form."""
    poly = dist_poly(n, k, force=force)
    formula = s_uv(n, k)
    corners = {
        (1, 1): count_partitions(n, k, "llp"),
        (0, 0): count_partitions(n, k, "ssp"),
        (1, 0): count_partitions(n, k, "lsp"),
        (0, 1): count_partitions(n, k, "slp"),
    }
    checks = [("formula-match", poly == formula)]
    for (u, v), expected in corners.items():
        value = poly.evaluate({"u": u, "v": v})
        checks.append((f"corner-u{u}v{v}", value == expected))
    return StatReport(n, k, poly, formula, corners[(1, 1)], tuple(checks))


@dataclass(frozen=True)
class VerificationReport:
    """Cell-by-cell outcome of one identity check."""

    identity: str
    n_max: int
    cells: tuple[tuple[str, bool], ...]
    first_counterexample: str | None

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.cells)

    @property
    def failures(self) -> int:
        return sum(1 for _, ok in self.cells if not ok)

    def summary(self) -> str:
        text = f"identity {self.identity}: {len(self.cells)} cells up to n={self.n_max}: "
        text += "PASS" if self.passed else "FAIL"
        if not self.passed:
            text += f"\nfirst counterexample: {self.first_counterexample}"
        return text


# Each checker yields (label, failure) per cell: failure is None for a
# passing cell, and its text is built only for a failing one.


def _unequal(lhs, rhs) -> str | None:
    return None if lhs == rhs else f"{lhs} != {rhs}"


def _cells(n_max: int, low: int = 1):
    """The cells low <= k <= n <= n_max row by row, generated, never held."""
    return ((n, k) for n in range(low, n_max + 1) for k in range(low, n + 1))


def _verify_stirling_sum(first, low: int, closed, n_max: int, force: bool):
    # sum_l first(n,l) * S(l,k), first a Stirling-1 table, against
    # closed(n,k) over the cells low <= k <= n <= n_max
    for n, k in _cells(n_max, low):
        lhs = sum(first(n, l) * stirling2(l, k) for l in range(n + 1))
        yield f"n={n},k={k}", _unequal(lhs, closed(n, k))


def _verify_enumeration(flavor: str, zero, n_max: int, force: bool):
    # a flavor's tally is s_uv at zero = 0 (lsp has nse = 0, slp nsb = 0);
    # every cell is checked against the budget, in order and up to the first
    # refusal, before the first is enumerated, so a huge n_max costs nothing
    for n, k in _cells(n_max):
        _check_size(n, k, flavor, force)
    for n, k in _cells(n_max):
        enumerated = dist_poly(n, k, force=force, flavor=flavor)
        closed = s_uv(n, k) if zero is None else s_uv(n, k).substitute(zero, 0)
        yield f"n={n},k={k}", None if enumerated == closed else (
            f"enumeration {enumerated} != formula {closed}"
        )


def _verify_series_vs_explicit(n_max: int, force: bool):
    for n, by_series in enumerate(touchard_series(n_max)):
        by_sum = touchard_poly(n, "explicit")
        by_subst = touchard_poly(n, "substitution")
        yield f"n={n}", None if by_series == by_sum == by_subst else (
            f"series {by_series} / explicit {by_sum} / substitution {by_subst}"
        )


# oracle-vs-eval's points: x in X_GRID, p and q in ORACLE_GRID; eval-vs-poly
# reads EVAL_GRID, which adds the classical corners p = 1 and q = 1, where
# the oracle does not apply
X_GRID = (Fraction(1, 2), Fraction(1), Fraction(2))
ORACLE_GRID = (Fraction(-1), Fraction(1, 2), Fraction(2), Fraction(3))
EVAL_GRID = ORACLE_GRID + (Fraction(1),)


def _verify_points(grid, first_mismatch):
    # one cell per point (x, p, q), p and q in grid; first_mismatch(x, p, q)
    # describes the first entry at which two routes disagree there, or gives None
    for x, p, q in product(X_GRID, grid, grid):
        yield f"x={x},p={p},q={q}", first_mismatch(x, p, q)


def _verify_oracle_vs_eval(n_max: int, force: bool):
    # taylor_oracle against both scalar routes, the sum and the composition
    def first_mismatch(x, p, q):
        coeffs = taylor_oracle(x, p, q, n_max)
        composed = touchard_series(n_max, x, p, q)
        for n in range(n_max + 1):
            by_sum = touchard_eval(n, x, p, q)
            by_oracle = coeffs[n] * factorial(n)
            if by_oracle != by_sum:
                return f"entry {n}: oracle {by_oracle} != sum {by_sum}"
            if composed[n] != by_sum:
                return f"entry {n}: composition {composed[n]} != sum {by_sum}"
        return None

    yield from _verify_points(ORACLE_GRID, first_mismatch)


def _verify_eval_vs_poly(n_max: int, force: bool):
    def first_mismatch(x, p, q):
        for n in range(n_max + 1):
            by_sum = touchard_eval(n, x, p, q)
            by_poly = touchard_poly(n, "substitution").evaluate({"x": x, "p": p, "q": q})
            if by_sum != by_poly:
                return f"entry {n}: sum {by_sum} != polynomial {by_poly}"
        return None

    yield from _verify_points(EVAL_GRID, first_mismatch)


# name: (checker, default n_max).  stirling12 and slp-count check the one
# Lah sum, c(n,l) S(l,k) over l, against two independent closed forms: the
# tables' n!/k! C(n-1,k-1) and count_partitions' slp count
_IDENTITIES = {
    "stirling12": (partial(_verify_stirling_sum, stirling1_unsigned, 1, lambda n, k: (
        factorial(n) // factorial(k) * binomial(n - 1, k - 1))), 30),
    "orthogonality": (partial(_verify_stirling_sum, stirling1_signed, 0, lambda n, k: (
        int(n == k))), 30),
    "slp-count": (partial(_verify_stirling_sum, stirling1_unsigned, 1, lambda n, k: (
        count_partitions(n, k, "slp"))), 10),
    "llp-grid": (partial(_verify_enumeration, "llp", None), 8),
    "lsp-slice": (partial(_verify_enumeration, "lsp", "v"), 8),
    "slp-slice": (partial(_verify_enumeration, "slp", "u"), 8),
    "series-vs-explicit": (_verify_series_vs_explicit, 12),
    "oracle-vs-eval": (_verify_oracle_vs_eval, 25),
    "eval-vs-poly": (_verify_eval_vs_poly, 10),
}

IDENTITY_NAMES = tuple(_IDENTITIES)


def verify_identity(
    name: str, n_max: int | None = None, force: bool = False
) -> VerificationReport:
    """Check one named identity cell by cell and report the outcome.

    n_max defaults to the documented budget for the identity.  force lifts
    the enumeration object budget where it applies.
    """
    if name not in _IDENTITIES:
        raise ValueError(
            f"unknown identity {name!r}: choose from {', '.join(IDENTITY_NAMES)}"
        )
    checker, default_n = _IDENTITIES[name]
    n_max = default_n if n_max is None else n_max
    _check_n(n_max, "n_max")
    cells, first = [], None
    for label, failure in checker(n_max, force):
        cells.append((label, failure is None))
        if first is None and failure is not None:
            first = f"{label}: {failure}"
    return VerificationReport(name, n_max, tuple(cells), first)
