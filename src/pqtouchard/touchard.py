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
                 coefficients of (exp_q(t) - 1)^k / k!, whose rows grow by
                 a two-term step (_power_rows); only row n is built

Two scalar routes give T_n at one rational point without building a
polynomial:

  scalar sum          touchard_eval: the explicit sum at the point, over one
                      common denominator, in O(n^2) integer operations
  scalar composition  touchard_series(order, x, p, q): the composition route
                      itself, its rows run at the point on integers, giving
                      T_0..T_N

plus a numeric-only oracle (taylor_oracle) that expands the same closed
form as an ordinary power series with rational binomial exponents, by
Miller's power recurrence run twice on integers.
verify_identity cross-checks all of them and the enumeration oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import accumulate, count, islice, repeat
from math import comb
from operator import mul

from .partitions import _check_size, count_partitions, dist_poly
from .poly import MultiPoly, _sum_of_products, _wrap
from .series import EgfSeries, _miller, _unscale
from .tables import (
    _check_n,
    bell,
    binomial,
    factorial,
    stirling1_signed,
    stirling1_unsigned,
    stirling2,
    stirling2_row,
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
    if isinstance(v, bool) or not isinstance(v, (int, Fraction, MultiPoly)):
        raise ValueError(
            f"v must be an int, a Fraction or a MultiPoly, got {type(v).__name__}"
        )
    one = v**0  # the ring's 1: a constant polynomial for a polynomial v
    coeffs = [one, one][: order + 1]
    factor = 1
    for _ in range(2, order + 1):
        factor = factor + v
        coeffs.append(coeffs[-1] * factor)
    return EgfSeries(coeffs)


# functools.cache, but keyed by type as well: 2.0 or True must not find the
# entry of 2 or 1 and skip the argument check
_cache = lru_cache(maxsize=None, typed=True)


def _factors(n: int, k: int) -> tuple[MultiPoly, MultiPoly]:
    """The factors of s_uv(n,k) = A_{n,k}(v) * B_k(u), after s_uv's argument
    check: A_{n,k}(v) = sum_j c(n,n-j) S(n-j,k) v^j, B_k(u) = sum_i c(k,k-i) u^i."""
    for value, name in ((n, "n"), (k, "k")):
        if not (isinstance(value, int) and value < 0):
            _check_n(value, name)
    if n < 0 or k < 0:
        return MultiPoly.const(0), MultiPoly.const(0)
    a = {
        (0, 0, 0, 0, j): stirling1_unsigned(n, n - j) * stirling2(n - j, k)
        for j in range(n - k + 1)
    }
    # i = k contributes only when k = 0, where c(0,0) = 1 picks up the
    # empty partition; for k >= 1 that extra term is c(k,0) = 0
    b = {(0, 0, 0, i, 0): stirling1_unsigned(k, k - i) for i in range(k + 1)}
    return _wrap(a), _wrap(b)


@_cache
def s_uv(n: int, k: int) -> MultiPoly:
    """Closed form of the joint nsb/nse distribution over lists of lists.

    Coefficient of u^i v^j is c(n,n-j) * S(n-j,k) * c(k,k-i) with c unsigned
    Stirling-1 and S Stirling-2.  Out-of-range (n,k) gives the zero
    polynomial, except s_uv(0,0) = 1 (empty partition).  A non-integer n
    or k is refused.
    """
    a, b = _factors(n, k)
    return a * b


@_cache
def s_pq(n: int, k: int) -> MultiPoly:
    """Connection coefficients of T_n: s_uv at u = p-1, v = q-1.

    Each one-variable factor of s_uv is shifted on its own, so substitute
    never runs on the two-variable product.
    """
    a, b = _factors(n, k)
    return a.substitute("v", Q - 1) * b.substitute("u", P - 1)


@_cache
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
        return _sum_of_products(
            (s_pq(n, k), MultiPoly.var("x", k)) for k in range(1, n + 1)
        )
    if route == "composition":
        # row n alone: each row before it is dropped once the next is built
        row = next(islice(_power_rows(n, Q - 1, 1), n, None))
        return _sum_of_products(zip(_outer(n, X, P), row))
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


def _power_rows(order: int, v, f: int):
    """Rows n = 0..order of U(n,k) = f^(n-k) * S(n,k), k = 0..n, where
    S(n,k) = [t^n/n!] (exp_q(t) - 1)^k / k! and q - 1 = v/f.

    (1 + (1-q)t) * exp_q' = exp_q gives Carlitz's degenerate Stirling step
    S(n+1,k) = (k + n(q-1)) * S(n,k) + S(n,k-1) from S(0,.) = [1], which
    scales to U(n+1,k) = (k*f + n*v) * U(n,k) + U(n,k-1): integers at a
    rational q, polynomials for v = q - 1 symbolic (f = 1), and the
    Stirling-2 rows at q = 1.
    """
    row = [1]
    for n in range(order + 1):
        yield row
        nv = n * v
        row = [(k * f + nv) * a + b for k, a, b in zip(count(), row + [0], [0] + row)]


def _outer(order: int, x, p) -> list:
    """exp_p[k] * x^k for k = 0..order."""
    powers = accumulate(repeat(x, order), mul, initial=1)
    return list(map(mul, exp_q(order, p - 1), powers))


def touchard_series(order: int, x=X, p=P, q=Q) -> EgfSeries:
    """EGF of the T_n through t^order: exp_p composed around x*(exp_q(t) - 1).

    x, p, q are either the variables themselves (the default), giving the
    polynomials T_0..T_order, or rationals, giving their values at that
    point without a polynomial.  Composition by powers: with
    S(n,k) = [t^n/n!] (exp_q(t) - 1)^k / k!, T_n = sum_k exp_p[k] x^k S(n,k).
    With q - 1 = v/f (f = 1 for a polynomial q) the rows run on
    U(n,k) = f^(n-k) S(n,k) (_power_rows), so (x*f)^k goes into the outer
    coefficients and 1/f^n onto entry n.
    """
    _check_n(order, "order")
    symbolic = [isinstance(a, MultiPoly) for a in (x, p, q)]
    if any(symbolic) and not all(symbolic):
        raise ValueError("x, p and q must be either all symbolic or all rational")
    x, p, q = (a if isinstance(a, MultiPoly) else Fraction(a) for a in (x, p, q))
    v, f = (q - 1, 1) if isinstance(q, MultiPoly) else (q - 1).as_integer_ratio()
    outer = _outer(order, x * f, p)
    sums = (_sum_of_products(zip(outer, row)) for row in _power_rows(order, v, f))
    return EgfSeries(sums if f == 1 else (c / f**n for n, c in enumerate(sums)))


def touchard_eval(n: int, x, p, q) -> Fraction:
    """Exact value of T_n at a rational point, with no polynomial built.

    Sums T_n = sum_j c(n,n-j) v^j sum_k S(n-j,k) x^k prod_{m<k} (1 + m*u)
    at u = p-1, v = q-1 (the closed form behind s_uv) in integers over the
    one denominator (b*d*f)^n, where x = a/b, u = c/d and v = e/f in lowest
    terms: O(n^2) big-integer operations on the Stirling tables.
    """
    _check_n(n)
    x, u, v = Fraction(x), Fraction(p) - 1, Fraction(q) - 1
    a, b = x.numerator, x.denominator
    c, d = u.numerator, u.denominator
    e, f = v.numerator, v.denominator
    # weights[k] = a^k * prod_{m<k} (d + m*c) * (b*d)^(n-k), which is
    # x^k * prod_{m<k} (1 + m*u) over the denominator (b*d)^n
    weights = []
    rising = 1
    for k in range(n + 1):
        weights.append(rising * (b * d) ** (n - k))
        rising *= a * (d + k * c)
    total = 0
    # v = 0 leaves only the j = 0 term
    for j in range(n + 1 if e else 1):
        outer = stirling1_unsigned(n, n - j)
        if outer:
            inner = sum(map(mul, stirling2_row(n - j), weights))
            total += outer * e**j * f ** (n - j) * inner
    return Fraction(total, (b * d * f) ** n)


def taylor_oracle(x, p, q, order: int) -> list[Fraction]:
    """Ordinary Taylor coefficients of the closed form, entry n = T_n/n!.

    Expands (1 + (1-p)x((1 + (1-q)t)^{1/(1-q)} - 1))^{1/(1-p)} with Miller's
    power recurrence, twice and entirely in integers (series._miller), so
    it is independent of exp_q, the power rows and the Stirling sums.  With
    1 - q = c/d, the inner series is w = (c/d)t: W_1 = c over D = d, and
    its scaled coefficients G_k give g_k = G_k / (k! (|c|d)^k).  With
    (1-p)x = P/Q, the outer w_k = (P/Q) g_k for k >= 1 is W_k / (k! D^k)
    with W_k = P Q^(k-1) G_k and D = |c|dQ.  Needs p != 1 and q != 1; the
    classical limits live on the series route instead.
    """
    _check_n(order, "order")
    x, p, q = Fraction(x), Fraction(p), Fraction(q)
    if p == 1 or q == 1:
        raise ValueError(
            "taylor_oracle needs p != 1 and q != 1 (rational exponents "
            "1/(1-p), 1/(1-q)); use touchard_series or touchard_eval for "
            "the classical limits"
        )
    c, d = (1 - q).as_integer_ratio()
    inner = _miller([0, c], 1 / (1 - q), order)
    P, Q = ((1 - p) * x).as_integer_ratio()
    powers = accumulate(repeat(Q, order), mul, initial=P)  # P * Q^(k-1)
    outer = _miller([0, *map(mul, powers, inner[1:])], 1 / (1 - p), order)
    # T_n / n! = G_n / (n! * (b * D)^n) with b the denominator of 1/(1-p)
    return _unscale(outer, (1 / (1 - p)).denominator * abs(c) * d * Q)


def avg_nse(n: int) -> Fraction:
    """Average nse over all sets-of-lists partitions of {1..n}, any k."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    moved = sum(j * stirling1_unsigned(n, n - j) * bell(n - j) for j in range(n))
    objects = sum(stirling1_unsigned(n, k) * bell(k) for k in range(1, n + 1))
    return Fraction(moved, objects)


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
        verdict = "PASS" if self.passed else "FAIL"
        text = (
            f"identity {self.identity}: {len(self.cells)} cells up to "
            f"n={self.n_max}: {verdict}"
        )
        if not self.passed:
            text += f"\nfirst counterexample: {self.first_counterexample}"
        return text


class _Run:
    def __init__(self):
        self.cells: list[tuple[str, bool]] = []
        self.first: str | None = None

    def check(self, label: str, ok: bool, detail: str = ""):
        self.cells.append((label, ok))
        if not ok and self.first is None:
            self.first = f"{label}: {detail}" if detail else label


def _verify_stirling12(run: _Run, n_max: int, force: bool):
    for n in range(1, n_max + 1):
        for k in range(1, n + 1):
            lhs = sum(stirling1_unsigned(n, l) * stirling2(l, k) for l in range(n + 1))
            rhs = factorial(n) // factorial(k) * binomial(n - 1, k - 1)
            run.check(f"n={n},k={k}", lhs == rhs, f"{lhs} != {rhs}")


def _verify_orthogonality(run: _Run, n_max: int, force: bool):
    for n in range(n_max + 1):
        for k in range(n + 1):
            lhs = sum(stirling1_signed(n, l) * stirling2(l, k) for l in range(n + 1))
            rhs = 1 if n == k else 0
            run.check(f"n={n},k={k}", lhs == rhs, f"{lhs} != {rhs}")


def _verify_slp_count(run: _Run, n_max: int, force: bool):
    for n in range(1, n_max + 1):
        for k in range(1, n + 1):
            slice_sum = sum(
                stirling1_unsigned(n, n - j) * stirling2(n - j, k)
                for j in range(n - k + 1)
            )
            expected = count_partitions(n, k, "slp")
            run.check(f"n={n},k={k}", slice_sum == expected, f"{slice_sum} != {expected}")


def _verify_enumeration(flavor: str, zero, run: _Run, n_max: int, force: bool):
    # a flavor's tally is s_uv at zero = 0 (lsp has nse = 0, slp nsb = 0);
    # every cell is checked against the budget before the first is enumerated
    cells = [(n, k) for n in range(1, n_max + 1) for k in range(1, n + 1)]
    for n, k in cells:
        _check_size(n, k, flavor, force)
    for n, k in cells:
        enumerated = dist_poly(n, k, force=force, flavor=flavor)
        closed = s_uv(n, k) if zero is None else s_uv(n, k).coefficient(zero, 0)
        run.check(
            f"n={n},k={k}",
            enumerated == closed,
            f"enumeration {enumerated} != formula {closed}",
        )


def _verify_series_vs_explicit(run: _Run, n_max: int, force: bool):
    series = touchard_series(n_max)
    for n in range(n_max + 1):
        by_series = series[n]
        by_sum = _explicit_poly(n) if n else MultiPoly.const(1)
        by_subst = touchard_poly(n)
        ok = by_series == by_sum == by_subst
        run.check(
            f"n={n}",
            ok,
            f"series {by_series} / explicit {by_sum} / substitution {by_subst}",
        )


ORACLE_GRID = {
    "x": (Fraction(1, 2), Fraction(1), Fraction(2)),
    "p": (Fraction(-1), Fraction(1, 2), Fraction(2), Fraction(3)),
    "q": (Fraction(-1), Fraction(1, 2), Fraction(2), Fraction(3)),
}


def _verify_points(run: _Run, grid, first_mismatch):
    # one cell per point; first_mismatch(x, p, q) describes the first entry
    # at which two routes disagree there, or gives None
    for x in grid["x"]:
        for p in grid["p"]:
            for q in grid["q"]:
                bad = first_mismatch(x, p, q)
                run.check(f"x={x},p={p},q={q}", bad is None, bad or "")


def _verify_oracle_vs_eval(grid, run: _Run, n_max: int, force: bool):
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

    _verify_points(run, grid, first_mismatch)


# ORACLE_GRID with the classical corners p = 1 and q = 1, where the oracle
# does not apply
EVAL_GRID = {
    **ORACLE_GRID,
    "p": ORACLE_GRID["p"] + (Fraction(1),),
    "q": ORACLE_GRID["q"] + (Fraction(1),),
}


def _verify_eval_vs_poly(grid, run: _Run, n_max: int, force: bool):
    def first_mismatch(x, p, q):
        for n in range(n_max + 1):
            by_sum = touchard_eval(n, x, p, q)
            by_poly = touchard_poly(n).evaluate({"x": x, "p": p, "q": q})
            if by_sum != by_poly:
                return f"entry {n}: sum {by_sum} != polynomial {by_poly}"
        return None

    _verify_points(run, grid, first_mismatch)


# name: (checker, default n_max)
_IDENTITIES = {
    "stirling12": (_verify_stirling12, 30),
    "orthogonality": (_verify_orthogonality, 30),
    "slp-count": (_verify_slp_count, 10),
    "llp-grid": (partial(_verify_enumeration, "llp", None), 8),
    "lsp-slice": (partial(_verify_enumeration, "lsp", "v"), 8),
    "slp-slice": (partial(_verify_enumeration, "slp", "u"), 8),
    "series-vs-explicit": (_verify_series_vs_explicit, 12),
    "oracle-vs-eval": (partial(_verify_oracle_vs_eval, ORACLE_GRID), 25),
    "eval-vs-poly": (partial(_verify_eval_vs_poly, EVAL_GRID), 10),
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
    if n_max is None:
        n_max = default_n
    _check_n(n_max, "n_max")
    run = _Run()
    checker(run, n_max, force)
    return VerificationReport(name, n_max, tuple(run.cells), run.first)
