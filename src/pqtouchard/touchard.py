"""Deformed Touchard polynomials T_n(x;p,q) and the identities behind them.

Three independent routes compute the same polynomials:

  substitution   sum of x^k * s_pq(n,k), with s_pq obtained from the
                 two-variable distribution polynomial by u -> p-1, v -> q-1
  explicit       the closed five-fold sum over signed Stirling numbers
  composition    EGF composition exp_p(x*(exp_q(t) - 1))

plus a fourth, numeric-only route (taylor_oracle) that expands the same
closed form as an ordinary power series with rational binomial exponents.
verify_identity cross-checks all of them and the enumeration oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial

from .partitions import _check_size, count_partitions, dist_poly
from .poly import MultiPoly
from .series import EgfSeries, egf_compose, ogf_binomial_power
from .tables import (
    bell,
    binomial,
    factorial,
    q_product_poly,
    stirling1_signed,
    stirling1_unsigned,
    stirling2,
)

ROUTES = ("substitution", "explicit", "composition")


def exp_q_series(order: int, var: str = "q") -> EgfSeries:
    """Deformed exponential, symbolic: coefficient of t^n/n! is Q_{n-1}(var)."""
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    coeffs = [MultiPoly.const(1)]
    coeffs += [q_product_poly(n - 1, var) for n in range(1, order + 1)]
    return EgfSeries(coeffs)


def exp_q_values(q, order: int) -> EgfSeries:
    """Deformed exponential at a rational q; q = 1 gives the classical e^t."""
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    q = Fraction(q)
    coeffs = [Fraction(1)]
    coeffs += [q_product_poly(n - 1).evaluate({"q": q}) for n in range(1, order + 1)]
    return EgfSeries(coeffs)


@cache
def s_uv(n: int, k: int) -> MultiPoly:
    """Closed form of the joint nsb/nse distribution over lists of lists.

    Coefficient of u^i v^j is c(n,n-j) * S(n-j,k) * c(k,k-i) with c unsigned
    Stirling-1 and S Stirling-2.  Out-of-range (n,k) gives the zero
    polynomial, except s_uv(0,0) = 1 (empty partition).
    """
    if n < 0 or k < 0:
        return MultiPoly.const(0)
    terms = {}
    for j in range(n - k + 1):
        outer = stirling1_unsigned(n, n - j) * stirling2(n - j, k)
        if not outer:
            continue
        # i = k contributes only when k = 0, where c(0,0) = 1 picks up the
        # empty partition; for k >= 1 that extra term is c(k,0) = 0
        for i in range(k + 1):
            inner = stirling1_unsigned(k, k - i)
            if inner:
                terms[(i, j)] = outer * inner
    return MultiPoly(("u", "v"), terms)


@cache
def s_pq(n: int, k: int) -> MultiPoly:
    """Connection coefficients of T_n: s_uv at u = p-1, v = q-1."""
    shifted = s_uv(n, k).substitute("u", MultiPoly.var("p") - 1)
    return shifted.substitute("v", MultiPoly.var("q") - 1)


@cache
def touchard_poly(n: int, route: str = "substitution") -> MultiPoly:
    """T_n(x;p,q) as an exact polynomial; all routes agree.

    T_0 = 1 by convention, and for n >= 1 there is no x-free term.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValueError(f"n must be a nonnegative integer, got {n!r}")
    if route not in ROUTES:
        raise ValueError(f"unknown route {route!r}: choose from {', '.join(ROUTES)}")
    if n == 0:
        return MultiPoly.const(1)
    if route == "substitution":
        x = MultiPoly.var("x")
        total = MultiPoly.const(0)
        for k in range(1, n + 1):
            total = total + s_pq(n, k) * x**k
        return total
    if route == "composition":
        return touchard_series(n)[n]
    return _explicit_poly(n)


def _explicit_poly(n: int) -> MultiPoly:
    # five-fold sum with signed Stirling numbers; exponents are
    # (x, p, q) = (k, m, l)
    terms: dict[tuple[int, int, int], int] = {}
    for k in range(1, n + 1):
        for j in range(n - k + 1):
            left = stirling1_signed(n, n - j) * stirling2(n - j, k)
            if not left:
                continue
            for i in range(k):
                base = left * stirling1_signed(k, k - i)
                if not base:
                    continue
                for m in range(i + 1):
                    row = binomial(i, m) * base
                    for l in range(j + 1):
                        value = row * binomial(j, l)
                        if (m + l) % 2:
                            value = -value
                        key = (k, m, l)
                        terms[key] = terms.get(key, 0) + value
    return MultiPoly(("x", "p", "q"), terms)


def touchard_series(order: int) -> EgfSeries:
    """EGF of the T_n: composition of exp_p around x * (exp_q(t) - 1)."""
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    x = MultiPoly.var("x")
    outer = [MultiPoly.const(1)]
    inner = [MultiPoly.const(0)]
    for m in range(1, order + 1):
        outer.append(q_product_poly(m - 1, "p"))
        inner.append(x * q_product_poly(m - 1, "q"))
    return egf_compose(EgfSeries(outer), EgfSeries(inner))


def touchard_eval(n: int, x, p, q) -> Fraction:
    """Exact value of T_n at a rational point."""
    point = {"x": Fraction(x), "p": Fraction(p), "q": Fraction(q)}
    return touchard_poly(n).evaluate(point)


def taylor_oracle(x, p, q, order: int) -> list[Fraction]:
    """Ordinary Taylor coefficients of the closed form, entry n = T_n/n!.

    Expands (1 + (1-p)x((1 + (1-q)t)^{1/(1-q)} - 1))^{1/(1-p)} with the
    generalized binomial series, entirely independent of the polynomial
    routes.  Needs p != 1 and q != 1; the classical limits live on the
    series route instead.
    """
    x, p, q = Fraction(x), Fraction(p), Fraction(q)
    if p == 1 or q == 1:
        raise ValueError(
            "taylor_oracle needs p != 1 and q != 1 (rational exponents "
            "1/(1-p), 1/(1-q)); use touchard_series or touchard_eval for "
            "the classical limits"
        )
    inner = ogf_binomial_power([0, 1 - q], 1 / (1 - q), order)
    z = [(1 - p) * x * c for c in inner]
    z[0] = Fraction(0)  # subtracting the constant term 1 of the inner series
    return ogf_binomial_power(z, 1 / (1 - p), order)


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


def _verify_oracle_vs_eval(run: _Run, n_max: int, force: bool, grid=None):
    grid = grid or ORACLE_GRID
    for x in grid["x"]:
        for p in grid["p"]:
            for q in grid["q"]:
                coeffs = taylor_oracle(x, p, q, n_max)
                bad = None
                for n in range(n_max + 1):
                    expected = touchard_eval(n, x, p, q) / factorial(n)
                    if coeffs[n] != expected:
                        bad = f"entry {n}: {coeffs[n]} != {expected}"
                        break
                run.check(f"x={x},p={p},q={q}", bad is None, bad or "")


_IDENTITIES = {
    "stirling12": (_verify_stirling12, 30),
    "orthogonality": (_verify_orthogonality, 30),
    "slp-count": (_verify_slp_count, 10),
    "llp-grid": (partial(_verify_enumeration, "llp", None), 7),
    "lsp-slice": (partial(_verify_enumeration, "lsp", "v"), 7),
    "slp-slice": (partial(_verify_enumeration, "slp", "u"), 7),
    "series-vs-explicit": (_verify_series_vs_explicit, 12),
    "oracle-vs-eval": (_verify_oracle_vs_eval, 10),
}

IDENTITY_NAMES = tuple(_IDENTITIES)


def verify_identity(
    name: str, n_max: int | None = None, force: bool = False, grid=None
) -> VerificationReport:
    """Check one named identity cell by cell and report the outcome.

    n_max defaults to the documented budget for the identity.  force lifts
    the enumeration object budget where it applies; grid overrides
    the evaluation points of oracle-vs-eval.
    """
    if name not in _IDENTITIES:
        raise ValueError(
            f"unknown identity {name!r}: choose from {', '.join(IDENTITY_NAMES)}"
        )
    checker, default_n = _IDENTITIES[name]
    if n_max is None:
        n_max = default_n
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    run = _Run()
    if name == "oracle-vs-eval":
        checker(run, n_max, force, grid)
    else:
        checker(run, n_max, force)
    return VerificationReport(name, n_max, tuple(run.cells), run.first)
