"""Truncated exponential generating functions and their composition.

An EgfSeries stores a_0..a_N where the series is sum a_n t^n / n!, so the
coefficients stay integers (or polynomials) with no denominators.
egf_compose composes two of them through partial Bell polynomials.  One
ordinary-series function at the bottom gives binomial powers with rational
exponents, which the EGF side cannot express.
"""

from __future__ import annotations

from fractions import Fraction

from .tables import binomial


class EgfSeries:
    """Coefficients a_0..a_N of an EGF, exact and truncated at order N.

    Entries may be ints, Fractions, or MultiPoly values, as long as they
    support addition and multiplication with each other and with ints.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = list(coeffs)
        if not self.coeffs:
            raise ValueError("series needs at least the order-0 coefficient")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __len__(self):
        return len(self.coeffs)

    def __iter__(self):
        return iter(self.coeffs)

    def __getitem__(self, n):
        return self.coeffs[n]

    def __eq__(self, other):
        if not isinstance(other, EgfSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self):
        return f"EgfSeries({self.coeffs!r})"


def _bell_table(g):
    """B[m][k] = B_{m,k}(g_1, g_2, ...) for 0 <= k <= m <= len(g), by
    B_{m,k} = sum_j C(m-1, j-1) g_j B_{m-j, k-1}."""
    n = len(g)
    table = [[0] * (n + 1) for _ in range(n + 1)]
    table[0][0] = 1
    for m in range(1, n + 1):
        weighted = [binomial(m - 1, j - 1) * g[j - 1] for j in range(1, m + 1)]
        for k in range(1, m + 1):
            acc = 0
            for j in range(1, m - k + 2):
                acc = acc + weighted[j - 1] * table[m - j][k - 1]
            table[m][k] = acc
    return table


def egf_compose(outer: EgfSeries, inner: EgfSeries) -> EgfSeries:
    """EGF of F(G(t)) through order min(order F, order G).

    Requires G_0 = 0, otherwise the composition is not a formal power
    series operation.
    """
    if inner.coeffs[0] != 0:
        raise ValueError("inner series must have zero constant term")
    n = min(outer.order, inner.order)
    table = _bell_table(inner.coeffs[1 : n + 1])
    out = [outer.coeffs[0]]
    for m in range(1, n + 1):
        acc = 0
        for k in range(1, m + 1):
            acc = acc + outer.coeffs[k] * table[m][k]
        out.append(acc)
    return EgfSeries(out)


# -- ordinary power series, used only as an independent cross-check ----------


def ogf_binomial_power(s, alpha, order: int) -> list[Fraction]:
    """Ordinary coefficients of (1 + w)^alpha where w has coefficients s.

    s[0] must be 0 (when present); alpha may be any Fraction.  Short s is
    padded with zeros, so s = [0, 1] with any order means w = t.  Uses
    J.C.P. Miller's recurrence for powers of a series (TAOCP vol. 2, 4.7):
    m*g_m = sum_{k=1..m} ((alpha+1)k - m) w_k g_{m-k}, with g_0 = 1.
    """
    s = [Fraction(v) for v in s]
    if s and s[0] != 0:
        raise ValueError("w must have zero constant term")
    s += [Fraction(0)] * (order + 1 - len(s))
    alpha = Fraction(alpha)
    g = [Fraction(1)]
    for m in range(1, order + 1):
        acc = Fraction(0)
        for k in range(1, m + 1):
            if s[k]:
                acc += ((alpha + 1) * k - m) * s[k] * g[m - k]
        g.append(acc / m)
    return g
