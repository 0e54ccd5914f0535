"""One EGF container and one ordinary-series kernel.

An EgfSeries is the list a_0..a_N of the series sum a_n t^n / n!, so the
coefficients stay integers (or polynomials) with no denominators; the
composition route (touchard.touchard_series) returns one.  _miller is one
integer kernel for Miller's power recurrence, the ordinary-series binomial
power with a rational exponent that the EGF side cannot express;
taylor_oracle chains it twice and _unscale turns its integers into the
coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import comb
from operator import mul


class EgfSeries(list):
    """Coefficients a_0..a_N of an EGF, exact and truncated at order N.

    Entries may be ints, Fractions, or MultiPoly values, as long as they
    support addition and multiplication with each other and with ints.
    """

    def __init__(self, coeffs):
        super().__init__(coeffs)
        if not self:
            raise ValueError("series needs at least the order-0 coefficient")

    @property
    def order(self) -> int:
        return len(self) - 1


# -- ordinary power series, used only as an independent cross-check ----------
def _miller(W, alpha: Fraction, order: int) -> list[int]:
    """Integer-scaled coefficients G_0..G_order of (1 + w)^alpha.

    With alpha = a/b (b > 0) and w = sum_{k>=1} W_k t^k / (k! * D^k) for
    integers W_k (W[0] is ignored, missing entries are 0) and D, the
    coefficient g_m of t^m is G_m / (m! * b^m * D^m).  J.C.P. Miller's
    recurrence for powers of a series (TAOCP vol. 2, 4.7),
    m*g_m = sum_{k=1..m} ((alpha+1)k - m) w_k g_{m-k}, scales to

        m*G_m = sum_{k=1..m} ((a+b)k - bm) * C(m,k) * b^(k-1) * W_k * G_{m-k},

    with G_0 = 1.  The division by m is exact because G_m is an integer:
    by Faa di Bruno, m! g_m = sum_j alpha(alpha-1)...(alpha-j+1) *
    B_{m,j}(k! w_k), and B_{m,j} is homogeneous of weight m, so
    B_{m,j}(W_k / D^k) = B_{m,j}(W) / D^m and
    G_m = sum_{j<=m} prod_{i<j} (a - i*b) * b^(m-j) * B_{m,j}(W), a sum of
    integer-coefficient polynomials in integers.  D itself never enters.
    """
    a, b = alpha.as_integer_ratio()
    # (k, b^(k-1) * W_k) for the nonzero W_k; the inner series of the
    # oracle has one, so its recurrence is a running product
    terms = [
        (k, b ** (k - 1) * W[k]) for k in range(1, min(len(W), order + 1)) if W[k]
    ]
    G = [1]
    for m in range(1, order + 1):
        acc = 0
        for k, v in terms:
            if k > m:
                break
            acc += ((a + b) * k - b * m) * comb(m, k) * v * G[m - k]
        G.append(acc // m)
    return G


def _unscale(G, scale: int) -> list[Fraction]:
    """The Fractions G_m / (m! * scale^m), m = 0..len(G)-1."""
    dens = accumulate(range(scale, len(G) * scale, scale), mul, initial=1)
    return list(map(Fraction, G, dens))
