"""EGF container, Bell-polynomial composition, and the ordinary-series side."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqtouchard import (
    EgfSeries,
    MultiPoly,
    bell,
    egf_compose,
    exp_q,
    factorial,
    stirling2,
)
from pqtouchard.series import _bell_table, _miller, _unscale


def cauchy_product(a, b, order):
    """Product of two ordinary series, truncated at the given order."""
    out = [Fraction(0)] * (order + 1)
    for i, ai in enumerate(a[: order + 1]):
        for j, bj in enumerate(b[: order + 1 - i]):
            out[i + j] += ai * bj
    return out


def repeated_product_power(s, alpha, order):
    """(1 + w)^alpha as sum_m C(alpha, m) w^m, each w^m by repeated products."""
    out = [Fraction(1)] + [Fraction(0)] * order
    power = [Fraction(1)] + [Fraction(0)] * order
    coeff = Fraction(1)
    for m in range(1, order + 1):
        power = cauchy_product(power, s, order)
        coeff = coeff * (alpha - (m - 1)) / m
        for i in range(m, order + 1):
            out[i] += coeff * power[i]
    return out


def exp_series(order):
    """Truncated e^t: every EGF coefficient is 1."""
    return EgfSeries([1] * (order + 1))


class TestEgfBasics:
    def test_order_and_access(self):
        s = EgfSeries([1, 2, 3])
        assert s.order == 2
        assert len(s) == 3
        assert s[1] == 2
        assert list(s) == [1, 2, 3]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            EgfSeries([])
        for outer, inner in (([], [0]), ([1], []), ((), ())):
            with pytest.raises(ValueError, match="order-0 coefficient"):
                egf_compose(outer, inner)


class TestPartialBell:
    # the table egf_compose reads: entry [m][k] is B_{m,k}(g_1, g_2, ...)
    def test_small_values(self):
        assert _bell_table([]) == [[1]]
        assert _bell_table([1, 1, 1])[3][0] == 0
        assert _bell_table([1, 1, 1])[3][2] == 3
        assert _bell_table([1, 1, 1, 1])[4][2] == 7

    def test_all_ones_gives_stirling2(self):
        table = _bell_table([1] * 8)
        for n in range(9):
            for k in range(n + 1):
                assert table[n][k] == stirling2(n, k)

    def test_diagonal_is_power(self):
        g1 = MultiPoly.var("q") + 1
        assert _bell_table([g1, 5, 7, 9])[4][4] == g1**4


class TestComposition:
    def test_bell_numbers(self):
        # any sequences compose; the result is an EgfSeries
        composed = egf_compose((1,) * 9, [0] + [1] * 8)
        assert isinstance(composed, EgfSeries)
        assert list(composed) == [bell(n) for n in range(9)]

    def test_identity_inner(self):
        f = EgfSeries([5, -3, 7, 2])
        t = EgfSeries([0, 1, 0, 0])
        assert egf_compose(f, t) == f

    def test_second_coefficient_by_hand(self):
        # outer exp_p around x*(exp_q - 1): coefficient 2 is f1*g2 + f2*g1^2
        x = MultiPoly.var("x")
        outer = exp_q(2, MultiPoly.var("p") - 1)
        inner = EgfSeries([MultiPoly.const(0), x, x * MultiPoly.var("q")])
        composed = egf_compose(outer, inner)
        assert composed[0] == 1
        assert composed[1] == x
        assert composed[2] == MultiPoly.var("q") * x + MultiPoly.var("p") * x**2

    def test_nonzero_constant_term_rejected(self):
        with pytest.raises(ValueError, match="constant term"):
            egf_compose(exp_series(3), exp_series(3))

    @given(
        st.lists(st.integers(-4, 4), min_size=7, max_size=7),
        st.lists(st.integers(-4, 4), min_size=6, max_size=6),
        st.lists(st.integers(-4, 4), min_size=6, max_size=6),
    )
    @settings(max_examples=60)
    def test_associativity(self, f, g, h):
        outer = EgfSeries(f)
        mid = EgfSeries([0] + g)
        inner = EgfSeries([0] + h)
        left = egf_compose(egf_compose(outer, mid), inner)
        right = egf_compose(outer, egf_compose(mid, inner))
        assert left == right


def miller_power(W, D, alpha, order):
    """(1 + w)^alpha through the integer kernel, w_k = W_k / (k! * D^k)."""
    alpha = Fraction(alpha)
    return _unscale(_miller(W, alpha, order), alpha.denominator * D)


def series_of(W, D, order):
    """s_0..s_order of w = sum_k W_k t^k / (k! * D^k); missing W_k are 0."""
    W = W + [0] * (order + 1 - len(W))
    return [0] + [Fraction(W[k], factorial(k) * D**k) for k in range(1, order + 1)]


class TestOgf:
    # the kernel taylor_oracle chains: _miller on integers W_k over D,
    # _unscale back to the Fraction coefficients
    def test_geometric(self):
        assert miller_power([0, 1], 1, -1, 3) == [1, -1, 1, -1]

    def test_square_root(self):
        assert miller_power([0, 1], 1, Fraction(1, 2), 2) == [
            1,
            Fraction(1, 2),
            Fraction(-1, 8),
        ]

    def test_deformed_exponential_coefficients(self):
        # (1 + (1-q)t)^{1/(1-q)} at q=3: EGF coefficient 2 must be Q_1(3) = 3
        q = Fraction(3)
        coeffs = miller_power([0, -2], 1, 1 / (1 - q), 2)
        assert coeffs == [1, 1, Fraction(3, 2)]
        assert 2 * coeffs[2] == 3

    def test_matches_q_product_for_rational_q(self):
        for q in (Fraction(-1), Fraction(1, 2), Fraction(2), Fraction(5)):
            c, d = (1 - q).as_integer_ratio()
            coeffs = miller_power([0, c], d, 1 / (1 - q), 10)
            symbolic = exp_q(10, MultiPoly.var("q") - 1)
            for n in range(1, 11):
                assert factorial(n) * coeffs[n] == symbolic[n].evaluate({"q": q})

    @given(
        st.lists(st.integers(-3, 3), min_size=4, max_size=4),
        st.integers(1, 3),
        st.integers(0, 4),
    )
    @settings(max_examples=60)
    def test_integer_exponent_matches_repeated_product(self, tail, D, m):
        W = [0, *tail]
        base = series_of(W, D, 4)
        base[0] = Fraction(1)  # the series 1 + w
        direct = [Fraction(1), 0, 0, 0, 0]
        for _ in range(m):
            direct = cauchy_product(direct, base, 4)
        assert miller_power(W, D, m, 4) == direct

    @given(
        st.lists(st.integers(-30, 30), max_size=12),
        st.integers(1, 4),
        st.one_of(
            st.integers(-4, 6),
            st.fractions(min_value=-5, max_value=5, max_denominator=6),
        ),
        st.integers(0, 12),
    )
    @settings(max_examples=80)
    def test_miller_recurrence_matches_repeated_products(self, tail, D, alpha, order):
        W = [0, *tail]
        s = series_of(W, D, order)
        expected = repeated_product_power(s, Fraction(alpha), order)
        assert miller_power(W, D, alpha, order) == expected
