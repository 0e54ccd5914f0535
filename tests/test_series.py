"""EGF container, composition by powers of exp_q - 1, and the ordinary-series side."""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pqtouchard import (
    EgfSeries,
    MultiPoly,
    bell,
    exp_q,
    factorial,
    stirling2,
    touchard_series,
)
from pqtouchard.series import _miller, _unscale
from pqtouchard.tables import _STIRLING2, _rows
from pqtouchard.touchard import _power_rows

X, P, Q = (MultiPoly.var(name) for name in "xpq")

RATIONALS = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))


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


def bell_table(g):
    """B[m][k] = B_{m,k}(g_1, g_2, ...) for 0 <= k <= m <= len(g), by
    B_{m,k} = sum_j C(m-1, j-1) g_j B_{m-j, k-1}: the partial-Bell table the
    composition route ran before composition by powers, kept here as the
    reference for touchard_series."""
    n = len(g)
    table = [[0] * (n + 1) for _ in range(n + 1)]
    table[0][0] = 1
    for m in range(1, n + 1):
        for k in range(1, m + 1):
            table[m][k] = sum(
                comb(m - 1, j - 1) * g[j - 1] * table[m - j][k - 1]
                for j in range(1, m - k + 2)
            )
    return table


def egf_compose(outer, inner):
    """EGF coefficients of F(G(t)) through order min(order F, order G), for
    G_0 = 0, by the partial-Bell table."""
    n = min(len(outer), len(inner)) - 1
    table = bell_table(inner[1 : n + 1])
    return [outer[0]] + [
        sum(outer[k] * table[m][k] for k in range(1, m + 1)) for m in range(1, n + 1)
    ]


def composed_by_bell_table(order, x, p, q):
    """exp_p composed around x*(exp_q(t) - 1) by the reference, with no
    integer scaling: the inner coefficients are x * Q_{j-1}(q) themselves."""
    inner = [0] + [x * c for c in exp_q(order, q - 1)[1:]]
    return egf_compose(exp_q(order, p - 1), inner)


class TestEgfBasics:
    def test_order_and_access(self):
        s = EgfSeries([1, 2, 3])
        assert len(s) == 3
        assert s[1] == 2
        assert list(s) == [1, 2, 3]

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="order-0 coefficient"):
            EgfSeries([])


class TestPartialBell:
    # the reference table: entry [m][k] is B_{m,k}(g_1, g_2, ...)
    def test_small_values(self):
        assert bell_table([]) == [[1]]
        assert bell_table([1, 1, 1])[3][0] == 0
        assert bell_table([1, 1, 1])[3][2] == 3
        assert bell_table([1, 1, 1, 1])[4][2] == 7

    def test_all_ones_gives_stirling2(self):
        table = bell_table([1] * 8)
        for n in range(9):
            for k in range(n + 1):
                assert table[n][k] == stirling2(n, k)

    def test_diagonal_is_power(self):
        g1 = MultiPoly.var("q") + 1
        assert bell_table([g1, 5, 7, 9])[4][4] == g1 * g1 * g1 * g1


class TestComposition:
    # the reference composition touchard_series is checked against
    def test_bell_numbers(self):
        composed = egf_compose((1,) * 9, [0] + [1] * 8)
        assert composed == [bell(n) for n in range(9)]

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
        x2 = MultiPoly.var("x", 2)
        assert composed[2] == MultiPoly.var("q") * x + MultiPoly.var("p") * x2

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


class TestCompositionByPowers:
    # touchard_series: T_n = sum_k exp_p[k] x^k S(n,k) over the rows of
    # (exp_q - 1)^k / k!, against the partial-Bell reference
    def test_symbolic_matches_the_bell_table(self):
        series = touchard_series(16)
        assert isinstance(series, EgfSeries)
        assert list(series) == composed_by_bell_table(16, X, P, Q)

    @given(st.integers(0, 14), RATIONALS, RATIONALS, RATIONALS)
    @example(9, Fraction(2, 3), Fraction(-4, 5), Fraction(1))
    @example(9, Fraction(-2, 3), Fraction(1), Fraction(4, 5))
    @example(9, Fraction(0), Fraction(3, 7), Fraction(9, 2))
    @example(9, Fraction(5, 9), Fraction(1), Fraction(1))
    @settings(max_examples=80, deadline=None)
    def test_point_matches_the_bell_table(self, order, x, p, q):
        expected = composed_by_bell_table(order, x, p, q)
        assert list(touchard_series(order, x, p, q)) == expected

    def test_rows_at_q_one_are_stirling2(self):
        # at the point q = 1 every entry is a one-entry list; the symbolic
        # rows at q = 1 (the sum of their coefficients) are the same rows
        point = _power_rows(30, 0, 0, 1)
        symbolic = _power_rows(30, -1, 1, 1)
        table = _rows(_STIRLING2, 30)
        for at_one, row, stirling in zip(point, symbolic, table, strict=True):
            assert at_one == [[s] for s in stirling]
            assert tuple(map(sum, row)) == stirling

    @given(st.integers(0, 12), RATIONALS)
    @settings(max_examples=40, deadline=None)
    def test_rows_are_integer_scaled(self, order, q):
        # U(n,k) = f^(n-k) S(n,k) with q - 1 = v/f: column 1 is exp_q - 1
        # itself, f^(n-1) Q_{n-1}(q), and the diagonal is g_1^n = 1
        v, f = (q - 1).as_integer_ratio()
        at_q = exp_q(order, q - 1)
        for n, row in enumerate(_power_rows(order, v, 0, f)):
            assert len(row) == n + 1
            assert all(len(us) == 1 and type(us[0]) is int for us in row)
            assert row[n] == [1]
            if n:
                assert row[1] == [f ** (n - 1) * at_q[n]]

    @given(st.integers(0, 12), RATIONALS)
    @settings(max_examples=40, deadline=None)
    def test_symbolic_rows_evaluate_to_the_point_rows(self, order, q):
        # the symbolic U(n,k) = S(n,k) has n - k + 1 coefficients in q, and
        # at q - 1 = v/f it is the point's U(n,k) over f^(n-k)
        v, f = (q - 1).as_integer_ratio()
        symbolic = _power_rows(order, -1, 1, 1)
        point = _power_rows(order, v, 0, f)
        for n, (row, at_q) in enumerate(zip(symbolic, point)):
            assert [len(us) for us in row[1:]] == list(range(n, 0, -1))
            for k, (us, (u,)) in enumerate(zip(row, at_q)):
                value = sum(c * q**l for l, c in enumerate(us))
                assert value * f ** (n - k) == u, (n, k)

    def test_symbolic_column_one_is_the_q_product(self):
        at_q = exp_q(25, Q - 1)
        for n, row in enumerate(_power_rows(25, -1, 1, 1)):
            if n:
                q_product = sum(c * MultiPoly.var("q", l) for l, c in enumerate(row[1]))
                assert q_product == at_q[n]


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
