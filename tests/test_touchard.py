"""Deformed Touchard polynomials: closed forms, routes, and the oracle."""

from fractions import Fraction
from functools import cache
from itertools import product
from math import comb
from math import factorial as math_factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pqtouchard import poly, touchard
from pqtouchard import (
    IDENTITY_NAMES,
    MultiPoly,
    ROUTES,
    VerificationReport,
    avg_nse,
    bell,
    binomial,
    count_partitions,
    dist_poly,
    exp_q,
    factorial,
    s_pq,
    s_uv,
    stat_report,
    stirling1_signed,
    stirling2,
    taylor_oracle,
    touchard_eval,
    touchard_poly,
    touchard_series,
    verify_identity,
)

X, P, Q, U, V = (MultiPoly.var(name) for name in "xpquv")
X2, X3 = MultiPoly.var("x", 2), MultiPoly.var("x", 3)
P2, Q2 = MultiPoly.var("p", 2), MultiPoly.var("q", 2)


RATIONALS = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))


class TestDeformedExponential:
    def test_symbolic_prefix(self):
        series = exp_q(3, Q - 1)
        assert series[0] == 1
        assert series[1] == 1
        assert series[2] == Q
        assert series[3] == 2 * Q2 - Q
        assert all(isinstance(c, MultiPoly) for c in series)

    def test_alternate_variable(self):
        assert exp_q(2, P - 1)[2] == P

    def test_classical_point(self):
        assert exp_q(5, Fraction(0)) == [Fraction(1)] * 6

    def test_rational_point(self):
        assert exp_q(3, Fraction(2)) == [1, 1, 3, 15]
        assert exp_q(4, Fraction(-1, 2)) == [1, 1, Fraction(1, 2), 0, 0]

    def test_short_orders(self):
        assert exp_q(0, Q - 1) == [1]
        assert exp_q(1, Q - 1) == [1, 1]

    def test_bad_order(self):
        with pytest.raises(ValueError):
            exp_q(-1, Q - 1)

    def test_integer_point(self):
        assert exp_q(3, 2) == [1, 1, 3, 15]
        assert all(type(c) is int for c in exp_q(3, 2))

    @pytest.mark.parametrize("v", [0.5, True, "q"], ids=["float", "bool", "str"])
    def test_inexact_or_foreign_v_refused(self, v):
        with pytest.raises(ValueError, match=f"got {type(v).__name__}$"):
            exp_q(3, v)

    @given(st.integers(0, 12), RATIONALS)
    @settings(max_examples=40, deadline=None)
    def test_symbolic_series_evaluates_to_the_rational_one(self, order, q):
        symbolic = exp_q(order, Q - 1)
        at_q = exp_q(order, q - 1)
        assert [c.evaluate({"q": q}) for c in symbolic] == list(at_q)


class TestOrderCheck:
    # the one order check of the series functions; touchard_eval's n is
    # covered in TestEval
    CALLS = {
        "exp_q": lambda order: exp_q(order, Q - 1),
        "touchard_series": touchard_series,
        "touchard_series_at_a_point": lambda order: touchard_series(order, 1, 2, 3),
        "taylor_oracle": lambda order: taylor_oracle(1, 2, 3, order),
    }

    @pytest.mark.parametrize("order", [True, -1, 2.0], ids=["bool", "negative", "float"])
    @pytest.mark.parametrize("name", CALLS)
    def test_bad_order_rejected(self, name, order):
        with pytest.raises(
            ValueError, match=f"order must be a nonnegative integer, got {order!r}"
        ):
            self.CALLS[name](order)


class TestInexactPointRefused:
    # Fraction() would take 0.1 at its binary value and True as 1; exp_q's
    # refusal is tested in TestDeformedExponential
    CALLS = {
        "touchard_eval": ("q", lambda a: touchard_eval(2, 1, 2, a)),
        "touchard_series_at_a_point": ("p", lambda a: touchard_series(2, 1, a, 3)),
        "taylor_oracle": ("x", lambda a: taylor_oracle(a, 2, 3, 2)),
        "MultiPoly.evaluate": ("x", lambda a: (X + P).evaluate({"x": a, "p": 1})),
    }

    @pytest.mark.parametrize("value", [0.1, True, "1/2"], ids=["float", "bool", "str"])
    @pytest.mark.parametrize("name", CALLS)
    def test_refused(self, name, value):
        arg, call = self.CALLS[name]
        refusal = rf"^{arg} must be an int.* a Fraction.*, got {type(value).__name__}$"
        with pytest.raises(ValueError, match=refusal):
            call(value)


class TestConnectionCoefficients:
    def test_small_uv(self):
        assert s_uv(0, 0) == 1
        assert s_uv(1, 1) == 1
        assert s_uv(2, 1) == 1 + V
        assert s_uv(2, 2) == 1 + U
        assert s_uv(3, 2) == 3 * (1 + U) * (1 + V)

    def test_out_of_range_is_zero(self):
        assert s_uv(3, 5) == 0
        assert s_uv(3, 0) == 0
        assert s_uv(0, 2) == 0
        assert s_uv(-1, 0) == 0

    @pytest.mark.parametrize("n,k", [(2.0, 1), (2, 1.0), (True, 1), (-1.5, 0)])
    def test_non_integer_is_refused(self, n, k):
        # were s_uv or s_pq cached, the entries of (2, 1) and (1, 1) must not
        # answer for these
        s_pq(2, 1), s_pq(1, 1)
        name, value = ("k", k) if isinstance(k, float) else ("n", n)
        refusal = f"{name} must be a nonnegative integer, got {value}"
        for fn in (s_uv, s_pq):
            with pytest.raises(ValueError, match=refusal):
                fn(n, k)

    def test_matches_enumeration(self):
        for n in range(1, 6):
            for k in range(1, n + 1):
                assert s_uv(n, k) == dist_poly(n, k)

    def test_small_pq(self):
        assert s_pq(2, 1) == Q
        assert s_pq(2, 2) == P
        assert s_pq(3, 1) == 2 * Q2 - Q
        assert s_pq(3, 2) == 3 * P * Q
        assert s_pq(3, 3) == 2 * P2 - P

    def test_pq_is_uv_shifted(self):
        # s_pq shifts the two one-variable factors of s_uv apart; the
        # two-variable product shifted whole must give the same polynomial
        for n in range(17):
            for k in range(-1, n + 2):
                shifted = s_uv(n, k).substitute("u", P - 1).substitute("v", Q - 1)
                assert s_pq(n, k) == shifted, (n, k)

    def test_pq_specializations_count_the_flavors(self):
        corners = {(1, 1): "ssp", (2, 1): "lsp", (1, 2): "slp", (2, 2): "llp"}
        for n in range(9):
            for k in range(n + 1):
                for (p, q), flavor in corners.items():
                    value = s_pq(n, k).evaluate({"p": p, "q": q})
                    assert value == count_partitions(n, k, flavor)


class TestTouchardPoly:
    def test_first_few(self):
        assert touchard_poly(0) == 1
        assert touchard_poly(1) == X
        assert touchard_poly(2) == Q * X + P * X2
        expected = (2 * Q2 - Q) * X + 3 * P * Q * X2 + (2 * P2 - P) * X3
        assert touchard_poly(3) == expected

    def test_classical_point_is_stirling_row(self):
        assert touchard_poly(3).evaluate({"p": 1, "q": 1, "x": 1}) == bell(3)
        collapsed = touchard_poly(3).substitute("p", 1).substitute("q", 1)
        assert collapsed == X + 3 * X2 + X3

    def test_shape(self):
        for n in range(1, 16):
            poly = touchard_poly(n)
            assert max(key[0] for key in poly.terms) == n  # slot 0 is x
            assert not poly.substitute("x", 0)

    def test_routes_agree(self):
        for n in range(7):
            sub = touchard_poly(n)
            for route in ROUTES[1:]:
                assert touchard_poly(n, route) == sub

    def test_composition_sums_one_row(self, monkeypatch):
        # the composition route reads row n of the power rows alone; it
        # neither builds the series T_0..T_n nor reads another route
        by_other_routes = [
            (touchard_poly(n), touchard_poly(n, "explicit")) for n in range(25)
        ]

        def refuse(*args, **kwargs):
            raise AssertionError("the series was built")

        monkeypatch.setattr(touchard, "touchard_series", refuse)
        touchard_poly.cache_clear()
        for n, (by_subst, by_sum) in enumerate(by_other_routes):
            assert touchard_poly(n, "composition") == by_subst == by_sum, n

    def test_composition_matches_explicit_through_n_40(self):
        touchard_poly.cache_clear()
        for n in range(1, 41):
            assert touchard_poly(n, "composition") == touchard._explicit_poly(n), n

    def test_composition_runs_no_polynomial_arithmetic(self, monkeypatch):
        # the composition route and the symbolic series write integer
        # products straight into term maps: no MultiPoly sum or product
        by_sum = [touchard._explicit_poly(n) for n in range(1, 21)]

        def refuse(*args, **kwargs):
            raise AssertionError("polynomial arithmetic ran")

        monkeypatch.setattr(poly, "_add_products", refuse)
        for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
            monkeypatch.setattr(MultiPoly, name, refuse)
        touchard_poly.cache_clear()
        try:
            composed = [touchard_poly(n, "composition") for n in range(1, 21)]
            series = touchard_series(20)
        finally:
            touchard_poly.cache_clear()
        assert composed == by_sum
        assert series[1:] == by_sum
        assert series[0] == 1

    def test_validation(self):
        with pytest.raises(ValueError, match="route"):
            touchard_poly(2, "lagrange")
        with pytest.raises(ValueError):
            touchard_poly(-1)
        with pytest.raises(ValueError):
            touchard_poly(True)

    def test_cached_entry_does_not_answer_a_bad_n(self):
        touchard_poly(1)
        touchard_poly(2)
        for n in (True, 2.0):
            refusal = f"n must be a nonnegative integer, got {n}"
            with pytest.raises(ValueError, match=refusal):
                touchard_poly(n)


def five_fold_explicit_poly(n):
    """The explicit formula as the paper writes it: the five-fold sum over
    k, j, i, m, l, one term at a time, kept here as the reference for the
    factorized alpha * beta products of touchard._explicit_poly."""
    terms = {}
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
    return sum(
        (c * MultiPoly.var("x", k) * MultiPoly.var("p", m) * MultiPoly.var("q", l)
         for (k, m, l), c in terms.items()),
        MultiPoly.const(0),
    )


class TestExplicitRoute:
    def test_matches_the_five_fold_sum(self):
        for n in range(15):
            assert touchard._explicit_poly(n) == five_fold_explicit_poly(n), n


class TestSeriesRoute:
    def test_matches_polynomials(self):
        series = touchard_series(6)
        for n in range(7):
            assert series[n] == touchard_poly(n)

    def test_bell_numbers_at_classical_point(self):
        series = touchard_series(6)
        values = [series[n].evaluate({"x": 1, "p": 1, "q": 1}) for n in range(7)]
        assert values == [1, 1, 2, 5, 15, 52, 203]
        assert list(touchard_series(6, 1, 1, 1)) == values

    def test_symbolic_series_holds_polynomials(self):
        series = touchard_series(4)
        assert all(isinstance(c, MultiPoly) for c in series)

    def test_point_builds_no_polynomial(self, monkeypatch):
        point = (Fraction(-3, 4), Fraction(5, 2), Fraction(2, 9))
        expected = [touchard_eval(n, *point) for n in range(23)]

        def refuse(*args, **kwargs):
            raise AssertionError("a polynomial was built")

        monkeypatch.setattr(poly, "_wrap", refuse)
        monkeypatch.setattr(MultiPoly, "__init__", refuse)
        assert list(touchard_series(22, *point)) == expected

    def test_symbolic_matches_explicit_at_every_entry(self):
        series = touchard_series(30)
        assert series[0] == 1
        for n in range(1, 31):
            assert series[n] == touchard._explicit_poly(n), n

    @pytest.mark.parametrize(
        "point",
        [(P, X, Q), (X, P, Q + 1), (2 * X, P, Q), (X, Q, P), (MultiPoly.const(1), P, Q)],
        ids=["swapped-xp", "shifted-q", "scaled-x", "swapped-pq", "constant-x"],
    )
    def test_other_polynomials_are_refused(self, point):
        with pytest.raises(ValueError, match="the variables x, p and q themselves"):
            touchard_series(3, *point)

    @pytest.mark.parametrize("point", [(X, 2, 3), (1, P, 3), (1, 2, Q), (X, P, 3)])
    def test_mixed_arguments_are_refused(self, point):
        with pytest.raises(ValueError, match="all symbolic or all rational"):
            touchard_series(3, *point)


class TestEval:
    def test_bell(self):
        for n in range(9):
            assert touchard_eval(n, 1, 1, 1) == bell(n)

    def test_doubled_parameters(self):
        # both deformations at 2 collapse to ordered objects: n! * 2^(n-1)
        for n in range(1, 9):
            assert touchard_eval(n, 1, 2, 2) == factorial(n) * 2 ** (n - 1)

    def test_degenerate(self):
        assert touchard_eval(0, 5, Fraction(-7, 3), 9) == 1

    def test_rational_point(self):
        assert touchard_eval(2, Fraction(1, 2), 3, Fraction(1, 5)) == Fraction(17, 20)

    @given(st.integers(0, 15), RATIONALS, RATIONALS, RATIONALS)
    @settings(max_examples=60, deadline=None)
    @example(7, Fraction(2, 3), Fraction(1), Fraction(-4, 5))
    @example(7, Fraction(-2, 3), Fraction(4, 5), Fraction(1))
    @example(7, Fraction(5, 9), Fraction(-3), Fraction(0))
    @example(7, Fraction(0), Fraction(3, 7), Fraction(9, 2))
    def test_scalar_routes_match_the_polynomial(self, n, x, p, q):
        expected = touchard_poly(n).evaluate({"x": x, "p": p, "q": q})
        assert touchard_eval(n, x, p, q) == expected
        assert touchard_series(n, x, p, q)[n] == expected

    def test_large_n_classical_point(self):
        # p = q = 1: the Touchard polynomial, with S(200, k) grown here
        row = [1]
        for m in range(1, 201):
            row = [0] + [k * a + b for k, a, b in zip(range(1, m + 1), row[1:] + [0], row)]
        x = Fraction(-3, 7)
        assert touchard_eval(200, x, 1, 1) == sum(s * x**k for k, s in enumerate(row))

    def test_large_n_doubled_point(self):
        x = Fraction(5, 3)
        assert touchard_eval(200, x, 2, 2) == math_factorial(200) * x * (1 + x) ** 199

    def test_large_n_matches_composition(self):
        point = (Fraction(4, 7), Fraction(-7, 5), Fraction(5, 7))
        assert touchard_eval(150, *point) == touchard_series(150, *point)[150]

    def test_builds_no_polynomial(self, monkeypatch):
        point = (Fraction(-3, 4), Fraction(5, 2), Fraction(2, 9))
        expected = touchard_poly(22).evaluate(dict(zip("xpq", point)))

        def refuse(*args, **kwargs):
            raise AssertionError("a polynomial was built or evaluated")

        monkeypatch.setattr(touchard, "touchard_poly", refuse)
        monkeypatch.setattr(MultiPoly, "evaluate", refuse)
        monkeypatch.setattr(MultiPoly, "__init__", refuse)
        assert touchard_eval(22, *point) == expected

    @pytest.mark.parametrize("n", [True, -1, 2.0])
    def test_bad_n(self, n):
        with pytest.raises(ValueError, match=f"n must be a nonnegative integer, got {n!r}"):
            touchard_eval(n, 1, 2, 3)


def fraction_miller_oracle(x, p, q, order):
    """The oracle one Fraction at a time: Miller's recurrence
    m*g_m = sum_k ((alpha+1)k - m) w_k g_{m-k} run twice on rationals, kept
    here as the reference for the integer kernel."""

    def power(w, alpha):
        g = [Fraction(1)]
        for m in range(1, order + 1):
            acc = sum(((alpha + 1) * k - m) * w[k] * g[m - k] for k in range(1, m + 1))
            g.append(acc / m)
        return g

    w = [Fraction(0), 1 - q] + [Fraction(0)] * order
    inner = power(w, 1 / (1 - q))
    return power([Fraction(0)] + [(1 - p) * x * c for c in inner[1:]], 1 / (1 - p))


class TestTaylorOracle:
    def test_geometric_case(self):
        # x=1, p=q=2 collapses to (1-t)/(1-2t): 1, 1, 2, 4, 8, ...
        assert taylor_oracle(1, 2, 2, 5) == [1, 1, 2, 4, 8, 16]

    def test_x_zero(self):
        assert taylor_oracle(0, 2, 3, 4) == [1, 0, 0, 0, 0]

    def test_rational_entry(self):
        assert taylor_oracle(1, 3, 2, 2)[2] == Fraction(5, 2)

    def test_matches_eval(self):
        for n in range(8):
            expected = touchard_eval(n, Fraction(1, 2), -1, 3) / factorial(n)
            assert taylor_oracle(Fraction(1, 2), -1, 3, 7)[n] == expected

    @given(
        RATIONALS,
        RATIONALS.filter(lambda p: p != 1),
        RATIONALS.filter(lambda q: q != 1),
        st.integers(0, 25),
    )
    # each sign of 1-p and of 1-q, and x = 0
    @example(Fraction(2, 3), Fraction(1, 2), Fraction(-1, 3), 25)
    @example(Fraction(-9, 4), Fraction(9, 2), Fraction(5, 9), 25)
    @example(Fraction(1, 9), Fraction(-9), Fraction(9, 2), 25)
    @example(Fraction(-7, 3), Fraction(7, 3), Fraction(8, 5), 25)
    @example(Fraction(0), Fraction(-2, 9), Fraction(4), 25)
    @settings(max_examples=150, deadline=None)
    def test_matches_fraction_recurrence(self, x, p, q, order):
        assert taylor_oracle(x, p, q, order) == fraction_miller_oracle(x, p, q, order)

    def test_large_n_matches_composition(self):
        # the point of TestEval.test_large_n_matches_composition, every entry
        point = (Fraction(4, 7), Fraction(-7, 5), Fraction(5, 7))
        coeffs = taylor_oracle(*point, 150)
        composed = touchard_series(150, *point)
        assert [c * math_factorial(n) for n, c in enumerate(coeffs)] == list(composed)

    def test_classical_limit_refused(self):
        with pytest.raises(ValueError, match="touchard_series"):
            taylor_oracle(1, 1, 2, 4)
        with pytest.raises(ValueError, match="q != 1"):
            taylor_oracle(1, 2, 1, 4)

    @pytest.mark.parametrize(
        "x, p, q",
        [
            (3, -2, 5),
            (Fraction(-5, 3), Fraction(9, 4), Fraction(-1, 6)),
            (0, Fraction(7, 2), -3),
            (Fraction(0), 5, Fraction(2, 3)),
            (2, 0, Fraction(-4, 9)),
            (Fraction(3, 8), Fraction(-11, 3), 0),
            (-1, 0, 0),
            (Fraction(6), Fraction(13, 4), 4),
            (Fraction(-2, 7), -1, Fraction(-9, 2)),
        ],
    )
    def test_edge_inputs_match_eval(self, x, p, q):
        # int and Fraction inputs, x = 0, p or q at 0 or negative, 1 - p < 0
        coeffs = taylor_oracle(x, p, q, 15)
        for n in range(16):
            assert coeffs[n] * math_factorial(n) == touchard_eval(n, x, p, q), n

    @pytest.mark.parametrize("p, q", [(1, 2), (2, 1), (Fraction(1), Fraction(1, 2)), (1, 1)])
    def test_classical_limit_message(self, p, q):
        message = (
            "taylor_oracle needs p != 1 and q != 1 (rational exponents "
            "1/(1-p), 1/(1-q)); use touchard_series or touchard_eval for "
            "the classical limits"
        )
        with pytest.raises(ValueError) as exc:
            taylor_oracle(Fraction(1, 2), p, q, 4)
        assert str(exc.value) == message


@cache
def q_product(k, p):
    """Q_{k-1}(p) = prod_{0<m<k} (1 + m*(p-1)), the empty product 1 for k <= 1."""
    return q_product(k - 1, p) * (1 + (k - 1) * (p - 1)) if k > 1 else 1


def lah(n, k):
    return math_factorial(n) // math_factorial(k) * comb(n - 1, k - 1)


# closed forms of exp_p(x(exp_q(t) - 1)) on four slices, from factorials,
# binomials and Q_{k-1} alone: exp_0(t) = 1 + t, exp_2(t) - 1 = t/(1 - t)
SLICES = {
    "q=0": (lambda x, p: (x, p, 0), lambda n, x, p: x**n * q_product(n, p)),
    "p=0": (lambda x, q: (x, 0, q), lambda n, x, q: x * q_product(n, q) if n else 1),
    "q=2": (
        lambda x, p: (x, p, 2),
        lambda n, x, p: sum(lah(n, k) * q_product(k, p) * x**k for k in range(1, n + 1))
        if n else 1,
    ),
    "p=q=2": (
        lambda x, _: (x, 2, 2),
        lambda n, x, _: math_factorial(n) * x * (1 + x) ** (n - 1) if n else 1,
    ),
}


# x, and the free parameter of each slice but p = q = 2, which has none
SLICE_CASES = [
    (name, x, other)
    for name in SLICES
    for x in (Fraction(4, 7), -2, Fraction(-3, 2))
    for other in ((Fraction(-7, 5), 1, 3, Fraction(5, 7)) if name != "p=q=2" else (None,))
]


class TestClosedFormSlices:
    @pytest.mark.parametrize("name, x, other", SLICE_CASES)
    def test_scalar_routes_and_oracle_match(self, name, x, other):
        point, closed = SLICES[name]
        x, p, q = point(x, other)
        coeffs = taylor_oracle(x, p, q, 60) if p != 1 and q != 1 else None
        for n in range(61):
            expected = closed(n, x, other)
            assert touchard_eval(n, x, p, q) == expected, n
            assert touchard._composed_value(n, x, p, q) == expected, n
            if coeffs is not None:
                assert coeffs[n] * math_factorial(n) == expected, n


class TestAvgNse:
    def test_values(self):
        assert avg_nse(1) == 0
        assert avg_nse(2) == Fraction(1, 3)
        assert avg_nse(3) == Fraction(10, 13)

    def test_matches_enumeration(self):
        from pqtouchard import enumerate_partitions, nse

        for n in range(1, 6):
            total = moved = 0
            for k in range(1, n + 1):
                for pi in enumerate_partitions(n, k, "slp"):
                    total += 1
                    moved += nse(pi)
            assert avg_nse(n) == Fraction(moved, total)

    def test_validation(self):
        with pytest.raises(ValueError):
            avg_nse(0)
        with pytest.raises(ValueError):
            avg_nse(-3)


class TestStatReport:
    def test_consistent_cell(self):
        report = stat_report(3, 2)
        assert report.passed
        assert report.cardinality == 12
        assert report.poly == report.formula
        assert dict(report.checks)["formula-match"]
        assert len(report.checks) == 5

    def test_another_cell(self):
        assert stat_report(4, 3).passed


class TestVerifyIdentity:
    SMALL = {
        "stirling12": 10,
        "orthogonality": 10,
        "slp-count": 6,
        "llp-grid": 5,
        "lsp-slice": 5,
        "slp-slice": 5,
        "series-vs-explicit": 6,
        "oracle-vs-eval": 4,
        "eval-vs-poly": 5,
    }

    @pytest.mark.parametrize("name", IDENTITY_NAMES)
    def test_passes(self, name):
        report = verify_identity(name, n_max=self.SMALL[name])
        assert report.passed
        assert report.failures == 0
        assert report.first_counterexample is None
        assert "PASS" in report.summary()
        assert name in report.summary()

    def test_route_checks_read_the_cached_polynomials(self):
        # the entries `expand` and the benchmark build are the ones these
        # two checks read: T_0..T_12 by substitution and by the explicit
        # route add no cache miss
        touchard_poly.cache_clear()
        for n, route in product(range(13), ("substitution", "explicit")):
            touchard_poly(n, route)
        before = touchard_poly.cache_info()
        assert verify_identity("series-vs-explicit").passed
        after = touchard_poly.cache_info()
        # each T_n is read once on each of the two routes
        assert (after.hits - before.hits, after.misses) == (26, before.misses)
        assert verify_identity("eval-vs-poly").passed
        assert touchard_poly.cache_info().misses == before.misses

    def test_series_vs_explicit_at_larger_n(self):
        # twice the default n_max of 12, which stays small because the
        # expand-cold benchmark workload ends with that default run
        assert verify_identity("series-vs-explicit", 24).passed

    def test_eval_vs_poly_covers_the_classical_corners(self):
        report = verify_identity("eval-vs-poly", n_max=3)
        labels = [label for label, _ in report.cells]
        assert len(labels) == 75
        assert "x=2,p=1,q=1" in labels and "x=1/2,p=-1,q=1" in labels

    @pytest.mark.parametrize(
        "route,name", [("touchard_series", "composition"), ("taylor_oracle", "oracle")]
    )
    def test_failure_names_the_route(self, monkeypatch, route, name):
        right = getattr(touchard, route)

        def off_by_one_at_entry_3(*args):
            values = list(right(*args))
            values[3] += 1
            return values

        monkeypatch.setattr(touchard, route, off_by_one_at_entry_3)
        report = verify_identity("oracle-vs-eval", n_max=5)
        assert report.failures == len(report.cells) == 48
        assert report.first_counterexample.startswith(f"x=1/2,p=-1,q=-1: entry 3: {name} ")

    @pytest.mark.parametrize(
        "name", ["series-vs-explicit", "llp-grid", "lsp-slice", "slp-slice", "eval-vs-poly"]
    )
    def test_passing_cells_format_nothing(self, monkeypatch, name):
        def refuse(poly):
            raise AssertionError("a passing cell formatted a polynomial")

        monkeypatch.setattr(MultiPoly, "__str__", refuse)
        assert verify_identity(name, n_max=self.SMALL[name]).passed

    # one injected fault per checker family: the touchard attribute it
    # patches and a wrapper that puts it in
    TABLE = ("stirling2", lambda f: lambda n, k: f(n, k) + ((n, k) == (3, 2)))
    ENUMERATION = (
        "dist_poly",
        lambda f: lambda n, k, **kw: f(n, k, **kw) + (V if (n, k) == (3, 2) else 0),
    )
    EXPLICIT = ("_explicit_poly", lambda f: lambda n: f(n) + (X if n == 3 else 0))
    POLY = (
        "touchard_poly",
        lambda f: lambda n, *route: f(n, *route) + (X if n == 2 else 0),
    )
    # (fault, identity, n_max, cells, failures, first counterexample)
    FAULTS = [
        (TABLE, "stirling12", 5, 15, 3, "n=3,k=2: 7 != 6"),
        (TABLE, "orthogonality", 5, 21, 3, "n=3,k=2: 1 != 0"),
        (TABLE, "slp-count", 5, 15, 3, "n=3,k=2: 7 != 6"),
        (ENUMERATION, "llp-grid", 4, 10, 1,
         "n=3,k=2: enumeration 3 + 3*u + 4*v + 3*u*v != formula 3 + 3*u + 3*v + 3*u*v"),
        (ENUMERATION, "lsp-slice", 4, 10, 1,
         "n=3,k=2: enumeration 3 + 3*u + v != formula 3 + 3*u"),
        (ENUMERATION, "slp-slice", 4, 10, 1,
         "n=3,k=2: enumeration 3 + 4*v != formula 3 + 3*v"),
        (EXPLICIT, "series-vs-explicit", 5, 6, 1,
         "n=3: series -q*x + 2*q^2*x - p*x^3 + 3*p*q*x^2 + 2*p^2*x^3"
         " / explicit x - q*x + 2*q^2*x - p*x^3 + 3*p*q*x^2 + 2*p^2*x^3"
         " / substitution -q*x + 2*q^2*x - p*x^3 + 3*p*q*x^2 + 2*p^2*x^3"),
        (POLY, "eval-vs-poly", 3, 75, 75,
         "x=1/2,p=-1,q=-1: entry 2: sum -3/4 != polynomial -1/4"),
    ]

    @pytest.mark.parametrize(
        "fault,name,n_max,cells,failures,first", FAULTS, ids=[f[1] for f in FAULTS]
    )
    def test_injected_fault_is_described(
        self, monkeypatch, fault, name, n_max, cells, failures, first
    ):
        attr, wrap = fault
        # series-vs-explicit reads T_n through the cache: no entry built
        # before the patch may hide it, and none built with it may outlive it
        touchard_poly.cache_clear()
        monkeypatch.setattr(touchard, attr, wrap(getattr(touchard, attr)))
        report = verify_identity(name, n_max)
        touchard_poly.cache_clear()
        assert (len(report.cells), report.failures) == (cells, failures)
        assert report.first_counterexample == first

    def test_unknown_identity(self):
        with pytest.raises(ValueError, match="stirling12"):
            verify_identity("reciprocity")

    def test_negative_budget(self):
        with pytest.raises(ValueError, match="n_max"):
            verify_identity("stirling12", n_max=-1)

    def test_failure_reporting(self):
        report = VerificationReport(
            "demo", 3, (("a", True), ("b", False)), "b: 1 != 2"
        )
        assert not report.passed
        assert report.failures == 1
        summary = report.summary()
        assert "FAIL" in summary
        assert "b: 1 != 2" in summary


class TestStirlingBridge:
    def test_row_sums_give_lsp_totals(self):
        # at u=1, v=0 the k-th coefficient counts lists of sets
        for n in range(1, 7):
            row = sum(
                s_uv(n, k).evaluate({"u": 1, "v": 0}) for k in range(1, n + 1)
            )
            assert row == sum(
                factorial(k) * stirling2(n, k) for k in range(1, n + 1)
            )
