"""MultiPoly arithmetic, canonical form, evaluation, and the JSON format."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pqtouchard import MultiPoly, VAR_ORDER


def v(name, power=1):
    return MultiPoly.var(name, power)


class TestCanonicalForm:
    def test_zero_has_empty_term_map(self):
        zero = MultiPoly.const(0)
        assert zero.terms == {}
        assert zero.variables == ()
        assert zero == 0
        assert not zero

    def test_zero_coefficients_are_dropped(self):
        poly = 2 * v("x") + 0 * v("x", 2) + v("q") - v("q")
        assert poly.terms == {(1, 0, 0, 0, 0): 2}
        assert poly == 2 * v("x")

    def test_unused_variables_are_dropped(self):
        poly = 5 * v("q") + v("x") - v("x")
        assert poly.variables == ("q",)
        assert poly == 5 * v("q")

    def test_variables_sorted_into_global_order(self):
        poly = v("v") * v("x", 2)
        assert poly.variables == ("x", "v")
        assert poly.sorted_terms() == [((2, 1), 1)]

    def test_equal_polys_equal_storage(self):
        a = (v("x") + v("q")) * (v("x") - v("q"))
        b = v("x", 2) - v("q", 2)
        assert a.variables == b.variables
        assert a.terms == b.terms
        assert hash(a) == hash(b)

    @pytest.mark.parametrize("args", [(), (("x",), {(1,): 2})])
    def test_the_constructor_is_refused(self, args):
        # polynomials are built from const, var and arithmetic alone, so
        # no MultiPoly without terms can exist
        with pytest.raises(TypeError, match="MultiPoly.const, MultiPoly.var"):
            MultiPoly(*args)

    def test_unknown_variable_rejected(self):
        with pytest.raises(ValueError, match="unknown variable"):
            v("t")

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError, match="exponents must be nonnegative integers"):
            v("x", -1)

    @pytest.mark.parametrize("value", [True, False, Fraction(1), 1.0])
    def test_const_rejects_a_non_int(self, value):
        with pytest.raises(TypeError, match="coefficients must be int"):
            MultiPoly.const(value)


class TestArithmetic:
    def test_product_of_linear_factors(self):
        # the n=3 product of the substitution identity
        lhs = (1 + v("v")) * (1 + 2 * v("v"))
        assert lhs == 1 + 3 * v("v") + 2 * v("v", 2)

    def test_annihilator(self):
        assert v("p") * 0 == 0
        assert not v("p") * MultiPoly.const(0)

    def test_difference_of_squares(self):
        assert (v("x") + 1) * (v("x") - 1) == v("x", 2) - 1

    def test_int_mixing(self):
        assert 3 - v("x") == -(v("x") - 3)
        assert 2 + v("q") == v("q") + 2

    def test_power(self):
        assert (v("u") + 1) * (v("u") + 1) * (v("u") + 1) == (
            1 + 3 * v("u") + 3 * v("u", 2) + v("u", 3)
        )
        assert v("u", 3) == v("u") * v("u") * v("u")
        assert v("x", 0) == 1
        with pytest.raises(ValueError):
            v("x", -1)

    def test_fraction_coefficients_rejected(self):
        with pytest.raises(TypeError):
            v("x") * Fraction(1, 2)


class TestQueries:
    def test_degree(self):
        # one slot per name in VAR_ORDER, whatever the polynomial uses
        poly = v("q") * v("x") + v("p") * v("x", 2)
        assert sorted(poly.terms) == [(1, 0, 1, 0, 0), (2, 1, 0, 0, 0)]
        degrees = [max(key[slot] for key in poly.terms) for slot in range(5)]
        assert degrees == [2, 1, 1, 0, 0]
        assert poly.variables == ("x", "p", "q")
        assert MultiPoly.const(0).variables == ()

    def test_degree_rejects_unknown_variable(self):
        with pytest.raises(ValueError, match="unknown variable"):
            v("t")
        with pytest.raises(ValueError, match="unknown variable"):
            v("x", 2).monomial_coefficient({"t": 1})

    def test_coefficient_extraction(self):
        poly = v("q") * v("x") + v("p") * v("x", 2)
        assert poly.monomial_coefficient({"x": 1, "q": 1}) == 1
        assert poly.monomial_coefficient({"x": 2, "p": 1}) == 1
        assert poly.monomial_coefficient({"x": 1}) == 0
        assert poly.monomial_coefficient({"x": 3}) == 0

    def test_coefficient_of_absent_variable(self):
        poly = 1 + v("u")
        assert poly.substitute("v", 0) == poly
        assert poly.monomial_coefficient({"u": 1, "v": 1}) == 0

    def test_coefficient_rejects_unknown_variable(self):
        with pytest.raises(ValueError, match="unknown variable"):
            v("x").substitute("X", 0)

    def test_monomial_coefficient(self):
        poly = 3 + 3 * v("u") + 3 * v("v") + 3 * v("u") * v("v")
        assert poly.monomial_coefficient({"u": 1, "v": 1}) == 3
        assert poly.monomial_coefficient({}) == 3
        assert poly.monomial_coefficient({"u": 2}) == 0
        assert poly.monomial_coefficient({"x": 1}) == 0
        assert poly.substitute("u", 0).substitute("v", 0) == 3


class TestEvaluationAndSubstitution:
    def test_evaluate_exact(self):
        q2 = 2 * v("q", 2) - v("q")
        assert q2.evaluate({"q": 1}) == 1
        assert q2.evaluate({"q": Fraction(1, 2)}) == 0
        row = 1 + 3 * v("v") + 2 * v("v", 2)
        assert row.evaluate({"v": 1}) == 6

    def test_evaluate_missing_variable_named(self):
        with pytest.raises(ValueError, match="'q'"):
            (v("q") * v("x")).evaluate({"x": 1})

    def test_evaluate_zero(self):
        assert MultiPoly.const(0).evaluate({}) == 0

    def test_substitute_linear(self):
        assert (1 + v("v")).substitute("v", v("q") - 1) == v("q")
        assert v("u", 2).substitute("u", v("p") - 1) == (
            v("p", 2) - 2 * v("p") + 1
        )

    def test_substitute_two_steps(self):
        poly = 3 * (1 + v("u")) * (1 + v("v"))
        done = poly.substitute("u", v("p") - 1).substitute("v", v("q") - 1)
        assert done == 3 * v("p") * v("q")

    def test_substitute_integer(self):
        poly = v("q") * v("x") + v("p") * v("x", 2)
        assert poly.substitute("p", 2).substitute("q", 2) == (
            2 * v("x") + 2 * v("x", 2)
        )

    def test_substitute_rejects_unknown_variable(self):
        with pytest.raises(ValueError, match="unknown variable"):
            v("x").substitute("t", 1)


class TestPrinting:
    def test_x_last_in_monomials(self):
        assert str(v("q") * v("x") + v("p") * v("x", 2)) == "q*x + p*x^2"

    def test_graded_order(self):
        poly = v("x", 3) + v("x") + 1
        assert str(poly) == "1 + x + x^3"

    def test_signs(self):
        assert str(v("u") - 1) == "-1 + u"
        assert str(1 - v("u")) == "1 - u"
        assert str(MultiPoly.const(0)) == "0"
        assert str(MultiPoly.const(-7)) == "-7"


class TestJson:
    def test_schema_shape(self):
        poly = v("q") * v("x") + 12 * v("p") * v("x", 2)
        data = poly.to_json_obj()
        assert data == [
            {"exponents": {"x": 1, "q": 1}, "coeff": "1"},
            {"exponents": {"x": 2, "p": 1}, "coeff": "12"},
        ]

    def test_round_trip_big_coefficients(self):
        poly = (10**40) * v("x") * v("v") - 3
        assert poly.to_json_obj() == [
            {"exponents": {}, "coeff": "-3"},
            {"exponents": {"x": 1, "v": 1}, "coeff": str(10**40)},
        ]

    def test_zero_round_trip(self):
        assert MultiPoly.const(0).to_json_obj() == []


@st.composite
def polys(draw):
    names = draw(
        st.lists(st.sampled_from(VAR_ORDER), unique=True, min_size=0, max_size=5)
    )
    if not names:
        return MultiPoly.const(draw(st.integers(-9, 9)))
    keys = st.tuples(*(st.integers(0, 3) for _ in names))
    terms = draw(st.dictionaries(keys, st.integers(-9, 9), max_size=5))
    poly = MultiPoly.const(0)
    for key, coeff in terms.items():
        term = MultiPoly.const(coeff)
        for name, power in zip(names, key):
            term = term * v(name, power)
        poly = poly + term
    return poly


points = st.fixed_dictionaries(
    {name: st.integers(-3, 3) for name in VAR_ORDER}
)
rational_points = st.fixed_dictionaries(
    {
        name: st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
        for name in VAR_ORDER
    }
)


class TestAlgebraicLaws:
    @given(polys(), polys())
    @settings(max_examples=100)
    def test_addition_commutes(self, a, b):
        assert a + b == b + a

    @given(polys(), polys())
    @settings(max_examples=100)
    def test_multiplication_commutes(self, a, b):
        assert a * b == b * a

    @given(polys(), polys())
    @settings(max_examples=100)
    def test_commuted_products_have_equal_storage(self, a, b):
        ab, ba = a * b, b * a
        assert ab.variables == ba.variables
        assert ab.terms == ba.terms
        assert hash(ab) == hash(ba)
        assert str(ab) == str(ba)
        assert ab.to_json_obj() == ba.to_json_obj()

    @given(polys(), polys(), polys())
    @settings(max_examples=100)
    def test_associativity(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)

    @given(polys(), polys(), polys())
    @settings(max_examples=100)
    def test_distributivity(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(polys(), polys(), points)
    @settings(max_examples=100)
    def test_operations_commute_with_evaluation(self, a, b, point):
        assert (a + b).evaluate(point) == a.evaluate(point) + b.evaluate(point)
        assert (a * b).evaluate(point) == a.evaluate(point) * b.evaluate(point)

    @given(polys(), rational_points)
    @example(MultiPoly.const(0), {name: Fraction(2) for name in VAR_ORDER})
    @example(v("x") - v("x"), {name: Fraction(0) for name in VAR_ORDER})
    @example(MultiPoly.const(-7), {name: Fraction(1, 3) for name in VAR_ORDER})
    @example(v("u", 3) * v("q") - 4, {name: Fraction(-2, 5) for name in VAR_ORDER})
    @settings(max_examples=100)
    def test_evaluation_matches_term_by_term_sum(self, a, point):
        # the reference sums each term's value in Fractions; the variables
        # are the names some term raises to a nonzero power, and a value
        # needs those names alone
        used = tuple(
            name for slot, name in enumerate(VAR_ORDER) if any(key[slot] for key in a.terms)
        )
        assert a.variables == used
        expected = Fraction(0)
        for key, coeff in a.terms.items():
            value = Fraction(coeff)
            for name, e in zip(VAR_ORDER, key):
                value *= point[name] ** e
            expected += value
        assert a.evaluate(point) == expected
        restricted = a.evaluate({name: point[name] for name in used})
        assert (type(restricted), restricted) == (Fraction, expected)

    @given(polys())
    @settings(max_examples=100)
    def test_json_round_trip(self, a):
        # one item per term, each with the term's exponents and coefficient
        data = a.to_json_obj()
        assert len(data) == len(a.terms)
        assert len({tuple(item["exponents"].items()) for item in data}) == len(data)
        for item in data:
            assert set(item) == {"exponents", "coeff"}
            assert all(e > 0 for e in item["exponents"].values())
            assert int(item["coeff"]) == a.monomial_coefficient(item["exponents"])

    @given(polys(), st.one_of(polys(), st.integers(-3, 3)), rational_points)
    @example(3 * v("x", 2) * v("q") - v("p") * v("u") * v("v") + 5, v("q") + 1,
             {name: Fraction(2) for name in VAR_ORDER})
    @example(v("v", 3) * v("u") - 2 * v("v") + v("u", 2), 0,
             {name: Fraction(1, 3) for name in VAR_ORDER})
    @settings(max_examples=100)
    def test_substitution_matches_evaluation(self, a, replacement, point):
        # every variable in turn, so a polynomial replacement often holds
        # the variable it replaces
        value = replacement if isinstance(replacement, int) else replacement.evaluate(point)
        for name in VAR_ORDER:
            replaced = a.substitute(name, replacement)
            assert all(replaced.terms.values()), name
            assert replaced.evaluate(point) == a.evaluate({**point, name: value}), name
