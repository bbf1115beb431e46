import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from schurkit import (
    ExactDivisionError,
    Polynomial,
    Variable,
    canonical_text,
    determinant,
    exact_divide,
    from_term_list,
    q_var,
    t_var,
    to_term_list,
    x_var,
)

Q = Polynomial.variable(q_var())
T1, T2 = (Polynomial.variable(t_var(i)) for i in (1, 2))
X1, X2, X3 = (Polynomial.variable(x_var(i)) for i in (1, 2, 3))

VARS = (q_var(), t_var(1), t_var(2), x_var(1), x_var(2))

coeffs = st.fractions(min_value=-6, max_value=6, max_denominator=4).filter(
    lambda f: f != 0
)


@st.composite
def polynomials(draw):
    """Sparse polynomials in at most 5 variables with degree at most 6."""
    n_terms = draw(st.integers(0, 5))
    poly = Polynomial.zero()
    for _ in range(n_terms):
        picks = draw(st.lists(st.sampled_from(VARS), max_size=6))
        mono = {v: picks.count(v) for v in set(picks)}
        poly = poly + Polynomial.term(draw(coeffs), mono)
    return poly


class TestRingAxioms:
    @settings(max_examples=200, deadline=None)
    @given(polynomials(), polynomials(), polynomials())
    def test_ring_axioms(self, a, b, c):
        zero, one = Polynomial.zero(), Polynomial.one()
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + zero == a
        assert a * one == a
        assert a * zero == zero
        assert a - a == zero

    @given(polynomials())
    def test_negation_and_scalars(self, a):
        assert -(-a) == a
        assert a * 2 == a + a
        assert a * Fraction(1, 2) + a * Fraction(1, 2) == a

    @given(polynomials(), st.integers(0, 4))
    def test_power_is_repeated_product(self, a, n):
        expected = Polynomial.one()
        for _ in range(n):
            expected = expected * a
        assert a**n == expected

    def test_power_rejects_negative_exponent(self):
        with pytest.raises(ValueError):
            T1 ** (-1)


class TestVariable:
    def test_sorting_gives_canonical_order(self):
        canonical = [q_var()] + [t_var(i) for i in range(1, 13)] + [x_var(i) for i in range(1, 13)]
        shuffled = list(canonical)
        random.Random(3).shuffle(shuffled)
        assert sorted(shuffled) == canonical

    def test_indices_compare_numerically(self):
        T10 = Polynomial.variable(t_var(10))
        assert canonical_text(T2 + T10) == "t2 + t10"

    def test_immutable(self):
        v = t_var(2)
        with pytest.raises(AttributeError):
            v.index = 3
        with pytest.raises(AttributeError):
            v.kind = "x"
        assert v == t_var(2)

    @pytest.mark.parametrize("index", [1.0, True, "1"])
    def test_rejects_non_int_index(self, index):
        with pytest.raises(ValueError):
            Variable("t", index)

    def test_replace_validates(self):
        assert t_var(1)._replace(index=4) == t_var(4)
        with pytest.raises(ValueError):
            t_var(1)._replace(index=0)


class TestMalformedMonomials:
    def test_rejects_repeated_variable(self):
        with pytest.raises(ValueError):
            Polynomial({((x_var(1), 1), (x_var(1), 1)): 1})

    def test_rejects_negative_exponent(self):
        with pytest.raises(ValueError):
            Polynomial({((x_var(1), -2),): 1})

    @pytest.mark.parametrize("key", ["x1", ("x", 1)])
    def test_rejects_non_variable_key(self, key):
        with pytest.raises(ValueError):
            Polynomial({((key, 1),): 1})

    @pytest.mark.parametrize("exponent", [1.7, 2.0, True])
    def test_rejects_non_int_exponent(self, exponent):
        with pytest.raises(ValueError):
            Polynomial({((x_var(1), exponent),): 1})

    @pytest.mark.parametrize("name", ["x01", "", "t\u0663"])
    def test_term_list_rejects_non_canonical_name(self, name):
        with pytest.raises(ValueError):
            from_term_list([{"coeff": "1", "monomial": {name: 1}}])

    def test_term_list_rejects_non_int_exponent(self):
        with pytest.raises(ValueError):
            from_term_list([{"coeff": "1", "monomial": {"x1": 1.7}}])

    def test_unordered_monomial_is_normalized(self):
        p = Polynomial({((x_var(2), 1), (q_var(), 0), (t_var(1), 3)): 2})
        assert p == 2 * T1**3 * X2
        assert canonical_text(p) == "2*t1**3*x2"


class TestEquality:
    def test_constants_compare_to_numbers(self):
        assert Polynomial.constant(3) == 3
        assert Polynomial.constant(Fraction(1, 2)) == Fraction(1, 2)
        assert Polynomial.zero() == 0
        assert T1 != 1

    def test_hashable(self):
        assert len({T1 + T2, T2 + T1, T1}) == 2


class TestCanonicalText:
    def test_zero_and_constants(self):
        assert canonical_text(Polynomial.zero()) == "0"
        assert canonical_text(Polynomial.constant(Fraction(-3, 4))) == "-3/4"
        assert canonical_text(Polynomial.one()) == "1"

    def test_coefficient_styles(self):
        p = T1**3 * Fraction(1, 6) + X1 * 2 + T2 * Fraction(5, 6) - X2
        assert canonical_text(p) == "t1**3/6 + 5*t2/6 + 2*x1 - x2"

    def test_leading_negative(self):
        assert canonical_text(-(Q**2) * X1 + X2) == "-Q**2*x1 + x2"

    def test_descending_degree_within_variable(self):
        p = T1 + T1**3 + T1**2
        assert canonical_text(p) == "t1**3 + t1**2 + t1"

    def test_variable_order_q_t_x(self):
        p = X1 + T1 + Q
        assert canonical_text(p) == "Q + t1 + x1"

    def test_str_matches(self):
        p = T1 * T2 - X3
        assert str(p) == canonical_text(p)

    @given(polynomials(), polynomials())
    def test_text_separates_unequal_polynomials(self, a, b):
        if canonical_text(a) == canonical_text(b):
            assert a == b


class TestSubstitution:
    def test_identity(self):
        p = T1**2 + T2
        assert p.substitute({t_var(1): T1}) == p

    def test_numeric_point(self):
        p = T1**2 - T2
        assert p.substitute({t_var(1): Polynomial.constant(3), t_var(2): Polynomial.constant(4)}) == 5

    def test_polynomial_image(self):
        p = T1**2
        image = p.substitute({t_var(1): X1 + X2})
        assert image == X1**2 + X1 * X2 * 2 + X2**2

    def test_untouched_variables_pass_through(self):
        p = Q * T1 + X1
        assert p.substitute({t_var(1): T2}) == Q * T2 + X1

    def test_composition_on_disjoint_stages(self):
        p = T1 + T2
        once = p.substitute({t_var(1): X1**2}).substitute({t_var(2): X2})
        both = p.substitute({t_var(1): X1**2, t_var(2): X2})
        assert once == both


class TestExactDivision:
    def test_difference_of_squares(self):
        assert exact_divide(X1**2 - X2**2, X1 - X2) == X1 + X2

    def test_common_monomial_factor(self):
        num = X1**2 * X2 - X1 * X2**2
        assert exact_divide(num, X1 - X2) == X1 * X2

    def test_constant_divisor(self):
        assert exact_divide(T1 * 3, Polynomial.constant(3)) == T1

    def test_zero_numerator(self):
        assert exact_divide(Polynomial.zero(), X1 - X2) == Polynomial.zero()

    def test_rejects_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            exact_divide(X1, Polynomial.zero())

    def test_rejects_inexact(self):
        with pytest.raises(ExactDivisionError):
            exact_divide(X1 + X2, X1 - X2)

    @settings(deadline=None)
    @given(polynomials(), polynomials())
    def test_round_trip(self, a, b):
        if b == 0:
            return
        assert exact_divide(a * b, b) == a

    def test_q_bracket_chain(self):
        bracket3 = Polynomial.one() + Q + Q**2
        num = Polynomial.one() - Q**3
        assert exact_divide(num, Polynomial.one() - Q) == bracket3


class TestDeterminant:
    def test_empty_is_one(self):
        assert determinant([]) == Polynomial.one()

    def test_two_by_two(self):
        rows = [[T1, T2], [X1, X2]]
        assert determinant(rows) == T1 * X2 - T2 * X1

    def test_alternating_rows(self):
        rows = [[T1, T2], [T1, T2]]
        assert determinant(rows) == Polynomial.zero()

    def test_three_by_three_vandermonde(self):
        one = Polynomial.one()
        rows = [[one, X1, X1**2], [one, X2, X2**2], [one, X3, X3**2]]
        expected = (X2 - X1) * (X3 - X1) * (X3 - X2)
        assert determinant(rows) == expected


class TestTermLists:
    def test_shape(self):
        p = T1**3 * Fraction(1, 6) + T1 * T2 + Polynomial.variable(t_var(3))
        listed = to_term_list(p)
        assert listed[0] == {"coeff": "1/6", "monomial": {"t1": 3}}
        assert listed[1] == {"coeff": "1", "monomial": {"t1": 1, "t2": 1}}
        assert listed[2] == {"coeff": "1", "monomial": {"t3": 1}}

    def test_constant_term_has_empty_monomial(self):
        assert to_term_list(Polynomial.constant(Fraction(2, 7))) == [
            {"coeff": "2/7", "monomial": {}}
        ]
        assert to_term_list(Polynomial.zero()) == []

    @given(polynomials())
    def test_round_trip(self, p):
        assert from_term_list(to_term_list(p)) == p

    @given(polynomials())
    def test_json_encoding_is_stable(self, p):
        first = json.dumps(to_term_list(p), separators=(",", ":"))
        second = json.dumps(to_term_list(p), separators=(",", ":"))
        assert first == second

    def test_mixed_variable_names(self):
        p = Q * X1 * T2**2
        assert to_term_list(p) == [
            {"coeff": "1", "monomial": {"Q": 1, "t2": 2, "x1": 1}}
        ]
        assert from_term_list(to_term_list(p)) == p

    def test_rejects_unknown_variable_name(self):
        with pytest.raises(ValueError):
            from_term_list([{"coeff": "1", "monomial": {"y1": 1}}])
