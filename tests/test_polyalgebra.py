import gc
import json
import random
import tracemalloc
from decimal import Decimal
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
    homogeneous,
    q_var,
    t_var,
    to_term_list,
    x_var,
)
from schurkit.polyalgebra import _mono_key

from oracles import reference_text, reference_wire

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


# Mixed Q/t/x variables, t2 against t10 and x3 against x12 included.
SORT_VARS = (q_var(), t_var(1), t_var(2), t_var(10), x_var(1), x_var(3), x_var(12))
# Exponents on both sides of the slot widths of 1 to 9 bits.
SLOT_EXPONENTS = st.one_of(st.sampled_from([1, 2, 3, 4, 7, 8, 15, 16, 255, 256]),
                           st.integers(1, 600))


@st.composite
def mixed_polynomials(draw):
    """Polynomials whose supports are often strict prefixes of one another."""
    monos = []
    for _ in range(draw(st.integers(0, 10))):
        support = sorted(draw(st.lists(st.sampled_from(SORT_VARS), unique=True, max_size=5)))
        mono = tuple((v, draw(SLOT_EXPONENTS)) for v in support)
        monos.append(mono)
        monos.extend(mono[:k] for k in range(draw(st.integers(0, len(mono)))))
    return Polynomial({mono: draw(coeffs) for mono in monos})


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
        assert 1 - a == -(a - 1)

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

    @pytest.mark.parametrize("kind, index, message", [
        ("y", 1, "unknown variable kind 'y'"),
        ("Q", 1, "Q carries no index"),
    ])
    def test_rejects_bad_kind_or_index(self, kind, index, message):
        with pytest.raises(ValueError, match=message):
            Variable(kind, index)

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

    @pytest.mark.parametrize("coeff", [0.1, 2.0, Decimal("0.1"), "1/2", True, False])
    def test_rejects_inexact_coefficient(self, coeff):
        """Only ints and Fractions enter the exact core, through every door."""
        with pytest.raises(ValueError):
            Polynomial({((x_var(1), 1),): coeff})
        with pytest.raises(ValueError):
            Polynomial.constant(coeff)
        with pytest.raises(ValueError):
            Polynomial.term(coeff, {x_var(1): 1})

    def test_bool_compares_as_number(self):
        assert Polynomial.one() == True
        assert Polynomial.zero() == False

    @pytest.mark.parametrize("name", ["x01", "", "t\u0663"])
    def test_term_list_rejects_non_canonical_name(self, name):
        with pytest.raises(ValueError):
            from_term_list([{"coeff": "1", "monomial": {name: 1}}])

    def test_term_list_rejects_non_int_exponent(self):
        with pytest.raises(ValueError):
            from_term_list([{"coeff": "1", "monomial": {"x1": 1.7}}])

    @pytest.mark.parametrize("mono", [((x_var(1),),), ((x_var(1), 1, 2),), ("x1",)],
                             ids=["bare-variable", "triple", "string"])
    def test_rejects_misshapen_monomial(self, mono):
        with pytest.raises(ValueError):
            Polynomial({mono: 1})

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

    def test_zero_and_constant_queries(self):
        assert Polynomial.zero().is_zero() and not T1.is_zero()
        assert (T1 + 3).constant_value() == 3
        assert T1.constant_value() == 0

    @pytest.mark.parametrize("op", ["__eq__", "__add__", "__sub__", "__mul__"])
    def test_foreign_operand_is_not_implemented(self, op):
        """A foreign type is left to its own reflected method."""
        assert getattr(T1, op)(1.5) is NotImplemented
        assert getattr(T1, op)("t1") is NotImplemented


class TestCanonicalText:
    @settings(max_examples=150, deadline=None)
    @given(mixed_polynomials())
    def test_fast_sort_is_mono_key_order(self, p):
        assert p.sorted_terms() == sorted(p.terms.items(), key=lambda mc: _mono_key(mc[0]))

    def test_fast_sort_edge_cases(self):
        x1, x2, t2, t10 = (Polynomial.variable(v) for v in (x_var(1), x_var(2), t_var(2), t_var(10)))
        # A strict prefix sorts after; one slot-width boundary (255 | 256) is crossed.
        p = x1**255 * x2 + x1**255 + x1**256 + x1**255 * x2**256 + t2 * t10 + t10**2 + 1
        assert p.sorted_terms() == sorted(p.terms.items(), key=lambda mc: _mono_key(mc[0]))
        assert canonical_text(p) == ("t2*t10 + t10**2 + x1**256 + x1**255*x2**256"
                                     " + x1**255*x2 + x1**255 + 1")

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
        assert repr(p) == f"Polynomial<{canonical_text(p)}>"

    @settings(max_examples=200, deadline=None)
    @given(mixed_polynomials())
    def test_bytes_match_reference_renderer(self, p):
        assert canonical_text(p) == reference_text(p.terms)
        assert json.dumps(to_term_list(p), separators=(",", ":")) == reference_wire(p.terms)

    @pytest.mark.parametrize("p", [
        Polynomial.zero(),
        Polynomial.one(),
        Polynomial.constant(-1),
        Polynomial.constant(Fraction(-3, 4)),
        Polynomial.constant(Fraction(10**30 + 1, 7)),
        -X1 + 1,
        X1 * Fraction(-1, 3) - Fraction(5, 2),
        -(Q**2) * X1 * Fraction(7, 3) + T1 * T2 - X3 * Fraction(1, 9),
        Q * T1 * X1 + Q * X1 - Q - T2**3 * X2 + 4,
        # exponents on both sides of a slot width: 255 | 256 and 1 | 2 bits
        X1**255 * X2 - X1**256 + X1**255 * X2**256 - Polynomial.variable(t_var(10))**3 + T2,
        X1**2 - X1 * X2 + X2**3 * Q,
    ], ids=["zero", "one", "minus-one", "negative-fraction", "big-constant", "leading-minus-x",
            "x-over-den", "q-t-x-mix", "q-prefixes", "wide-slots", "narrow-slots"])
    def test_reference_bytes_on_edge_cases(self, p):
        assert canonical_text(p) == reference_text(p.terms)
        assert json.dumps(to_term_list(p), separators=(",", ":")) == reference_wire(p.terms)

    def test_text_holds_no_sort_key_beside_its_pieces(self):
        """The packed sort keys live only inside the sort: one key kept beside
        each text piece would lift the text's traced peak to about 1.85 times
        that of ordering the terms alone."""
        p = homogeneous(30)

        def peak(work):
            gc.collect()
            tracemalloc.start()
            try:
                work()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(lambda: canonical_text(p)) / peak(p.sorted_terms) < 1.6

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

    def test_inexact_names_the_leading_term_without_its_sign(self):
        with pytest.raises(ExactDivisionError, match=r"^leading term 3\*x1\*\*2/2 is not divisible$"):
            exact_divide(X1**2 * Fraction(-3, 2) + X3, X2)

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


class TestCanonicalResults:
    """Every door and ring operation hands out canonical terms, also when its
    terms cancel."""

    @settings(deadline=None)
    @given(polynomials(), polynomials(), polynomials(), st.integers(0, 3))
    def test_results_are_canonical(self, assert_canonical_terms, a, b, c, n):
        # x9 and x10 are in no drawn monomial: their zero powers drop out, and
        # keep a's negated terms and b's terms apart as keys.
        built = Polynomial({**a.terms,
                            **{mono + ((x_var(9), 0),): -k for mono, k in a.terms.items()},
                            **{mono + ((x_var(10), 0),): k for mono, k in b.terms.items()}})
        negated = [{**term, "coeff": str(-Fraction(term["coeff"]))} for term in to_term_list(a)]
        decoded = from_term_list(to_term_list(a) + to_term_list(b) + negated)
        assert built == decoded == b
        results = [
            built, decoded, a + b, a + (-a), (a + b) + (-a), a - b, a - a, a * b,
            (a + b) * (a - b), (a - b) ** n, a ** n,
            (a * b).substitute({x_var(1): X2 + T1, t_var(2): T1 - X1}),
            ((X1 - X2) * a).substitute({x_var(1): X2}),
            determinant([[a, b], [a, b]]), determinant([[a, b], [b, a]]),
            determinant([[a, b, c], [c, a, b], [b, c, a]]),
        ]
        if b:
            results.append(exact_divide(a * b, b))
        for p in results:
            assert_canonical_terms(p)

    def test_division_revisits_a_cancelled_remainder(self, assert_canonical_terms):
        """A remainder monomial cancels to zero and is produced again later;
        the heap entry it kept is popped once, with the later sum."""
        quotient = exact_divide((X1 - X2) * (X1 - X2 + X3) * (X1 + X2 + X3), X1 + X2 + X3)
        assert quotient == (X1 - X2) * (X1 - X2 + X3)
        assert_canonical_terms(quotient)


class TestDeterminant:
    def test_empty_is_one(self):
        assert determinant([]) == Polynomial.one()

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="matrix must be square"):
            determinant([[T1, T2]])

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


# Coefficient strings that are not str(Fraction(s)) of a nonzero s, so that
# to_term_list never writes them.
NON_CANONICAL_COEFFS = ["1.5", "3/6", "1e3", "1_000", " 2", "+3", "-0", "0", "3/1", "3/-2",
                        "0/5", "2 ", "\u0663", "/2", "1/2/3"]


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

    def test_sums_repeated_monomials(self):
        wire = [{"coeff": c, "monomial": {"x1": 1, "Q": 2}} for c in ("-3/2", "7", "-1234567890123")]
        mono = ((q_var(), 2), (x_var(1), 1))
        assert from_term_list(wire[:1]).terms == {mono: Fraction(-3, 2)}
        assert from_term_list(wire).terms == {mono: Fraction(-3, 2) + 7 - 1234567890123}
        assert type(from_term_list(wire).terms[mono]) is Fraction
        assert from_term_list(wire[:1] + [{"coeff": "3/2", "monomial": {"Q": 2, "x1": 1}}]) == 0

    def test_rejects_unknown_variable_name(self):
        with pytest.raises(ValueError):
            from_term_list([{"coeff": "1", "monomial": {"y1": 1}}])

    @pytest.mark.parametrize(
        "data",
        [
            [{"monomial": {"x1": 1}}],
            [{"coeff": "1", "monomial": [["x1", 1]]}],
            [{"coeff": "1", "monomial": {"x1": [1]}}],
            {"coeff": "1", "monomial": {}},
            [["1", {"x1": 1}]],
            [{"coeff": "1/0", "monomial": {}}],
            [{"coeff": 1.5, "monomial": {}}],
            [{"coeff": 2, "monomial": {}}],
            [{"coeff": "1", "monomial": {1: 1}}],
            [{"coeff": "1", "monomial": {"t1": 0}}],
            [{"coeff": "1", "monomial": {"t1": 1}}, {"coeff": "1", "monomial": {"t1": True}}],
            [{"coeff": "3/2", "monomial": {"x1": 1}}, {"coeff": "3/2", "monomial": {"x2": 1}},
             {"coeff": "6/4", "monomial": {"x3": 1}}],
        ] + [[{"coeff": c, "monomial": {"x1": 1}}] for c in NON_CANONICAL_COEFFS],
        ids=["missing-coeff", "list-monomial", "list-exponent", "non-list-data",
             "non-dict-entry", "zero-denominator", "float-coeff", "int-coeff",
             "non-string-name", "zero-exponent", "bool-exponent-after-int",
             "bad-coeff-after-repeated-valid"] + [f"coeff {c!r}" for c in NON_CANONICAL_COEFFS],
    )
    def test_rejects_malformed_wire_data(self, data):
        with pytest.raises(ValueError):
            from_term_list(data)
