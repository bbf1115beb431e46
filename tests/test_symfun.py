import copy
import functools
import hashlib
import itertools
import json
import pickle
import random
import threading
import time
import weakref
from collections import Counter
from fractions import Fraction
from math import comb, factorial, prod
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from schurkit import (
    AlphabetContext,
    MiwaContext,
    Polynomial,
    YoungDiagram,
    canonical_text,
    determinant,
    elementary,
    hall_littlewood,
    homogeneous,
    miwa_push,
    monomial,
    partitions_of,
    q_var,
    schur,
    schur_via_characters,
    t_var,
    to_term_list,
    x_var,
)
from schurkit.cli import run
from schurkit.symfun import (HL_BRANCH_CACHE_SIZE, SCHUR_CACHE_SIZE, _branches, _orbits, _schur,
                             _schur_via_characters, _t_pairs)
from schurkit.verify import _at_q_zero_and_one, check_degenerations

from oracles import (dp_partition_counts, frobenius_character, hall_littlewood_numerator,
                     naive_partitions)

T = {i: Polynomial.variable(t_var(i)) for i in range(1, 11)}
X = {i: Polynomial.variable(x_var(i)) for i in range(1, 5)}
Q = Polynomial.variable(q_var())


def shapes_up_to(max_boxes):
    for n in range(max_boxes + 1):
        yield from partitions_of(n)


def miwa_weight(mono):
    return sum(v.index * e for v, e in mono)


HL_GOLDEN = Path(__file__).parent / "fixtures" / "hall_littlewood_golden.json"
MIWA_GOLDEN = Path(__file__).parent / "fixtures" / "miwa_golden.json"


def hl_bytes(poly):
    """Canonical text and compact JSON wire form, as the CLI prints them."""
    return canonical_text(poly), json.dumps(to_term_list(poly), separators=(",", ":"))


def digests(poly):
    """SHA-256 of hl_bytes, as the golden fixtures hold them."""
    text, wire = hl_bytes(poly)
    return {"json": hashlib.sha256(wire.encode()).hexdigest(),
            "text": hashlib.sha256(text.encode()).hexdigest()}


def hl_golden_build(key):
    """hall_littlewood of an HL_GOLDEN key "n|parts"."""
    n, parts = key.split("|")
    lam = YoungDiagram(tuple(int(p) for p in parts.split(",") if p))
    return hall_littlewood(lam, AlphabetContext(int(n)))


# Large outputs frozen beside the |lam| <= 6 grid: 55 408 and 10 077 terms.
HL_LARGE = ("8|4,3,2,1", "8|3,3,1,1")

# Slot edges frozen beside them: (1^8) in 8 letters, whose peeled terms reach
# high Q powers, and one row in 2 letters across the 4 | 5 bit width.
HL_EDGES = ("8|1,1,1,1,1,1,1,1", "2|15", "2|16", "2|17")


def contained_pairs(max_boxes):
    """Every (lam, mu) of part tuples with mu inside lam and 1 <= |lam| <= max_boxes,
    enumerated by the oracle."""
    for n in range(1, max_boxes + 1):
        for lam in sorted(naive_partitions(n)):
            for size in range(n + 1):
                for mu in sorted(naive_partitions(size)):
                    if len(mu) <= len(lam) and all(a <= b for a, b in zip(mu, lam)):
                        yield lam, mu


@functools.cache
def skew_by_characters(lam, mu):
    """s_{lam/mu} = sum_rho chi^{lam/mu}(rho) p_rho / z_rho with the Frobenius
    oracle's skew characters; in the t-coordinates (p_j = j t_j) each
    p_rho / z_rho is prod_j t_j^{k_j} / k_j!, k_j the number of j-cycles."""
    terms = {}
    for rho in naive_partitions(sum(lam) - sum(mu)):
        k = Counter(rho)
        mono = tuple((t_var(j), e) for j, e in k.items())
        terms[mono] = Fraction(frobenius_character(lam, rho, mu), prod(map(factorial, k.values())))
    return Polynomial(terms)


def skew_oracle_mismatches(schur_fn, max_boxes):
    """The contained pairs up to max_boxes where schur_fn parts from the oracle."""
    return [(lam, mu) for lam, mu in contained_pairs(max_boxes)
            if schur_fn(YoungDiagram(lam), YoungDiagram(mu)) != skew_by_characters(lam, mu)]


def refuse_generic_arithmetic(*args):
    raise AssertionError("generic polynomial arithmetic was called")


def build_refusing_arithmetic(cases, refuse_fraction_arithmetic):
    """{key: (poly, digests, refused)} for (key, thunk) pairs, each built once
    with the Schur memo (h and e among its entries) emptied first, and with
    Fraction arithmetic and substitute, products and powers of Polynomials
    refused.  A case that reaches one of them is marked refused and built
    again without the refusals, so its bytes are still judged."""
    cases = dict(cases)
    out = {}
    with pytest.MonkeyPatch.context() as patch:
        refuse_fraction_arithmetic(patch)
        for name in ("substitute", "__mul__", "__rmul__", "__pow__"):
            patch.setattr(Polynomial, name, refuse_generic_arithmetic)
        _schur.cache_clear()
        for key, build in cases.items():
            try:
                poly = build()
                out[key] = poly, digests(poly), False
            except AssertionError:
                pass
    for key in cases.keys() - out.keys():
        poly = cases[key]()
        out[key] = poly, digests(poly), True
    return out


@pytest.fixture(scope="module")
def golden_builds(refuse_fraction_arithmetic):
    """Every MIWA_GOLDEN case and every HL_GOLDEN case, built once for all
    the tests that judge them."""
    hl_keys = json.loads(HL_GOLDEN.read_text())["cases"]
    hl = ((key, lambda key=key: hl_golden_build(key)) for key in hl_keys)
    return (build_refusing_arithmetic(miwa_golden_cases(), refuse_fraction_arithmetic),
            build_refusing_arithmetic(hl, refuse_fraction_arithmetic))


@pytest.fixture
def cold_schur():
    """An empty Schur memo, so that a test judging how schur builds sees a
    build and not a hit left by an earlier test."""
    _schur.cache_clear()


def parts_key(lam):
    return ",".join(map(str, lam.parts))


def miwa_golden_cases():
    """(key, thunk) for every case in MIWA_GOLDEN, in a fixed order."""
    for n in range(21):
        yield f"homogeneous|{n}", lambda n=n: homogeneous(n)
        yield f"elementary|{n}", lambda n=n: elementary(n)
    for lam in shapes_up_to(8):
        yield f"schur|{parts_key(lam)}", lambda lam=lam: schur(lam)
        yield f"schur_via_characters|{parts_key(lam)}", lambda lam=lam: schur_via_characters(lam)
    for lam in shapes_up_to(6):
        for mu in shapes_up_to(lam.boxes):
            if lam.contains(mu):
                yield f"skew|{parts_key(lam)}/{parts_key(mu)}", lambda lam=lam, mu=mu: schur(lam, mu)
    for n in range(3, 6):
        for lam in shapes_up_to(5):
            yield (f"miwa_push|{n}|{parts_key(lam)}",
                   lambda lam=lam, n=n: miwa_push(schur(lam), AlphabetContext(n)))
    for n in range(3, 7):
        for lam in shapes_up_to(6):
            yield f"monomial|{n}|{parts_key(lam)}", lambda lam=lam, n=n: monomial(lam, AlphabetContext(n))
    # Frozen later, before schur moved onto integer coefficients.
    for n in range(9, 13):
        for lam in partitions_of(n):
            yield f"schur|{parts_key(lam)}", lambda lam=lam: schur(lam)
    for n in (7, 8):
        for lam in partitions_of(n):
            for mu in shapes_up_to(n):
                yield f"skew|{parts_key(lam)}/{parts_key(mu)}", lambda lam=lam, mu=mu: schur(lam, mu)
    # Frozen later, before miwa_push stopped calling substitute.
    for n in range(3, 7):
        for lam in shapes_up_to(7):
            if n == 6 or lam.boxes > 5:
                yield (f"miwa_push|{n}|{parts_key(lam)}",
                       lambda lam=lam, n=n: miwa_push(schur(lam), AlphabetContext(n)))
    for n in range(1, 5):
        for name, p in MIWA_INPUTS.items():
            yield f"miwa_push|{n}|{name}", lambda p=p, n=n: miwa_push(p, AlphabetContext(n))
    # Frozen later, before kernel output skipped re-validation.
    for n in range(21, 31):
        yield f"homogeneous|{n}", lambda n=n: homogeneous(n)
        yield f"elementary|{n}", lambda n=n: elementary(n)
    for n in range(9, 13):
        for lam in partitions_of(n):
            yield f"schur_via_characters|{parts_key(lam)}", lambda lam=lam: schur_via_characters(lam)
    # Frozen later, before miwa_push moved onto integer coefficients, with the
    # last MIWA_INPUTS entry (its 1..4-letter cases come from the loop above).
    for n in range(3, 6):
        for lam in partitions_of(8):
            yield (f"miwa_push|{n}|{parts_key(lam)}",
                   lambda lam=lam, n=n: miwa_push(schur(lam), AlphabetContext(n)))
    for n in range(5, 7):
        for name, p in MIWA_INPUTS.items():
            yield f"miwa_push|{n}|{name}", lambda p=p, n=n: miwa_push(p, AlphabetContext(n))
    # Frozen later, before schur expanded the side with fewer rows: shapes of
    # 13-16 boxes at most 3 wide and their conjugates, and skew pairs of 9-10
    # boxes with more rows than columns and every contained mu of <= 3 boxes.
    for n in range(13, 17):
        for lam in partitions_of(n):
            if lam.columns <= 3:
                for shape in (lam, lam.transpose()):
                    yield f"schur|{parts_key(shape)}", lambda shape=shape: schur(shape)
    for n in (9, 10):
        for lam in partitions_of(n):
            if lam.rows > lam.columns:
                for mu in shapes_up_to(3):
                    if lam.contains(mu):
                        yield f"skew|{parts_key(lam)}/{parts_key(mu)}", lambda lam=lam, mu=mu: schur(lam, mu)
    # Frozen later, before schur_via_characters took each shape's character
    # column from one walk: every shape of 13 and 14 boxes, and the 22-28 box
    # shapes of perfbench's character-route workload.
    for n in (13, 14):
        for lam in partitions_of(n):
            yield f"schur_via_characters|{parts_key(lam)}", lambda lam=lam: schur_via_characters(lam)
    for parts in SVC_LARGE:
        lam = YoungDiagram(parts)
        yield f"schur_via_characters|{parts_key(lam)}", lambda lam=lam: schur_via_characters(lam)
    # Frozen later, before monomial and the orbit spread stopped walking
    # distinct permutations: monomial in 7 and 8 letters, and 8-box Schur
    # shapes pushed to 6 letters.
    for n in (7, 8):
        for lam in shapes_up_to(6):
            yield f"monomial|{n}|{parts_key(lam)}", lambda lam=lam, n=n: monomial(lam, AlphabetContext(n))
    for lam in partitions_of(8):
        yield (f"miwa_push|6|{parts_key(lam)}",
               lambda lam=lam: miwa_push(schur(lam), AlphabetContext(6)))
    # Frozen later, before the letter loop tabulated each state's branches:
    # shapes of <= 6 boxes pushed to 7 letters (6 letters are above), and two
    # large pushes, with up to 15 and 16 factors t_j in a monomial.
    for lam in shapes_up_to(6):
        yield (f"miwa_push|7|{parts_key(lam)}",
               lambda lam=lam: miwa_push(schur(lam), AlphabetContext(7)))
    for n, parts in ((5, (5, 4, 3, 2, 1)), (4, (4, 4, 4, 4))):
        lam = YoungDiagram(parts)
        yield (f"miwa_push|{n}|{parts_key(lam)}",
               lambda lam=lam, n=n: miwa_push(schur(lam), AlphabetContext(n)))
    # Frozen later, before _orbits packed and sorted its own keys: exponents
    # on both sides of a slot width (255 | 256, 1 | 2 bits), one letter of
    # twelve, and h_8 pushed to 8 letters.
    for n, parts in ((4, (256, 255, 1)), (3, (255, 1)), (12, (1,))):
        lam = YoungDiagram(parts)
        yield f"monomial|{n}|{parts_key(lam)}", lambda lam=lam, n=n: monomial(lam, AlphabetContext(n))
    yield "miwa_push|8|8", lambda: miwa_push(homogeneous(8), AlphabetContext(8))


# Shapes of 22-28 boxes whose character-route Schur polynomials are frozen.
SVC_LARGE = ((6, 5, 4, 3, 2, 1, 1), (8, 6, 4, 2, 2), (7, 7, 5, 3), (5, 5, 5, 5, 2),
             (6, 5, 4, 3, 2, 1, 1, 1, 1), (9, 7, 5, 3, 1), (7, 6, 5, 4, 3, 2, 1))


# t-polynomials other than Schur ones for miwa_push: mixed degrees with a
# constant term, a product, t_j with j above the letter count, and pairwise
# coprime denominators beside a high index.
MIWA_INPUTS = {
    "3+t1*t2**2/2-5*t3+2*t1**4/7": (
        3 + T[1] * T[2] ** 2 * Fraction(1, 2) - T[3] * 5 + T[1] ** 4 * Fraction(2, 7)),
    "h4*e2": homogeneous(4) * elementary(2),
    "t5+t1*t4": T[5] + T[1] * T[4],
    "t7/3-5*t2*t3/6+t1**3/14+2*t4**2": (
        T[7] * Fraction(1, 3) - T[2] * T[3] * Fraction(5, 6) + T[1] ** 3 * Fraction(1, 14)
        + T[4] ** 2 * 2),
}


SCHUR_GOLDEN = Path(__file__).parent / "fixtures" / "schur_golden.json"

# Large shapes frozen beside the grids: a square, the 7-row staircase, a
# diagonal far below min(rows, columns), and four long rows.
SCHUR_LARGE = ((6,) * 6, (7, 6, 5, 4, 3, 2, 1), (10, 9) + (2,) * 6 + (1, 1), (12, 10, 8, 6))


def schur_golden_cases():
    """(key, thunk) for every case in SCHUR_GOLDEN, in a fixed order: h_n and
    e_n for n <= 30, every straight shape of <= 10 boxes, every skew pair
    of 9-10 boxes whose inner shape has a diagonal of >= 2 boxes (among them
    pairs whose weight |lam| - |mu| is below the largest entry weight), and
    SCHUR_LARGE."""
    for n in range(31):
        yield f"homogeneous|{n}", lambda n=n: homogeneous(n)
        yield f"elementary|{n}", lambda n=n: elementary(n)
    for lam in shapes_up_to(10):
        yield f"schur|{parts_key(lam)}", lambda lam=lam: schur(lam)
    for n in (9, 10):
        for lam in partitions_of(n):
            for mu in shapes_up_to(n):
                if mu.diagonal >= 2 and lam.contains(mu):
                    yield f"skew|{parts_key(lam)}/{parts_key(mu)}", lambda lam=lam, mu=mu: schur(lam, mu)
    for parts in SCHUR_LARGE:
        lam = YoungDiagram(parts)
        yield f"schur|{parts_key(lam)}", lambda lam=lam: schur(lam)


@pytest.fixture(scope="module")
def schur_golden_builds():
    """Every SCHUR_GOLDEN case, built once with the Schur memo emptied first."""
    _schur.cache_clear()
    return {key: build() for key, build in schur_golden_cases()}


def power_sum_bindings(n, max_j):
    """t_j -> (1/j) * (x1^j + ... + xn^j) for j <= max_j: the substitute route."""
    return {
        t_var(j): Polynomial({((x_var(i), j),): Fraction(1, j) for i in range(1, n + 1)})
        for j in range(1, max_j + 1)
    }


@st.composite
def t_polynomials(draw):
    """A letter count n in 1..5 and a rational t-polynomial of Miwa weight at
    most 6 per term, sometimes plus a multiple of e_{n+1}, which cancels to 0
    in n letters."""
    n = draw(st.integers(1, 5))
    p = Polynomial.zero()
    coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    for _ in range(draw(st.integers(0, 4))):
        js = draw(st.sampled_from([lam.parts for lam in shapes_up_to(6)]))
        p = p + Polynomial.term(draw(coeffs), {t_var(j): js.count(j) for j in set(js)})
    if draw(st.booleans()):
        p = p + elementary(n + 1) * draw(coeffs)
    return n, p


def unit(n, i):
    return tuple(1 if k == i else 0 for k in range(n))


def as_int_dict(poly, n):
    """{(Q power, exponent vector): int coeff} of an x/Q polynomial in n letters."""
    out = {}
    for mono, coeff in poly.terms.items():
        assert coeff.denominator == 1
        exps = dict(mono)
        key = (exps.get(q_var(), 0), tuple(exps.get(x_var(i + 1), 0) for i in range(n)))
        out[key] = int(coeff)
    return out


def times(a, b):
    out = {}
    for (qa, xa), ca in a.items():
        for (qb, xb), cb in b.items():
            key = (qa + qb, tuple(u + v for u, v in zip(xa, xb)))
            out[key] = out.get(key, 0) + ca * cb
    return {key: c for key, c in out.items() if c}


def oracle_homogeneous(n):
    """Same series, but summed over the recursive partition oracle."""
    total = Polynomial.zero()
    for parts in naive_partitions(n):
        coeff = Fraction(1)
        body = {}
        for size in set(parts):
            count = parts.count(size)
            for k in range(1, count + 1):
                coeff /= k
            body[t_var(size)] = count
        total = total + Polynomial.term(coeff, body)
    return total


class TestHomogeneous:
    def test_tables_of_every_weight_share_their_pairs(self):
        small, large = _t_pairs(39), _t_pairs(40)
        assert small[1][1] is large[1][1]
        assert all(pair is large[j][k] for j, row in enumerate(small) for k, pair in enumerate(row))

    def test_degree_zero_and_one(self):
        assert homogeneous(0) == Polynomial.one()
        assert homogeneous(1) == T[1]

    def test_degree_three(self):
        expected = T[1] ** 3 * Fraction(1, 6) + T[1] * T[2] + T[3]
        assert homogeneous(3) == expected
        assert canonical_text(homogeneous(3)) == "t1**3/6 + t1*t2 + t3"

    def test_degree_four(self):
        expected = (
            T[1] ** 4 * Fraction(1, 24)
            + T[1] ** 2 * T[2] * Fraction(1, 2)
            + T[1] * T[3]
            + T[2] ** 2 * Fraction(1, 2)
            + T[4]
        )
        assert homogeneous(4) == expected

    def test_matches_partition_oracle(self):
        for n in range(9):
            assert homogeneous(n) == oracle_homogeneous(n)

    def test_term_count_is_partition_count(self):
        counts = dp_partition_counts(12)
        for n in range(13):
            assert len(homogeneous(n).terms) == counts[n]

    def test_generating_identity(self):
        """n h_n = sum_k k t_k h_{n-k}, the Newton-style recurrence."""
        for n in range(1, 9):
            rhs = Polynomial.zero()
            for k in range(1, n + 1):
                rhs = rhs + T[k] * k * homogeneous(n - k)
            assert homogeneous(n) * n == rhs

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            homogeneous(-1)


class TestElementary:
    def test_degree_two(self):
        assert elementary(2) == T[1] ** 2 * Fraction(1, 2) - T[2]

    def test_degree_three(self):
        assert canonical_text(elementary(3)) == "t1**3/6 - t1*t2 + t3"

    def test_sign_flip_of_homogeneous(self):
        """e_n is h_n with every t_j replaced by -t_j, times (-1)^n."""
        for n in range(9):
            flipped = homogeneous(n).substitute(
                {t_var(j): -T[j] for j in range(1, n + 1)}
            )
            assert elementary(n) == flipped * (-1) ** n

    def test_builds_and_keeps_no_homogeneous(self, cold_schur):
        assert canonical_text(elementary(4)) == "t1**4/24 - t1**2*t2/2 + t1*t3 + t2**2/2 - t4"
        assert _schur.cache_info().currsize == 1
        with pytest.raises(ValueError):
            elementary(-1)

    def test_convolution_vanishes(self):
        """sum_k (-1)^k e_k h_{n-k} = 0 for n >= 1."""
        for n in range(1, 9):
            total = Polynomial.zero()
            for k in range(n + 1):
                total = total + elementary(k) * homogeneous(n - k) * (-1) ** k
            assert total == Polynomial.zero()


class TestSchur:
    def test_staircase_fixture(self):
        expected = (
            T[1] ** 6 * Fraction(1, 45)
            - T[1] ** 3 * T[3] * Fraction(1, 3)
            + T[1] * T[5]
            - T[3] ** 2
        )
        got = schur(YoungDiagram((3, 2, 1)))
        assert got == expected
        assert canonical_text(got) == "t1**6/45 - t1**3*t3/3 + t1*t5 - t3**2"

    @pytest.mark.parametrize("lam, mu", [((4, 3, 3, 2, 2, 1, 1, 1), ()), ((3, 3, 3), ()),
                                         ((6, 5, 4, 3), (3, 2, 1))])
    def test_a_cold_build_leaves_no_cyclic_garbage(self, cyclic_garbage, lam, mu):
        """The Laplace expansion's ``minor`` calls itself; unbound when the
        expansion returns, it and its minors are freed without the cyclic
        collector.  The h_k and e_k entries are built first."""
        built = _schur(lam, mu)
        assert cyclic_garbage(lambda: _schur.__wrapped__(lam, mu)) == 0
        assert _schur.__wrapped__(lam, mu) == built

    def test_single_row_is_homogeneous(self):
        for n in range(11):
            assert schur(YoungDiagram((n,) if n else ())) == homogeneous(n)

    def test_single_column_is_elementary(self):
        for n in range(11):
            assert schur(YoungDiagram((1,) * n)) == elementary(n)

    def test_long_column_costs_a_row(self, cold_schur, no_fraction_arithmetic):
        """(1^40) is expanded on its one-row conjugate; as a 40x40
        h-determinant it does not finish in test time."""
        assert schur(YoungDiagram((1,) * 40)) == elementary(40)
        assert schur(YoungDiagram((40,))) == homogeneous(40)

    def test_empty_shape(self):
        assert schur(YoungDiagram(())) == Polynomial.one()

    def test_weighted_homogeneity(self):
        """Every term of s_lam has Miwa weight equal to the box count."""
        for lam in shapes_up_to(7):
            for mono in schur(lam).terms:
                assert miwa_weight(mono) == lam.boxes

    def test_pieri_for_one_box(self):
        """h_1 s_(2) = s_(3) + s_(2,1)."""
        lhs = homogeneous(1) * schur(YoungDiagram((2,)))
        rhs = schur(YoungDiagram((3,))) + schur(YoungDiagram((2, 1)))
        assert lhs == rhs


class TestSkewSchur:
    def test_skew_by_empty_is_plain(self):
        for lam in shapes_up_to(6):
            assert schur(lam, YoungDiagram(())) == schur(lam)

    def test_skew_by_itself_is_one(self):
        for lam in shapes_up_to(6):
            assert schur(lam, lam) == Polynomial.one()

    def test_hook_minus_box(self):
        """s_{(2,1)/(1)} = h_1^2 - h_2 + h_2 = m uses the branching sum."""
        got = schur(YoungDiagram((2, 1)), YoungDiagram((1,)))
        expected = schur(YoungDiagram((2,))) + schur(YoungDiagram((1, 1)))
        assert got == expected
        assert got == T[1] ** 2

    def test_vanishes_unless_contained(self):
        small = list(shapes_up_to(5))
        for lam in small:
            for mu in small:
                if not lam.contains(mu):
                    assert schur(lam, mu) == Polynomial.zero()

    def test_skew_weight(self):
        for lam in shapes_up_to(6):
            for mu in shapes_up_to(4):
                if not lam.contains(mu):
                    continue
                poly = schur(lam, mu)
                for mono in poly.terms:
                    assert miwa_weight(mono) == lam.boxes - mu.boxes

    def test_row_strip_gives_homogeneous(self):
        """Skewing one row by a shorter row leaves a single h."""
        got = schur(YoungDiagram((4,)), YoungDiagram((1,)))
        assert got == homogeneous(3)

    def test_matches_rational_determinant(self):
        """The integer kernel against the generic Fraction determinant of the
        same Jacobi-Trudi matrix, for every pair of at most 7 boxes."""
        for lam in shapes_up_to(7):
            for mu in shapes_up_to(7):
                m = max(lam.rows, mu.rows)
                lp = lam.parts + (0,) * (m - lam.rows)
                mp = mu.parts + (0,) * (m - mu.rows)
                rows = [[homogeneous(lp[i] - mp[j] - i + j) if lp[i] - mp[j] - i + j >= 0
                         else Polynomial.zero() for j in range(m)] for i in range(m)]
                assert schur(lam, mu) == determinant(rows), (lam.parts, mu.parts)

    def test_matches_skew_character_oracle(self):
        """Against the Frobenius skew characters, a route that shares no
        matrix with schur, on all 448 contained pairs of 1 to 7 boxes."""
        assert sum(1 for _ in contained_pairs(7)) == 448
        assert skew_oracle_mismatches(schur, 7) == []

    def test_skew_oracle_catches_a_wrong_pair(self):
        """A schur that answers one pair with s_{lam/mu'} fails the oracle."""
        def planted(lam, mu):
            if (lam.parts, mu.parts) == ((4, 2, 1), (2,)):
                return schur(lam, mu.transpose())
            return schur(lam, mu)
        assert skew_oracle_mismatches(planted, 7) == [((4, 2, 1), (2,))]

    def test_edge_shapes(self):
        shape = YoungDiagram
        assert schur(shape((24,))) is homogeneous(24)
        assert schur(shape((1,) * 14)) == elementary(14)
        assert schur(shape((2,) * 10)) == schur_via_characters(shape((2,) * 10))
        assert schur(shape((3, 3)), shape((1, 1, 1, 1))) == Polynomial.zero()
        for lam in (shape((5, 3, 3, 1)), shape((2,) * 10), shape((9, 9, 9))):
            assert schur(lam, lam) == Polynomial.one()
        # Only the third row is left, with a padded inner row of 0 beside two of 9.
        assert schur(shape((9, 9, 9)), shape((9, 9))) == homogeneous(9)
        # A row of 23 beside a lone box, with t1 reaching exponent 24.
        assert schur(shape((24, 1)), shape((1,))) == homogeneous(23) * homogeneous(1)

    def test_staircase_within_budget(self, cold_schur):
        """Fails if schur goes back to rational arithmetic (about 1.5 s there)."""
        start = time.perf_counter()
        poly = schur(YoungDiagram((8, 7, 6, 5, 4, 3, 2, 1)))
        assert time.perf_counter() - start < 0.5
        assert len(poly.terms) == 474


class TestSchurMemo:
    """schur keeps its last SCHUR_CACHE_SIZE (lam, mu) pairs in _schur."""

    def test_bound(self):
        assert SCHUR_CACHE_SIZE == _schur.cache_info().maxsize == 128

    def test_three_spellings_share_one_entry(self, cold_schur):
        lam = YoungDiagram((3, 2, 1))
        built = schur(lam)
        info = _schur.cache_info()
        assert schur(lam, None) is built
        assert schur(lam, YoungDiagram()) is built
        after = _schur.cache_info()
        assert (after.misses - info.misses, after.hits - info.hits,
                after.currsize - info.currsize) == (0, 2, 0)

    def test_h_and_e_are_memo_entries(self):
        for n in range(13):
            assert homogeneous(n) is schur(YoungDiagram((n,) if n else ()))
            assert elementary(n) is schur(YoungDiagram((1,) * n))

    def test_negative_degree_raises_before_any_key(self):
        """The check comes first: the keys (-1,) and (1,) * -1 = () would
        both build 1."""
        info = _schur.cache_info()
        for family in (homogeneous, elementary):
            with pytest.raises(ValueError, match="n must be nonnegative"):
                family(-1)
        assert _schur.cache_info() == info

    @pytest.mark.parametrize("argv", [["schur", "5,5,3,3"], ["schur", "5,5,3,3", "--json"],
                                      ["schur", "6,5,4,3", "--skew", "3,2,1", "--json"]])
    def test_hit_prints_the_bytes_of_the_build(self, cold_schur, argv):
        built = run(argv)
        hits = _schur.cache_info().hits
        assert run(argv) == built
        assert _schur.cache_info().hits == hits + 1

    def test_editing_a_terms_copy_leaves_the_entry(self, cold_schur):
        lam = YoungDiagram((4, 2, 1))
        poly = schur(lam)
        text = canonical_text(poly)
        terms = poly.terms
        terms[next(iter(terms))] += 1
        terms[((t_var(9), 1),)] = Fraction(5)
        assert schur(lam) is poly
        assert canonical_text(schur(lam)) == text

    def test_evicted_pair_rebuilds_to_the_same_bytes(self, cold_schur):
        first = YoungDiagram((2, 1))
        before = hl_bytes(schur(first))
        others = [(lam, mu) for mu in (YoungDiagram(), YoungDiagram((1,)))
                  for lam in shapes_up_to(8)
                  if lam.contains(mu) and (lam.parts, mu.parts) != (first.parts, ())]
        assert len(others) == 132 > SCHUR_CACHE_SIZE
        for lam, mu in others:
            schur(lam, mu)
        info = _schur.cache_info()
        assert info.currsize == SCHUR_CACHE_SIZE
        assert hl_bytes(schur(first)) == before
        assert _schur.cache_info().misses == info.misses + 1

    def test_evicted_families_rebuild_to_their_digests(self, cold_schur):
        """h_k, e_k and Schur entries pushed out by more than SCHUR_CACHE_SIZE
        other pairs rebuild to their frozen bytes."""
        golden = json.loads(MIWA_GOLDEN.read_text())["cases"]
        cases = dict(miwa_golden_cases())
        keys = [f"{family}|{k}" for k in range(13) for family in ("homogeneous", "elementary")]
        keys += ["schur|3,2,1", "schur|4,4,2", "schur|2,2,2,1,1", "skew|4,3,1/2,1"]
        first = {key: cases[key]() for key in keys}
        others = [(lam, mu) for mu in (YoungDiagram((1,)), YoungDiagram((2,)), YoungDiagram((1, 1)))
                  for lam in shapes_up_to(8) if lam.contains(mu)]
        assert len(others) > SCHUR_CACHE_SIZE
        for lam, mu in others:
            schur(lam, mu)
        assert _schur.cache_info().currsize == SCHUR_CACHE_SIZE
        again = {key: cases[key]() for key in keys}
        assert any(again[key] is not first[key] for key in keys)
        for key in keys:
            assert digests(again[key]) == golden[key], key


class TestSchurViaCharacters:
    def test_small_fixtures(self):
        assert schur_via_characters(YoungDiagram((1,))) == T[1]
        assert schur_via_characters(YoungDiagram((2,))) == (
            T[1] ** 2 * Fraction(1, 2) + T[2]
        )
        assert schur_via_characters(YoungDiagram((1, 1))) == (
            T[1] ** 2 * Fraction(1, 2) - T[2]
        )

    def test_agrees_with_determinant_route(self, cold_schur):
        """Every shape of at most 8 boxes, with both memos emptied first and
        again from both memos."""
        _schur_via_characters.cache_clear()
        shapes = list(shapes_up_to(8))
        for _ in range(2):
            for lam in shapes:
                assert schur_via_characters(lam) == schur(lam), lam.parts
        info = _schur_via_characters.cache_info()
        assert (info.hits, info.misses) == (len(shapes), len(shapes)) == (67, 67)

    def test_agrees_on_the_conjugate_side(self):
        """Every 13-box shape with more rows than columns, which schur
        expands as the e-determinant of its conjugate."""
        switched = [lam for lam in partitions_of(13) if lam.columns < lam.rows]
        assert len(switched) == 45
        for lam in switched:
            assert schur(lam) == schur_via_characters(lam), lam.parts


class TestCharacterRouteMemo:
    """schur_via_characters keeps its last SCHUR_CACHE_SIZE shapes in
    _schur_via_characters, apart from the determinant's memo."""

    def test_hit_returns_the_same_object(self):
        _schur_via_characters.cache_clear()
        lam = YoungDiagram((4, 2, 1))
        built = schur_via_characters(lam)
        assert schur_via_characters(YoungDiagram((4, 2, 1))) is built
        assert _schur_via_characters.cache_info()[:2] == (1, 1)  # hits, misses
        assert built is not schur(lam)

    def test_evicted_shape_rebuilds_to_the_same_bytes(self):
        first = YoungDiagram((2, 1))
        _schur_via_characters.cache_clear()
        built = schur_via_characters(first)
        before = hl_bytes(built)
        others = [lam for lam in shapes_up_to(10) if lam != first]
        assert len(others) == 138 > SCHUR_CACHE_SIZE
        for lam in others:
            schur_via_characters(lam)
        info = _schur_via_characters.cache_info()
        assert info.currsize == SCHUR_CACHE_SIZE
        again = schur_via_characters(first)
        assert again is not built
        assert hl_bytes(again) == before
        assert _schur_via_characters.cache_info().misses == info.misses + 1


class TestMonomial:
    def test_single_box(self):
        assert monomial(YoungDiagram((1,)), AlphabetContext(3)) == X[1] + X[2] + X[3]

    def test_too_many_rows_gives_zero(self):
        assert monomial(YoungDiagram((1, 1, 1)), AlphabetContext(2)) == Polynomial.zero()

    def test_staircase_fixture(self):
        got = monomial(YoungDiagram((3, 2, 1)), AlphabetContext(3))
        assert canonical_text(got) == (
            "x1**3*x2**2*x3 + x1**3*x2*x3**2 + x1**2*x2**3*x3 + x1**2*x2*x3**3"
            " + x1*x2**3*x3**2 + x1*x2**2*x3**3"
        )

    def test_term_count_is_distinct_permutations(self):
        # (2, 1, 1) over four letters: 4!/2! placements of the exponents.
        got = monomial(YoungDiagram((2, 1, 1)), AlphabetContext(4))
        assert len(got.terms) == 12
        assert all(c == 1 for c in got.terms.values())

    def test_empty_shape(self):
        assert monomial(YoungDiagram(()), AlphabetContext(3)) == Polynomial.one()

    def test_symmetric_under_swaps(self):
        ctx = AlphabetContext(3)
        for lam in shapes_up_to(5):
            poly = monomial(lam, ctx)
            swapped = poly.substitute(
                {x_var(1): X[2], x_var(2): X[1]}
            )
            assert swapped == poly


class TestOrbits:
    """``_orbits`` spreads weakly decreasing terms over their orbits and hands
    them over sorted on packed keys, flagged as in canonical order."""

    def assert_flagged_in_order(self, p):
        assert p._in_order
        assert list(p._terms.items()) == Polynomial._raw(p.terms).sorted_terms()

    def test_zero_coefficients_drop_out(self):
        ctx = AlphabetContext(3)
        got = _orbits({(0, (2, 1, 0)): 0, (1, (2, 1, 0)): 3, (2, (1, 1, 1)): Fraction(0),
                       (4, (1, 1, 1)): Fraction(-1, 2)}, ctx.variables())
        lam21, lam111 = YoungDiagram((2, 1)), YoungDiagram((1, 1, 1))
        assert got == Q * monomial(lam21, ctx) * 3 - Q ** 4 * monomial(lam111, ctx) * Fraction(1, 2)
        self.assert_flagged_in_order(got)
        none = _orbits({(0, (2, 1)): 0, (3, (1, 1)): Fraction(0)}, AlphabetContext(2).variables())
        assert none == Polynomial.zero()
        self.assert_flagged_in_order(none)

    def test_more_rows_than_letters_give_zero(self):
        """A vector with more nonzero parts than letters has an empty orbit."""
        xs = AlphabetContext(2).variables()
        assert _orbits({(0, (1, 1, 1)): 1}, xs) == Polynomial.zero()
        got = _orbits({(0, (1, 1, 1)): 1, (1, (2, 0)): 1}, xs)
        assert got == Q * (X[1] ** 2 + X[2] ** 2)
        self.assert_flagged_in_order(got)
        pushed = miwa_push(elementary(3) * 4 + T[1], AlphabetContext(2))
        assert pushed == X[1] + X[2]
        self.assert_flagged_in_order(pushed)

    def test_constant_and_empty_vector(self):
        got = _orbits({(0, ()): 2, (3, ()): -1}, AlphabetContext(2).variables())
        assert got == 2 - Q ** 3
        self.assert_flagged_in_order(got)


class TestHallLittlewood:
    def test_single_box(self):
        assert hall_littlewood(YoungDiagram((1,)), AlphabetContext(2)) == X[1] + X[2]

    def test_last_letter_reads_no_table(self):
        """x1 takes the one row left whole: a build tabulates only the shapes
        met at the letters xN..x2."""
        _branches.cache_clear()
        assert hall_littlewood(YoungDiagram((3,)), AlphabetContext(1)) == X[1] ** 3
        assert _branches.cache_info().currsize == 0
        hall_littlewood(YoungDiagram((2, 1)), AlphabetContext(2))
        assert _branches.cache_info().currsize == 1

    def test_branch_table_is_order_independent(self):
        """Builds over a fixed shuffle of every shape of 13 and 14 boxes and at
        most 3 rows, each in 3 and in 4 letters, so that one sub-shape comes
        up under several letter counts, read the branch table as the earlier
        builds left it, and overflow its bound.  Each matches a build made
        right after the table was emptied."""
        pairs = [(lam, n) for boxes in (13, 14) for lam in partitions_of(boxes)
                 if lam.rows <= 3 for n in (3, 4)]
        random.Random(5).shuffle(pairs)
        cold = {}
        for lam, n in pairs:
            _branches.cache_clear()
            cold[lam.parts, n] = canonical_text(hall_littlewood(lam, AlphabetContext(n)))
        _branches.cache_clear()
        for lam, n in pairs:
            assert canonical_text(hall_littlewood(lam, AlphabetContext(n))) == cold[lam.parts, n]
        info = _branches.cache_info()
        assert info.currsize == HL_BRANCH_CACHE_SIZE < info.misses  # the LRU evicted

    def test_staircase_fixture(self):
        got = hall_littlewood(YoungDiagram((3, 2, 1)), AlphabetContext(3))
        assert canonical_text(got) == (
            "-Q**2*x1**2*x2**2*x3**2 - Q*x1**2*x2**2*x3**2 + x1**3*x2**2*x3"
            " + x1**3*x2*x3**2 + x1**2*x2**3*x3 + 2*x1**2*x2**2*x3**2"
            " + x1**2*x2*x3**3 + x1*x2**3*x3**2 + x1*x2**2*x3**3"
        )

    def test_rejects_more_rows_than_letters(self):
        with pytest.raises(ValueError):
            hall_littlewood(YoungDiagram((1, 1, 1)), AlphabetContext(2))

    def test_leading_coefficient_is_one(self):
        """The x^lam monomial always carries coefficient 1."""
        for lam in shapes_up_to(5):
            if lam.rows > 3:
                continue
            poly = hall_littlewood(lam, AlphabetContext(3))
            padded = tuple(lam.parts) + (0,) * (3 - lam.rows)
            mono = tuple(
                (x_var(i + 1), e) for i, e in enumerate(padded) if e
            )
            assert poly.terms.get(mono) == 1

    def test_specializes_to_schur_at_zero(self):
        """By substitute, and by the verify sweep's direct Q=0."""
        zero = {q_var(): Polynomial.zero()}
        for n, max_boxes in ((3, 4), (5, 6), (6, 6)):
            ctx = AlphabetContext(n)
            for lam in shapes_up_to(max_boxes):
                if lam.rows > n:
                    continue
                hl = hall_littlewood(lam, ctx)
                got = hl.substitute(zero)
                assert got == miwa_push(schur(lam), ctx), (n, lam.parts)
                assert _at_q_zero_and_one(hl)[0] == got, (n, lam.parts)

    def test_specializes_to_monomial_at_one(self):
        """By substitute, and by the verify sweep's direct Q=1."""
        one = {q_var(): Polynomial.one()}
        for n, max_boxes in ((3, 4), (5, 6), (6, 6)):
            ctx = AlphabetContext(n)
            for lam in shapes_up_to(max_boxes):
                if lam.rows > n:
                    continue
                hl = hall_littlewood(lam, ctx)
                got = hl.substitute(one)
                assert got == monomial(lam, ctx), (n, lam.parts)
                assert _at_q_zero_and_one(hl)[1] == got, (n, lam.parts)

    def test_verify_sweep_skips_substitute(self, cold_schur, monkeypatch, no_fraction_arithmetic):
        """verify degenerations specializes Q without substitute, on ints."""
        monkeypatch.setattr(Polynomial, "substitute", refuse_generic_arithmetic)
        assert check_degenerations(6) == ("degenerations", True, 50)

    def test_symmetric_under_swaps(self):
        poly = hall_littlewood(YoungDiagram((2, 1)), AlphabetContext(3))
        swapped = poly.substitute({x_var(2): X[3], x_var(3): X[2]})
        assert swapped == poly

    def test_x_degree_is_homogeneous(self):
        poly = hall_littlewood(YoungDiagram((2, 2)), AlphabetContext(3))
        for mono in poly.terms:
            x_total = sum(e for v, e in mono if v.kind == "x")
            assert x_total == 4

    def test_workers_agree(self):
        lam = YoungDiagram((2, 1))
        ctx = AlphabetContext(4)
        base = hall_littlewood(lam, ctx, workers=1)
        assert hall_littlewood(lam, ctx, workers=2) == base
        assert hall_littlewood(lam, ctx, workers=3) == base

    def test_workers_start_no_thread(self, monkeypatch):
        ctx = AlphabetContext(5)
        lam = YoungDiagram((3, 2, 1))
        base = hl_bytes(hall_littlewood(lam, ctx, workers=1))

        def refuse(self):
            raise AssertionError("hall_littlewood started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        for w in (2, 3):
            assert hl_bytes(hall_littlewood(lam, ctx, workers=w)) == base

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ValueError):
            hall_littlewood(YoungDiagram((2, 1)), AlphabetContext(3), workers=0)

    @pytest.mark.parametrize("workers", [1.5, True, "2"])
    def test_rejects_non_int_workers(self, workers):
        with pytest.raises(ValueError, match="^workers must be positive$"):
            hall_littlewood(YoungDiagram((2, 1)), AlphabetContext(3), workers=workers)

    def test_matches_frozen_golden(self, golden_builds):
        """Byte digests frozen from the antisymmetrize-and-divide build at
        n = 3..6, from the full-vector layer loop at n = 7, 8, from the
        validating constructor for the two large shapes in 8 letters, from
        the distinct-permutation orbit spread for 7-box shapes in 7 and 8
        letters, and from the orbit spread whose output was sorted on each
        write for the slot edges."""
        golden = json.loads(HL_GOLDEN.read_text())["cases"]
        cases = {
            f"{n}|{','.join(map(str, lam.parts))}"
            for n in range(3, 9)
            for lam in shapes_up_to(6)
            if lam.rows <= n
        } | set(HL_LARGE) | set(HL_EDGES) | {f"{n}|{parts_key(lam)}" for n in (7, 8)
                                             for lam in partitions_of(7)}
        assert set(golden) == cases
        built = golden_builds[1]
        for key, want in golden.items():
            assert built[key][1] == want, key

    def test_generic_q_numerator_oracle(self):
        """P_lam * Vandermonde * prod_m [m]_Q! is the antisymmetrized numerator."""
        for n in range(1, 6):
            for lam in shapes_up_to(5):
                if lam.rows > n:
                    continue
                factors = []
                for i in range(n):
                    for j in range(i + 1, n):
                        factors.append({(0, unit(n, i)): 1, (0, unit(n, j)): -1})
                mults = list(lam.conjugacy_class().multiplicities.values())
                for m in mults + [n - lam.rows]:
                    for j in range(2, m + 1):
                        factors.append({(a, (0,) * n): 1 for a in range(j)})
                got = as_int_dict(hall_littlewood(lam, AlphabetContext(n)), n)
                for factor in factors:
                    got = times(got, factor)
                assert got == hall_littlewood_numerator(lam.parts, n), (n, lam.parts)

    def test_stable_under_dropping_last_letter(self):
        """x_n = 0 sends P_lam(x1..xn) to P_lam(x1..x_{n-1}), or to 0 at rows = n."""
        for n in range(2, 8):
            for lam in shapes_up_to(6):
                if lam.rows > n:
                    continue
                dropped = hall_littlewood(lam, AlphabetContext(n)).substitute(
                    {x_var(n): Polynomial.zero()}
                )
                if lam.rows == n:
                    assert dropped == Polynomial.zero(), (n, lam.parts)
                else:
                    assert dropped == hall_littlewood(lam, AlphabetContext(n - 1)), (n, lam.parts)

    def test_eight_letters_within_budget(self):
        """Fails if the build goes back to a cost that grows like n!."""
        start = time.perf_counter()
        poly = hall_littlewood(YoungDiagram((3, 2, 1)), AlphabetContext(8))
        assert time.perf_counter() - start < 5.0
        assert len(poly.terms) == 4648


class TestMiwaPush:
    def test_last_letter_takes_the_rest_without_a_table(self, monkeypatch):
        """x1 takes every factor t_j left, so a monomial first met at the
        last letter gets no table of takes: in one letter no binomial weight
        is computed."""
        h3, s321 = homogeneous(3), schur(YoungDiagram((3, 2, 1)))
        weights = []
        monkeypatch.setattr("schurkit.symfun.comb", lambda e, b: weights.append((e, b)) or comb(e, b))
        assert miwa_push(h3, AlphabetContext(1)) == X[1] ** 3
        assert miwa_push(s321, AlphabetContext(1)) == Polynomial.zero()
        assert weights == []

    def test_takes_are_expanded_once_per_call(self, monkeypatch):
        """A monomial met at several letters expands its takes once per push:
        the binomial weights of t1^3 and of s_(3,2,1) are computed as often in
        9 letters as in 3."""
        t13, s321 = T[1] ** 3, schur(YoungDiagram((3, 2, 1)))
        weights = []
        monkeypatch.setattr("schurkit.symfun.comb", lambda e, b: weights.append((e, b)) or comb(e, b))
        for p, calls in ((t13, 9), (s321, 67)):
            for n in (3, 4, 6, 9):
                weights.clear()
                miwa_push(p, AlphabetContext(n))
                assert len(weights) == calls, (n, len(weights))

    def test_power_sum_images(self):
        ctx = AlphabetContext(3)
        assert miwa_push(T[1], ctx) == X[1] + X[2] + X[3]
        assert miwa_push(T[2], ctx) == (
            X[1] ** 2 + X[2] ** 2 + X[3] ** 2
        ) * Fraction(1, 2)

    def test_single_column_overflow_vanishes(self):
        ctx = AlphabetContext(1)
        assert miwa_push(elementary(2), ctx) == Polynomial.zero()

    def test_schur_lands_on_monomial_sum(self):
        """Pushed s_lam equals the monomial expansion via Kostka counts."""
        ctx = AlphabetContext(3)
        got = miwa_push(schur(YoungDiagram((2, 1))), ctx)
        expected = monomial(YoungDiagram((2, 1)), ctx) + monomial(
            YoungDiagram((1, 1, 1)), ctx
        ) * 2
        assert got == expected

    def test_constant_passes_through(self):
        assert miwa_push(Polynomial.constant(5), AlphabetContext(2)) == 5

    def test_rejects_alphabet_variables(self):
        with pytest.raises(ValueError):
            miwa_push(X[1], AlphabetContext(2))

    def test_rejects_parameter_variable(self):
        with pytest.raises(ValueError):
            miwa_push(Q, AlphabetContext(2))

    def test_error_names_the_least_foreign_variable(self):
        """Q < t < x, whatever order the set of variables comes in."""
        with pytest.raises(ValueError, match="found Q$"):
            miwa_push(X[1] + Q + T[1], AlphabetContext(2))

    @settings(max_examples=150, deadline=None)
    @given(t_polynomials())
    def test_matches_substitute_oracle(self, case):
        n, p = case
        assert miwa_push(p, AlphabetContext(n)) == p.substitute(power_sum_bindings(n, 7))

    def test_staircase_within_budget(self):
        """Fails if the push goes back to expanding products of power sums,
        which took about 2.7 s on a 2-core VM with CPython 3.11."""
        p = schur(YoungDiagram((5, 4, 3, 2, 1)))
        start = time.perf_counter()
        got = miwa_push(p, AlphabetContext(5))
        assert time.perf_counter() - start < 1.0
        assert got.terms[tuple((x_var(i), 6 - i) for i in range(1, 6))] == 1


class TestContexts:
    def test_variable_lists(self):
        assert [v.name for v in MiwaContext(3).variables()] == ["t1", "t2", "t3"]
        assert [v.name for v in AlphabetContext(2).variables()] == ["x1", "x2"]

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError):
            MiwaContext(-1)
        with pytest.raises(ValueError):
            AlphabetContext(-2)

    @pytest.mark.parametrize("count", [2.5, 3.0, True, "3"])
    def test_rejects_non_int_count(self, count):
        for context in (MiwaContext, AlphabetContext):
            with pytest.raises(ValueError, match="^count must be positive$"):
                context(count)

    def test_kinds_stay_apart(self):
        assert MiwaContext(3) == MiwaContext(3)
        assert MiwaContext(3) != AlphabetContext(3)
        assert repr(MiwaContext(3)) == "MiwaContext(count=3)"
        assert repr(AlphabetContext(2)) == "AlphabetContext(count=2)"

    def test_equal_contexts_hash_equal(self):
        assert hash(MiwaContext(3)) == hash(MiwaContext(3))
        assert hash(AlphabetContext(4)) == hash(AlphabetContext(4))
        assert len({MiwaContext(3), MiwaContext(3), AlphabetContext(3)}) == 2

    def test_count_is_read_only(self):
        for ctx in (MiwaContext(3), AlphabetContext(3)):
            with pytest.raises(AttributeError):
                ctx.count = 4
            assert ctx.count == 3

    def test_count_cannot_be_deleted(self):
        for ctx in (MiwaContext(3), AlphabetContext(3)):
            with pytest.raises(AttributeError):
                del ctx.count
            assert ctx.count == 3

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        for ctx in (MiwaContext(3), AlphabetContext(2)):
            back = pickle.loads(pickle.dumps(ctx, protocol))
            assert type(back) is type(ctx)
            assert back == ctx and hash(back) == hash(ctx)

    def test_copy_and_deepcopy(self):
        for ctx in (MiwaContext(3), AlphabetContext(2)):
            for twin in (copy.copy(ctx), copy.deepcopy(ctx)):
                assert type(twin) is type(ctx) and twin == ctx

    def test_weak_reference(self):
        ctx = AlphabetContext(3)
        assert weakref.ref(ctx)() is ctx

    def test_not_equal_to_a_tuple(self):
        assert (AlphabetContext(3) == (3,)) is False
        assert AlphabetContext(3) != (3,)

    def test_match_binds_count(self):
        match AlphabetContext(3):
            case MiwaContext(n):
                pytest.fail(f"matched MiwaContext({n})")
            case AlphabetContext(n):
                assert n == 3


class TestMiwaGolden:
    def test_matches_frozen_golden(self, golden_builds):
        """Byte digests of h, e, (skew) Schur, miwa_push and monomial, frozen
        before the Miwa term builder was shared."""
        golden = json.loads(MIWA_GOLDEN.read_text())["cases"]
        built = golden_builds[0]
        assert set(golden) == set(built)
        for key, (_, got, _) in built.items():
            assert got == golden[key], key

    def test_kernel_output_is_canonical(self, golden_builds, assert_canonical_terms):
        """Every golden case of the kernels that build through Polynomial._raw
        (schur, h, e, schur_via_characters, monomial, hall_littlewood and
        miwa_push) already holds canonical terms."""
        for built in golden_builds:
            for poly, _, _ in built.values():
                assert_canonical_terms(poly)

    def test_alphabet_outputs_skip_generic_arithmetic(self, golden_builds):
        """monomial, hall_littlewood and miwa_push reach their golden bytes
        without substitute, products or powers of Polynomials, and without
        Fraction arithmetic."""
        miwa = json.loads(MIWA_GOLDEN.read_text())["cases"]
        hl = json.loads(HL_GOLDEN.read_text())["cases"]
        built_miwa, built_hl = golden_builds
        for key, (_, got, refused) in built_miwa.items():
            if key.startswith(("monomial|", "miwa_push|")):
                assert not refused and got == miwa[key], key
        for key, want in hl.items():
            _, got, refused = built_hl[key]
            assert not refused and got == want, key

    def test_alphabet_and_character_terms_come_flagged_in_canonical_order(self, golden_builds):
        """monomial, hall_littlewood, miwa_push and schur_via_characters, like
        h, e and the determinant, hand Polynomial._raw their terms in
        canonical order and say so; the order is that of the full sort."""
        built_miwa, built_hl = golden_builds
        families = ("monomial|", "miwa_push|", "schur_via_characters|")
        cases = [(key, poly) for key, (poly, _, _) in built_miwa.items() if key.startswith(families)]
        cases += [(key, poly) for key, (poly, _, _) in built_hl.items()]
        assert len(cases) == 515 + 325 + 183 + len(built_hl)  # the three families' Miwa keys
        for key, poly in cases:
            assert poly._in_order, key
            assert list(poly._terms.items()) == Polynomial._raw(poly.terms).sorted_terms(), key

    def test_t_outputs_skip_fraction_arithmetic(self, golden_builds):
        """h, e, (skew) schur and schur_via_characters reach their golden
        bytes on ints, with one Fraction per output coefficient and with h and
        e built under the same refusals; the tall shapes among them run on
        their conjugate side, with e_k entries."""
        miwa = json.loads(MIWA_GOLDEN.read_text())["cases"]
        for key, (_, got, refused) in golden_builds[0].items():
            if not key.startswith(("monomial|", "miwa_push|")):
                assert not refused and got == miwa[key], key


class TestSchurGolden:
    def test_matches_frozen_golden(self, schur_golden_builds):
        """Byte digests of h_n and e_n, straight and skew Schur, frozen before
        the t-kernels emitted their terms in canonical order."""
        golden = json.loads(SCHUR_GOLDEN.read_text())["cases"]
        assert set(golden) == set(schur_golden_builds)
        for key, poly in schur_golden_builds.items():
            assert digests(poly) == golden[key], key

    def test_terms_come_flagged_in_canonical_order(self, schur_golden_builds):
        """h_n, e_n and the determinant hand Polynomial._raw their terms in
        canonical order and say so; the order is that of the full sort."""
        for key, poly in schur_golden_builds.items():
            assert poly._in_order, key
            assert list(poly._terms.items()) == Polynomial._raw(poly.terms).sorted_terms(), key
