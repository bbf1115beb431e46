import hashlib
import itertools
import json
import threading
import time
from fractions import Fraction
from pathlib import Path

import pytest

from schurkit import (
    AlphabetContext,
    MiwaContext,
    Polynomial,
    YoungDiagram,
    canonical_text,
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
from oracles import dp_partition_counts, hall_littlewood_numerator, naive_partitions

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

    def test_single_row_is_homogeneous(self):
        for n in range(11):
            assert schur(YoungDiagram((n,) if n else ())) == homogeneous(n)

    def test_single_column_is_elementary(self):
        for n in range(11):
            assert schur(YoungDiagram((1,) * n)) == elementary(n)

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


class TestSchurViaCharacters:
    def test_small_fixtures(self):
        assert schur_via_characters(YoungDiagram((1,))) == T[1]
        assert schur_via_characters(YoungDiagram((2,))) == (
            T[1] ** 2 * Fraction(1, 2) + T[2]
        )
        assert schur_via_characters(YoungDiagram((1, 1))) == (
            T[1] ** 2 * Fraction(1, 2) - T[2]
        )

    def test_agrees_with_determinant_route(self):
        for lam in shapes_up_to(7):
            assert schur_via_characters(lam) == schur(lam)


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


class TestHallLittlewood:
    def test_single_box(self):
        assert hall_littlewood(YoungDiagram((1,)), AlphabetContext(2)) == X[1] + X[2]

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
        zero = {q_var(): Polynomial.zero()}
        for n, max_boxes in ((3, 4), (5, 6), (6, 6)):
            ctx = AlphabetContext(n)
            for lam in shapes_up_to(max_boxes):
                if lam.rows > n:
                    continue
                got = hall_littlewood(lam, ctx).substitute(zero)
                assert got == miwa_push(schur(lam), ctx), (n, lam.parts)

    def test_specializes_to_monomial_at_one(self):
        one = {q_var(): Polynomial.one()}
        for n, max_boxes in ((3, 4), (5, 6), (6, 6)):
            ctx = AlphabetContext(n)
            for lam in shapes_up_to(max_boxes):
                if lam.rows > n:
                    continue
                got = hall_littlewood(lam, ctx).substitute(one)
                assert got == monomial(lam, ctx), (n, lam.parts)

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

    def test_matches_frozen_golden(self):
        """Byte digests frozen from the antisymmetrize-and-divide build."""
        golden = json.loads(HL_GOLDEN.read_text())["cases"]
        cases = {
            f"{n}|{','.join(map(str, lam.parts))}"
            for n in range(3, 7)
            for lam in shapes_up_to(6)
            if lam.rows <= n
        }
        assert set(golden) == cases
        for key, want in golden.items():
            n, parts = key.split("|")
            lam = YoungDiagram(tuple(int(p) for p in parts.split(",") if p))
            text, wire = hl_bytes(hall_littlewood(lam, AlphabetContext(int(n))))
            assert hashlib.sha256(text.encode()).hexdigest() == want["text"], key
            assert hashlib.sha256(wire.encode()).hexdigest() == want["json"], key

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


class TestContexts:
    def test_variable_lists(self):
        assert [v.name for v in MiwaContext(3).variables()] == ["t1", "t2", "t3"]
        assert [v.name for v in AlphabetContext(2).variables()] == ["x1", "x2"]

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError):
            MiwaContext(-1)
        with pytest.raises(ValueError):
            AlphabetContext(-2)


class TestMiwaGolden:
    def test_matches_frozen_golden(self):
        """Byte digests of h, e, (skew) Schur, miwa_push and monomial, frozen
        before the Miwa term builder was shared."""
        golden = json.loads(MIWA_GOLDEN.read_text())["cases"]
        cases = dict(miwa_golden_cases())
        assert set(golden) == set(cases)
        for key, build in cases.items():
            text, wire = hl_bytes(build())
            assert hashlib.sha256(text.encode()).hexdigest() == golden[key]["text"], key
            assert hashlib.sha256(wire.encode()).hexdigest() == golden[key]["json"], key
