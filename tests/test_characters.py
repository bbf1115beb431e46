import hashlib
import json
import time
from fractions import Fraction
from math import comb, factorial, prod
from pathlib import Path

import pytest

from schurkit import (ConjugacyClass, YoungDiagram, character, dimension, partitions_of,
                      schur_via_characters, z_order)
from schurkit import characters, partitions, symfun
from schurkit.characters import _beta_set, _character, _tableaux
from schurkit.verify import check_characters

from oracles import frobenius_character

# Rows are shapes, columns are classes in the listed order.  Both tables are
# the classic ones; the entries can be rechecked by hand from fixed points
# and signs.
N3_CLASSES = [{1: 3}, {1: 1, 2: 1}, {3: 1}]
N3_TABLE = {
    (3,): [1, 1, 1],
    (2, 1): [2, 0, -1],
    (1, 1, 1): [1, -1, 1],
}

N4_CLASSES = [{1: 4}, {1: 2, 2: 1}, {2: 2}, {1: 1, 3: 1}, {4: 1}]
N4_TABLE = {
    (4,): [1, 1, 1, 1, 1],
    (3, 1): [3, 1, -1, 0, -1],
    (2, 2): [2, 0, 2, -1, 0],
    (2, 1, 1): [3, -1, -1, 0, 1],
    (1, 1, 1, 1): [1, -1, 1, 1, -1],
}


CHARACTER_GOLDEN = Path(__file__).parent / "fixtures" / "character_golden.json"


def classes_of(n):
    return [d.conjugacy_class() for d in partitions_of(n)]


def column(lam):
    """The shape's nonzero characters, {cycles, largest first: value}, read
    from its character-route Schur polynomial: the term of a cycle type with
    k_j cycles of length j is chi * prod_j t_j^{k_j} / k_j!."""
    out = {}
    for mono, c in schur_via_characters(lam).terms.items():
        chi = c * prod(factorial(e) for _, e in mono)
        assert chi.denominator == 1, (lam.parts, mono)
        out[tuple(v.index for v, e in reversed(mono) for _ in range(e))] = chi.numerator
    return out


def key(cycles):
    """Of cycles given largest first, as cc.cycles() gives them, the cycles
    >= 2: the key character() gives _character."""
    return tuple(r for r in cycles if r > 1)


class TestZOrder:
    def test_examples(self):
        assert z_order(ConjugacyClass({})) == 1
        assert z_order(ConjugacyClass({1: 3})) == 6
        assert z_order(ConjugacyClass({2: 2})) == 8
        assert z_order(ConjugacyClass({1: 1, 2: 1, 3: 1})) == 6

    def test_sums_to_group_order(self):
        for n in range(9):
            total = sum(
                Fraction(factorial(n), z_order(cc)) for cc in classes_of(n)
            )
            assert total == factorial(n)


class TestKnownTables:
    @pytest.mark.parametrize("shape,row", N3_TABLE.items())
    def test_n3(self, shape, row):
        lam = YoungDiagram(shape)
        got = [character(lam, ConjugacyClass(c)) for c in N3_CLASSES]
        assert got == row

    @pytest.mark.parametrize("shape,row", N4_TABLE.items())
    def test_n4(self, shape, row):
        lam = YoungDiagram(shape)
        got = [character(lam, ConjugacyClass(c)) for c in N4_CLASSES]
        assert got == row

    def test_empty_shape(self):
        assert character(YoungDiagram(()), ConjugacyClass({})) == 1

    def test_sign_of_a_transposition(self):
        assert character(YoungDiagram((1, 1)), ConjugacyClass({2: 1})) == -1

    def test_trivial_shape_is_constantly_one(self):
        for n in range(1, 7):
            lam = YoungDiagram((n,))
            assert all(character(lam, cc) == 1 for cc in classes_of(n))

    def test_sign_shape_is_parity(self):
        for n in range(1, 7):
            lam = YoungDiagram((1,) * n)
            for cc in classes_of(n):
                length = sum(cc.multiplicities.values())
                assert character(lam, cc) == (-1) ** (n - length)

    def test_sign_character_on_fifteen_hundred_boxes(self):
        lam = YoungDiagram((1,) * 1500)
        assert character(lam, ConjugacyClass({2: 749, 1: 2})) == -1

    def test_weight_mismatch_rejected(self):
        with pytest.raises(ValueError):
            character(YoungDiagram((2, 1)), ConjugacyClass({2: 1}))

    def test_matches_frozen_golden(self):
        """Digests of the full tables for n <= 14, frozen from the recursive
        border-strip build, from one character per call and from columns;
        and single characters with long tails of 1-cycles, frozen from the
        build that stripped one 1-cycle at a time."""
        frozen = json.loads(CHARACTER_GOLDEN.read_text())
        for case in frozen["tails"]:
            lam = YoungDiagram([p for p, count in case["shape"] for _ in range(count)])
            cc = ConjugacyClass(dict(map(tuple, case["cycles"])))
            assert str(character(lam, cc)) == case["value"], (case["shape"], case["cycles"])
        golden = frozen["cases"]
        assert set(golden) == {str(n) for n in range(15)}
        for n in range(15):
            classes = classes_of(n)
            shapes = list(partitions_of(n))
            rows = [[character(s, cc) for cc in classes] for s in shapes]
            columns = [[col.get(cc.cycles(), 0) for cc in classes]
                       for col in map(column, shapes)]
            for table in (rows, columns):
                wire = json.dumps(table, separators=(",", ":"))
                assert hashlib.sha256(wire.encode()).hexdigest() == golden[str(n)], n


class TestOrthogonality:
    def test_rows(self):
        """Sum over classes of chi(lam) chi(rho) / z equals [lam == rho]."""
        for n in range(7):
            shapes = list(partitions_of(n))
            classes = classes_of(n)
            table = {
                s: [character(s, cc) for cc in classes] for s in shapes
            }
            for a in shapes:
                for b in shapes:
                    total = sum(
                        Fraction(x * y, z_order(cc))
                        for x, y, cc in zip(table[a], table[b], classes)
                    )
                    assert total == (1 if a == b else 0)

    def test_columns(self):
        """Sum over shapes of chi(mu) chi(nu) equals z(mu) [mu == nu]."""
        for n in range(7):
            shapes = list(partitions_of(n))
            classes = classes_of(n)
            table = {
                s: [character(s, cc) for cc in classes] for s in shapes
            }
            for i, mu in enumerate(classes):
                for j, nu in enumerate(classes):
                    total = sum(table[s][i] * table[s][j] for s in shapes)
                    assert total == (z_order(mu) if i == j else 0)

    def test_sweep_runs_on_ints(self, no_fraction_arithmetic):
        """The verify sweep checks both relations without Fraction arithmetic."""
        assert check_characters(8) == ("characters", True, 1904)


class TestStructure:
    def test_transpose_twist(self):
        """chi of the transpose is the sign twist, for n <= 8."""
        for n in range(9):
            for lam in partitions_of(n):
                flipped = lam.transpose()
                for cc in classes_of(n):
                    length = sum(cc.multiplicities.values())
                    sign = (-1) ** (n - length)
                    assert character(flipped, cc) == sign * character(lam, cc)

    def test_cycle_order_irrelevant(self):
        """The layered loop gives one value no matter how cycles are fed in."""
        for n in range(8):
            for lam in partitions_of(n):
                for cc in classes_of(n):
                    descending = key(cc.cycles())
                    ascending = descending[::-1]
                    assert _character(lam.parts, ascending) == _character(
                        lam.parts, descending
                    )


class TestFrobeniusOracle:
    def test_matches_frobenius_formula(self):
        """Every character for n <= 7, one at a time and from the shape's
        column, against the coefficient of x^(lam+delta) in a_delta * p_mu."""
        for n in range(8):
            for lam in partitions_of(n):
                col = column(lam)
                for cc in classes_of(n):
                    want = frobenius_character(lam.parts, cc.cycles())
                    assert character(lam, cc) == want, (lam.parts, cc.cycles())
                    assert col.get(cc.cycles(), 0) == want, (lam.parts, cc.cycles())


class TestColumn:
    def test_matches_one_character_per_call(self):
        """A shape's column, read from its character-route Schur terms, is
        its nonzero characters, for n <= 12."""
        for n in range(13):
            classes = [mu.parts for mu in partitions_of(n)]
            for lam in partitions_of(n):
                pointwise = {mu: _character(lam.parts, key(mu)) for mu in classes}
                assert column(lam) == {mu: x for mu, x in pointwise.items() if x}, lam.parts

    def test_character_route_schur_uses_only_the_column(self, monkeypatch):
        """A 28-box shape walks one column, once across repeated calls, and
        not p(28) character entries, and its terms come from the column's
        nonzero characters alone: the oracle walks no cycle types and shares
        nothing with h and e."""
        def refuse(*args):
            raise AssertionError("the character route left its column")

        walked = []

        def counted(parts):
            walked.append(parts)
            return _beta_set(parts)

        for name in ("_parts_of", "homogeneous", "elementary"):
            monkeypatch.setattr(symfun, name, refuse)
        monkeypatch.setattr(symfun, "_beta_set", counted)
        symfun._schur_via_characters.cache_clear()
        before = _character.cache_info()[:2]  # hits, misses
        lam = YoungDiagram((7, 6, 5, 4, 3, 2, 1))
        poly = schur_via_characters(lam)
        for _ in range(3):
            assert schur_via_characters(YoungDiagram(lam.parts)) is poly
        assert _character.cache_info()[:2] == before
        assert walked == [lam.parts]
        assert len(poly.terms) == len(column(lam)) == 159

    def test_one_class_walks_one_cycle_type(self, monkeypatch):
        """character() on 1000 fixed points peels one cycle type, never a
        column of p(1000) of them."""
        def refuse(*args):
            raise AssertionError("character() walked a column")

        monkeypatch.setattr(symfun, "_schur_via_characters", refuse)
        for name in ("_parts_of", "partitions_of"):
            monkeypatch.setattr(partitions, name, refuse)
        _character.cache_clear()
        assert character(YoungDiagram((1000,)), ConjugacyClass({1: 1000})) == 1
        assert _character.cache_info().misses == 1


class TestTail:
    def test_tableaux_is_the_hook_length_dimension(self):
        """The tail rule's f^nu equals dimension's hook-length product on every
        shape of at most 12 boxes, zero rows or not, and on wide shapes."""
        for n in range(13):
            for lam in partitions_of(n):
                for zeros in (0, 1, 4):
                    assert _tableaux(_beta_set(lam.parts + (0,) * zeros)) == dimension(lam), lam.parts
        for parts in ((40, 40, 20), (30,) * 3 + (1,) * 25, (9, 9, 7, 7, 7, 2, 2, 1)):
            assert _tableaux(_beta_set(parts)) == dimension(YoungDiagram(parts)), parts

    def test_wide_shapes_in_closed_form(self):
        assert _tableaux(_beta_set((10**6,))) == 1
        assert _tableaux(_beta_set((1,) * 3000)) == 1
        assert _tableaux(_beta_set((500,) + (1,) * 500)) == comb(999, 500)
        assert _tableaux(_beta_set((3000, 3000))) == comb(6000, 3000) // 3001
        assert _tableaux(_beta_set((2,) * 3000)) == comb(6000, 3000) // 3001

    def test_beta_set_is_one_bit_per_row(self):
        """The blocks per run of equal parts set the bit parts[i] + m-1-i of
        each row, zero rows included."""
        def per_row(parts):
            m = len(parts)
            return sum(1 << (p + m - 1 - i) for i, p in enumerate(parts))

        for n in range(13):
            for lam in partitions_of(n):
                for zeros in range(4):
                    parts = lam.parts + (0,) * zeros
                    assert _beta_set(parts) == per_row(parts), parts
        for parts in ((1,) * 1500, (500,) + (1,) * 500, (10**6,)):
            assert _beta_set(parts) == per_row(parts), parts[:2]

    def test_long_column_of_fixed_points_in_budget(self):
        """(1^200000) at the identity builds its beta-set one block per run,
        not one shifted int per row, which is quadratic in the rows."""
        lam, cc = YoungDiagram((1,) * 200000), ConjugacyClass({1: 200000})
        _character.cache_clear()
        start = time.perf_counter()
        assert character(lam, cc) == 1
        assert time.perf_counter() - start < 0.25

    def test_fixed_points_stay_out_of_the_cache_key(self):
        """A class of a thousand fixed points is cached under no cycles at
        all: the 1-cycles are closed by the tail rule, not stripped."""
        _character.cache_clear()
        assert character(YoungDiagram((1000,)), ConjugacyClass({1: 1000})) == 1
        info = _character.cache_info()
        assert info.currsize == 1
        assert _character((1000,), ()) == 1
        assert _character.cache_info().hits == info.hits + 1

    def test_no_door_strips_a_one_cycle(self, monkeypatch):
        """Neither character() nor the verify sweep hands _character a
        1-cycle: the sweep still passes, and character() reads the entry
        under the class's cycles >= 2, for every class of at most 8 boxes."""
        strip = characters._strip

        def strip_no_one_cycle(layer, r):
            assert r > 1, "a 1-cycle was stripped"
            return strip(layer, r)

        monkeypatch.setattr(characters, "_strip", strip_no_one_cycle)
        _character.cache_clear()
        assert check_characters(8) == ("characters", True, 1904)
        misses = _character.cache_info().misses
        for n in range(9):
            for lam in partitions_of(n):
                for cc in classes_of(n):
                    assert character(lam, cc) == _character(lam.parts, key(cc.cycles()))
        assert _character.cache_info().misses == misses  # the sweep's own keys


class TestDimension:
    @pytest.mark.parametrize(
        "shape,expected",
        [((), 1), ((5,), 1), ((1, 1, 1, 1), 1), ((2, 1), 2), ((2, 2), 2), ((3, 1), 3), ((4, 2), 9), ((3, 2, 1), 16)],
    )
    def test_hook_values(self, shape, expected):
        assert dimension(YoungDiagram(shape)) == expected

    def test_matches_identity_character(self):
        for n in range(9):
            identity = ConjugacyClass({1: n} if n else {})
            for lam in partitions_of(n):
                assert dimension(lam) == character(lam, identity)

    def test_squares_sum_to_group_order(self):
        for n in range(9):
            assert sum(dimension(lam) ** 2 for lam in partitions_of(n)) == factorial(n)
