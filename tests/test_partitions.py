import hashlib
import itertools
import json
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from schurkit import ConjugacyClass, YoungDiagram, cli, partitions_of
from oracles import boxes_of, dp_partition_counts, grid_transpose, naive_partitions

PARTITIONS_GOLDEN = Path(__file__).parent / "fixtures" / "partitions_golden.json"

random_parts = st.lists(st.integers(1, 10), max_size=8).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


def all_diagrams(max_boxes: int):
    for n in range(max_boxes + 1):
        yield from partitions_of(n)


class TestConstruction:
    def test_accepts_decreasing_parts(self):
        d = YoungDiagram((3, 2, 1))
        assert d.parts == (3, 2, 1)

    def test_accepts_lists_and_repeats(self):
        assert YoungDiagram([2, 2, 2]).parts == (2, 2, 2)

    def test_empty_partition(self):
        d = YoungDiagram(())
        assert d.parts == ()
        assert d.rows == 0
        assert d.columns == 0
        assert d.boxes == 0
        assert d.diagonal == 0

    def test_trailing_zeros_stripped(self):
        assert YoungDiagram((3, 1, 0, 0)).parts == (3, 1)
        assert YoungDiagram((0, 0)).parts == ()

    @pytest.mark.parametrize("bad", [(1, 2), (2, 3, 1), (3, -1), (-2,), (3, 0, 1)])
    def test_rejects_invalid_parts(self, bad):
        with pytest.raises(ValueError):
            YoungDiagram(bad)

    def test_rejects_non_integers(self):
        with pytest.raises(ValueError):
            YoungDiagram((2.5, 1))

    def test_equality_and_hash(self):
        assert YoungDiagram((2, 1)) == YoungDiagram([2, 1, 0])
        assert hash(YoungDiagram((2, 1))) == hash(YoungDiagram((2, 1)))
        assert YoungDiagram((2, 1)) != YoungDiagram((3,))

    def test_repr(self):
        assert repr(YoungDiagram((2, 1))) == "YoungDiagram((2, 1))"


class TestProfile:
    def test_staircase(self):
        assert YoungDiagram((3, 2, 1)).profile() == (3, 3, 6, 2)

    def test_single_row(self):
        assert YoungDiagram((5,)).profile() == (1, 5, 5, 1)

    def test_diagonal_counts_square_fit(self):
        # Durfee side = largest d with at least d parts >= d.
        assert YoungDiagram((4, 4, 4, 4)).diagonal == 4
        assert YoungDiagram((1, 1, 1, 1)).diagonal == 1


class TestConjugacyClass:
    def test_from_equal_parts(self):
        assert YoungDiagram((2, 2, 2)).conjugacy_class().multiplicities == {2: 3}

    def test_round_trip_small(self):
        for diagram in all_diagrams(12):
            assert diagram.conjugacy_class().young_diagram() == diagram

    def test_cycles_largest_first(self):
        assert ConjugacyClass({1: 2, 3: 1}).cycles() == (3, 1, 1)

    def test_weight(self):
        assert ConjugacyClass({1: 1, 2: 2}).weight == 5
        assert ConjugacyClass({}).weight == 0

    @pytest.mark.parametrize("bad", [{0: 1}, {-2: 1}, {2: -1}])
    def test_rejects_bad_multiplicities(self, bad):
        with pytest.raises(ValueError):
            ConjugacyClass(bad)

    def test_zero_counts_dropped(self):
        assert ConjugacyClass({3: 0, 1: 2}).multiplicities == {1: 2}

    def test_repr_and_hash(self):
        assert repr(ConjugacyClass({2: 1, 1: 3})) == "ConjugacyClass({1: 3, 2: 1})"
        assert hash(ConjugacyClass({3: 0, 1: 2})) == hash(ConjugacyClass({1: 2}))
        assert len({ConjugacyClass({1: 2}), ConjugacyClass({1: 2}), ConjugacyClass({2: 1})}) == 2


class TestTranspose:
    def test_example(self):
        assert YoungDiagram((3, 1)).transpose().parts == (2, 1, 1)

    def test_matches_grid_oracle(self):
        for diagram in all_diagrams(10):
            assert diagram.transpose().parts == grid_transpose(diagram.parts)

    def test_involution(self):
        for diagram in all_diagrams(10):
            assert diagram.transpose().transpose() == diagram

    @given(random_parts)
    def test_involution_random(self, parts):
        d = YoungDiagram(parts)
        assert d.transpose().transpose() == d

    def test_profile_swaps_rows_and_columns(self):
        for diagram in all_diagrams(8):
            rows, cols, boxes, diag = diagram.profile()
            assert diagram.transpose().profile() == (cols, rows, boxes, diag)


class TestFrobenius:
    def test_example(self):
        coords = YoungDiagram((4, 1)).frobenius()
        assert coords.arms == (3,)
        assert coords.legs == (1,)

    def test_boxes_identity(self):
        for diagram in all_diagrams(10):
            coords = diagram.frobenius()
            assert len(coords.arms) == diagram.diagonal
            total = sum(a + b + 1 for a, b in zip(coords.arms, coords.legs))
            assert total == diagram.boxes

    def test_transpose_swaps_arms_and_legs(self):
        for diagram in all_diagrams(10):
            coords = diagram.frobenius()
            flipped = diagram.transpose().frobenius()
            assert flipped.arms == coords.legs
            assert flipped.legs == coords.arms

    def test_strictly_decreasing(self):
        for diagram in all_diagrams(10):
            coords = diagram.frobenius()
            assert all(a > b for a, b in zip(coords.arms, coords.arms[1:]))
            assert all(a > b for a, b in zip(coords.legs, coords.legs[1:]))


class TestContainment:
    def test_examples(self):
        assert YoungDiagram((3, 2)).contains(YoungDiagram((2, 1)))
        assert not YoungDiagram((2, 2)).contains(YoungDiagram((3,)))
        assert not YoungDiagram((3,)).contains(YoungDiagram((1, 1)))

    def test_matches_box_subset(self):
        diagrams = list(all_diagrams(8))
        for outer in diagrams:
            outer_boxes = boxes_of(outer.parts)
            for inner in diagrams:
                expected = boxes_of(inner.parts) <= outer_boxes
                assert outer.contains(inner) == expected

    def test_partial_order(self):
        """Reflexive, antisymmetric, transitive on partitions of n <= 12."""
        diagrams = list(all_diagrams(12))
        index = {d: i for i, d in enumerate(diagrams)}
        above = []
        for low in diagrams:
            mask = 0
            for high in diagrams:
                if high.contains(low):
                    mask |= 1 << index[high]
            above.append(mask)
        for i, d in enumerate(diagrams):
            assert above[i] >> i & 1, "not reflexive"
        for i, d in enumerate(diagrams):
            for j in range(i + 1, len(diagrams)):
                assert not (above[i] >> j & 1 and above[j] >> i & 1), "not antisymmetric"
        for i in range(len(diagrams)):
            mask = above[i]
            j = 0
            while mask >> j:
                if mask >> j & 1:
                    assert above[j] | above[i] == above[i], "not transitive"
                j += 1


class TestEnumeration:
    def test_counts_match_dynamic_program(self):
        counts = dp_partition_counts(30)
        for n in range(31):
            assert sum(1 for _ in partitions_of(n)) == counts[n]

    def test_sets_match_recursive_oracle(self):
        for n in range(13):
            produced = {d.parts for d in partitions_of(n)}
            assert produced == set(naive_partitions(n))

    def test_no_duplicates(self):
        for n in range(26):
            listed = [d.parts for d in partitions_of(n)]
            assert len(listed) == len(set(listed))

    def test_emission_order(self):
        assert [d.parts for d in partitions_of(4)] == [
            (1, 1, 1, 1),
            (2, 1, 1),
            (3, 1),
            (2, 2),
            (4,),
        ]
        assert [d.parts for d in partitions_of(0)] == [()]
        assert [d.parts for d in partitions_of(1)] == [(1,)]

    def test_list_matches_frozen_golden(self):
        """Order is the contract: `list n` prints the frozen bytes for every
        n <= 25."""
        golden = json.loads(PARTITIONS_GOLDEN.read_text())["cases"]
        assert set(golden) == {str(n) for n in range(26)}
        for n in range(26):
            status, text = cli.run(["list", str(n)])
            assert status == 0
            assert hashlib.sha256(text.encode()).hexdigest() == golden[str(n)], n

    def test_order_is_deterministic(self):
        assert list(partitions_of(9)) == list(partitions_of(9))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            list(partitions_of(-1))


class TestDraw:
    def test_staircase_with_hash(self):
        assert YoungDiagram((3, 2, 1)).draw(4) == "#\n# #\n# # #"

    def test_square(self):
        assert YoungDiagram((2, 2)).draw(4) == "# #\n# #"

    def test_default_symbol(self):
        assert YoungDiagram((2, 1)).draw() == "#\n# #"

    def test_other_symbols(self):
        art = YoungDiagram((2,)).draw(0)
        assert "\n" not in art
        assert len(art.split()) == 2

    def test_empty_diagram(self):
        assert YoungDiagram(()).draw() == ""

    @pytest.mark.parametrize("bad", [-1, 5, 9])
    def test_rejects_bad_symbol_index(self, bad):
        with pytest.raises(ValueError):
            YoungDiagram((1,)).draw(bad)

    def test_conjugacy_class_draws_its_diagram(self):
        cc = ConjugacyClass({1: 1, 2: 1})
        assert cc.draw() == cc.young_diagram().draw()
