"""Acceptance gate: one test per shipped guarantee, one printed line each.

Every comparison is exact rational equality; the only tolerances are the
stated wall-clock budgets.  Run with ``pytest tests/test_acceptance.py -s``
to see the per-criterion lines as they pass.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

from schurkit import (
    AlphabetContext,
    ConjugacyClass,
    Polynomial,
    YoungDiagram,
    canonical_text,
    character,
    dimension,
    elementary,
    hall_littlewood,
    homogeneous,
    miwa_push,
    monomial,
    partitions_of,
    q_var,
    schur,
    schur_via_characters,
    x_var,
    z_order,
)
from schurkit.cli import run
from oracles import dp_partition_counts

H3 = "t1**3/6 + t1*t2 + t3"
E3 = "t1**3/6 - t1*t2 + t3"
S321 = "t1**6/45 - t1**3*t3/3 + t1*t5 - t3**2"
M321 = (
    "x1**3*x2**2*x3 + x1**3*x2*x3**2 + x1**2*x2**3*x3 + x1**2*x2*x3**3"
    " + x1*x2**3*x3**2 + x1*x2**2*x3**3"
)
P321 = (
    "-Q**2*x1**2*x2**2*x3**2 - Q*x1**2*x2**2*x3**2 + x1**3*x2**2*x3"
    " + x1**3*x2*x3**2 + x1**2*x2**3*x3 + 2*x1**2*x2**2*x3**2"
    " + x1**2*x2*x3**3 + x1*x2**3*x3**2 + x1*x2**2*x3**3"
)


@contextmanager
def criterion(number, label, budget=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({label}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    if budget is not None:
        assert elapsed < budget, f"criterion {number} took {elapsed:.2f}s, budget {budget}s"
    print(f"criterion {number} ({label}): PASS ({elapsed:.2f}s)")


def shapes_up_to(max_boxes):
    for n in range(max_boxes + 1):
        yield from partitions_of(n)


def test_criterion_1_golden_fixtures():
    with criterion(1, "golden fixtures", budget=1.0):
        assert canonical_text(homogeneous(3)) == H3
        assert canonical_text(elementary(3)) == E3
        assert canonical_text(schur(YoungDiagram((3, 2, 1)))) == S321

        x1, x2, x3 = (Polynomial.variable(x_var(i)) for i in (1, 2, 3))
        q = Polynomial.variable(q_var())

        m = monomial(YoungDiagram((3, 2, 1)), AlphabetContext(3))
        assert canonical_text(m) == M321
        factored_m = (x1 * x2 * x3) * (
            x1**2 * x2 + x1**2 * x3 + x1 * x2**2 + x1 * x3**2 + x2**2 * x3 + x2 * x3**2
        )
        assert m == factored_m

        p = hall_littlewood(YoungDiagram((3, 2, 1)), AlphabetContext(3))
        assert canonical_text(p) == P321
        factored_p = (x1 * x2 * x3) * (
            -(q**2) * x1 * x2 * x3
            - q * x1 * x2 * x3
            + x1**2 * x2
            + x1**2 * x3
            + x1 * x2**2
            + x1 * x2 * x3 * 2
            + x1 * x3**2
            + x2**2 * x3
            + x2 * x3**2
        )
        assert p == factored_p


def test_criterion_2_q_degenerations():
    with criterion(2, "Q-degenerations", budget=60.0):
        at_zero = {q_var(): Polynomial.zero()}
        at_one = {q_var(): Polynomial.one()}
        cases = 0
        for n_vars in (3, 4):
            ctx = AlphabetContext(n_vars)
            for lam in shapes_up_to(6):
                if lam.rows > n_vars:
                    continue
                deformed = hall_littlewood(lam, ctx)
                assert deformed.substitute(at_zero) == miwa_push(schur(lam), ctx)
                assert deformed.substitute(at_one) == monomial(lam, ctx)
                cases += 1
        assert cases == 50


def test_criterion_3_dual_oracle_schur():
    with criterion(3, "dual-oracle Schur", budget=30.0):
        count = 0
        for lam in shapes_up_to(8):
            assert schur(lam) == schur_via_characters(lam)
            count += 1
        assert count == 67


def test_criterion_4_character_orthogonality():
    with criterion(4, "character orthogonality"):
        for n in range(9):
            shapes = list(partitions_of(n))
            classes = [d.conjugacy_class() for d in shapes]
            table = {s: [character(s, cc) for cc in classes] for s in shapes}
            for a in shapes:
                for b in shapes:
                    total = sum(
                        Fraction(x * y, z_order(cc))
                        for x, y, cc in zip(table[a], table[b], classes)
                    )
                    assert total == (1 if a == b else 0)
            for i, mu in enumerate(classes):
                for j in range(len(classes)):
                    total = sum(table[s][i] * table[s][j] for s in shapes)
                    assert total == (z_order(mu) if i == j else 0)
        for n in range(11):
            identity = ConjugacyClass({1: n} if n else {})
            for lam in partitions_of(n):
                assert character(lam, identity) == dimension(lam)


def test_criterion_5_partition_enumeration():
    with criterion(5, "partition enumeration"):
        counts = dp_partition_counts(60)
        assert counts[60] == 966467
        for n in range(41):
            produced = [d.parts for d in partitions_of(n)]
            assert len(produced) == counts[n]
            assert len(set(produced)) == len(produced)
            for parts in produced:
                d = YoungDiagram(parts)
                cc = d.conjugacy_class()
                assert cc.young_diagram() == d
                assert cc.young_diagram().conjugacy_class() == cc
        for n in range(41, 60):
            assert sum(1 for _ in partitions_of(n)) == counts[n]
        start = time.perf_counter()
        assert sum(1 for _ in partitions_of(60)) == 966467
        assert time.perf_counter() - start < 10.0


def test_criterion_6_structural_properties():
    with criterion(6, "structural properties"):
        for lam in shapes_up_to(10):
            assert lam.transpose().transpose() == lam
            coords = lam.frobenius()
            assert sum(a + b + 1 for a, b in zip(coords.arms, coords.legs)) == lam.boxes
        small = list(shapes_up_to(6))
        for lam in small:
            for mu in small:
                if not lam.contains(mu):
                    assert schur(lam, mu) == Polynomial.zero()
        for n in range(11):
            assert schur(YoungDiagram((n,) if n else ())) == homogeneous(n)
            assert schur(YoungDiagram((1,) * n)) == elementary(n)


def test_criterion_7_cli_contract():
    with criterion(7, "CLI contract"):
        assert run(["schur", "3,2,1"]) == (0, S321)
        assert run(["draw", "3,2,1", "--symbol", "4"]) == (0, "#\n# #\n# # #")
        assert run(["character", "1,1", "--cycles", "2:1"]) == (0, "-1")

        assert run(["verify", "all", "--max-boxes", "6"]) == (0, "\n".join([
            "degenerations: pass (50 cases)",
            "characters: pass (449 cases)",
            "oracles: pass (30 cases)",
        ]))

        for argv in (
            ["schur", "3,2,1"],
            ["verify", "characters", "--max-boxes", "5"],
        ):
            assert run(argv) == run(argv)
        outputs = {
            run(["hall-littlewood", "3,2,1", "--vars", "4", "--workers", str(w)])
            for w in (1, 2, 3)
        }
        assert len(outputs) == 1
