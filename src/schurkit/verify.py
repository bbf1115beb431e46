"""User-runnable invariant sweeps backing the `verify` subcommand.

Each family returns (name, passed, cases).  These re-run the library's core
identities over every partition up to a box bound: the Q=0/Q=1 degenerations
of Hall-Littlewood, character orthogonality, and the two independent Schur
routes agreeing.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from operator import mul

from .characters import _character, _key, character, dimension, z_order
from .partitions import ConjugacyClass, partitions_of
from .polyalgebra import Polynomial, q_var
from .symfun import AlphabetContext, hall_littlewood, miwa_push, monomial, schur, schur_via_characters

__all__ = ["MAX_BOXES_LIMIT", "SCOPES", "run_scope"]

# The CLI's bound on --max-boxes, which README and the parser help state.  Time
# does not set it: the three sweeps took 0.45 s in all at 10 boxes and 1.78 s
# at 12, all passing (2-core VM, CPython 3.11.7, in one process after the
# smaller sweeps).  Raising it changes the CLI contract (ROADMAP item 15).
MAX_BOXES_LIMIT = 8


def _at_q_zero_and_one(hl: Polynomial) -> tuple[Polynomial, Polynomial]:
    """A polynomial with integer coefficients at Q=0 and at Q=1, without
    ``substitute``: Q, the first variable, leads each monomial it is in, so
    Q=0 keeps the terms without Q and Q=1 sums each x-monomial's Q powers."""
    q = q_var()
    at_zero, at_one = {}, {}
    for mono, c in hl.terms.items():
        if mono and mono[0][0] == q:
            mono = mono[1:]
        else:
            at_zero[mono] = c
        at_one[mono] = at_one.get(mono, 0) + c.numerator
    return (Polynomial._raw(at_zero),
            Polynomial._raw({mono: Fraction(c) for mono, c in at_one.items() if c}))


def check_degenerations(max_boxes: int) -> tuple[str, bool, int]:
    cases = 0
    ok = True
    for n_vars in (3, 4):
        ctx = AlphabetContext(n_vars)
        for n in range(max_boxes + 1):
            for lam in partitions_of(n):
                if lam.rows > n_vars:
                    continue
                at_zero, at_one = _at_q_zero_and_one(hall_littlewood(lam, ctx))
                if at_zero != miwa_push(schur(lam), ctx):
                    ok = False
                if at_one != monomial(lam, ctx):
                    ok = False
                cases += 1
    return "degenerations", ok, cases


def check_characters(max_boxes: int) -> tuple[str, bool, int]:
    cases = 0
    ok = True
    for n in range(max_boxes + 1):
        shapes = list(partitions_of(n))
        classes = [mu.conjugacy_class() for mu in shapes]
        keys = [_key(mu) for mu in classes]  # once per class, as character() keys it
        table = [[_character(lam.parts, key) for key in keys] for lam in shapes]
        z = [z_order(mu) for mu in classes]
        order = factorial(n)
        sizes = [order // z_mu for z_mu in z]  # permutations of cycle type mu
        # first orthogonality over all shape pairs, times n!; rows weighted once
        for a, row_a in enumerate(table):
            weighted = list(map(mul, sizes, row_a))
            for b, row_b in enumerate(table):
                if sum(map(mul, weighted, row_b)) != (order if a == b else 0):
                    ok = False
                cases += 1
        # second orthogonality over all class pairs
        columns = list(zip(*table))
        for mu, col_mu in enumerate(columns):
            for nu, col_nu in enumerate(columns):
                if sum(map(mul, col_mu, col_nu)) != (z[mu] if mu == nu else 0):
                    ok = False
                cases += 1
        # identity class equals the hook-length dimension
        if n:
            identity = ConjugacyClass({1: n})
            for lam in shapes:
                if character(lam, identity) != dimension(lam):
                    ok = False
                cases += 1
    return "characters", ok, cases


def check_oracles(max_boxes: int) -> tuple[str, bool, int]:
    cases = 0
    ok = True
    for n in range(max_boxes + 1):
        for lam in partitions_of(n):
            if schur(lam) != schur_via_characters(lam):
                ok = False
            cases += 1
    return "oracles", ok, cases


SCOPES = {
    "degenerations": (check_degenerations,),
    "characters": (check_characters,),
    "oracles": (check_oracles,),
    "all": (check_degenerations, check_characters, check_oracles),
}


def run_scope(scope: str, max_boxes: int) -> list[tuple[str, bool, int]]:
    if scope not in SCOPES:
        raise ValueError(f"unknown scope {scope!r}")
    if not 0 <= max_boxes <= MAX_BOXES_LIMIT:
        raise ValueError(f"max_boxes must be in 0..{MAX_BOXES_LIMIT}")
    return [check(max_boxes) for check in SCOPES[scope]]
