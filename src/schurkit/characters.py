"""Symmetric-group characters by the Murnaghan-Nakayama rule.

``character(shape, cycle_type)`` peels one border strip per cycle of length
at least 2, largest cycles first, weighting each removal by (-1)^height with
height = rows occupied minus one.  Shapes are beta-sets (first-column hook
lengths) packed into an int, where stripping a hook of length r moves one set
bit down by r onto a clear bit; the cycles are consumed in one loop, layer by
layer, and ``_character`` keeps the last CHARACTER_CACHE_SIZE values asked
for.  ``symfun._schur_via_characters``, the character route's Schur memo,
walks a shape's whole column of characters on a miss with the same
``_beta_set``, ``_strip`` and ``_tableaux``.

Both close their 1-cycles by one tail rule: a layer's character on a rest of
k 1-cycles is sum count * f^nu, f^nu the number of standard tableaux of the
shape nu left, counted by ``_tableaux`` from the hook-length formula.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import groupby
from math import factorial, perm

from .partitions import ConjugacyClass, YoungDiagram

__all__ = ["z_order", "character", "dimension"]

# Entries ``_character`` keeps, one per (shape, cycles >= 2) pair asked for.
# One ``verify characters --max-boxes 8`` keys 919, one per (lam, mu) pair;
# its 66 identity-class calls read the table's own entries.  One dealt
# character-route benchmark round keys 944, that sweep among them; the room
# above holds the single characters asked for between sweeps.  An LRU smaller
# than a repeated sweep would evict each entry before its next use.
CHARACTER_CACHE_SIZE = 4096


def z_order(mu: ConjugacyClass) -> int:
    """Centralizer order of a permutation of cycle type mu: prod j^kj * kj!."""
    out = 1
    for j, k in mu.multiplicities.items():
        out *= j**k * factorial(k)
    return out


def _beta_set(parts: tuple[int, ...]) -> int:
    """Bit parts[i] + m-1-i for each of the m rows, set one block per run of
    equal parts: r parts p from row i are the r bits from p + m-i-r up."""
    m, i, beta = len(parts), 0, 0
    for p, run in groupby(parts):
        r = len(list(run))
        i += r
        beta |= ((1 << r) - 1) << (p + m - i)
    return beta


def _strip(layer: dict[int, int], r: int) -> dict[int, int]:
    """The {beta-set: signed count} layer left by every strip of size r: a
    strip moves a set bit b to the clear bit b-r, signed by the parity of the
    set bits between them."""
    between = (1 << (r - 1)) - 1
    nxt: dict[int, int] = {}
    for beta, count in layer.items():
        # Bit a is set when a+r is in the beta-set and a is not.
        free = (beta & ~(beta << r)) >> r
        while free:
            low = free & -free
            free ^= low
            moved = beta ^ low ^ (low << r)
            height = (beta >> low.bit_length() & between).bit_count()
            nxt[moved] = nxt.get(moved, 0) + (-count if height & 1 else count)
    return nxt


def _tableaux(beta: int) -> int:
    """f^nu for the shape nu with beta-set beta: k! over the product of the
    hook lengths of nu's k boxes (Macdonald I.7, Stanley EC2 7.21).

    A set bit b above a clear bit c is one box, of hook length b - c, so a
    run of set bits above a run of clear bits is a block of boxes whose hooks
    are min(rows, columns) ranges of max(rows, columns) consecutive lengths.
    The ranges and k! = 1 * 2 * ... * k cancel in one sweep over the lengths
    where their count changes, one ``perm`` per stretch of constant count.
    Zero rows, the low run of set bits, have no clear bit below them and are
    shifted out first.
    """
    rest = beta >> (~beta & beta + 1).bit_length() - 1
    if not rest:
        return 1  # the empty shape, as after a class with no 1-cycles
    steps = {1: 1}  # length: change in its count, k! counted +1 and hooks -1
    get = steps.get
    below = []  # (highest bit, length) of each run of clear bits passed
    bit = width = k = 0
    while rest:
        clear = (rest & -rest).bit_length() - 1
        rest >>= clear
        rows = (~rest & rest + 1).bit_length() - 1
        rest >>= rows
        below.append((bit + clear - 1, clear))
        bit += clear
        width += clear
        k += rows * width
        for high, cols in below:
            n, m = (rows, cols) if rows <= cols else (cols, rows)
            for h in range(bit - high, bit - high + n):  # a range of m lengths from h
                steps[h] = get(h, 0) - 1
                steps[h + m] = get(h + m, 0) + 1
        bit += rows
    steps[k + 1] = get(k + 1, 0) - 1
    num = den = 1
    count = last = 0
    for h in sorted(steps):
        if count > 0:  # 1, as only k! counts up
            num *= perm(h - 1, h - last)
        elif count:
            den *= perm(h - 1, h - last) ** -count
        count += steps[h]
        last = h
    return num // den


@lru_cache(maxsize=CHARACTER_CACHE_SIZE)
def _character(parts: tuple[int, ...], cycles: tuple[int, ...]) -> int:
    """One layer per cycle, in the order given; the cycles are >= 2 only, as
    ``_key`` gives them, and the boxes left are closed by the standard-tableau
    count."""
    layer = {_beta_set(parts): 1}
    for r in cycles:
        layer = _strip(layer, r)
    return sum(count * _tableaux(beta) for beta, count in layer.items() if count)


def _key(cycle_type: ConjugacyClass) -> tuple[int, ...]:
    """The cycles ``_character`` is keyed by: cycle_type.cycles() less the
    1-cycles, which the tail rule closes and no key holds."""
    mult = cycle_type.multiplicities
    cycles: list[int] = []
    for j in sorted(mult, reverse=True):
        if j > 1:
            cycles += [j] * mult[j]
    return tuple(cycles)


def character(shape: YoungDiagram, cycle_type: ConjugacyClass) -> int:
    """Irreducible character of shape evaluated on the class of cycle_type."""
    if shape.boxes != cycle_type.weight:
        raise ValueError(
            f"shape has {shape.boxes} boxes but the cycle type has weight {cycle_type.weight}"
        )
    return _character(shape.parts, _key(cycle_type))


def dimension(shape: YoungDiagram) -> int:
    """Dimension of the irreducible labelled by shape, by the hook-length formula."""
    parts = shape.parts
    cols = shape.transpose().parts
    hooks = 1
    for i, p in enumerate(parts):
        for j in range(p):
            hooks *= (p - j) + (cols[j] - i) - 1
    return factorial(shape.boxes) // hooks
