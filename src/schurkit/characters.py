"""Symmetric-group characters by the Murnaghan-Nakayama rule.

``character(shape, cycle_type)`` peels one border strip per cycle, largest
cycles first, weighting each removal by (-1)^height with height = rows
occupied minus one.  Shapes are beta-sets (first-column hook lengths) packed
into an int, where stripping a hook of length r moves one set bit down by r
onto a clear bit; the cycles are consumed in one loop, layer by layer.
"""

from __future__ import annotations

from functools import cache
from math import factorial

from .partitions import ConjugacyClass, YoungDiagram

__all__ = ["z_order", "character", "dimension"]


def z_order(mu: ConjugacyClass) -> int:
    """Centralizer order of a permutation of cycle type mu: prod j^kj * kj!."""
    out = 1
    for j, k in mu.multiplicities.items():
        out *= j**k * factorial(k)
    return out


@cache
def _character(parts: tuple[int, ...], cycles: tuple[int, ...]) -> int:
    """One {beta-set: signed count} layer per cycle.  The beta-set has bit
    parts[i] + m-1-i for each of the m rows; a strip of size r moves a set bit
    b to the clear bit b-r, signed by the parity of the set bits between them.
    Only the empty shape's beta-set survives the last cycle."""
    m = len(parts)
    layer = {sum(1 << (p + m - 1 - i) for i, p in enumerate(parts)): 1}
    for r in cycles:
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
        layer = nxt
    return sum(layer.values())


def character(shape: YoungDiagram, cycle_type: ConjugacyClass) -> int:
    """Irreducible character of shape evaluated on the class of cycle_type."""
    if shape.boxes != cycle_type.weight:
        raise ValueError(
            f"shape has {shape.boxes} boxes but the cycle type has weight {cycle_type.weight}"
        )
    return _character(shape.parts, cycle_type.cycles())


def dimension(shape: YoungDiagram) -> int:
    """Dimension of the irreducible labelled by shape, by the hook-length formula."""
    parts = shape.parts
    cols = shape.transpose().parts
    hooks = 1
    for i, p in enumerate(parts):
        for j in range(p):
            hooks *= (p - j) + (cols[j] - i) - 1
    return factorial(shape.boxes) // hooks
