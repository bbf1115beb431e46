"""Symmetric-group characters by the Murnaghan-Nakayama rule.

``character(shape, cycle_type)`` peels one border strip per cycle, largest
cycles first, weighting each removal by (-1)^height with height = rows
occupied minus one.  Shapes are beta-sets (first-column hook lengths) packed
into an int, where stripping a hook of length r moves one set bit down by r
onto a clear bit; the cycles are consumed in one loop, layer by layer.
``_column(parts)``, behind ``schur_via_characters``, gives a shape's whole
column of characters from one walk over the cycle types with the same strip
step: cycle types that share leading cycles share their layers, and a rest of
1-cycles is closed in one step by the standard-tableau counts of the shapes
left.
"""

from __future__ import annotations

from functools import cache
from math import factorial, prod

from .partitions import ConjugacyClass, YoungDiagram

__all__ = ["z_order", "character", "dimension"]


def z_order(mu: ConjugacyClass) -> int:
    """Centralizer order of a permutation of cycle type mu: prod j^kj * kj!."""
    out = 1
    for j, k in mu.multiplicities.items():
        out *= j**k * factorial(k)
    return out


def _beta_set(parts: tuple[int, ...]) -> int:
    """Bit parts[i] + m-1-i for each of the m rows."""
    m = len(parts)
    return sum(1 << (p + m - 1 - i) for i, p in enumerate(parts))


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


@cache
def _character(parts: tuple[int, ...], cycles: tuple[int, ...]) -> int:
    """One layer per cycle; only the empty shape's beta-set survives the last
    cycle."""
    layer = {_beta_set(parts): 1}
    for r in cycles:
        layer = _strip(layer, r)
    return sum(layer.values())


@cache
def _column(parts: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """The shape's nonzero characters, {cycles, largest first: value}.

    One walk over the cycle types: a node is a prefix of cycles >= 2 with its
    layer, and a child strips one more cycle, no larger than the last.  Padded
    with 1-cycles up to the weight, a prefix is a cycle type whose character is
    sum count * f^nu over its layer, f^nu the number of standard tableaux of
    the shape nu with beta-set b_1 < ... < b_m and k boxes, which is
    k! * prod_{i<j} (b_j - b_i) / prod_i b_i!.  An empty layer has no nonzero
    character below it.
    """
    tableaux: dict[int, int] = {}  # f^nu by beta-set
    column = {}
    stack = [((), {_beta_set(parts): 1}, sum(parts))]
    while stack:
        prefix, layer, k = stack.pop()
        chi = 0
        for beta, count in layer.items():
            f = tableaux.get(beta)
            if f is None:
                b = [i for i in range(beta.bit_length()) if beta >> i & 1]
                gaps = prod(y - x for i, x in enumerate(b) for y in b[i + 1:])
                f = tableaux[beta] = factorial(k) * gaps // prod(map(factorial, b))
            chi += count * f
        if chi:
            column[prefix + (1,) * k] = chi
        for r in range(min(prefix[-1] if prefix else k, k), 1, -1):
            nxt = _strip(layer, r)
            if nxt:
                stack.append((prefix + (r,), nxt, k - r))
    return column


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
