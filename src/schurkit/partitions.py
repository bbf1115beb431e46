"""Integer partitions in both of their usual guises.

A partition is kept either as a weakly decreasing tuple of positive parts
(:class:`YoungDiagram`) or as a multiplicity map ``{part size: count}``
(:class:`ConjugacyClass`, the cycle-type encoding of a symmetric-group
conjugacy class).  Both are immutable and hashable, convert into each other,
and expose the usual diagram statistics.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from typing import NamedTuple

__all__ = [
    "YoungDiagram",
    "ConjugacyClass",
    "ShapeProfile",
    "FrobeniusCoords",
    "DRAW_SYMBOLS",
    "partitions_of",
]

# Index 4 is the octothorpe; the earlier slots are this library's choice.
DRAW_SYMBOLS = ("*", "■", "□", "●", "#")


class ShapeProfile(NamedTuple):
    """Row/column/box/diagonal counts of a diagram."""

    rows: int
    columns: int
    boxes: int
    diagonal: int


class FrobeniusCoords(NamedTuple):
    """Frobenius arm/leg coordinates, integer convention.

    ``arms[i] = parts[i] - (i+1)`` and ``legs[i]`` the same for the transpose,
    one entry per diagonal box.  Both sequences are strictly decreasing and
    ``sum(a + b + 1)`` recovers the box count.
    """

    arms: tuple[int, ...]
    legs: tuple[int, ...]


class YoungDiagram:
    """A partition as a weakly decreasing sequence of positive parts.

    The constructor accepts any integer sequence, strips trailing zeros and
    rejects anything that is not weakly decreasing with positive parts.
    Instances are immutable.
    """

    __slots__ = ("_parts",)

    def __init__(self, parts: Iterable[int] = ()):
        seq = list(parts)
        for p in seq:
            if not isinstance(p, int) or isinstance(p, bool):
                raise ValueError(f"partition parts must be integers, got {p!r}")
            if p < 0:
                raise ValueError(f"partition parts must be nonnegative, got {p}")
        while seq and seq[-1] == 0:
            seq.pop()
        for i, p in enumerate(seq):
            if p == 0:
                raise ValueError("zero part before a nonzero part")
            if i and seq[i - 1] < p:
                raise ValueError(f"parts must be weakly decreasing, got {seq[i - 1]} < {p}")
        self._parts = tuple(seq)

    @classmethod
    def _from_sorted(cls, parts: tuple[int, ...]) -> "YoungDiagram":
        # Fast path for internal callers that already hold a valid tuple.
        self = object.__new__(cls)
        self._parts = parts
        return self

    @property
    def parts(self) -> tuple[int, ...]:
        return self._parts

    @property
    def rows(self) -> int:
        return len(self._parts)

    @property
    def columns(self) -> int:
        return self._parts[0] if self._parts else 0

    @property
    def boxes(self) -> int:
        return sum(self._parts)

    @property
    def diagonal(self) -> int:
        """Durfee length: the largest d with parts[d-1] >= d."""
        d = 0
        for i, p in enumerate(self._parts):
            if p >= i + 1:
                d = i + 1
            else:
                break
        return d

    def profile(self) -> ShapeProfile:
        return ShapeProfile(self.rows, self.columns, self.boxes, self.diagonal)

    def conjugacy_class(self) -> "ConjugacyClass":
        mult: dict[int, int] = {}
        for p in self._parts:
            mult[p] = mult.get(p, 0) + 1
        return ConjugacyClass(mult)

    def transpose(self) -> "YoungDiagram":
        """Conjugate partition: column lengths of the diagram."""
        cols = [0] * self.columns
        for p in self._parts:
            for j in range(p):
                cols[j] += 1
        return YoungDiagram._from_sorted(tuple(cols))

    def frobenius(self) -> FrobeniusCoords:
        t = self.transpose().parts
        d = self.diagonal
        arms = tuple(self._parts[i] - (i + 1) for i in range(d))
        legs = tuple(t[i] - (i + 1) for i in range(d))
        return FrobeniusCoords(arms, legs)

    def contains(self, inner: "YoungDiagram") -> bool:
        """True iff inner fits inside self row by row."""
        if inner.rows > self.rows:
            return False
        return all(inner.parts[i] <= self._parts[i] for i in range(inner.rows))

    def draw(self, symbol_index: int = 4) -> str:
        """Render the diagram, one row per line, smallest part first.

        Boxes are separated by single spaces; no trailing whitespace and no
        final newline.  The empty diagram renders as the empty string.
        """
        if not 0 <= symbol_index < len(DRAW_SYMBOLS):
            raise ValueError(f"symbol_index must be in 0..{len(DRAW_SYMBOLS) - 1}")
        sym = DRAW_SYMBOLS[symbol_index]
        return "\n".join(" ".join(sym for _ in range(p)) for p in reversed(self._parts))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, YoungDiagram):
            return self._parts == other._parts
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self._parts)

    def __len__(self) -> int:
        return len(self._parts)

    def __repr__(self) -> str:
        return f"YoungDiagram({self._parts})"


class ConjugacyClass:
    """A partition as the cycle type (1^k1 2^k2 ...) of a permutation.

    Stores only the nonzero multiplicities; zero counts on input are dropped.
    """

    __slots__ = ("_mult",)

    def __init__(self, multiplicities: Mapping[int, int] | None = None):
        mult: dict[int, int] = {}
        for j, k in sorted((multiplicities or {}).items()):
            if not isinstance(j, int) or isinstance(j, bool) or j <= 0:
                raise ValueError(f"part sizes must be positive integers, got {j!r}")
            if not isinstance(k, int) or isinstance(k, bool) or k < 0:
                raise ValueError(f"multiplicities must be nonnegative integers, got {k!r}")
            if k:
                mult[j] = k
        self._mult = mult

    @property
    def multiplicities(self) -> dict[int, int]:
        return dict(self._mult)

    @property
    def weight(self) -> int:
        return sum(j * k for j, k in self._mult.items())

    def cycles(self) -> tuple[int, ...]:
        """All cycle lengths, largest first."""
        out: list[int] = []
        for j in sorted(self._mult, reverse=True):
            out.extend([j] * self._mult[j])
        return tuple(out)

    def young_diagram(self) -> YoungDiagram:
        return YoungDiagram._from_sorted(self.cycles())

    def draw(self, symbol_index: int = 4) -> str:
        return self.young_diagram().draw(symbol_index)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ConjugacyClass):
            return self._mult == other._mult
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._mult.items())))

    def __repr__(self) -> str:
        inner = ", ".join(f"{j}: {k}" for j, k in sorted(self._mult.items()))
        return f"ConjugacyClass({{{inner}}})"


def _parts_of(n: int) -> Iterator[tuple[int, ...]]:
    """The parts of every partition of n, each once, as bare tuples: one
    Kelleher-O'Sullivan accelerated loop (arXiv:0909.2331) walks the ascending
    compositions of n in lexicographic order and reads each one right to left,
    so every tuple decreases; for n=4: (1,1,1,1), (2,1,1), (3,1), (2,2), (4)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        yield ()
        return
    a = [0] * (n + 1)
    k = 1
    y = n - 1
    while k != 0:
        x = a[k - 1] + 1
        k -= 1
        while 2 * x <= y:
            a[k] = x
            y -= x
            k += 1
        ell = k + 1
        while x <= y:
            a[k] = x
            a[ell] = y
            yield tuple(a[k + 1::-1])
            x += 1
            y -= 1
        a[k] = x + y
        y = x + y - 1
        yield tuple(a[k::-1])


def partitions_of(n: int) -> Iterator[YoungDiagram]:
    """Generate all partitions of n, each exactly once, as diagrams in
    ``_parts_of``'s order; a negative n raises ValueError when iterated.  Each
    is made as ``YoungDiagram._from_sorted`` would, inline: a call per diagram
    would cost about a tenth of the walk."""
    new = object.__new__
    for parts in _parts_of(n):
        diagram = new(YoungDiagram)
        diagram._parts = parts
        yield diagram
