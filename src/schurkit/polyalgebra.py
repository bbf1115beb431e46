"""Exact sparse multivariate polynomials over rational coefficients.

Three variable families exist: the power-sum coordinates ``t1, t2, ...``, the
alphabet ``x1, x2, ...`` and the lone deformation parameter ``Q``.  Variables
are (kind, index) tuples ordered Q < t1 < t2 < ... < x1 < x2 < ...; a monomial
is a tuple of (variable, exponent) pairs in that order and a polynomial a map
from monomials to nonzero Fractions.  All arithmetic is exact; there is no
floating point here.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from collections.abc import Mapping
from typing import NamedTuple

__all__ = [
    "Variable",
    "Monomial",
    "Polynomial",
    "ExactDivisionError",
    "t_var",
    "x_var",
    "q_var",
    "canonical_text",
    "exact_divide",
    "determinant",
    "to_term_list",
    "from_term_list",
]


class Variable(NamedTuple("Variable", [("kind", str), ("index", int)])):
    """A typed variable: Q, or t/x with a positive index.  Tuple order is the
    canonical order: "Q" < "t" < "x", and indices compare as ints (t2 < t10)."""

    __slots__ = ()

    def __new__(cls, kind: str, index: int = 0):
        if kind not in ("Q", "t", "x"):
            raise ValueError(f"unknown variable kind {kind!r}")
        if type(index) is not int:
            raise ValueError(f"variable index must be an int, got {index!r}")
        if kind == "Q":
            if index != 0:
                raise ValueError("Q carries no index")
        elif index < 1:
            raise ValueError(f"{kind}-variables need a positive index")
        return super().__new__(cls, kind, index)

    @classmethod
    def _make(cls, iterable) -> "Variable":
        # namedtuple's _make (and so _replace) would skip the checks above.
        return cls(*iterable)

    @property
    def name(self) -> str:
        return "Q" if self.kind == "Q" else f"{self.kind}{self.index}"

    def __repr__(self) -> str:
        return self.name


def t_var(i: int) -> Variable:
    return Variable("t", i)


def x_var(i: int) -> Variable:
    return Variable("x", i)


def q_var() -> Variable:
    return Variable("Q")


# A monomial is a tuple of (Variable, exponent) pairs: exponents positive,
# variables distinct and ascending.  The empty tuple is the unit monomial.
Monomial = tuple[tuple[Variable, int], ...]

# Sorts after every (Variable, -exponent) pair, since "y" > "x".
_SENTINEL = (("y",),)


def _mono_key(mono: Monomial):
    """Sort key realising descending lexicographic order on exponent vectors.

    Walking variables in ascending order, a larger exponent at the first
    differing variable makes the larger monomial; the key inverts exponents so
    that plain ascending tuple order on keys is exactly that descending order.
    The sentinel makes a monomial whose support is a strict prefix of
    another's compare correctly (fewer variables = smaller monomial).
    """
    return tuple((v, -e) for v, e in mono) + (_SENTINEL,)


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    exps = dict(a)
    for v, e in b:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted(exps.items()))


def _mono_div(num: Monomial, den: Monomial) -> Monomial | None:
    """num / den, or None when den does not divide num."""
    exps = dict(num)
    for v, e in den:
        have = exps.get(v, 0)
        if have < e:
            return None
        if have == e:
            del exps[v]
        else:
            exps[v] = have - e
    return tuple(sorted(exps.items()))


class ExactDivisionError(ArithmeticError):
    """Raised when a division that must be exact leaves a remainder."""


class Polynomial:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[Monomial, Fraction | int] | None = None):
        """Sum the terms; the only place raw monomials become canonical.  Pairs
        may come in any order and zero exponents drop out; a repeated variable,
        a non-Variable key or a negative or non-int exponent raises ValueError."""
        clean: dict[Monomial, Fraction] = {}
        for mono, coeff in (terms or {}).items():
            for v, e in mono:
                if type(v) is not Variable or type(e) is not int or e < 0:
                    raise ValueError(f"monomial factor ({v!r}, {e!r}) needs a Variable "
                                     "and a nonnegative int exponent")
            if len(dict(mono)) != len(mono):
                raise ValueError(f"a variable is repeated in the monomial {mono!r}")
            mono = tuple(sorted([ve for ve in mono if ve[1]]))
            c = Fraction(coeff)
            if not c:
                continue
            old = clean.get(mono)
            s = c if old is None else old + c
            if s:
                clean[mono] = s
            else:
                del clean[mono]
        object.__setattr__(self, "_terms", clean)
        object.__setattr__(self, "_hash", None)

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def one(cls) -> "Polynomial":
        return cls({(): Fraction(1)})

    @classmethod
    def constant(cls, c: Fraction | int) -> "Polynomial":
        return cls({(): Fraction(c)})

    @classmethod
    def variable(cls, v: Variable) -> "Polynomial":
        return cls({((v, 1),): Fraction(1)})

    @classmethod
    def term(cls, coeff: Fraction | int, exponents: Mapping[Variable, int]) -> "Polynomial":
        return cls({tuple(exponents.items()): coeff})

    # -- basic queries ----------------------------------------------------

    @property
    def terms(self) -> dict[Monomial, Fraction]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def variables(self) -> set[Variable]:
        return {v for mono in self._terms for v, _ in mono}

    def constant_value(self) -> Fraction:
        """Coefficient of the unit monomial."""
        return self._terms.get((), Fraction(0))

    # -- ring operations --------------------------------------------------

    def _coerce(self, other) -> "Polynomial | None":
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(other)
        return None

    def __add__(self, other) -> "Polynomial":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self._terms)
        for mono, c in o._terms.items():
            s = out.get(mono, 0) + c
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
        return Polynomial._raw(out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._raw({m: -c for m, c in self._terms.items()})

    def __sub__(self, other) -> "Polynomial":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "Polynomial":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other) -> "Polynomial":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self._terms or not o._terms:
            return Polynomial.zero()
        # multiply via the smaller operand's terms on the outside
        a, b = (self, o) if len(self._terms) <= len(o._terms) else (o, self)
        out: dict[Monomial, Fraction] = {}
        for mono_a, ca in a._terms.items():
            for mono_b, cb in b._terms.items():
                mono = _mono_mul(mono_a, mono_b)
                s = out.get(mono, 0) + ca * cb
                if s:
                    out[mono] = s
                else:
                    del out[mono]
        return Polynomial._raw(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        result = Polynomial.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    @classmethod
    def _raw(cls, terms: dict[Monomial, Fraction]) -> "Polynomial":
        self = object.__new__(cls)
        object.__setattr__(self, "_terms", terms)
        object.__setattr__(self, "_hash", None)
        return self

    # -- substitution -----------------------------------------------------

    def substitute(self, bindings: Mapping[Variable, "Polynomial"]) -> "Polynomial":
        """Simultaneous substitution; unbound variables pass through."""
        if not bindings:
            return self
        power_cache: dict[tuple[Variable, int], Polynomial] = {}
        out: dict[Monomial, Fraction] = {}
        for mono, coeff in self._terms.items():
            passthrough: list[tuple[Variable, int]] = []
            factors: list[tuple[Variable, int]] = []
            for v, e in mono:
                (factors if v in bindings else passthrough).append((v, e))
            piece = Polynomial._raw({tuple(passthrough): coeff})
            for v, e in factors:
                key = (v, e)
                if key not in power_cache:
                    power_cache[key] = bindings[v] ** e
                piece = piece * power_cache[key]
            for m, c in piece._terms.items():
                s = out.get(m, 0) + c
                if s:
                    out[m] = s
                else:
                    del out[m]
        return Polynomial._raw(out)

    # -- comparison / hashing ---------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self._terms == Polynomial.constant(other)._terms
        return NotImplemented

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(frozenset(self._terms.items()))
            object.__setattr__(self, "_hash", h)
        return h

    # -- rendering --------------------------------------------------------

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        """Terms in canonical order (descending lexicographic)."""
        return sorted(self._terms.items(), key=lambda mc: _mono_key(mc[0]))

    def __str__(self) -> str:
        return canonical_text(self)

    def __repr__(self) -> str:
        return f"Polynomial<{canonical_text(self)}>"


def _term_body(mono: Monomial, coeff: Fraction) -> str:
    num = abs(coeff.numerator)
    den = coeff.denominator
    if not mono:
        return str(num) if den == 1 else f"{num}/{den}"
    body = "*".join(v.name if e == 1 else f"{v.name}**{e}" for v, e in mono)
    if num != 1:
        body = f"{num}*{body}"
    if den != 1:
        body = f"{body}/{den}"
    return body


def canonical_text(p: Polynomial) -> str:
    """Deterministic text form; equal text iff equal polynomial.

    Terms appear in canonical order; the first term carries a bare leading
    minus when negative, later terms are joined with " + " or " - ".
    """
    items = p.sorted_terms()
    if not items:
        return "0"
    pieces: list[str] = []
    for i, (mono, coeff) in enumerate(items):
        body = _term_body(mono, coeff)
        if i == 0:
            pieces.append(f"-{body}" if coeff < 0 else body)
        else:
            pieces.append(f" - {body}" if coeff < 0 else f" + {body}")
    return "".join(pieces)


def exact_divide(num: Polynomial, den: Polynomial) -> Polynomial:
    """Exact polynomial quotient; raises ExactDivisionError on a remainder.

    Standard single-divisor monomial division under the canonical order, with
    a lazy heap over the remainder so that division by a short divisor, such
    as a binomial, stays near-linear in the output.
    """
    if not den:
        raise ZeroDivisionError("division by the zero polynomial")
    den_terms = den.sorted_terms()
    lead_mono, lead_coeff = den_terms[0]
    tail = den_terms[1:]

    remainder: dict[Monomial, Fraction] = dict(num._terms)
    heap: list[tuple[tuple, Monomial]] = [(_mono_key(m), m) for m in remainder]
    heapq.heapify(heap)
    quotient: dict[Monomial, Fraction] = {}

    while heap:
        _, mono = heapq.heappop(heap)
        coeff = remainder.pop(mono, None)
        if not coeff:
            continue
        q_mono = _mono_div(mono, lead_mono)
        if q_mono is None:
            raise ExactDivisionError(f"leading term {_term_body(mono, coeff)} is not divisible")
        q_coeff = coeff / lead_coeff
        quotient[q_mono] = quotient.get(q_mono, Fraction(0)) + q_coeff
        for t_mono, t_coeff in tail:
            m = _mono_mul(q_mono, t_mono)
            s = remainder.get(m, 0) - q_coeff * t_coeff
            if s:
                if m not in remainder:
                    heapq.heappush(heap, (_mono_key(m), m))
                remainder[m] = s
            else:
                remainder.pop(m, None)
    return Polynomial._raw({m: c for m, c in quotient.items() if c})


def determinant(rows: list[list[Polynomial]]) -> Polynomial:
    """Determinant of a square polynomial matrix by cached minor expansion."""
    n = len(rows)
    for row in rows:
        if len(row) != n:
            raise ValueError("matrix must be square")
    if n == 0:
        return Polynomial.one()

    cache: dict[tuple[int, ...], Polynomial] = {}

    def minor(cols: tuple[int, ...]) -> Polynomial:
        if len(cols) == 1:
            return rows[n - 1][cols[0]]
        if cols in cache:
            return cache[cols]
        i = n - len(cols)
        acc = Polynomial.zero()
        for pos, j in enumerate(cols):
            entry = rows[i][j]
            if not entry:
                continue
            sub = minor(cols[:pos] + cols[pos + 1:])
            piece = entry * sub
            acc = acc + piece if pos % 2 == 0 else acc - piece
        cache[cols] = acc
        return acc

    return minor(tuple(range(n)))


# -- JSON wire form -------------------------------------------------------


def to_term_list(p: Polynomial) -> list[dict]:
    """Encode as a list of {"coeff": "p/q", "monomial": {...}} in canonical order."""
    out = []
    for mono, coeff in p.sorted_terms():
        out.append({
            "coeff": str(coeff),
            "monomial": {v.name: e for v, e in mono},
        })
    return out


def _parse_variable(name: str) -> Variable:
    if name == "Q":
        return q_var()
    kind, idx = name[:1], name[1:]
    if kind in ("t", "x") and idx.isascii() and idx.isdigit() and idx[0] != "0":
        return Variable(kind, int(idx))
    raise ValueError(f"unknown variable name {name!r}")


def from_term_list(data: list[dict]) -> Polynomial:
    """Decode the wire form produced by :func:`to_term_list`; a non-canonical
    name (``x01``) or a non-int exponent raises ValueError."""
    terms: dict[Monomial, Fraction] = {}
    for entry in data:
        mono = tuple((_parse_variable(name), e) for name, e in entry["monomial"].items())
        terms[mono] = terms.get(mono, 0) + Fraction(entry["coeff"])
    return Polynomial(terms)
