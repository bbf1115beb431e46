"""Exact sparse multivariate polynomials over rational coefficients.

Three variable families exist: the power-sum coordinates ``t1, t2, ...``, the
alphabet ``x1, x2, ...`` and the lone deformation parameter ``Q``.  Variables
are (kind, index) tuples ordered Q < t1 < t2 < ... < x1 < x2 < ...; a monomial
is a tuple of (variable, exponent) pairs in that order and a polynomial a map
from monomials to nonzero Fractions.  All arithmetic is exact; there is no
floating point here.

Only the two public doors validate: ``Polynomial(...)``, which normalizes
terms given in any order, and ``from_term_list``, which accepts only the
canonical wire form.  Arithmetic here and the kernels in ``symfun`` emit
canonical terms (ascending variables, positive int exponents, nonzero
Fraction coefficients) and build through the private ``Polynomial._raw``.
Every sum of terms, in the two doors and in the ring operations alike, lands
in ``_summed``: equal monomials add up and a sum that reaches zero drops out.

The writers (``canonical_text``, ``to_term_list``) and ``sorted_terms`` read
the terms in canonical order through ``_ordered``; each writer renders a
(variable, exponent) factor the first time it meets it.  Every kernel in
``symfun`` (h_n, e_n, both Schur routes, monomial, Hall-Littlewood and
``miwa_push``) emits that order already and says so through ``_raw``'s
``in_order`` flag, so its dict is walked as it is; only what the two doors
and the ring operations build is sorted on each write.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from functools import cache
from itertools import chain
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


def _summed(pairs) -> dict[Monomial, Fraction]:
    """The terms of canonical (monomial, nonzero Fraction) pairs: equal
    monomials add up, and a sum that reaches zero is deleted."""
    out: dict[Monomial, Fraction] = {}
    get = out.get
    for mono, c in pairs:
        old = get(mono)
        s = c if old is None else old + c
        if s:
            out[mono] = s
        else:
            del out[mono]
    return out


class ExactDivisionError(ArithmeticError):
    """Raised when a division that must be exact leaves a remainder."""


class Polynomial:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("_terms", "_in_order")

    def __init__(self, terms: Mapping[Monomial, Fraction | int] | None = None):
        """Sum the terms; the public door for raw monomials.  Pairs
        may come in any order and zero exponents drop out; a repeated variable,
        a non-Variable key, a negative or non-int exponent, or a coefficient
        whose type is not exactly int or Fraction (a bool, say) raises ValueError."""
        def checked():
            for mono, coeff in (terms or {}).items():
                for v, e in mono:
                    if type(v) is not Variable or type(e) is not int or e < 0:
                        raise ValueError(f"monomial factor ({v!r}, {e!r}) needs a Variable "
                                         "and a nonnegative int exponent")
                if len(dict(mono)) != len(mono):
                    raise ValueError(f"a variable is repeated in the monomial {mono!r}")
                if type(coeff) not in (int, Fraction):
                    raise ValueError(f"coefficient {coeff!r} must be an int or a Fraction")
                if coeff:
                    yield (tuple(sorted([ve for ve in mono if ve[1]])),
                           coeff if type(coeff) is Fraction else Fraction(coeff))
        object.__setattr__(self, "_terms", _summed(checked()))
        object.__setattr__(self, "_in_order", False)

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def one(cls) -> "Polynomial":
        return cls({(): Fraction(1)})

    @classmethod
    def constant(cls, c: Fraction | int) -> "Polynomial":
        return cls({(): c})

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
        return Polynomial._raw(_summed(chain(self._terms.items(), o._terms.items())))

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
        return Polynomial._raw(_summed((_mono_mul(mono_a, mono_b), ca * cb)
                                       for mono_a, ca in a._terms.items()
                                       for mono_b, cb in b._terms.items()))

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
    def _raw(cls, terms: dict[Monomial, Fraction], in_order: bool = False) -> "Polynomial":
        """Wrap terms that are already canonical, unchecked: each monomial's
        variables strictly ascending with int exponents >= 1, and each
        coefficient a nonzero Fraction.  ``in_order`` says that the dict
        already holds them in canonical order, so the writers walk it as it
        is; only a kernel that emits that order sets it."""
        self = object.__new__(cls)
        object.__setattr__(self, "_terms", terms)
        object.__setattr__(self, "_in_order", in_order)
        return self

    # -- substitution -----------------------------------------------------

    def substitute(self, bindings: Mapping[Variable, "Polynomial"]) -> "Polynomial":
        """Simultaneous substitution; unbound variables pass through."""
        if not bindings:
            return self
        power = cache(lambda v, e: bindings[v] ** e)

        def pieces():
            for mono, coeff in self._terms.items():
                piece = Polynomial._raw({tuple(ve for ve in mono if ve[0] not in bindings): coeff})
                for v, e in mono:
                    if v in bindings:
                        piece = piece * power(v, e)
                yield from piece._terms.items()
        return Polynomial._raw(_summed(pieces()))

    # -- comparison / hashing ---------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self._terms == ({(): other} if other else {})
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    # -- rendering --------------------------------------------------------

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        """Terms in canonical order (descending lexicographic), the order of
        ``_mono_key``."""
        return list(_ordered(self))

    def __str__(self) -> str:
        return canonical_text(self)

    def __repr__(self) -> str:
        return f"Polynomial<{canonical_text(self)}>"


def _ordered(p: Polynomial):
    """The terms of p in canonical order: as the dict holds them when a kernel
    emitted them so (``Polynomial._raw`` with ``in_order``), else sorted on one
    int per monomial, the sum of its factors' packed shares: over the
    variables in ascending order, the first in the highest slot, each exponent
    in a slot wide enough for the largest one.  Descending keys are then
    descending exponent vectors, an absent variable counting as 0.  The keys
    live only inside the sort, which serves only what the two doors and the
    ring operations build: every kernel flags its output."""
    terms = p._terms
    if p._in_order:
        return terms.items()
    factors = {ve for mono in terms for ve in mono}
    width = max((e for _, e in factors), default=0).bit_length()
    shift = {v: i * width for i, v in enumerate(sorted({v for v, _ in factors}, reverse=True))}
    share = {ve: ve[1] << shift[ve[0]] for ve in factors}.__getitem__
    return sorted(terms.items(), key=lambda mc: sum(map(share, mc[0])), reverse=True)


class _Words(dict):
    """``canonical_text``'s (variable, exponent) factors, each rendered on
    first use as its text word, such as ``x3`` or ``t2**4``."""

    __slots__ = ()

    def __missing__(self, ve):
        v, e = ve
        self[ve] = word = v.name if e == 1 else f"{v.name}**{e}"
        return word


class _Pairs(dict):
    """``to_term_list``'s (variable, exponent) factors, each rendered on first
    use as its wire pair, such as ``("t2", 4)``."""

    __slots__ = ()

    def __missing__(self, ve):
        self[ve] = pair = ve[0].name, ve[1]
        return pair


def canonical_text(p: Polynomial) -> str:
    """Deterministic text form; equal text iff equal polynomial.

    Terms appear in canonical order; the first term carries a bare leading
    minus when negative, later terms are joined with " + " or " - ".
    """
    if not p._terms:
        return "0"
    word = _Words().__getitem__
    pieces = []  # each term with its " + " or " - "
    for mono, coeff in _ordered(p):
        num, den = coeff.numerator, coeff.denominator
        sign = " + "
        if num < 0:
            num, sign = -num, " - "
        body = "*".join(map(word, mono)) if mono else str(num)
        if num != 1 and mono:
            body = f"{num}*{body}"
        pieces.append(sign + body if den == 1 else f"{sign}{body}/{den}")
    first = pieces[0]  # the leading " + " or " - " becomes "" or "-"
    pieces[0] = first[3:] if first[1] == "+" else "-" + first[3:]
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
            body = canonical_text(Polynomial._raw({mono: abs(coeff)}))
            raise ExactDivisionError(f"leading term {body} is not divisible")
        # Popped monomials strictly descend, so each quotient monomial is new.
        quotient[q_mono] = q_coeff = coeff / lead_coeff
        for t_mono, t_coeff in tail:
            m = _mono_mul(q_mono, t_mono)
            if m not in remainder:
                heapq.heappush(heap, (_mono_key(m), m))
            # A sum that cancels stays here at zero; the pop that reaches it skips it.
            remainder[m] = remainder.get(m, 0) - q_coeff * t_coeff
    return Polynomial._raw(quotient)


def determinant(rows: list[list[Polynomial]]) -> Polynomial:
    """Determinant of a square polynomial matrix by cached minor expansion."""
    n = len(rows)
    for row in rows:
        if len(row) != n:
            raise ValueError("matrix must be square")
    if n == 0:
        return Polynomial.one()

    minors: dict[tuple[int, ...], Polynomial] = {}

    def minor(cols: tuple[int, ...]) -> Polynomial:
        if len(cols) == 1:
            return rows[n - 1][cols[0]]
        if cols in minors:
            return minors[cols]
        i = n - len(cols)
        pieces = ((-rows[i][j] if pos % 2 else rows[i][j]) * minor(cols[:pos] + cols[pos + 1:])
                  for pos, j in enumerate(cols) if rows[i][j])
        minors[cols] = out = Polynomial._raw(_summed(chain.from_iterable(
            piece._terms.items() for piece in pieces)))
        return out

    det = minor(tuple(range(n)))
    del minor  # it refers to itself: unbound, the minors need no cyclic collector
    return det


# -- JSON wire form -------------------------------------------------------


def to_term_list(p: Polynomial) -> list[dict]:
    """Encode as a list of {"coeff": "p/q", "monomial": {...}} in canonical order."""
    pair = _Pairs().__getitem__
    return [{"coeff": str(c), "monomial": dict(map(pair, mono))} for mono, c in _ordered(p)]


def _parse_variable(name: str) -> Variable:
    if name == "Q":
        return q_var()
    if isinstance(name, str):
        kind, idx = name[:1], name[1:]
        if kind in ("t", "x") and idx.isascii() and idx.isdigit() and idx[0] != "0":
            return Variable(kind, int(idx))
    raise ValueError(f"unknown variable name {name!r}")


def _parse_coeff(s: str) -> Fraction:
    """The nonzero Fraction whose str is exactly s, as to_term_list writes it."""
    num, slash, den = s.partition("/")
    try:
        n, d = int(num), int(den) if slash else 1
    except ValueError:
        n = d = 0
    if n and str(n) == num and (not slash or d > 1 and str(d) == den):
        c = Fraction(n, d)
        if c.denominator == d:  # in lowest terms
            return c
    raise ValueError(f"coefficient {s!r} is not a canonical nonzero fraction")


def from_term_list(data: list[dict]) -> Polynomial:
    """Decode the wire form produced by :func:`to_term_list`, a list of
    ``{"coeff": "p/q", "monomial": {name: exponent}}``.  A coefficient must be
    the str of a nonzero Fraction (``"-3/2"``, not ``"3/-2"``, ``"6/4"``,
    ``"1.5"``, ``"+3"`` or ``"0"``) and an exponent an int >= 1.  Anything
    else (a missing key, a non-string coefficient, a non-canonical name such
    as ``x01``) raises ValueError.  Terms with the same monomial are summed."""
    if not isinstance(data, list):
        raise ValueError(f"a term list must be a list, got {type(data).__name__}")
    # (name, exponent) -> (Variable, exponent): each name is parsed once, and
    # equal factors share one pair.
    factor_of: dict[tuple[str, int], tuple[Variable, int]] = {}
    parse_coeff = cache(_parse_coeff)  # likewise each coefficient string

    def parsed():
        for entry in data:
            if not (isinstance(entry, dict) and type(entry.get("coeff")) is str
                    and isinstance(entry.get("monomial"), dict)):
                raise ValueError(f"malformed term {entry!r}: needs a string coeff and a monomial")
            coeff = parse_coeff(entry["coeff"])
            factors = []
            for item in entry["monomial"].items():
                name, e = item
                if type(e) is not int or e < 1:  # before the lookup, where True == 1
                    raise ValueError(f"exponent {e!r} of {name!r} is not an int >= 1")
                factor = factor_of.get(item)
                if factor is None:
                    factor = factor_of[item] = (_parse_variable(name), e)
                factors.append(factor)
            # Distinct canonical names are distinct variables, so sorting is
            # all that is left to make the monomial canonical.
            yield tuple(sorted(factors)), coeff
    return Polynomial._raw(_summed(parsed()))
