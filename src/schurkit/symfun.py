"""The classical symmetric-polynomial families, exactly.

Complete homogeneous polynomials live in the power-sum coordinates t, one
term per cycle type, and elementary ones are their images under the
involution omega, e_n = omega(h_n); (skew-)Schur polynomials come from the
determinant identity det(h_{lam_i - mu_j - i + j}), expanded on integers (d!
times the coefficients of a minor of weight d, over bit-packed exponents that
never carry) on the side with fewer rows: via omega, a tall shape is the same
determinant in e_k on its conjugate.  One memo per shape pair holds them
all, h_n = s_(n) and e_n = s_(1^n) included.  The character route, the
independent oracle, sums only the nonzero characters of the shape's column;
monomial and Hall-Littlewood polynomials live in a finite alphabet x1..xN,
the latter carrying the deformation parameter Q, and ``miwa_push`` moves a
t-polynomial there via t_j -> (1/j) * (x1^j + ... + xN^j).  All three are
symmetric: their weakly decreasing exponent vectors are built letter by letter
(``_peel``) and spread over their orbits once per vector, each distinct
exponent on every combination of the letters still free (``_orbits``).
Kernel loops run on ints; each kernel makes one ``Fraction`` per output
coefficient and hands its canonical terms to ``Polynomial._raw``, not
``Polynomial(...)``."""

from __future__ import annotations

from fractions import Fraction
from functools import cache, lru_cache
from itertools import combinations, groupby, product
from math import comb, factorial, lcm, prod

from .characters import _column
from .partitions import YoungDiagram, _ascending_compositions
from .polyalgebra import Polynomial, Variable, q_var, t_var, x_var

__all__ = [
    "MiwaContext",
    "AlphabetContext",
    "homogeneous",
    "elementary",
    "schur",
    "schur_via_characters",
    "monomial",
    "hall_littlewood",
    "miwa_push",
]

# Entries of the Schur memo of (skew) Schur polynomials, h_n = s_(n) and
# e_n = s_(1^n) among them.  One dealt benchmark round fills 48 (schur-miwa),
# 67 (character-route: the largest verify sweep, all shapes of at most 8 boxes)
# or 0 (hl-build); an LRU smaller than a repeated sweep's working set would
# evict each entry before its next use.
SCHUR_CACHE_SIZE = 128


class _Context:
    """count variables of one kind, made by the subclass's ``_var``.

    An immutable value: equal, with equal hashes, only to a context of the
    same kind and count; it pickles, copies and matches on ``count``."""

    __slots__ = ("count", "__weakref__")
    __match_args__ = ("count",)

    def __init__(self, count: int):
        if type(count) is not int or count < 1:
            raise ValueError("count must be positive")
        object.__setattr__(self, "count", count)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.count == other.count

    def __hash__(self):
        return hash((self.count,))

    def __repr__(self):
        return f"{type(self).__qualname__}(count={self.count!r})"

    def __reduce__(self):
        return type(self), (self.count,)

    def variables(self) -> tuple[Variable, ...]:
        return tuple(self._var(i) for i in range(1, self.count + 1))


class MiwaContext(_Context):
    """Provides the power-sum variables t1..t_count."""
    __slots__ = ()
    _var = staticmethod(t_var)


class AlphabetContext(_Context):
    """Provides the alphabet variables x1..x_count."""
    __slots__ = ()
    _var = staticmethod(x_var)


@cache
def _t_pair(j: int, k: int) -> tuple[Variable, int]:
    """The monomial factor (t_j, k), one object for every table that holds it."""
    return t_var(j), k


@cache
def _t_pairs(n: int) -> tuple[tuple[tuple[Variable, int], ...], ...]:
    """The table of weight n: entry [j][k] is the pair (t_j, k), for j <= n and
    k <= n // j, one shared monomial factor for every term with k factors t_j."""
    return ((),) + tuple(tuple(_t_pair(j, k) for k in range(n // j + 1))
                         for j in range(1, n + 1))


def _cycle_types(n: int, signed: bool) -> Polynomial:
    """The sum over cycle types of weight n >= 0, with k_j cycles of length j,
    of prod_j t_j^{k_j} / k_j!, each term signed (-1)^(n - r) for r cycles when
    ``signed``: h_n, and e_n = omega(h_n) (Macdonald I (2.14'))."""
    rows = _t_pairs(n)
    terms = {}
    for parts in _ascending_compositions(n):  # ascending, so t_j ascends too
        mono, den = [], 1
        for j, run in groupby(parts):
            k = len(list(run))
            mono.append(rows[j][k])
            den *= factorial(k)
        terms[tuple(mono)] = Fraction(-1 if signed and n - len(parts) & 1 else 1, den)
    return Polynomial._raw(terms)


def homogeneous(n: int) -> Polynomial:
    """Complete homogeneous polynomial h_n in the t-coordinates: the sum over
    all multiplicity vectors with sum j*k_j = n of the products of
    t_j^{k_j} / k_j!; h_0 = 1.  The Schur memo's entry h_n = s_(n)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _schur((n,) if n else (), ())


def elementary(n: int) -> Polynomial:
    """Elementary polynomial e_n = omega(h_n) in the t-coordinates: h_n's term
    of a cycle type with r cycles, signed (-1)^(n - r).  The Schur memo's
    entry e_n = s_(1^n)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _schur((1,) * n, ())


def schur(lam: YoungDiagram, mu: YoungDiagram | None = None) -> Polynomial:
    """(Skew-)Schur polynomial in the t-coordinates via the h-determinant.

    Memoized per pair of parts, the last SCHUR_CACHE_SIZE pairs used, in
    ``_schur`` (``cache_info()``, ``cache_clear()``); an omitted and an
    empty mu are one entry.  A hit returns the same Polynomial object, which
    is immutable.

    The matrix (h_{lam_i - mu_j - i + j}) is square of side
    max(rows(lam), rows(mu)), both partitions zero-padded, so its determinant
    vanishes whenever mu is not contained in lam.  With mu omitted this is the
    straight Schur polynomial.  When the conjugate pair has fewer rows, the
    expansion runs on it instead, through the involution omega
    (t_j -> (-1)^(j-1) t_j, h_k -> e_k, s_{lam/mu} -> s_{lam'/mu'}): the same
    determinant with e_k entries on lam', mu' (Macdonald I (5.5)), so a tall
    shape costs what its wide conjugate costs; ties keep the h side.

    The Laplace expansion along the top row, cached per column set, runs on
    integers: a minor of Miwa weight d is {packed exponents: d! * coeff}, the
    packed int holding t_j's exponent in its j-th fixed-width bit slot.  As
    k! * h_k and k! * e_k have integer coefficients, an entry of weight k
    times a minor of weight d - k scales by binomial(d, k), and monomials
    multiply by adding keys.  The one division, by d!, happens in the final
    Polynomial.
    """
    return _schur(lam.parts, mu.parts if mu is not None else ())


@lru_cache(maxsize=SCHUR_CACHE_SIZE)
def _schur(lam_parts: tuple[int, ...], mu_parts: tuple[int, ...]) -> Polynomial:
    """``schur`` on the parts of lam and mu, () for an omitted mu."""
    lam, inner = YoungDiagram._from_sorted(lam_parts), YoungDiagram._from_sorted(mu_parts)
    m, wide = max(lam.rows, inner.rows), max(lam.columns, inner.columns)
    signed = wide < m
    if signed:
        lam, inner, m = lam.transpose(), inner.transpose(), wide
    if m <= 1:  # h_k or e_k itself, 1 for two empty shapes
        k = lam.boxes - inner.boxes
        return _cycle_types(k, signed) if k >= 0 else Polynomial.zero()
    entry = elementary if signed else homogeneous  # entries read the memo
    lp = lam.parts + (0,) * (m - lam.rows)
    mp = inner.parts + (0,) * (m - inner.rows)
    # Entry (i, j) is entry(a[i] - b[j]), zero when the index is negative.
    a = [lp[i] - i for i in range(m)]
    b = [mp[j] - j for j in range(m)]
    top = a[0] - b[-1]  # the largest entry weight: a falls with i, b with j
    # Each exponent in a minor sums at most m entry exponents, each at most
    # top, and keys are only ever added, so a slot of this width never carries.
    width = (m * top).bit_length()
    table = {}
    for k in {x - y for x in a for y in b if x >= y}:
        fk = factorial(k)  # h_k's and e_k's coefficients are +-1/prod_j k_j!
        table[k] = {sum(e << (v.index - 1) * width for v, e in mono):
                    fk // c.denominator * c.numerator for mono, c in entry(k)._terms.items()}

    cache: dict[tuple[int, ...], dict[int, int]] = {(): {0: 1}}

    def minor(cols: tuple[int, ...]) -> dict[int, int]:
        if cols in cache:
            return cache[cols]
        i = m - len(cols)
        d = sum(a[i:]) - sum(b[j] for j in cols)
        acc: dict[int, int] = {}
        for pos, j in enumerate(cols):
            k = a[i] - b[j]
            sub = minor(cols[:pos] + cols[pos + 1:]) if k >= 0 else {}
            if not sub:  # a zero term; otherwise d >= k >= 0
                continue
            scale = -comb(d, k) if pos % 2 else comb(d, k)
            for ka, ca in table[k].items():
                ca *= scale
                for kb, cb in sub.items():
                    key = ka + kb
                    acc[key] = acc.get(key, 0) + ca * cb
        cache[cols] = acc = {key: c for key, c in acc.items() if c}
        return acc

    scaled = minor(tuple(range(m)))
    if not scaled:
        return Polynomial.zero()
    d, mask = lam.boxes - inner.boxes, (1 << width) - 1
    den = factorial(d)
    rows = _t_pairs(d)[1:top + 1]  # t_j's exponents are at most d // j
    terms = {}
    for key, c in scaled.items():
        mono = []
        for row in rows:
            if key & mask:
                mono.append(row[key & mask])
            key >>= width
        terms[tuple(mono)] = Fraction(c, den)
    return Polynomial._raw(terms)


def schur_via_characters(lam: YoungDiagram) -> Polynomial:
    """Schur polynomial as the character-weighted sum over cycle types.

    Independent route: s_lam = sum_rho chi^lam(rho) p_rho / z_rho (Macdonald
    I (7.8)), in the t-coordinates chi^lam(rho) * prod_j t_j^{k_j} / k_j!,
    k_j the number of j-cycles of rho.  Only the nonzero characters carry
    terms, and the shape's cached column (``_column``, one Murnaghan-Nakayama
    walk per shape) holds exactly those.
    """
    rows = _t_pairs(lam.boxes)
    terms = {}
    for cycles, chi in _column(lam.parts).items():
        mono, den = [], 1
        for j, run in groupby(reversed(cycles)):  # t_j ascending
            k = len(list(run))
            mono.append(rows[j][k])
            den *= factorial(k)
        terms[tuple(mono)] = Fraction(chi, den)
    return Polynomial._raw(terms)


def _orbits(dominant: dict, xs: tuple[Variable, ...]) -> Polynomial:
    """The symmetric polynomial in xs whose weakly decreasing terms are
    ``dominant``, {(Q power, exponent vector): int or Fraction coeff}, one
    orbit per vector; zero coefficients drop out.  A vector's monomials are
    built once for all its Q powers: each distinct nonzero exponent goes on
    every combination of the letters still free."""
    by_alpha: dict[tuple[int, ...], list] = {}
    for (q, alpha), c in dominant.items():
        if c:
            by_alpha.setdefault(alpha, []).append((q, Fraction(c)))
    top = max((alpha[0] for alpha in by_alpha if alpha), default=0)  # alpha decreases
    rows = [[(x, e) for e in range(top + 1)] for x in xs]  # one shared pair per (x, e)
    terms = {}
    q_v = q_var()
    for alpha, coeffs in by_alpha.items():
        vectors = [[0] * len(xs)]
        for e, run in groupby(e for e in alpha if e):
            m = len(list(run))
            spread = []
            for vec in vectors:
                for letters in combinations([i for i, f in enumerate(vec) if not f], m):
                    new = list(vec)
                    for i in letters:
                        new[i] = e
                    spread.append(new)
            vectors = spread
        monos = [tuple([row[e] for row, e in zip(rows, vec) if e]) for vec in vectors]
        for q, c in coeffs:
            head = ((q_v, q),) if q else ()
            for mono in monos:
                terms[head + mono] = c
    return Polynomial._raw(terms)


def monomial(lam: YoungDiagram, alphabet: AlphabetContext) -> Polynomial:
    """Monomial symmetric polynomial: all distinct permutations of the exponents."""
    if lam.rows > alphabet.count:
        return Polynomial.zero()
    return _orbits({(0, lam.parts): 1}, alphabet.variables())


def _peel(layer: dict, n: int, step) -> dict:
    """The weakly decreasing terms {(Q power, exponent vector): int} of a
    symmetric polynomial in x1..xn, peeling one letter per step, xn first.

    ``layer`` maps a state, what is left for the letters not yet peeled, to
    {(Q power, exponents of the letters peeled so far): int}; ``step(state,
    k)`` yields (next state, xk's power, {Q power: int}), only () after x1.
    A term grows only by a power at least the last one peeled, so only the
    weakly decreasing vectors, all a symmetric polynomial needs, survive.
    """
    for k in range(n, 0, -1):
        nxt: dict = {}
        for state, above in layer.items():
            for new, power, factor in step(state, k):
                out = nxt.setdefault(new, {})
                for (q, alpha), c in above.items():
                    if alpha and power < alpha[0]:
                        continue
                    alpha = (power,) + alpha
                    for dq, dc in factor.items():
                        key = (q + dq, alpha)
                        out[key] = out.get(key, 0) + c * dc
        layer = nxt
    return layer.get((), {})


def _strip_factor(lam: tuple[int, ...], mu: tuple[int, ...]) -> dict[int, int]:
    """psi_{lam/mu}(Q) as {Q power: coeff} for a horizontal strip lam/mu.

    The product of (1 - Q^{m_j(mu)}) over the columns j >= 1 that hold no box
    of the strip while column j+1 does (Macdonald III (5.8')).
    """
    strip = set()
    for i, part in enumerate(lam):
        strip.update(range((mu[i] if i < len(mu) else 0) + 1, part + 1))
    factor = {0: 1}
    for col in strip:
        j = col - 1
        if j < 1 or j in strip:
            continue
        m = mu.count(j)
        nxt = dict(factor)
        for k, c in factor.items():
            nxt[k + m] = nxt.get(k + m, 0) - c
        factor = nxt
    return factor


def hall_littlewood(lam: YoungDiagram, alphabet: AlphabetContext, workers: int = 1) -> Polynomial:
    """Hall-Littlewood polynomial P_lam(x1..xN; Q).

    Built one letter at a time by the branching rule of Macdonald, *Symmetric
    Functions and Hall Polynomials*, III (5.8') and (5.11'):

        P_lam(x1..xn; Q) = sum_mu psi_{lam/mu}(Q) * xn^{|lam|-|mu|} * P_mu(x1..x_{n-1}; Q),

    summed over every mu with lam/mu a horizontal strip and at most n-1 rows.
    ``_peel`` unrolls it from lam in N letters to P_() = 1 in none, the shape
    being the state.  Every coefficient is an integer polynomial in Q, so no
    division happens.  At Q=0 this degenerates to the Schur polynomial and at
    Q=1 to the monomial one.  ``workers`` must be a positive int and is
    otherwise ignored: the build runs in the calling thread.
    """
    n = alphabet.count
    if lam.rows > n:
        raise ValueError(f"partition has {lam.rows} rows but the alphabet only {n} variables")
    if type(workers) is not int or workers < 1:
        raise ValueError("workers must be positive")

    def step(mu, k):  # each nu with mu/nu a horizontal strip and fewer than k rows
        for nu in product(*(range(low, high + 1) for low, high in zip(mu[1:] + (0,), mu))):
            nu = nu[:-1] if nu and not nu[-1] else nu
            if len(nu) < k:
                yield nu, sum(mu) - sum(nu), _strip_factor(mu, nu)
    return _orbits(_peel({lam.parts: {(0, ()): 1}}, n, step), alphabet.variables())


def miwa_push(p: Polynomial, alphabet: AlphabetContext) -> Polynomial:
    """Rewrite a t-polynomial in the alphabet via the power sums, letter by
    letter with ``_peel``; ``Polynomial.substitute`` is the independent route."""
    bad = [v for v in p.variables() if v.kind != "t"]
    if bad:
        raise ValueError(f"polynomial must use only t-variables, found {min(bad).name}")

    def step(mono, k):
        # By t_j = t_j(x1..x_{k-1}) + xk^j / j, xk takes b_j of t_j's e_j factors
        # with weight prod_j binomial(e_j, b_j); x1 takes all the rest.
        for takes in product(*(range(0 if k > 1 else e, e + 1) for _, e in mono)):
            rest = tuple((v, e - b) for (v, e), b in zip(mono, takes) if e > b)
            power = sum(v.index * b for (v, _), b in zip(mono, takes))
            yield rest, power, {0: prod(comb(e, b) for (_, e), b in zip(mono, takes))}
    # The factors 1/j of t_j join each coefficient's denominator; every source
    # monomial then enters as an int over their common multiple den.
    scale = {mono: c.denominator * prod(v.index ** e for v, e in mono)
             for mono, c in p._terms.items()}
    den = lcm(*scale.values())
    layer = {mono: {(0, ()): c.numerator * den // scale[mono]} for mono, c in p._terms.items()}
    dominant = _peel(layer, alphabet.count, step)
    return _orbits({key: Fraction(c, den) for key, c in dominant.items() if c}, alphabet.variables())
