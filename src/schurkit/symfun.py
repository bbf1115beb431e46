"""The classical symmetric-polynomial families, exactly.

Complete homogeneous polynomials live in the power-sum coordinates t, one
term per cycle type, and elementary ones are their images under the
involution omega, e_n = omega(h_n); (skew-)Schur polynomials come from the
determinant identity det(h_{lam_i - mu_j - i + j}), expanded on integers (d!
times the coefficients of a minor of weight d, over bit-packed exponents that
never carry and sort in canonical order) on the side with fewer rows: via
omega, a tall shape is the same determinant in e_k on its conjugate.  One
memo per shape pair holds them all, h_n = s_(n) and e_n = s_(1^n) included.
The character route, the independent oracle, sums only the nonzero
characters of the shape's column, in a memo of its own, one entry per shape;
monomial and Hall-Littlewood polynomials live in a finite alphabet x1..xN,
the latter carrying the deformation parameter Q, and ``miwa_push`` moves a
t-polynomial there via t_j -> (1/j) * (x1^j + ... + xN^j).  All three are
symmetric: their weakly decreasing exponent vectors are built letter by letter
(``_peel``) and spread over their orbits once per vector, each distinct
exponent on every combination of the letters still free, each vector keyed
by one packed int as it is placed and the keys sorted once (``_orbits``).  A
state's branches do not depend on the letter, so each caller tabulates them
once: Hall-Littlewood's horizontal strips and their psi factors live in
``_branches``, one entry per shape, the last HL_BRANCH_CACHE_SIZE shapes used,
and ``miwa_push``'s takes in a cache made per call.  x1 needs no table: it
takes what is left.  Kernel loops run on ints; each kernel makes at most one
``Fraction`` per output coefficient and hands its canonical terms to
``Polynomial._raw``, not ``Polynomial(...)``, in canonical order and flagged
so: h_n and e_n as ``partitions_of`` walks them, the other kernels sorted
once on packed int keys (``_t_slots`` for both Schur routes)."""

from __future__ import annotations

from fractions import Fraction
from functools import cache, lru_cache
from itertools import combinations, groupby, product
from math import comb, factorial, lcm, prod

from .characters import _column
from .partitions import YoungDiagram, partitions_of
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

# Entries of each Schur memo: the determinant's ``_schur``, of (skew) Schur
# polynomials with h_n = s_(n) and e_n = s_(1^n) among them, and the character
# route's ``_schur_via_characters``, of straight shapes.  One dealt benchmark
# round fills 48 and 0 (schur-miwa), 67 and 74 (character-route: the largest
# verify sweep, all 67 shapes of at most 8 boxes, plus 7 larger shapes built
# by characters alone) or 0 and 0 (hl-build); an LRU smaller than a repeated
# sweep's working set would evict each entry before its next use.
SCHUR_CACHE_SIZE = 128

# Shapes whose Hall-Littlewood branches ``_branches`` keeps.  The largest
# verify sweep, every shape of at most 8 boxes in 3 and 4 letters, tabulates
# 53 shapes, and (4,3,2,1) in 8 letters the 42 inside it.  An entry holds one
# small tuple per horizontal strip, prod_i (mu_i - mu_{i+1} + 1) of them.
HL_BRANCH_CACHE_SIZE = 128


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


def _t_slots(d: int, top: int) -> list[int]:
    """Entry j, for 1 <= j <= top, is the shift of t_j's slot in an int that
    packs the t-exponents of a monomial of Miwa weight at most d: t_j's slot
    is wide enough for d // j, the most t_j can reach, and t1 has the highest
    slot, so descending keys are canonical order.  A sum of such keys never
    carries while its weight stays at most d."""
    shift, bits = [0] * (top + 1), 0
    for j in range(top, 0, -1):
        shift[j] = bits
        bits += (d // j).bit_length()
    return shift


def _cycle_types(n: int, signed: bool) -> Polynomial:
    """The sum over cycle types of weight n >= 0, with k_j cycles of length j,
    of prod_j t_j^{k_j} / k_j!, each term signed (-1)^(n - r) for r cycles when
    ``signed``: h_n, and e_n = omega(h_n) (Macdonald I (2.14')).  Terms share
    one ``Fraction`` per signed denominator.  ``partitions_of`` reads the
    ascending compositions in lexicographic order, which is descending
    (k_1, k_2, ...): the terms come out in canonical order."""
    rows = _t_pairs(n)
    terms, coeffs = {}, {}
    for lam in partitions_of(n):
        parts = lam.parts
        mono, den = [], 1
        for j, run in groupby(parts):
            k = len(list(run))
            mono.append(rows[j][k])
            den *= factorial(k)
        if signed and n - len(parts) & 1:
            den = -den
        mono.reverse()  # parts decrease, and t_j ascends in a monomial
        terms[tuple(mono)] = coeffs.get(den) or coeffs.setdefault(den, Fraction(1, den))
    return Polynomial._raw(terms, in_order=True)


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
    packed int holding t_j's exponent in a bit slot wide enough for
    |lam| - |mu| over j, t1 in the highest slot, so that descending ints are
    canonical order.  As k! * h_k and k! * e_k have integer coefficients, an
    entry of weight k times a minor of weight d - k scales by binomial(d, k),
    and monomials multiply by adding keys.  The final Polynomial takes the
    keys sorted once, descending, divides by d! once per coefficient and, as
    h_n and e_n do, flags its terms as already in canonical order, so that
    its writers sort nothing.
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
    d = lam.boxes - inner.boxes
    if m <= 1:  # h_d or e_d itself, 1 for two empty shapes
        return _cycle_types(d, signed) if d >= 0 else Polynomial.zero()
    entry = elementary if signed else homogeneous  # entries read the memo
    lp = lam.parts + (0,) * (m - lam.rows)
    mp = inner.parts + (0,) * (m - inner.rows)
    # Entry (i, j) is entry(a[i] - b[j]), zero when the index is negative.
    a = [lp[i] - i for i in range(m)]
    b = [mp[j] - j for j in range(m)]
    top = a[0] - b[-1]  # the largest entry weight: a falls with i, b with j
    # A minor met in the expansion weighs at most d, the entries above it
    # weighing >= 0, so an entry heavier than d never meets a nonzero minor,
    # and keys are only ever added within weight d: ``_t_slots`` never carries.
    shift = _t_slots(d, top)
    table = {}
    for k in {x - y for x in a for y in b if 0 <= x - y <= d}:
        fk = factorial(k)  # h_k's and e_k's coefficients are +-1/prod_j k_j!
        table[k] = {sum(e << shift[v.index] for v, e in mono):
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
    del minor  # it refers to itself: unbound, the minors need no cyclic collector
    if not scaled:
        return Polynomial.zero()
    den = factorial(d)
    slots = [(row, shift[j]) for j, row in enumerate(_t_pairs(d)[1:top + 1], 1)]
    terms, coeffs = {}, {}
    for key in sorted(scaled, reverse=True):
        c = scaled[key]
        mono = []
        for row, at in slots:  # t1 first; a slot read is cleared from the key
            e = key >> at
            if e:
                mono.append(row[e])
                key -= e << at
                if not key:
                    break
        terms[tuple(mono)] = coeffs.get(c) or coeffs.setdefault(c, Fraction(c, den))
    return Polynomial._raw(terms, in_order=True)


def schur_via_characters(lam: YoungDiagram) -> Polynomial:
    """Schur polynomial as the character-weighted sum over cycle types.

    Independent route: s_lam = sum_rho chi^lam(rho) p_rho / z_rho (Macdonald
    I (7.8)), in the t-coordinates chi^lam(rho) * prod_j t_j^{k_j} / k_j!,
    k_j the number of j-cycles of rho.  Only the nonzero characters carry
    terms, and the shape's column (``_column``, one Murnaghan-Nakayama walk)
    holds exactly those.

    Each cycle type is keyed with the determinant's t-slot layout
    (``_t_slots``); the keys are sorted once, descending, and the terms
    handed over in that order and flagged so, so that the writers sort
    nothing.  Memoized per shape, the last SCHUR_CACHE_SIZE shapes used, in
    ``_schur_via_characters`` (``cache_info()``, ``cache_clear()``), apart
    from the determinant's memo so that the two routes stay independent.  A
    hit returns the same Polynomial object, which is immutable.
    """
    return _schur_via_characters(lam.parts)


@lru_cache(maxsize=SCHUR_CACHE_SIZE)
def _schur_via_characters(parts: tuple[int, ...]) -> Polynomial:
    """``schur_via_characters`` on lam's parts; a miss walks ``_column``."""
    n = sum(parts)
    rows, shift = _t_pairs(n), _t_slots(n, n)
    keyed = {}
    for cycles, chi in _column(parts).items():
        mono, den, key = [], 1, 0
        for j, run in groupby(reversed(cycles)):  # t_j ascending
            k = len(list(run))
            mono.append(rows[j][k])
            den *= factorial(k)
            key += k << shift[j]
        keyed[key] = tuple(mono), Fraction(chi, den)
    return Polynomial._raw(dict(map(keyed.__getitem__, sorted(keyed, reverse=True))), in_order=True)


def _orbits(dominant: dict, xs: tuple[Variable, ...]) -> Polynomial:
    """The symmetric polynomial in xs whose weakly decreasing terms are
    ``dominant``, {(Q power, exponent vector): int or Fraction coeff}, one
    orbit per vector; zero coefficients drop out.  A vector's monomials are
    built once for all its Q powers: each distinct nonzero exponent goes on
    every combination of the letters still free.

    Each placement also adds to the vector's packed key: Q in the highest
    slot, then x1, x2, ..., each letter's slot as wide as the largest
    exponent, so that descending keys are canonical order.  The keys are
    sorted once, descending, and the terms handed over in that order and
    flagged so, so that the writers sort nothing."""
    by_alpha: dict[tuple[int, ...], list] = {}
    for (q, alpha), c in dominant.items():
        if c:
            by_alpha.setdefault(alpha, []).append((q, Fraction(c)))
    top = max((alpha[0] for alpha in by_alpha if alpha), default=0)  # alpha decreases
    rows = [[(x, e) for e in range(top + 1)] for x in xs]  # one shared pair per (x, e)
    n, width = len(xs), top.bit_length()
    shift = [(n - 1 - i) * width for i in range(n)]  # x1 highest; Q above xs' n slots
    keyed = {}
    q_v = q_var()
    for alpha, coeffs in by_alpha.items():
        vectors = [([0] * n, 0)]  # (exponent vector, packed key)
        for e, run in groupby(e for e in alpha if e):
            m = len(list(run))
            share = [e << at for at in shift]
            spread = []
            for vec, key in vectors:
                for letters in combinations([i for i, f in enumerate(vec) if not f], m):
                    new, k = list(vec), key
                    for i in letters:
                        new[i] = e
                        k += share[i]
                    spread.append((new, k))
            vectors = spread
        monos = [(key, tuple([row[e] for row, e in zip(rows, vec) if e])) for vec, key in vectors]
        for q, c in coeffs:
            head, q_key = ((q_v, q),) if q else (), q << n * width
            for key, mono in monos:
                keyed[q_key + key] = head + mono, c
    return Polynomial._raw(dict(map(keyed.__getitem__, sorted(keyed, reverse=True))), in_order=True)


def monomial(lam: YoungDiagram, alphabet: AlphabetContext) -> Polynomial:
    """Monomial symmetric polynomial: all distinct permutations of the
    exponents; zero when lam has more rows than the alphabet has letters,
    whose orbit is empty."""
    return _orbits({(0, lam.parts): 1}, alphabet.variables())


def _peel(layer: dict, n: int, branches, weight) -> dict:
    """The weakly decreasing terms {(Q power, exponent vector): int} of a
    symmetric polynomial in x1..xn, peeling one letter per step, xn first.

    ``layer`` maps a state, what is left for the letters not yet peeled, to
    {(Q power, exponents of the letters peeled so far): int}.  The branches
    of a state do not depend on the letter: ``branches``, the caller's
    tabulated function, is called once per state and letter and gives every
    (next state, the letter's power, factor as (Q power, int) pairs, rows the
    next state needs).  Letter xk keeps the branches whose next state fits
    in k-1 letters.  x1 takes what is left: a state goes to () with power
    ``weight(state)`` and factor 1, so no state is tabulated for the last
    letter alone.  A term grows only by a power at least the last one peeled,
    so only the weakly decreasing vectors, all a symmetric polynomial needs,
    survive.
    """
    for k in range(n, 0, -1):
        nxt: dict = {}
        for state, above in layer.items():
            options = branches(state) if k > 1 else (((), weight(state), ((0, 1),), 0),)
            for new, power, factor, rows in options:
                if rows >= k:
                    continue
                out = nxt.setdefault(new, {})
                for (q, alpha), c in above.items():
                    if alpha and power < alpha[0]:
                        continue
                    alpha = (power,) + alpha
                    for dq, dc in factor:
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


@lru_cache(maxsize=HL_BRANCH_CACHE_SIZE)
def _branches(mu: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], int, tuple, int], ...]:
    """``_peel``'s branches of the shape mu for ``hall_littlewood``: each nu
    with mu/nu a horizontal strip, as (nu, |mu| - |nu|, psi_{mu/nu}(Q) as
    (Q power, coeff) pairs, rows of nu).  Memoized per shape, the last
    HL_BRANCH_CACHE_SIZE shapes used, since sub-shapes recur across letters,
    calls and partitions."""
    size = sum(mu)
    out = []
    for nu in product(*(range(low, high + 1) for low, high in zip(mu[1:] + (0,), mu))):
        nu = nu[:-1] if nu and not nu[-1] else nu
        out.append((nu, size - sum(nu), tuple(_strip_factor(mu, nu).items()), len(nu)))
    return tuple(out)


def hall_littlewood(lam: YoungDiagram, alphabet: AlphabetContext, workers: int = 1) -> Polynomial:
    """Hall-Littlewood polynomial P_lam(x1..xN; Q).

    Built one letter at a time by the branching rule of Macdonald, *Symmetric
    Functions and Hall Polynomials*, III (5.8') and (5.11'):

        P_lam(x1..xn; Q) = sum_mu psi_{lam/mu}(Q) * xn^{|lam|-|mu|} * P_mu(x1..x_{n-1}; Q),

    summed over every mu with lam/mu a horizontal strip and at most n-1 rows.
    ``_peel`` unrolls it from lam in N letters to P_() = 1 in none, the shape
    being the state and ``_branches`` its strips.  Every coefficient is an
    integer polynomial in Q, so no division happens.  At Q=0 this degenerates
    to the Schur polynomial and at Q=1 to the monomial one.  ``workers`` must
    be a positive int and is otherwise ignored: the build runs in the calling
    thread.
    """
    n = alphabet.count
    if lam.rows > n:
        raise ValueError(f"partition has {lam.rows} rows but the alphabet only {n} variables")
    if type(workers) is not int or workers < 1:
        raise ValueError("workers must be positive")
    return _orbits(_peel({lam.parts: {(0, ()): 1}}, n, _branches, sum), alphabet.variables())


def miwa_push(p: Polynomial, alphabet: AlphabetContext) -> Polynomial:
    """Rewrite a t-polynomial in the alphabet via the power sums, letter by
    letter with ``_peel``; ``Polynomial.substitute`` is the independent route."""
    bad = [v for v in p.variables() if v.kind != "t"]
    if bad:
        raise ValueError(f"polynomial must use only t-variables, found {min(bad).name}")

    @cache
    def branches(mono):
        # By t_j = t_j(x1..x_{k-1}) + xk^j / j, xk takes b_j of t_j's e_j factors
        # with weight prod_j binomial(e_j, b_j), one t_j after another.  What
        # is left lives in any nonempty alphabet, and x1 takes it all.
        out = [((), 0, 1)]
        for v, e in mono:
            j = v.index
            out = [(rest + ((v, e - b),) if b < e else rest, power + j * b, c * comb(e, b))
                   for rest, power, c in out for b in range(e + 1)]
        return [(rest, power, ((0, c),), 0) for rest, power, c in out]

    def weight(mono):  # x1's power: the Miwa weight sum_j j * e_j
        return sum(v.index * e for v, e in mono)

    # The factors 1/j of t_j join each coefficient's denominator; every source
    # monomial then enters as an int over their common multiple den.
    scale = {mono: c.denominator * prod(v.index ** e for v, e in mono)
             for mono, c in p._terms.items()}
    den = lcm(*scale.values())
    layer = {mono: {(0, ()): c.numerator * den // scale[mono]} for mono, c in p._terms.items()}
    dominant = _peel(layer, alphabet.count, branches, weight)
    return _orbits({key: Fraction(c, den) for key, c in dominant.items() if c}, alphabet.variables())
