"""The classical symmetric-polynomial families, exactly.

Complete homogeneous and elementary polynomials live in the power-sum
coordinates t; (skew-)Schur polynomials come from the determinant identity
det(h_{lam_i - mu_j - i + j}); monomial and Hall-Littlewood polynomials live
in a finite alphabet x1..xN, the latter carrying the deformation parameter Q
and built letter by letter with Macdonald's horizontal-strip branching rule.
``miwa_push`` moves a t-polynomial into the alphabet via
t_j -> (1/j) * (x1^j + ... + xN^j).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import factorial, prod

from .characters import character
from .partitions import ConjugacyClass, YoungDiagram, partitions_of
from .polyalgebra import Polynomial, Variable, determinant, q_var, t_var, x_var

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


@dataclass(frozen=True)
class MiwaContext:
    """Provides the power-sum variables t1..t_count."""

    count: int

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be positive")

    def variables(self) -> tuple[Variable, ...]:
        return tuple(t_var(i) for i in range(1, self.count + 1))


@dataclass(frozen=True)
class AlphabetContext:
    """Provides the alphabet variables x1..x_count."""

    count: int

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be positive")

    def variables(self) -> tuple[Variable, ...]:
        return tuple(x_var(i) for i in range(1, self.count + 1))


def _miwa_sum(n: int, weight) -> Polynomial:
    """sum_mu weight(mu) * prod_j t_j^{k_j} / k_j! over the cycle types mu of n,
    k_j the number of j-cycles: the Miwa form of sum_mu weight(mu) p_mu / z_mu."""
    terms = {}
    for shape in partitions_of(n):
        mu = shape.conjugacy_class()
        w = weight(mu)
        if w:
            mult = mu.multiplicities
            mono = tuple((t_var(j), k) for j, k in mult.items())
            terms[mono] = Fraction(w, prod(map(factorial, mult.values())))
    return Polynomial(terms)


@lru_cache(maxsize=None)
def homogeneous(n: int) -> Polynomial:
    """Complete homogeneous polynomial h_n in the t-coordinates.

    h_n sums, over all multiplicity vectors with sum j*k_j = n, the products
    of t_j^{k_j} / k_j!; h_0 = 1.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _miwa_sum(n, lambda mu: 1)


@lru_cache(maxsize=None)
def elementary(n: int) -> Polynomial:
    """Elementary polynomial e_n = sum_mu (-1)^{n - rows(mu)} prod_j t_j^{k_j} / k_j!
    in the t-coordinates, over the same mu as h_n (Macdonald I (2.14'))."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _miwa_sum(n, lambda mu: (-1) ** (n - len(mu.cycles())))


def _h_or_zero(k: int) -> Polynomial:
    return Polynomial.zero() if k < 0 else homogeneous(k)


def schur(lam: YoungDiagram, mu: YoungDiagram | None = None) -> Polynomial:
    """(Skew-)Schur polynomial in the t-coordinates via the h-determinant.

    The matrix is square of side max(rows(lam), rows(mu)), both partitions
    zero-padded, so the determinant vanishes whenever mu is not contained in
    lam.  With mu omitted this is the straight Schur polynomial.
    """
    inner = mu if mu is not None else YoungDiagram()
    m = max(lam.rows, inner.rows)
    if m == 0:
        return Polynomial.one()
    lp = lam.parts + (0,) * (m - lam.rows)
    mp = inner.parts + (0,) * (m - inner.rows)
    rows = [
        [_h_or_zero(lp[i] - mp[j] - (i + 1) + (j + 1)) for j in range(m)]
        for i in range(m)
    ]
    return determinant(rows)


def schur_via_characters(lam: YoungDiagram) -> Polynomial:
    """Schur polynomial as the character-weighted sum over cycle types.

    Independent route: sum over all mu of the same weight of
    chi^lam(mu) * prod_j t_j^{k_j} / k_j!.
    """
    return _miwa_sum(lam.boxes, lambda mu: character(lam, mu))


def _distinct_permutations(seq: tuple[int, ...]):
    """All distinct arrangements of a multiset, by repeated next-permutation."""
    current = sorted(seq)
    n = len(current)
    while True:
        yield tuple(current)
        k = n - 2
        while k >= 0 and current[k] >= current[k + 1]:
            k -= 1
        if k < 0:
            return
        j = n - 1
        while current[j] <= current[k]:
            j -= 1
        current[k], current[j] = current[j], current[k]
        current[k + 1:] = reversed(current[k + 1:])


def monomial(lam: YoungDiagram, alphabet: AlphabetContext) -> Polynomial:
    """Monomial symmetric polynomial: all distinct permutations of the exponents."""
    n = alphabet.count
    if lam.rows > n:
        return Polynomial.zero()
    padded = lam.parts + (0,) * (n - lam.rows)
    terms = {}
    for alpha in _distinct_permutations(padded):
        mono = tuple((x_var(i + 1), e) for i, e in enumerate(alpha) if e)
        terms[mono] = Fraction(1)
    return Polynomial(terms)


# Integer polynomial in Q and x1..xk: {(Q power, exponent vector): coeff}.
_QXTerms = dict[tuple[int, tuple[int, ...]], int]


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

    summed over every mu with lam/mu a horizontal strip and at most n-1 rows,
    from P_() = 1 at n = 0.  Every coefficient is an integer polynomial in Q,
    so no division happens.  At Q=0 this degenerates to the Schur polynomial
    and at Q=1 to the monomial one.  ``workers`` must be positive and is
    otherwise ignored: the build runs in the calling thread.
    """
    n = alphabet.count
    if lam.rows > n:
        raise ValueError(f"partition has {lam.rows} rows but the alphabet only {n} variables")
    if workers < 1:
        raise ValueError("workers must be positive")

    # P_mu(x1..xk), memoized per call on (mu, k).
    memo: dict[tuple[tuple[int, ...], int], _QXTerms] = {}

    def build(mu: tuple[int, ...], k: int) -> _QXTerms:
        if k == 0:
            return {(0, ()): 1}
        if (mu, k) in memo:
            return memo[(mu, k)]
        out: _QXTerms = {}
        size = sum(mu)
        bounds = zip(mu[1:] + (0,), mu)
        for nu in product(*(range(low, high + 1) for low, high in bounds)):
            nu = nu[:-1] if nu and not nu[-1] else nu
            if len(nu) >= k:
                continue
            power = size - sum(nu)
            psi = _strip_factor(mu, nu)
            for (q, alpha), c in build(nu, k - 1).items():
                alpha = alpha + (power,)
                for dq, dc in psi.items():
                    key = (q + dq, alpha)
                    out[key] = out.get(key, 0) + c * dc
        out = {key: c for key, c in out.items() if c}
        memo[(mu, k)] = out
        return out

    xs = alphabet.variables()
    terms = {}
    for (q, alpha), c in build(lam.parts, n).items():
        mono = (((q_var(), q),) if q else ()) + tuple(
            (xs[i], e) for i, e in enumerate(alpha) if e
        )
        terms[mono] = c
    return Polynomial(terms)


def miwa_push(p: Polynomial, alphabet: AlphabetContext) -> Polynomial:
    """Rewrite a t-polynomial in the alphabet via the power sums."""
    bad = [v for v in p.variables() if v.kind != "t"]
    if bad:
        raise ValueError(f"polynomial must use only t-variables, found {bad[0].name}")
    n = alphabet.count
    bindings = {
        v: Polynomial({((x_var(i), v.index),): Fraction(1, v.index) for i in range(1, n + 1)})
        for v in p.variables()
    }
    return p.substitute(bindings)
