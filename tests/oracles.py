"""Independent oracles the tests check the library against.

Nothing here may call into schurkit: partition counts come from the classic
coin-style dynamic program, enumeration from bounded recursion, transposition
from direct column counting, the Hall-Littlewood numerator from summing over
every permutation, characters of straight and skew shapes from the Frobenius
formula, and the text and wire bytes of a polynomial from one plain body per
term in descending exponent-vector order.
"""

from __future__ import annotations

import json
from functools import lru_cache
from itertools import permutations


def dp_partition_counts(limit: int) -> list[int]:
    """p(0)..p(limit) by the bounded-part dynamic program."""
    counts = [1] + [0] * limit
    for part in range(1, limit + 1):
        for total in range(part, limit + 1):
            counts[total] += counts[total - part]
    return counts


@lru_cache(maxsize=None)
def naive_partitions(n: int, max_part: int | None = None) -> frozenset[tuple[int, ...]]:
    """All partitions of n as decreasing tuples, by plain recursion."""
    if max_part is None:
        max_part = n
    if n == 0:
        return frozenset({()})
    out = set()
    for first in range(min(n, max_part), 0, -1):
        for rest in naive_partitions(n - first, first):
            out.add((first,) + rest)
    return frozenset(out)


def grid_transpose(parts: tuple[int, ...]) -> tuple[int, ...]:
    """Column lengths read straight off the box grid."""
    if not parts:
        return ()
    return tuple(sum(1 for p in parts if p > j) for j in range(parts[0]))


def boxes_of(parts: tuple[int, ...]) -> set[tuple[int, int]]:
    """The diagram as a set of (row, column) cells, 1-indexed."""
    return {(i + 1, j + 1) for i, p in enumerate(parts) for j in range(p)}


def hall_littlewood_numerator(parts: tuple[int, ...], n: int) -> dict[tuple[int, tuple[int, ...]], int]:
    """sum_w sign(w) * w(x^lam * prod_{i<j} (x_i - Q x_j)) over all of S_n.

    Returned as {(Q power, exponent vector): coeff}.  This is the numerator of
    P_lam(x1..xn; Q) * Vandermonde * prod_m [m]_Q! in the symmetrization
    definition (Macdonald III, section 2), expanded by brute force.
    """
    padded = tuple(parts) + (0,) * (n - len(parts))
    expanded = {(0, padded): 1}
    for i in range(n):
        for j in range(i + 1, n):
            nxt: dict[tuple[int, tuple[int, ...]], int] = {}
            for (q, alpha), c in expanded.items():
                for dq, var, sign in ((0, i, 1), (1, j, -1)):
                    beta = list(alpha)
                    beta[var] += 1
                    key = (q + dq, tuple(beta))
                    nxt[key] = nxt.get(key, 0) + sign * c
            expanded = nxt
    total: dict[tuple[int, tuple[int, ...]], int] = {}
    for perm in permutations(range(n)):
        inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        sign = -1 if inversions % 2 else 1
        for (q, alpha), c in expanded.items():
            # w sends x_i to x_{perm[i]}, so the exponent of x_i moves to slot perm[i].
            beta = [0] * n
            for slot, e in zip(perm, alpha):
                beta[slot] = e
            key = (q, tuple(beta))
            total[key] = total.get(key, 0) + sign * c
    return {key: c for key, c in total.items() if c}


def frobenius_character(parts: tuple[int, ...], cycles: tuple[int, ...],
                        inner: tuple[int, ...] = ()) -> int:
    """chi^(lam/mu)(rho) as the coefficient of x^(lam+delta) in a_(mu+delta) * p_rho.

    Frobenius' formula over m = rows(lam) letters, delta = (m-1, ..., 0), with
    mu = inner padded to m rows (empty by default, giving chi^lam): p_rho is
    expanded one power sum at a time, and a_(mu+delta) = sum_w sign(w)
    x^(w(mu+delta)) contributes the coefficient of x^(lam + delta - w(mu+delta))
    (Macdonald I, section 7).  Zero when inner has more rows than lam.
    """
    m = len(parts)
    if len(inner) > m:
        return 0
    inner = tuple(inner) + (0,) * (m - len(inner))
    power_sums = {(0,) * m: 1}
    for r in cycles:
        nxt: dict[tuple[int, ...], int] = {}
        for alpha, c in power_sums.items():
            for i in range(m):
                beta = alpha[:i] + (alpha[i] + r,) + alpha[i + 1:]
                nxt[beta] = nxt.get(beta, 0) + c
        power_sums = nxt
    total = 0
    for perm in permutations(range(m)):
        inversions = sum(perm[a] > perm[b] for a in range(m) for b in range(a + 1, m))
        # (w(mu+delta))_i = mu[perm[i]] + m-1-perm[i], so lam + delta - w(mu+delta)
        # has entry parts[i] - i - mu[perm[i]] + perm[i].
        need = tuple(p - i - inner[perm[i]] + perm[i] for i, p in enumerate(parts))
        total += (-1) ** inversions * power_sums.get(need, 0)
    return total



def _rendered_terms(terms: dict) -> list[tuple[list[tuple[str, int]], object]]:
    """([(name, exponent), ...], coefficient) per term, largest exponent
    vector first.

    A monomial is a tuple of ((kind, index), exponent) pairs and a variable
    is named Q, or its kind and index (t2, x10); variables order as their
    (kind, index) tuples, Q < t1 < t2 < ... < x1.  Each monomial becomes its
    exponent vector over every variable of the polynomial, absent ones 0.
    """
    variables = sorted({v for mono in terms for v, _ in mono})
    vector = {mono: tuple(dict(mono).get(v, 0) for v in variables) for mono in terms}
    return [([("Q" if v[0] == "Q" else f"{v[0]}{v[1]}", e) for v, e in mono], terms[mono])
            for mono in sorted(terms, key=vector.__getitem__, reverse=True)]


def reference_text(terms: dict) -> str:
    """The canonical text of {monomial: Fraction}: "0" when empty, otherwise
    the terms joined by " + " or " - ", the first carrying a bare "-" when
    negative; a body is num*x1**2*t3/den, with a 1 numerator, a 1
    denominator and a 1 exponent left out, and a constant just num or num/den."""
    out = []
    for names, c in _rendered_terms(terms):
        num, den = abs(c.numerator), c.denominator
        factors = [n if e == 1 else f"{n}**{e}" for n, e in names]
        if not factors or num != 1:
            factors.insert(0, str(num))
        body = "*".join(factors) + ("" if den == 1 else f"/{den}")
        if out:
            out.append((" - " if c < 0 else " + ") + body)
        else:
            out.append(("-" if c < 0 else "") + body)
    return "".join(out) or "0"


def reference_wire(terms: dict) -> str:
    """The compact JSON of the wire form: per term, coeff "num" or "num/den"
    and the monomial as {name: exponent} in variable order."""
    return json.dumps([{"coeff": str(c.numerator) if c.denominator == 1
                        else f"{c.numerator}/{c.denominator}", "monomial": dict(names)}
                       for names, c in _rendered_terms(terms)], separators=(",", ":"))
