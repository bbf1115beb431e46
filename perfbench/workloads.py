"""Declared request pools of the three workloads, and the seeded deal.

A workload is a list of strata.  Each stratum has a finite pool of requests
and a fixed number of draws per round.  The seed deals every stratum like a
shuffled deck: each pool entry is drawn ``count // len(pool)`` times, the seed
picks which entries fill the remainder, and the seed fixes the final order of
the whole list.  Entries repeat whenever ``count`` exceeds the pool, so the
library's caches are exercised.

Why not plain draws with replacement: per-request costs inside one workload
span three orders of magnitude (an n=5 Hall-Littlewood build costs 20x an
n=4 one; a cold h34 costs 1000x a cached h4), so letting the seed choose how
many expensive requests a run gets moves ``run_s`` and the percentiles by
more than the regression bounds.  Dealing keeps each run's cost mix fixed;
the seed still changes which cheap entries repeat and, through the order,
which request pays each cache miss.

The counts are chosen so that ``latency_p50_ms`` and ``latency_p90_ms`` land
inside one cost band rather than on the step between two (for example
between the last n=4 and the first n=5 Hall-Littlewood build).

Inputs are plain JSON data; the client turns them into library objects.
Nothing here imports schurkit.
"""

from __future__ import annotations

import random

# Requests that fail today for a reason recorded in ROADMAP.md.  They are
# dealt like any other request, served first in every round (see deal), and
# counted in ``failed``; a run is still ``correct`` when only these fail, and
# only by raising.  Their expected output (exit code, newline, stdout) is
# stated here instead of frozen, because the library produces none yet.  The
# trivial character is 1 on every class.  ``character 500 --cycles 1:500`` is not used: whether it overflows
# the recursion limit depends on what the character cache already holds and
# on the caller's stack depth, so it would fail in some orders and not others.
KNOWN_DEFECTS = {
    "cli character 1000 --cycles 1:1000": {
        "reason": "RecursionError in the recursive Murnaghan-Nakayama rule (ROADMAP item 4)",
        "expect": "0\n1",
    },
}


def _partitions(n: int, max_part: int | None = None):
    """Partitions of n as decreasing tuples, largest first part first."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part or n), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _lit(parts) -> str:
    return ",".join(str(p) for p in parts)


def _entry(op: str, args: list, render: str | None = None) -> dict:
    words = [op] + [a if isinstance(a, str) else _lit(a) if isinstance(a, (list, tuple)) else str(a)
                    for a in args]
    if render:
        words.append(render)
    return {"id": " ".join(words), "op": op, "args": args, "render": render}


def _hl(parts, n: int, w: int) -> dict:
    return {"id": f"hl {_lit(parts)} n={n} w={w} text", "op": "hl",
            "args": [list(parts), n, w], "render": "text"}


def _cli(*argv: str, code: int = 0) -> dict:
    return {"id": "cli " + " ".join(argv), "op": "cli", "args": list(argv),
            "render": None, "code": code}


def _random_partition(rng: random.Random, n: int) -> tuple[int, ...]:
    parts = []
    left = n
    while left:
        p = rng.randint(1, min(left, max(1, n // 3)))
        parts.append(p)
        left -= p
    return tuple(sorted(parts, reverse=True))


def _hl_strata():
    small = [p for b in range(7) for p in _partitions(b)]
    # (3,2,1) at n=4 costs as much as its n=4 neighbours (2,2), (3,1), (2,2,2);
    # repeated, it puts a flat block of equal latencies at the median.  The
    # n=5 shapes cost within about 1.5x of each other, so the 90th percentile
    # lands inside a flat band too; (3,2,1) at n=5 sits above it.
    middle = (3, 2, 1)
    n5 = [(), (1,), (2, 1), (1, 1, 1, 1), (2, 1, 1), (1, 1, 1, 1, 1), (2, 1, 1, 1),
          (2, 2, 1, 1)]
    return [
        ("hl.n3", 14, [_hl(p, 3, w) for p in small if len(p) <= 3 for w in (1, 2)]),
        ("hl.n4", 52, [_hl(p, 4, w) for p in small if len(p) <= 4 and p != middle
                       for w in (1, 2)]),
        ("hl.n4-mid", 16, [_hl(middle, 4, w) for w in (1, 2)]),
        ("hl.n5", 16, [_hl(p, 5, w) for p in n5 for w in (1, 2)]),
        ("hl.n5-top", 2, [_hl(middle, 5, w) for w in (1, 2)]),
    ]


def _schur_miwa_strata():
    # Only small degrees here: a cold h_k or e_k for k near 20 costs ten times
    # a cached one, so which request pays the miss would move the median with
    # the seed.  The large degrees sit in the "big" stratum, above the p90.
    he = [_entry("h", [k], "text") for k in range(1, 13)]
    he += [_entry("e", [k], "json") for k in range(1, 13)]

    def schur(lam, mu, render):
        return _entry("schur", [list(lam), list(mu) if mu is not None else None], render)

    def push(lam, n, render):
        return _entry("miwa", [list(lam), n], render)

    # Each percentile lands in the middle of a block of one repeated request,
    # the 50th in (5,5,3,3) as text (about 30 ms) and the 90th in the 8-row
    # 17-box shape as JSON (about 100 ms).  Schur polynomials are not cached,
    # so every repeat costs the same, and the percentile is that request's
    # latency.  As many requests cost less than the p50 block as cost more;
    # the requests between the two blocks, and the big tail above the p90
    # one, are few.  A percentile taken over requests of graded costs moved
    # with the order and the machine's speed by more than the bound.
    cheap = [schur((6, 5, 4, 3), (3, 2, 1), "json"), schur((8, 6, 4, 2), (4, 2), "text"),
             schur((7, 5, 5, 3), (4, 2, 1), "json"), schur((6, 6, 4, 4), (3, 3), "text")]
    small = [schur((5, 4, 3, 2), None, "json"), schur((7, 5, 3, 1), None, "text")]
    p50 = [schur((5, 5, 3, 3), None, "text")]
    between = [schur((4, 4, 4, 4), None, "json"), schur((5, 5, 5, 5), (3, 1), "json"),
               schur((6, 4, 4, 2, 2), None, "text"), schur((6, 5, 4, 3), None, "json"),
               schur((8, 6, 4, 2), None, "json"), schur((8, 5, 3, 2, 1), None, "json"),
               schur((6, 5, 3, 3, 2), None, "text"),
               push((3, 2, 1), 5, "json"), push((4, 3, 2, 1), 4, "text"),
               push((2, 2, 1, 1), 6, "json"), push((4, 2), 6, "text")]
    p90 = [schur((4, 3, 3, 2, 2, 1, 1, 1), None, "json")]
    # h34 is left out: its 12 310-term build holds ~15 MB at once, and where
    # it falls in the order moved peak_rss_mb by 8 MB between seeds.
    big = [_entry("h", [30], "text"), _entry("e", [28], "text"), _entry("h", [26], "json"),
           schur((7, 6, 5, 4, 3, 2, 1), None, "text"), schur((7, 6, 5, 4, 3, 2, 1), None, "json")]
    return [
        ("sm.he", 19, he),
        ("sm.skew", 12, cheap),
        ("sm.schur", 16, small),
        ("sm.schur-p50", 56, p50),
        ("sm.between", 22, between),
        ("sm.schur-p90", 20, p90),
        ("sm.big", 5, big),
    ]


def _character_strata():
    rng = random.Random("character-route pool")
    chi = []
    for n in (30, 36, 42, 48, 54, 60):
        for _ in range(3):
            shape = _random_partition(rng, n)
            cycles = _random_partition(rng, n)
            spec = ",".join(f"{c}:{cycles.count(c)}" for c in sorted(set(cycles)))
            chi.append(_entry("chi", [list(shape), spec]))
    dim = [_entry("dim", [list(_random_partition(rng, n))]) for n in (30, 36, 42, 48, 54, 60)]
    svc_shapes = [(6, 5, 4, 3, 2, 1, 1), (8, 6, 4, 2, 2), (7, 7, 5, 3), (5, 5, 5, 5, 2),
                  (6, 5, 4, 3, 2, 1, 1, 1, 1), (9, 7, 5, 3, 1), (7, 6, 5, 4, 3, 2, 1)]
    svc = [_entry("svc", [list(p)], "text" if i % 2 else "json")
           for i, p in enumerate(svc_shapes)]
    cli_light = [
        _cli("character", "5,3,1", "--cycles", "2:3,3:1"),
        _cli("character", "4,4,2,1", "--cycles", "1:3,4:2"),
        _cli("character", "6,4,3,2,1", "--cycles", "2:4,8:1"),
        _cli("character", "10,8,6,4,2", "--cycles", "5:6"),
        _cli("character", "12,9,7,7,5", "--cycles", "1:4,3:2,6:2,8:1,10:1"),
        _cli("character", "20,15,10,5", "--cycles", "2:5,4:5,5:4"),
        _cli("partition", "5,3,3,1"),
        _cli("partition", "9,7,7,2,1,1"),
        _cli("partition", "12,6,6,3,3"),
        _cli("list", "12"),
        _cli("character", "3,x", "--cycles", "1:4", code=1),
        _cli("partition", "3,,1", code=1),
        _cli("character", "3,2", "--cycles", "2-1", code=1),
        _cli("schur", code=1),
        _cli("character", "3,2", "--cycles", "1:4", code=2),
        _cli("partition", "1,2", code=2),
        _cli("list", "-1", code=2),
    ]
    slow_cli = [
        _cli("verify", "characters", "--max-boxes", "8"),
        _cli("list", "30"),
    ]
    # The 90th percentile lands in the middle of a block of one repeated
    # request whose cost does not depend on what is cached (about 120 ms).
    # Schur-via-characters requests cost 3-8x less once the character cache
    # holds what they need, so a percentile among them moved with the order.
    p90 = [_cli("verify", "oracles", "--max-boxes", "8")]
    defects = [_cli("character", "1000", "--cycles", "1:1000")]
    # About a seventh of the requests are fast (under 1 ms) and five eighths
    # are CLI requests of 2-3 ms, so the median falls in the middle of the
    # CLI band.  Above it come the character-built Schur polynomials and the
    # slow CLI requests; as many of them cost more than the p90 block as fit
    # in the top tenth less half the block.
    return [
        ("cr.chi", 18, chi),
        ("cr.dim", 6, dim),
        ("cr.cli", 102, cli_light),
        ("cr.svc", 14, svc),
        ("cr.cli-slow", 4, slow_cli),
        ("cr.cli-p90", 16, p90),
        ("cr.defect", 1, defects),
    ]


WORKLOADS = {
    "hl-build": _hl_strata,
    "schur-miwa": _schur_miwa_strata,
    "character-route": _character_strata,
}


def pool(workload: str) -> list[dict]:
    """Every distinct entry of a workload's pool, each once."""
    return [e for _, _, entries in WORKLOADS[workload]() for e in entries]


def deal(workload: str, seed: int) -> list[dict]:
    """The run's request list: the same seed always gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    requests = []
    for name, count, entries in WORKLOADS[workload]():
        full, rest = divmod(count, len(entries))
        picks = entries * full + rng.sample(entries, rest)
        requests.extend(dict(e, stratum=name) for e in picks)
    rng.shuffle(requests)
    # Known defects go first in every round: the 1000-deep recursion leaves
    # stack and frame memory resident, and where it fell in the order moved
    # peak_rss_mb by 2.5 MB between seeds.
    requests.sort(key=lambda r: r["id"] not in KNOWN_DEFECTS)
    return requests
