"""Command-line front end.

Partition literals are comma-separated parts ("3,2,1", empty string for the
empty partition); cycle types are "size:count" pairs ("1:1,2:1").  Polynomial
subcommands print canonical text, or the JSON wire form with --json.

Exit codes: 0 success, 1 usage error, 2 domain error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time

from .characters import character
from .partitions import ConjugacyClass, YoungDiagram, _parts_of, partitions_of
from .polyalgebra import canonical_text, to_term_list
from .symfun import (AlphabetContext, _branches, _hall_littlewood, _schur, elementary,
                     hall_littlewood, homogeneous, monomial, schur)

BENCH_MAX_PARTITIONS = 80
BENCH_MAX_ALPHABET = 8
BENCH_MAX_STAIRCASE = 8
SHAPE_MAX_BOXES = 10**6  # every shape literal; the work on a shape grows with its boxes


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def parse_parts(text: str) -> YoungDiagram:
    if text.strip() in ("", "()"):
        return YoungDiagram()
    try:
        parts = [int(p) for p in text.split(",")]
    except ValueError:
        raise UsageError(f"malformed partition literal {text!r}") from None
    shape = YoungDiagram(parts)
    if shape.boxes > SHAPE_MAX_BOXES:
        raise ValueError(f"shape must have at most {SHAPE_MAX_BOXES} boxes")
    return shape


def parse_cycles(text: str) -> ConjugacyClass:
    mult: dict[int, int] = {}
    if text.strip() not in ("", "{}"):
        for chunk in text.split(","):
            try:
                size, count = chunk.split(":")
                j, k = int(size), int(count)
            except ValueError:
                raise UsageError(f"malformed cycle spec {chunk!r}") from None
            if k < 0:  # checked per chunk: the sum over a repeated size could hide it
                raise ValueError(f"multiplicities must be nonnegative integers, got {k}")
            mult[j] = mult.get(j, 0) + k
    return ConjugacyClass(mult)


@functools.cache
def build_parser() -> _Parser:
    """The whole argument tree, built once per process: parsing leaves it
    unchanged, so every ``run`` shares it."""
    parser = _Parser(prog="schurkit", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("partition", help="show both representations and the shape statistics")
    p.add_argument("parts")

    p = sub.add_parser("draw", help="render the Young diagram")
    p.add_argument("parts")
    p.add_argument("--symbol", type=int, default=4, help="symbol table index, 0..4 (default 4: '#')")

    p = sub.add_parser("list", help="enumerate all partitions of n, one per line")
    p.add_argument("n", type=int)

    for name in ("homogeneous", "elementary"):
        p = sub.add_parser(name, help=f"{name} polynomial of degree n in the t-coordinates")
        p.add_argument("n", type=int)
        p.add_argument("--json", action="store_true")

    p = sub.add_parser("schur", help="(skew-)Schur polynomial in the t-coordinates")
    p.add_argument("parts")
    p.add_argument("--skew", default=None, metavar="PARTS")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("monomial", help="monomial symmetric polynomial in x1..xN")
    p.add_argument("parts")
    p.add_argument("--vars", type=int, default=3, metavar="N")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("hall-littlewood", help="Hall-Littlewood polynomial in x1..xN and Q")
    p.add_argument("parts")
    p.add_argument("--vars", type=int, default=3, metavar="N")
    p.add_argument("--workers", type=int, default=1,
                   help="accepted for compatibility; must be positive, otherwise ignored")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("character", help="symmetric-group character of shape at a cycle type")
    p.add_argument("parts")
    p.add_argument("--cycles", required=True, metavar="SPEC")

    # verify.SCOPES and verify.MAX_BOXES_LIMIT, spelt out so that parsing
    # does not load verify; tests/test_cli.py checks that they agree.
    p = sub.add_parser("verify", help="run the invariant sweeps")
    p.add_argument("scope", choices=("all", "characters", "degenerations", "oracles"))
    p.add_argument("--max-boxes", type=int, default=4, dest="max_boxes",
                   help="box bound for the sweeps, at most 8 (default 4)")

    p = sub.add_parser("bench", help="time partition enumeration, a Hall-Littlewood build "
                       "or a staircase Schur polynomial")
    p.add_argument("target", choices=("partitions", "hall-littlewood", "schur"))
    p.add_argument("size", type=int)
    p.add_argument("--csv", action="store_true")
    return parser


class _PartText(dict):
    """``list``'s parts, each written on first use as its decimal text."""

    __slots__ = ()

    def __missing__(self, part):
        self[part] = text = str(part)
        return text


def _digits(n: int) -> str:
    """Every digit of n, also past the digit limit of CPython's int-to-str
    conversion (sys.get_int_max_str_digits), where str() raises."""
    try:
        return str(n)
    except ValueError:
        from decimal import Decimal  # only past the limit

        return str(Decimal(n))


def _emit_polynomial(args, lam, mu, poly) -> str:
    if not args.json:
        return canonical_text(poly)
    import json

    return json.dumps(
        {
            "family": args.command,
            "lambda": list(lam),
            "mu": list(mu) if mu is not None else None,
            "vars": getattr(args, "vars", None),
            "terms": to_term_list(poly),
        },
        separators=(",", ":"),
    )


def run(argv: list[str]) -> tuple[int, str]:
    """Execute one command; returns (exit status, stdout text)."""
    try:
        args = build_parser().parse_args(argv)
        if args.command == "partition":
            d = parse_parts(args.parts)
            fr = d.frobenius()
            conj = ",".join(f"{j}:{k}" for j, k in sorted(d.conjugacy_class().multiplicities.items()))
            lines = [
                "parts: " + ",".join(str(p) for p in d.parts),
                f"conjugacy: {conj}",
                f"rows: {d.rows}",
                f"columns: {d.columns}",
                f"boxes: {d.boxes}",
                f"diagonal: {d.diagonal}",
                "transpose: " + ",".join(str(p) for p in d.transpose().parts),
                "frobenius arms: " + ",".join(str(a) for a in fr.arms),
                "frobenius legs: " + ",".join(str(b) for b in fr.legs),
            ]
            return 0, "\n".join(lines)

        if args.command == "draw":
            return 0, parse_parts(args.parts).draw(args.symbol)

        if args.command == "list":
            part = _PartText().__getitem__  # made per call: it fills with the parts met
            return 0, "\n".join([",".join(map(part, parts)) for parts in _parts_of(args.n)])

        if args.command in ("homogeneous", "elementary"):
            poly = homogeneous(args.n) if args.command == "homogeneous" else elementary(args.n)
            return 0, _emit_polynomial(args, (args.n,), None, poly)

        if args.command == "schur":
            lam = parse_parts(args.parts)
            mu = parse_parts(args.skew) if args.skew is not None else None
            return 0, _emit_polynomial(args, lam, mu, schur(lam, mu))

        if args.command == "monomial":
            lam = parse_parts(args.parts)
            poly = monomial(lam, AlphabetContext(args.vars))
            return 0, _emit_polynomial(args, lam, None, poly)

        if args.command == "hall-littlewood":
            lam = parse_parts(args.parts)
            poly = hall_littlewood(lam, AlphabetContext(args.vars), workers=args.workers)
            return 0, _emit_polynomial(args, lam, None, poly)

        if args.command == "character":
            shape = parse_parts(args.parts)
            cycles = parse_cycles(args.cycles)
            return 0, _digits(character(shape, cycles))

        if args.command == "verify":
            from .verify import run_scope  # verify loads here, not with this module
            results = run_scope(args.scope, args.max_boxes)
            lines = [
                f"{name}: {'pass' if passed else 'FAIL'} ({cases} cases)"
                for name, passed, cases in results
            ]
            status = 0 if all(passed for _, passed, _ in results) else 3
            return status, "\n".join(lines)

        return _bench(args)  # "bench", the last of the parser's required commands
    except UsageError as exc:
        print(f"schurkit: {exc}", file=sys.stderr)
        return 1, ""
    except (ValueError, ArithmeticError) as exc:
        print(f"schurkit: {exc}", file=sys.stderr)
        return 2, ""
    except MemoryError:
        print("schurkit: out of memory", file=sys.stderr)
        return 2, ""


def _bench(args) -> tuple[int, str]:
    if args.target == "partitions":
        if not 0 <= args.size <= BENCH_MAX_PARTITIONS:
            raise ValueError(f"partitions bench size must be in 0..{BENCH_MAX_PARTITIONS}")
        start = time.perf_counter()
        items = sum(1 for _ in partitions_of(args.size))
        elapsed = time.perf_counter() - start
        label = "partitions"
    else:
        if args.target == "hall-littlewood":
            if not 1 <= args.size <= BENCH_MAX_ALPHABET:
                raise ValueError(f"hall-littlewood bench alphabet must be in 1..{BENCH_MAX_ALPHABET}")
            lam = YoungDiagram((3, 2, 1)) if args.size >= 3 else YoungDiagram((1,) * args.size)
            _branches.cache_clear()  # a full build: every shape's branches tabulated anew
            start = time.perf_counter()
            poly = _hall_littlewood.__wrapped__(lam.parts, args.size)  # a build, never a memo hit
        else:
            if not 1 <= args.size <= BENCH_MAX_STAIRCASE:
                raise ValueError(f"schur bench staircase must be in 1..{BENCH_MAX_STAIRCASE}")
            lam = YoungDiagram(range(args.size, 0, -1))
            start = time.perf_counter()
            poly = _schur.__wrapped__(lam.parts, ())  # a build, never a memo hit
        elapsed = time.perf_counter() - start
        items = len(poly.terms)
        label = "output terms"
    if args.csv:
        return 0, "target,size,items,seconds\n" + f"{args.target},{args.size},{items},{elapsed:.3f}"
    return 0, "\n".join([
        f"target: {args.target}",
        f"size: {args.size}",
        f"{label}: {items}",
        f"seconds: {elapsed:.3f}",
    ])


def main(argv: list[str] | None = None) -> int:
    status, output = run(sys.argv[1:] if argv is None else argv)
    if output:
        try:
            print(output)
            sys.stdout.flush()
        except BrokenPipeError:
            # The reader left: what is still buffered goes to devnull, so the
            # flush at exit raises nothing either.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
    return status


if __name__ == "__main__":
    sys.exit(main())
