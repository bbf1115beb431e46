"""Command-line front end.

Partition literals are comma-separated parts ("3,2,1", empty string for the
empty partition); cycle types are "size:count" pairs ("1:1,2:1").  Polynomial
subcommands print canonical text, or the JSON wire form with --json.

Exit codes: 0 success, 1 usage error, 2 domain error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .characters import character
from .partitions import ConjugacyClass, YoungDiagram, partitions_of
from .polyalgebra import canonical_text, to_term_list
from .symfun import AlphabetContext, elementary, hall_littlewood, homogeneous, monomial, schur
from .verify import MAX_BOXES_LIMIT, SCOPES, run_scope

BENCH_MAX_PARTITIONS = 80
BENCH_MAX_ALPHABET = 8


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
    return YoungDiagram(parts)


def parse_cycles(text: str) -> ConjugacyClass:
    mult: dict[int, int] = {}
    if text.strip() not in ("", "{}"):
        for chunk in text.split(","):
            try:
                size, count = chunk.split(":")
                j, k = int(size), int(count)
            except ValueError:
                raise UsageError(f"malformed cycle spec {chunk!r}") from None
            mult[j] = mult.get(j, 0) + k
    return ConjugacyClass(mult)


def build_parser() -> _Parser:
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

    p = sub.add_parser("verify", help="run the invariant sweeps")
    p.add_argument("scope", choices=sorted(SCOPES))
    p.add_argument("--max-boxes", type=int, default=4, dest="max_boxes",
                   help=f"box bound for the sweeps, at most {MAX_BOXES_LIMIT} (default 4)")

    p = sub.add_parser("bench", help="time partition enumeration or a Hall-Littlewood build")
    p.add_argument("target", choices=("partitions", "hall-littlewood"))
    p.add_argument("size", type=int)
    p.add_argument("--csv", action="store_true")
    return parser


def _polynomial_payload(family: str, lam, mu, n_vars, poly) -> str:
    return json.dumps(
        {
            "family": family,
            "lambda": list(lam),
            "mu": list(mu) if mu is not None else None,
            "vars": n_vars,
            "terms": to_term_list(poly),
        },
        separators=(",", ":"),
    )


def _emit_polynomial(args, family: str, lam, mu, n_vars, poly) -> str:
    if getattr(args, "json", False):
        return _polynomial_payload(family, lam, mu, n_vars, poly)
    return canonical_text(poly)


def run(argv: list[str]) -> tuple[int, str]:
    """Execute one command; returns (exit status, stdout text)."""
    try:
        args = build_parser().parse_args(argv)
    except UsageError as exc:
        print(f"schurkit: {exc}", file=sys.stderr)
        return 1, ""

    try:
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
            if args.n < 0:
                raise ValueError("n must be nonnegative")
            return 0, "\n".join(
                ",".join(str(p) for p in d.parts) for d in partitions_of(args.n)
            )

        if args.command in ("homogeneous", "elementary"):
            if args.n < 0:
                raise ValueError("n must be nonnegative")
            poly = homogeneous(args.n) if args.command == "homogeneous" else elementary(args.n)
            return 0, _emit_polynomial(args, args.command, (args.n,), None, None, poly)

        if args.command == "schur":
            lam = parse_parts(args.parts)
            mu = parse_parts(args.skew) if args.skew is not None else None
            poly = schur(lam, mu)
            return 0, _emit_polynomial(
                args, "schur", lam.parts, mu.parts if mu is not None else None, None, poly
            )

        if args.command == "monomial":
            lam = parse_parts(args.parts)
            poly = monomial(lam, AlphabetContext(args.vars))
            return 0, _emit_polynomial(args, "monomial", lam.parts, None, args.vars, poly)

        if args.command == "hall-littlewood":
            lam = parse_parts(args.parts)
            poly = hall_littlewood(lam, AlphabetContext(args.vars), workers=args.workers)
            return 0, _emit_polynomial(args, "hall-littlewood", lam.parts, None, args.vars, poly)

        if args.command == "character":
            shape = parse_parts(args.parts)
            cycles = parse_cycles(args.cycles)
            return 0, str(character(shape, cycles))

        if args.command == "verify":
            results = run_scope(args.scope, args.max_boxes)
            lines = [
                f"{name}: {'pass' if passed else 'FAIL'} ({cases} cases)"
                for name, passed, cases in results
            ]
            status = 0 if all(passed for _, passed, _ in results) else 3
            return status, "\n".join(lines)

        if args.command == "bench":
            return _bench(args)
    except UsageError as exc:
        print(f"schurkit: {exc}", file=sys.stderr)
        return 1, ""
    except (ValueError, ArithmeticError) as exc:
        print(f"schurkit: {exc}", file=sys.stderr)
        return 2, ""
    raise AssertionError("unreachable")


def _bench(args) -> tuple[int, str]:
    if args.target == "partitions":
        if not 0 <= args.size <= BENCH_MAX_PARTITIONS:
            raise ValueError(f"partitions bench size must be in 0..{BENCH_MAX_PARTITIONS}")
        start = time.perf_counter()
        items = sum(1 for _ in partitions_of(args.size))
        elapsed = time.perf_counter() - start
        label = "partitions"
    else:
        if not 1 <= args.size <= BENCH_MAX_ALPHABET:
            raise ValueError(f"hall-littlewood bench alphabet must be in 1..{BENCH_MAX_ALPHABET}")
        lam = YoungDiagram((3, 2, 1)) if args.size >= 3 else YoungDiagram((1,) * args.size)
        start = time.perf_counter()
        poly = hall_littlewood(lam, AlphabetContext(args.size))
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
        print(output)
    return status


if __name__ == "__main__":
    sys.exit(main())
