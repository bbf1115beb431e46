"""One benchmark round: a fresh process that serves a request list.

Started by ``run.py`` as ``python3 client.py <spawn time> <trace 0|1|probe>``
with the request list as JSON on stdin.  It imports schurkit from the
checkout's ``src`` directory, reports how long after its spawn it was ready,
then serves the requests one after another (a closed loop: the next request
starts when the previous one has returned).  A request is the library call
plus rendering its output the way a user would read it, so its latency is
what the user waits for.  The round prints one JSON object: set-up time,
time spent in requests, peak RSS, the reference timings, and per request its
start, latency, the SHA-256 of its output and any exception.  Correctness is
judged by ``run.py`` against golden.json.

Between requests, at most every ``REFERENCE_EVERY_S``, the client times a
fixed piece of pure-Python work that does not use schurkit (``reference``),
and it times that work a few times right after the import and after the last
request.  The machine's speed shifts by up to ±30% within seconds; ``run.py``
divides every time by the reference times measured around it, so that a
shift of the machine's speed cancels while a change in schurkit does not.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def import_library():
    """Import schurkit from the checkout's source tree, and only from there."""
    sys.path.insert(0, SRC)
    import schurkit
    import schurkit.cli

    if not os.path.abspath(schurkit.__file__).startswith(SRC + os.sep):
        raise ImportError(f"schurkit was imported from {schurkit.__file__}, not from {SRC}")
    return schurkit


REFERENCE_EVERY_S = 0.1
REFERENCE_AT_ENDS = 5


def reference() -> float:
    """Seconds taken by a fixed polynomial-like computation (about 2 ms).

    The work is of the kind schurkit does, exponent tuples mapped to big
    integers, multiplied, summed and printed, so the machine's speed changes
    move it as they move the library.  It runs with the garbage collector off,
    so a collection of the library's objects is not charged to it.
    """
    perf = time.perf_counter
    enabled = gc.isenabled()
    gc.disable()
    start = perf()
    a = {(i, j, 5 - i): 3 ** (i + j + 20) for i in range(6) for j in range(6)}
    b = {(i, 7 - i, j): 7 ** (i * j + 9) for i in range(8) for j in range(5)}
    product: dict = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = (ka[0] + kb[0], ka[1] + kb[1], ka[2] + kb[2])
            product[k] = product.get(k, 0) + va * vb
    text = " + ".join(f"{c}*x^{e}" for e, c in sorted(product.items()))
    elapsed = perf() - start
    if enabled:
        gc.enable()
    if len(text) < 1000:
        raise AssertionError("reference computation went wrong")
    return elapsed


class OutputError(Exception):
    """The library returned, but its output is unusable."""


def render(sk, poly, how: str) -> str:
    if how == "text":
        return sk.canonical_text(poly)
    wire = json.dumps(sk.to_term_list(poly), separators=(",", ":"))
    if sk.from_term_list(json.loads(wire)) != poly:
        raise OutputError("JSON wire form does not decode to the same polynomial")
    return wire


def serve(sk, request: dict) -> tuple[str, int]:
    """Run one request; returns (output text, stderr lines written)."""
    op, args, how = request["op"], request["args"], request["render"]
    shape = sk.YoungDiagram
    if op == "hl":
        parts, n, w = args
        poly = sk.hall_littlewood(shape(parts), sk.AlphabetContext(n), workers=w)
        return render(sk, poly, how), 0
    if op == "h":
        return render(sk, sk.homogeneous(args[0]), how), 0
    if op == "e":
        return render(sk, sk.elementary(args[0]), how), 0
    if op == "schur":
        lam, mu = args
        poly = sk.schur(shape(lam), shape(mu) if mu is not None else None)
        return render(sk, poly, how), 0
    if op == "miwa":
        lam, n = args
        return render(sk, sk.miwa_push(sk.schur(shape(lam)), sk.AlphabetContext(n)), how), 0
    if op == "svc":
        return render(sk, sk.schur_via_characters(shape(args[0])), how), 0
    if op == "chi":
        lam, spec = args
        mult = {int(j): int(k) for j, k in (pair.split(":") for pair in spec.split(","))}
        return str(sk.character(shape(lam), sk.ConjugacyClass(mult))), 0
    if op == "dim":
        return str(sk.dimension(shape(args[0]))), 0
    if op == "cli":
        err, out = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
            code, text = sk.cli.run(list(args))
        return f"{code}\n{text}", len(err.getvalue().splitlines())
    raise ValueError(f"unknown request op {op!r}")


def main(argv: list[str]) -> int:
    spawned, mode = float(argv[0]), argv[1]
    sk = import_library()
    requests = [] if mode == "probe" else json.load(sys.stdin)
    setup_s = time.monotonic() - spawned

    perf = time.perf_counter
    begin = perf()
    references = []

    def timed_reference():
        at = perf() - begin
        references.append((at, reference()))

    for _ in range(REFERENCE_AT_ENDS):
        timed_reference()

    tracer = None
    if mode == "1":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        traced = tracer.times()

    results = []
    run_s = 0.0
    for request in requests:
        if perf() - begin - references[-1][0] >= REFERENCE_EVERY_S:
            timed_reference()
        output, stderr_lines, error = None, 0, None
        start = perf()
        try:
            output, stderr_lines = serve(sk, request)
        except Exception as exc:  # any failure of one request is recorded, not fatal
            error = type(exc).__name__
        latency = perf() - start
        run_s += latency
        results.append({
            "start_s": start - begin,
            "latency_s": latency,
            "digest": hashlib.sha256(output.encode()).hexdigest() if output is not None else None,
            "error": error,
            "stderr_lines": stderr_lines,
        })
        if tracer:
            # What this request added to each traced time, so that run.py can
            # scale it by the reference times measured around the request.
            now = tracer.times()
            results[-1]["trace_s"] = {n: v - traced[n] for n, v in now.items() if v != traced[n]}
            traced = now
    if requests:
        for _ in range(REFERENCE_AT_ENDS):
            timed_reference()

    print(json.dumps({
        "setup_s": setup_s,
        "run_s": run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "results": results,
        "references": references,
        "trace": tracer.report() if tracer else None,
        "notes": tracer.notes if tracer else [],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
