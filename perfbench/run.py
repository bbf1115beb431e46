"""schurkit benchmark: one workload, one seed, end-to-end or per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload hl-build --seed 1 --seconds 30 --trace 0

The seed deals the workload's request list (workloads.py).  Each round runs
that whole list in a fresh Python process (client.py), so the library's
caches start cold and fill during the round, as in a user's session.  One
client, closed loop, no threads beyond the ``workers=2`` some Hall-Littlewood
requests ask for.  Rounds repeat until the next one would overrun
``--seconds``; before each round come a few extra process starts that only
import the library (set-up probes), so set-up time is sampled across the
whole run.

Every output is checked against golden.json.  A request fails if it raises,
if its output digest differs from the golden one (for CLI requests the digest
covers the exit code), or if it writes more than one stderr line.  The run is
``correct`` when the only failures are the known defects of workloads.py,
failing by raising.

Every time is reported at the reference speed: the client times a fixed
piece of pure-Python work (client.reference) right after its import and
every tenth of a second between requests, and each time is multiplied by
REFERENCE_NOMINAL_S over the median reference time measured around it.
The machine the benchmark was defined on changes its speed by up to ±30%
within seconds, wall and CPU time alike, and the reference follows it to
within about 4%; work that schurkit no longer does, or newly does, changes
only the numerator.  The wall-clock figures are printed beside the scaled
ones.

--trace 0 prints the end-to-end metrics (medians over rounds; latency
percentiles over every completed request of every round).  --trace 1
alternates untraced and traced rounds (tracer.py), at least two of each, and
prints the per-layer metrics: exact counts from the first traced round, times
as medians over the traced rounds, and the tracing overhead, the median
traced round over the median untraced one.  Human-readable lines, including
failed_ratio, the per-stratum latencies and an environment stamp, come first;
the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CLIENT = os.path.join(HERE, "client.py")
GOLDEN = os.path.join(HERE, "golden.json")
sys.path.insert(0, HERE)

import client  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

PROBES_PER_ROUND = 3
# What client.reference takes at the reference speed, and how far around a
# request its reference times are taken from (at least the three nearest).
REFERENCE_NOMINAL_S = 0.002
REFERENCE_WINDOW_S = 0.5
ROUND_TIMEOUT_S = 150
MIN_TRACED_ROUNDS = 2

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
COUNT_FIELDS = ("calls", "yielded", "terms", "cache_hits", "cache_misses", "cases", "output_terms")
OVERHEAD = {"trace.run_s": "s", "trace.untraced_run_s": "s", "trace.overhead_ratio": "ratio"}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in tracer.metric_names():
        units[name] = "count" if name.rsplit(".", 1)[-1] in COUNT_FIELDS else "s"
    units.update(OVERHEAD)
    return units


def commit_hash() -> str:
    """HEAD of the checkout, or "unknown" when it is not a git work tree."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(args) -> dict:
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "python": platform.python_version(),
        "nproc": cores,
        "platform": platform.platform(),
        "commit": commit_hash(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def spawn(mode: str, requests: list[dict]) -> dict:
    """Run client.py once and return its JSON report."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, CLIENT, repr(spawned), mode],
        input=json.dumps(requests), capture_output=True, text=True,
        env=env, cwd=ROOT, timeout=ROUND_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"client exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def verdict(request: dict, result: dict, golden: dict) -> str | None:
    """Why one request failed, or None when it passed."""
    if result["error"]:
        return f"raised {result['error']}"
    if result["digest"] != golden.get(request["id"]):
        return "output differs from golden.json"
    if result["stderr_lines"] > 1:
        return f"{result['stderr_lines']} stderr lines"
    return None


def scale_at(references: list, at: float) -> float:
    """Factor from wall time to reference-speed time at ``at`` seconds into a round."""
    near = [d for t, d in references if abs(t - at) <= REFERENCE_WINDOW_S]
    if len(near) < 3:
        near = [d for _, d in sorted(references, key=lambda r: abs(r[0] - at))[:3]]
    return REFERENCE_NOMINAL_S / statistics.median(near)


def scaled(report: dict) -> dict:
    """The report's times at the reference speed: setup, each latency, their sum.

    ``factors`` holds each request's factor from wall time to reference-speed
    time, which also scales the traced times the request added.
    """
    refs = report["references"]
    factors = [scale_at(refs, r["start_s"] + r["latency_s"] / 2) for r in report["results"]]
    latencies = [r["latency_s"] * f for r, f in zip(report["results"], factors)]
    return {
        "setup_s": report["setup_s"] * REFERENCE_NOMINAL_S
        / statistics.median(d for _, d in refs[:client.REFERENCE_AT_ENDS]),
        "latencies": latencies,
        "run_s": sum(latencies),
        "factors": factors,
    }


def layer_time(report: dict, factors: list, name: str) -> float:
    """A traced time of one round at the reference speed, request by request."""
    return sum(r["trace_s"].get(name, 0.0) * f for r, f in zip(report["results"], factors))


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "schurkit", "__init__.py")):
        print(f"run.py: no schurkit source tree at {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(GOLDEN) as fh:
        golden = json.load(fh)

    requests = workloads.deal(args.workload, args.seed)

    begin = time.monotonic()
    probes, untraced, traced, walls = [], [], [], []
    while True:
        start = time.monotonic()
        probes += [spawn("probe", []) for _ in range(PROBES_PER_ROUND)]
        mode = "1" if args.trace and len(traced) < len(untraced) else "0"
        report = spawn(mode, requests)
        walls.append(time.monotonic() - start)
        (traced if mode == "1" else untraced).append(report)
        if args.trace and len(traced) < MIN_TRACED_ROUNDS:
            continue
        if time.monotonic() - begin + statistics.median(walls) > args.seconds:
            break

    rounds = untraced + traced
    at_speed = [scaled(r) for r in rounds]
    attempted = sum(len(r["results"]) for r in rounds)
    failures, samples, wall_samples = [], [], []
    for index, r in enumerate(rounds):
        for request, result, latency in zip(requests, r["results"], at_speed[index]["latencies"]):
            reason = verdict(request, result, golden)
            if reason is None:
                if index < len(untraced):
                    samples.append(latency * 1e3)
                    wall_samples.append(result["latency_s"] * 1e3)
                continue
            # A known defect may only fail by raising; a wrong output is never known.
            known = request["id"] in workloads.KNOWN_DEFECTS and bool(result["error"])
            failures.append((request, reason, known))
    correct = all(known for _, _, known in failures)

    print(f"schurkit benchmark: workload {args.workload}, seed {args.seed}, "
          f"{len(requests)} requests per round, {len(untraced)} untraced and "
          f"{len(traced)} traced rounds")
    print("env " + json.dumps(environment(args), sort_keys=True))
    distinct: dict[tuple, int] = {}
    for request, reason, known in failures:
        key = (request["id"], reason, known)
        distinct[key] = distinct.get(key, 0) + 1
    for (rid, reason, known), times in distinct.items():
        tag = f"known defect: {workloads.KNOWN_DEFECTS[rid]['reason']}" if known else "NEW"
        print(f"failed x{times}: {rid}: {reason} ({tag})")

    by_stratum: dict[str, list[float]] = {}
    for r in at_speed[:len(untraced)]:
        for latency, req in zip(r["latencies"], requests):
            by_stratum.setdefault(req["stratum"], []).append(latency * 1e3)

    setups = [scaled(p)["setup_s"] for p in probes] + [r["setup_s"] for r in at_speed]
    end_to_end = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(r["run_s"] for r in at_speed[:len(untraced)]),
        "latency_p50_ms": percentile(samples, 50),
        "latency_p90_ms": percentile(samples, 90),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
    }
    counts = {
        "setup_s": f"median of {len(setups)} process starts",
        "run_s": f"median of {len(untraced)} rounds",
        "latency_p50_ms": f"{len(samples)} samples",
        "latency_p90_ms": f"{len(samples)} samples",
        "peak_rss_mb": f"median of {len(untraced)} rounds",
    }
    for name, unit in END_TO_END.items():
        print(f"{name:16s} {end_to_end[name]:12.4f} {unit:6s} ({counts[name]})")
    references = [d for r in rounds for _, d in r["references"]]
    print(f"wall clock: setup_s {statistics.median(p['setup_s'] for p in probes + rounds):.4f}, "
          f"run_s {statistics.median(r['run_s'] for r in untraced):.4f}, "
          f"latency_p50_ms {percentile(wall_samples, 50):.4f}, "
          f"latency_p90_ms {percentile(wall_samples, 90):.4f}; reference "
          f"median {statistics.median(references) * 1e3:.4f} ms "
          f"(nominal {REFERENCE_NOMINAL_S * 1e3:g} ms), {len(references)} timings")
    print(f"{'failed_ratio':16s} {len(failures) / attempted:12.4f} {'ratio':6s} "
          f"({len(failures)} failed of {attempted} attempted, "
          f"{sum(known for _, _, known in failures)} known defects)")
    for name in sorted(by_stratum):
        values = by_stratum[name]
        print(f"stratum {name:14s} median {statistics.median(values):10.3f} ms "
              f"({len(values)} samples)")

    if args.trace:
        units = per_layer_units()
        first = traced[0]["trace"]
        count_names = [n for n in first if units[n] == "count"]
        repeat = all(t["trace"][n] == first[n] for t in traced for n in count_names)
        print(f"counts_repeat {repeat} (exact counts equal in all {len(traced)} traced rounds)")
        for note in dict.fromkeys(n for t in traced for n in t["notes"]):
            print(f"note: {note}")
        traced_at_speed = at_speed[len(untraced):]
        layer = {n: (first[n] if units[n] == "count"
                     else statistics.median(layer_time(t, a["factors"], n)
                                            for t, a in zip(traced, traced_at_speed)))
                 for n in first}
        layer["trace.run_s"] = statistics.median(a["run_s"] for a in traced_at_speed)
        layer["trace.untraced_run_s"] = end_to_end["run_s"]
        layer["trace.overhead_ratio"] = layer["trace.run_s"] / layer["trace.untraced_run_s"]
        metrics = {n: {"value": layer[n], "unit": units[n]} for n in units}
    else:
        metrics = {n: {"value": end_to_end[n], "unit": u} for n, u in END_TO_END.items()}

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
