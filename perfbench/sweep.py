"""Ten seeds per workload: medians, quartiles and spreads, saved as a trajectory point.

    python3 perfbench/sweep.py [--seeds 1-10] [--trace 0|1]

Runs ``run.py`` once per (workload, seed), one run at a time, with the
``run_seconds`` of BENCHMARK.json.  For every metric it prints the median
and the spread (third minus first quartile of the runs, as
``statistics.quantiles(values, n=4)`` gives them, over the median) next to
the metric's bound, marks a metric whose spread exceeds its bound as
unresolved (a change to it cannot be told from noise on that workload), and
writes everything, with the environment stamp of
the first run, to ``results/<commit>.json`` (``results/<commit>-trace.json``
for per-layer runs).  Takes about 20 minutes for all workloads untraced.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    env, report = None, {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in seed_range(args.seeds):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", str(args.trace)],
                capture_output=True, text=True, cwd=ROOT, timeout=600,
            )
            if proc.returncode:
                print(proc.stderr, file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            env = env or json.loads(next(ln for ln in lines if ln.startswith("env "))[4:])
            result = json.loads(lines[-1])
            runs.append({"seed": seed, **result})
            print(f"{workload} seed {seed}: correct {result['correct']}, "
                  f"failed {result['failed']}/{result['attempted']}", flush=True)
        names = list(runs[0]["metrics"])
        summary = {n: summarize([r["metrics"][n]["value"] for r in runs]) for n in names}
        report[workload] = {"runs": runs, "summary": summary}
        for n in names:
            s = summary[n]
            bound = ""
            if n in bounds:
                s["unresolved"] = s["spread"] > bounds[n]
                bound = f" bound {bounds[n]:.2f}" + (" UNRESOLVED" if s["unresolved"] else "")
            print(f"  {workload:16s} {n:40s} median {s['median']:12.5g} spread {s['spread']:.4f}{bound}")

    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    name = env["commit"][:12] + ("-trace" if args.trace else "") + ".json"
    path = os.path.join(HERE, "results", name)
    with open(path, "w") as fh:
        json.dump({"env": {k: env[k] for k in ("python", "nproc", "platform", "commit")},
                   "run_seconds": spec["run_seconds"], "seeds": args.seeds,
                   "trace": args.trace, "workloads": report}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
