"""Checks of the benchmark itself (not of schurkit), about three minutes.

    python3 perfbench/selfcheck.py

1. Pool and golden.json agree: pool ids are unique and each has a digest.
2. Smoke run of every workload: every end-to-end metric of BENCHMARK.json is
   printed with its unit, failed_ratio is printed, and ``failed`` equals the
   known-defect share exactly (the 1000-cycle character request on
   character-route, nothing elsewhere) while ``correct`` holds.
3. Times are scaled by the reference times measured around them, and one
   deliberately wrong golden digest makes the run fail and not correct.
4. Two traced runs of the same seed: every per-layer metric is printed with
   its unit, exact counts are identical between the two runs and between the
   traced rounds of each, and the layering matches the code.
5. A traced name or cache that a refactor removes reports 0 and a note.
6. Without the library's source tree next to it the benchmark exits non-zero
   and prints no result.

Exits 0 when every check holds.  The layering facts of step 4 that only hold
for the current Hall-Littlewood algorithm are printed, not enforced.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SEED = 7
PROBLEMS: list[str] = []


def check(ok: bool, what: str):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        PROBLEMS.append(what)


def bench(root: str, workload: str, trace: int) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=root, timeout=300,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def result_of(lines: list[str]) -> dict:
    return json.loads(lines[-1])


def check_lost_bindings():
    """A refactor that removes a traced name or a cache costs a note, not the run."""
    import client
    import tracer

    sk = client.import_library()
    del sk.polyalgebra.exact_divide
    sk.symfun.homogeneous = sk.symfun.homogeneous.__wrapped__
    probe = tracer.Tracer()
    probe.install()
    sk.schur(sk.YoungDiagram((2, 1)))
    report = probe.report()
    check(report["polyalgebra.exact_divide.calls"] == 0
          and any(n.startswith("polyalgebra.exact_divide") for n in probe.notes),
          "a removed function reports 0 and a note")
    check(report["symfun.homogeneous.cache_hits"] == 0
          and any("cache_info" in n for n in probe.notes)
          and report["symfun.homogeneous.calls"] > 0,
          "homogeneous without cache_info() is still traced, its cache counts read 0 with a note")
    check(report["symfun.schur.calls"] == 1, "the remaining names are still traced")


def check_reference_scaling():
    """Times scale by the nominal over the median reference time nearby."""
    import run

    slow = [(t / 10, 2 * run.REFERENCE_NOMINAL_S) for t in range(10)]
    fast = [(5 + t / 10, run.REFERENCE_NOMINAL_S / 2) for t in range(10)]
    check(run.scale_at(slow + fast, 0.45) == 0.5 and run.scale_at(slow + fast, 5.45) == 2.0
          and run.scale_at(slow + fast, 2.5) == 0.5,
          "a time is scaled by the reference times around it (the three nearest when none is close)")


def check_wrong_digest(golden: dict):
    """One spoiled digest in a copy of golden.json counts as a failure."""
    import run

    workload = "character-route"
    requests = workloads.deal(workload, SEED)
    first = next(r["id"] for r in requests if r["id"] not in workloads.KNOWN_DEFECTS)
    with tempfile.TemporaryDirectory(dir=ROOT) as scratch:
        run.GOLDEN = os.path.join(scratch, "golden.json")
        with open(run.GOLDEN, "w") as fh:
            json.dump(dict(golden, **{first: "0" * 64}), fh)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", workload, "--seed", str(SEED),
                             "--seconds", "1", "--trace", "0"])
    res = result_of(out.getvalue().strip().splitlines())
    expected = sum(r["id"] in workloads.KNOWN_DEFECTS or r["id"] == first for r in requests)
    expected *= res["attempted"] // len(requests)
    check(code == 0 and not res["correct"] and res["failed"] == expected,
          f"a wrong golden digest counts as a failure and makes the run not correct "
          f"({res['failed']} failed, {expected} expected)")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    with open(os.path.join(HERE, "golden.json")) as fh:
        golden = json.load(fh)

    ids = [e["id"] for w in workloads.WORKLOADS for e in workloads.pool(w)]
    check(len(ids) == len(set(ids)), "pool ids are unique")
    check(set(ids) == set(golden), "golden.json holds exactly one digest per pool entry")
    check([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
          "BENCHMARK.json lists the workloads of workloads.py")

    for workload in workloads.WORKLOADS:
        code, lines = bench(ROOT, workload, 0)
        if code:
            check(False, f"{workload}: run exits 0")
            continue
        res = result_of(lines)
        got = {n: m["unit"] for n, m in res["metrics"].items()}
        check(got == e2e_units, f"{workload}: end-to-end metrics and units match BENCHMARK.json")
        check(any(line.startswith("failed_ratio") for line in lines),
              f"{workload}: failed_ratio is printed")
        check(any(line.startswith("wall clock:") for line in lines),
              f"{workload}: the wall-clock figures are printed beside the scaled ones")
        per_round = sum(r["id"] in workloads.KNOWN_DEFECTS for r in workloads.deal(workload, SEED))
        rounds = res["attempted"] // len(workloads.deal(workload, SEED))
        check(res["failed"] == per_round * rounds and res["correct"],
              f"{workload}: failed = known-defect share ({res['failed']} of {res['attempted']})")

    check_reference_scaling()
    check_wrong_digest(golden)

    counts = [n for n, u in layer_units.items() if u == "count"]
    traced = {}
    for workload in workloads.WORKLOADS:
        runs = []
        for _ in range(2):
            code, lines = bench(ROOT, workload, 1)
            if code:
                check(False, f"{workload}: traced run exits 0")
                break
            runs.append(lines)
        if len(runs) < 2:
            continue
        a, b = (result_of(lines)["metrics"] for lines in runs)
        check({n: m["unit"] for n, m in a.items()} == layer_units,
              f"{workload}: per-layer metrics and units match BENCHMARK.json")
        check(all("counts_repeat True" in "\n".join(lines) for lines in runs),
              f"{workload}: exact counts repeat between traced rounds of one run")
        differ = [n for n in counts if a[n]["value"] != b[n]["value"]]
        check(not differ, f"{workload}: exact counts repeat between two traced runs {differ[:3]}")
        traced[workload] = {n: m["value"] for n, m in a.items()}
        print(f"     tracing overhead on {workload}: x{a['trace.overhead_ratio']['value']:.2f}")

    if len(traced) == len(workloads.WORKLOADS):
        for workload in ("schur-miwa", "character-route"):
            m = traced[workload]
            check(m["polyalgebra.exact_divide.calls"] == 0 and m["symfun.hall_littlewood.calls"] == 0,
                  f"{workload}: no Hall-Littlewood build, no exact division")
        m = traced["hl-build"]
        check(m["characters.character.calls"] == 0, "hl-build: no character evaluation")
        share = m["polyalgebra.exact_divide.time_s"] / max(m["symfun.hall_littlewood.time_s"], 1e-12)
        print(f"     hl-build: exact_divide takes {share:.0%} of hall_littlewood time "
              f"(at least 80% with the antisymmetrize-and-divide build)")

    check_lost_bindings()

    with tempfile.TemporaryDirectory(dir=ROOT) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = bench(bare, "character-route", 0)
        printed_result = bool(lines) and lines[-1].startswith("{")
        check(code != 0 and not printed_result,
              f"without src/ the benchmark exits {code} and prints no result")

    print("all checks hold" if not PROBLEMS else f"{len(PROBLEMS)} checks failed")
    return 1 if PROBLEMS else 0


if __name__ == "__main__":
    sys.exit(main())
