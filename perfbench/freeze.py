"""Freeze golden.json: the SHA-256 of every pool entry's output.

Run once, at the commit whose outputs are the reference, from the root of
the repository:

    python3 perfbench/freeze.py

Library entries digest their rendered output (canonical text, the JSON wire
form, or the integer); CLI entries digest "<exit code>\\n<stdout>".  Known
defects get the digest of their declared expected output, since the
reference commit produces none.  A CLI entry whose exit code differs from
the one its pool entry declares stops the freeze.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import client  # noqa: E402
import workloads  # noqa: E402

GOLDEN = os.path.join(HERE, "golden.json")


def main() -> int:
    sk = client.import_library()
    golden = {}
    for name in workloads.WORKLOADS:
        for entry in workloads.pool(name):
            if entry["id"] in golden:
                raise SystemExit(f"duplicate pool entry {entry['id']!r}")
            defect = workloads.KNOWN_DEFECTS.get(entry["id"])
            if defect:
                output = defect["expect"]
            else:
                output, _ = client.serve(sk, entry)
                if entry["op"] == "cli" and not output.startswith(f"{entry['code']}\n"):
                    raise SystemExit(f"{entry['id']!r} exits {output.split()[0]}, "
                                     f"the pool declares {entry['code']}")
            golden[entry["id"]] = hashlib.sha256(output.encode()).hexdigest()
    with open(GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(golden)} digests to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
