"""Record the outputs every benchmark run must reproduce into reference.json.

Run from the root of a checkout, on the commit whose outputs become the
reference:

    python3 gbbench/record_reference.py [workload ...]

Each workload is set up with seed 0 and run for one pass, untraced.
Workloads not named keep their recorded entries.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run

REFERENCE = Path(__file__).resolve().parent / "reference.json"


def record(wl) -> dict:
    state = wl.setup(0)
    observed = {}
    for i in range(wl.pass_ops):
        failures, seen = wl.check(state, i, wl.op(state, i))
        if failures:
            raise SystemExit(f"{wl.name}: {failures}")
        observed.update(seen)
    print(wl.name, observed, flush=True)
    return observed


def main(names) -> None:
    run.pin_blas_threads()
    run.import_gbtwin()
    import workloads

    doc = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    for name in names or list(workloads.WORKLOADS):
        doc[name] = record(workloads.WORKLOADS[name])
    doc["src_digest"] = run.src_digest()
    REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
