"""Write reference.json: stream fingerprints and ACC/MAA/BWT per method for
workload seeds 0..N-1 of every workload, from one untimed run each.

    python3 bench/make_reference.py [N]

The benchmark compares each run against this file, so regenerate it only
when a change to the program is meant to change its results.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

import checks
from run import ROOT, run_repeat
from workloads import WORKLOADS


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    count = int(argv[0]) if argv else 10
    work = ROOT / ".bench_work" / f"reference-{os.getpid()}"
    out = {"tolerance": 0.01, "workloads": {}}
    try:
        for name, workload in WORKLOADS.items():
            for wseed in range(count):
                rep = run_repeat(work, 0, workload.config(wseed), time.monotonic() + 600)
                if rep["report"] is None:
                    print(f"{name} seed {wseed}: run failed\n{rep['stderr'][-2000:]}", file=sys.stderr)
                    return 1
                entry = {}
                for seed, seed_report in rep["report"]["per_seed"].items():
                    entry[seed] = {
                        "stream_fingerprint": seed_report["stream_fingerprint"],
                        "metrics": {m: c["metrics"] for m, c in seed_report["methods"].items()},
                    }
                out["workloads"].setdefault(name, {})[str(wseed)] = entry
                print(f"{name} seed {wseed} done", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    checks.REFERENCE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
