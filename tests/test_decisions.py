"""The default run's decisions, pinned in a committed golden file.

report.json's bytes depend on the BLAS kernel: the ledger's gate-mass
floats move in their last digits from one kernel to another. The
decisions those floats lead to do not, and they are what this file pins,
for each seed and method of the default config: the eval matrix and the
oracle-routed final row as integer hit counts, the freeze sets in ledger
order, and the task selector's hits. A change that is meant to alter what
a run decides regenerates the file with

    PYTHONPATH=src python tests/test_decisions.py

and says so; any other change must leave it as it is.
"""

import json
import sys
from pathlib import Path

import branchcl as bc

GOLDEN = Path(__file__).parent / "golden" / "default_run_decisions.json"


def _hits(accuracy: float, n: int) -> int:
    """The hit count behind an accuracy over n rows; it must be exact."""
    hits = round(accuracy * n)
    assert hits / n == accuracy, f"{accuracy!r} is no count out of {n}"
    return hits


def decisions(cfg: bc.ExperimentConfig, reports: dict) -> dict:
    """Each seed's and method's decisions, read off its per-seed report."""
    n = cfg.stream.test_samples
    out = {}
    for seed, report in reports.items():
        per_method = out[str(seed)] = {}
        for method, entry in report["methods"].items():
            got = {"eval_hits": [[_hits(a, n) for a in row] for row in entry["eval_matrix"]]}
            if "freeze_ledger" in entry:
                got["oracle_final_hits"] = [_hits(a, n) for a in entry["oracle_final_row"]]
                got["freeze"] = [[e["task"], e["layer"], e["frozen"]] for e in entry["freeze_ledger"]]
                got["selector_hits"] = _hits(entry["selector_accuracy"], n * cfg.stream.tasks)
            per_method[method] = got
    return out


def test_default_run_decisions_match_the_golden_file(default_run):
    results, _ = default_run
    got = decisions(bc.ExperimentConfig(), {seed: r["report"] for seed, r in results.items()})
    want = json.loads(GOLDEN.read_text())
    assert sorted(got) == sorted(want)
    for seed, methods in want.items():
        assert sorted(got[seed]) == sorted(methods), f"seed {seed}"
        for method, pinned in methods.items():
            assert got[seed][method] == pinned, f"seed {seed}, {method}"


def _dump(obj: dict) -> str:
    """One line per seed and method, so a diff names what moved."""
    seeds = []
    for seed, methods in obj.items():
        lines = ",\n".join(f"  {json.dumps(m)}: {json.dumps(e)}" for m, e in methods.items())
        seeds.append(f" {json.dumps(seed)}: {{\n{lines}\n }}")
    return "{\n" + ",\n".join(seeds) + "\n}\n"


if __name__ == "__main__":
    cfg = bc.ExperimentConfig()
    reports = {seed: bc.run_seed(cfg, seed)["report"] for seed in cfg.seeds}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(_dump(decisions(cfg, reports)))
    print(f"wrote {GOLDEN}", file=sys.stderr)
