"""Output checks. They run after the timed section and feed `failed`.

An operation is one (seed, method) cell of a repeat's report, or one
``analyze`` call. A cell fails when its run crashed or exited non-zero,
its evaluation matrix is not complete and lower-triangular, its ACC/MAA/BWT
differ from the values recomputed here from the matrix, or from the stored
reference (when the reference has this workload seed), its report.json
bytes differ from the first repeat's, or a reloaded checkpoint does not
reproduce its recorded row. An analyze call fails when it exits non-zero,
is not reached because an earlier call failed, or its repeat's final
similarity.json or vectors.csv bytes differ from the first repeat's. A
side process fails when it does not reach ``run_seed``; each of its
analyze calls is checked as a repeat's is, and its lora evaluation passes
are one operation that fails if any pass differs from the report.
"""

from __future__ import annotations

import json
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"
ORACLE_TOL = 1e-12


def oracle_metrics(rows: list[list[float]]) -> dict:
    """ACC, MAA and BWT straight from their definitions."""
    t = len(rows)
    final = rows[-1]
    return {
        "acc": sum(final) / t,
        "maa": sum(sum(r) / len(r) for r in rows) / t,
        "bwt": sum(final[i] - rows[i][i] for i in range(t)) / t,
    }


def cell_problems(cell: dict | None, tasks: int, reference: dict | None, tol: float) -> list[str]:
    if cell is None:
        return ["missing from report"]
    rows = cell.get("eval_matrix")
    if not isinstance(rows, list) or len(rows) != tasks:
        return [f"eval_matrix has {len(rows) if isinstance(rows, list) else 'no'} rows, expected {tasks}"]
    for i, row in enumerate(rows):
        if len(row) != i + 1 or not all(isinstance(v, float) and 0.0 <= v <= 1.0 for v in row):
            return [f"eval_matrix row {i} is not {i + 1} accuracies in [0, 1]"]
    problems = []
    want = oracle_metrics(rows)
    got = cell.get("metrics", {})
    for key, value in want.items():
        if not isinstance(got.get(key), float) or abs(got[key] - value) > ORACLE_TOL:
            problems.append(f"{key}={got.get(key)!r} but the matrix gives {value!r}")
        if reference is not None and abs(value - reference[key]) > tol:
            problems.append(f"{key}={value!r} but the reference has {reference[key]!r}")
    return problems


def load_reference(workload: str, workload_seed: int) -> tuple[dict | None, float]:
    ref = json.loads(REFERENCE.read_text())
    return ref["workloads"].get(workload, {}).get(str(workload_seed)), ref["tolerance"]


def check_repeats(reps: list[dict], seeds: list[int], methods, tasks: int, reference: dict | None,
                  tol: float) -> tuple[int, int, list[str]]:
    """(attempted, failed, problem lines) over every repeat of one run.

    Each rep holds the worker's result, the ``analyze_calls`` it was asked
    to make, ``report`` (parsed report.json or None) and ``hashes`` (file
    name to sha256) from its run directory.
    """
    attempted = failed = 0
    notes: list[str] = []
    first = reps[0]["hashes"] if reps else {}
    for i, rep in enumerate(reps):
        res, report = rep["result"], rep["report"]
        ran = res is not None and res.get("rc_run") == 0 and report is not None
        same_report = ran and rep["hashes"].get("report.json") == first.get("report.json")
        reload_bad = set((res or {}).get("reload_failures", []))
        for seed in seeds:
            ref = None if reference is None else reference[str(seed)]
            seed_report = report["per_seed"].get(str(seed), {}) if ran else {}
            for method in methods:
                attempted += 1
                if not ran:
                    problems = [f"run failed ({(res or {}).get('rc_run', 'no result')})"]
                else:
                    cell = seed_report.get("methods", {}).get(method)
                    problems = cell_problems(cell, tasks, None if ref is None else ref["metrics"][method], tol)
                    if ref is not None and seed_report.get("stream_fingerprint") != ref["stream_fingerprint"]:
                        problems.append("stream fingerprint differs from the reference")
                    if not same_report:
                        problems.append("report.json differs from repeat 0")
                    if f"{seed}/{method}" in reload_bad:
                        problems.append("reloaded checkpoint does not reproduce its row")
                if problems:
                    failed += 1
                    notes.append(f"repeat {i} seed {seed} {method}: " + "; ".join(problems))
        calls = rep["analyze_calls"]
        attempted += calls
        same_outputs = all(
            rep["hashes"].get(name) is not None and rep["hashes"].get(name) == first.get(name)
            for name in ("similarity.json", "vectors.csv")
        )
        passed = 0
        if ran and same_outputs:
            passed = len(res["analyze_segments"]) - (res["rc_analyze"] != 0)
        if passed < calls:
            failed += calls - passed
            notes.append(f"repeat {i} analyze: {calls - passed} of {calls} calls failed (last exit "
                         f"{(res or {}).get('rc_analyze')}) or outputs differ from repeat 0")
    return attempted, failed, notes


def check_setups(setup_reps: list[dict], first: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, problem lines) over the side processes; `first`
    holds the output hashes of the first repeat."""
    attempted = failed = 0
    notes: list[str] = []
    for i, rep in enumerate(setup_reps):
        res = rep["result"] or {}
        calls, passes = rep["analyze_calls"], rep["eval_passes"]
        operations = 1 + calls + (passes > 0)
        attempted += operations
        if res.get("setup_s") is None:
            failed += operations
            notes.append(f"side process {i} did not reach run_seed; stderr tail: {rep['stderr'][-500:]}")
            continue
        same_outputs = all(
            rep["hashes"].get(name) is not None and rep["hashes"].get(name) == first.get(name)
            for name in ("similarity.json", "vectors.csv")
        )
        passed = len(res.get("analyze_segments", [])) - (res.get("rc_analyze") not in (None, 0))
        if calls and not same_outputs:
            passed = 0
        if passed < calls:
            failed += calls - passed
            notes.append(f"side process {i} analyze: {calls - passed} of {calls} calls failed (last "
                         f"exit {res.get('rc_analyze')}) or outputs differ from repeat 0")
        if passes and (res.get("eval_failures") is None or res["eval_failures"] > 0):
            failed += 1
            notes.append(f"side process {i}: lora evaluation passes did not reproduce the report "
                         f"({res.get('eval_failures')} of {passes} passes differ)")
    return attempted, failed, notes
