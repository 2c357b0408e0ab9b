"""branchcl benchmark: run one workload for one workload seed.

    python3 bench/run.py --workload train-default --seed 0 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` and nothing is installed. Each repeat is a fresh Python process
(`worker.py`) that writes a config whose ``seeds`` come from ``--seed``,
calls ``branchcl.cli.main`` for ``run`` and then ``analyze``, and times the
calls into the package from outside it. The load is closed-loop: one
process, one repeat at a time.

``--trace 0`` repeats the pipeline, at least three times and while the
next repeat still fits in ``--seconds``. After each repeat come a few
side processes that set up, then time analyze calls, lora evaluation
passes on the first repeat's run directory. It reports the end-to-end metrics over all of
them (see `end_to_end`). ``--trace 1`` runs it once untraced and once
traced on the same seed and reports per-layer self times and counts, and
the tracing overhead: the traced run's span count times the cost of one
span, calibrated in the traced process. Every process's outputs are
checked after the timed section (see `checks.py`). The last line of
stdout is one JSON object: correct, attempted, failed, metrics. The benchmark's own tests:
``python3 -m pytest bench``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import checks
import probe
from workloads import EVALUATED, METHODS, TRAINED, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
MIN_REPEATS = 3
# side processes started after each repeat; setup_s is the median over
# them and the repeats
SIDE_PROCESSES = 2
# With `Workload.side_measurements`: analyze calls in each side process,
# and passes of lora's batched evaluation over every task. A repeat
# evaluates lora only T(T+1)/2 times, one interval per call, too few for a
# steady low quantile.
SIDE_ANALYZE_CALLS = 2
EVAL_PASSES = 100
# The shared machine runs for seconds at a time at one of a few speeds, up
# to 1.8x apart, and slow stretches only add time. A mean or median of
# per-batch times follows the share of slow seconds in a run; a low
# quantile of thousands of them tracks what a batch costs when nothing
# else slows it, and repeats from run to run. It moves with any change to
# the work done per batch or per sample, but not with a change that adds a
# rare slow batch. A run can be slow for all but a few of its seconds, so
# the quantile is low enough to take the fastest of them: over ten seeds
# on train-default, the 0.1% quantile spread half as much as the 1% one
# did on the same runs.
FAST_QUANTILE = 0.001
# The whole run, checks included, must end within three minutes.
DEADLINE_S = 170.0

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "analyze_s": "s",
    **{f"train_ms_per_batch.{m}": "ms" for m in TRAINED},
    **{f"eval_us_per_sample.{m}": "us" for m in EVALUATED},
}

_SELF = (
    "tensor.backward", "tensor.cross_entropy", "selector.alignment_loss",
    "adapters.lora.forward", "adapters.moelora.forward", "adapters.branchlora.forward",
    "adapters.branchlora.gate", "model.forward", "selector.select_task",
    "selector.selector_accuracy", "optim.step", "routing.record_gate", "routing.freeze",
    "harness.train_task", "harness.evaluate", "harness.guard_verify", "harness.run_seed",
    "checkpoint.save_model", "checkpoint.load_model", "analysis.efficiency_report",
    "analysis.expert_similarity", "analysis.expert_vectors", "cli.cmd_analyze", "cli.cmd_run",
    "stream.generate_stream", "stream.stream_fingerprint",
)
_CALLS = (
    "tensor.backward", "selector.alignment_loss", "model.forward", "selector.select_task",
    "optim.step", "routing.record_gate", "checkpoint.save_model", "checkpoint.load_model",
)
PER_LAYER = {
    **{f"{name}.self_s": "s" for name in _SELF},
    **{f"{name}.calls": "count" for name in _CALLS},
    **{f"tensor.tape_entries_per_batch.{m}": "count" for m in TRAINED},
    **{f"optim.scalars_per_step.{m}": "count" for m in ("lora", "moelora", "multitask")},
    # every workload has at least four tasks
    **{f"optim.scalars_per_step.branchlora.task{t}": "count" for t in range(4)},
    "optim.skipped_params_per_step.branchlora": "count",
    "model.forward.rows_per_call": "count",
    "selector.hit_ratio": "ratio",
    "checkpoint.save_model.files": "count",
    "checkpoint.save_model.bytes": "bytes",
    "checkpoint.load_model.files": "count",
    "checkpoint.load_model.bytes": "bytes",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}

_OUTPUTS = ("report.json", "similarity.json", "vectors.csv")


def run_repeat(work: Path, index: int, config: dict, deadline: float, *, trace: bool = False,
               reload_check: bool = False, analyze_calls: int = 1,
               trace_out: Path | None = None, setup_only: bool = False,
               kept_dir: Path | None = None, eval_passes: int = 0,
               keep_as: Path | None = None) -> dict:
    """One pipeline (or, with `setup_only`, its set-up, followed by analyze
    calls and evaluation passes on `kept_dir` when given) in a fresh
    process; returns its result, parsed report and output hashes. The run
    directory is moved to `keep_as` if given, else removed."""
    rep_dir = work / f"rep{index}"
    rep_dir.mkdir(parents=True)
    cfg_path = rep_dir / "config.in.json"
    cfg_path.write_text(json.dumps(config))
    spec_path, result_path = rep_dir / "spec.json", rep_dir / "result.json"
    spec = {
        "config": str(cfg_path),
        "run_dir": str(rep_dir / "run"),
        "trace": trace,
        "reload_check": reload_check,
        "analyze_calls": analyze_calls,
        "trace_out": None if trace_out is None else str(trace_out),
        "setup_only": setup_only,
        "kept_dir": None if kept_dir is None else str(kept_dir),
        "eval_passes": eval_passes,
    }
    spec["t0"] = time.monotonic()
    spec_path.write_text(json.dumps(spec))
    rep = {"result": None, "report": None, "hashes": {}, "stderr": "",
           "analyze_calls": analyze_calls, "eval_passes": eval_passes}
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), str(spec_path), str(result_path)],
            cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
        rep["stderr"] = proc.stderr
        if proc.returncode == 0:
            rep["result"] = json.loads(result_path.read_text())
    except subprocess.TimeoutExpired:
        rep["stderr"] = "timed out"
    run_dir = rep_dir / "run"
    for name in _OUTPUTS:
        path = run_dir / name
        if path.is_file():
            data = path.read_bytes()
            rep["hashes"][name] = hashlib.sha256(data).hexdigest()
            if name == "report.json":
                rep["report"] = json.loads(data)
    if keep_as is not None and run_dir.is_dir():
        run_dir.rename(keep_as)
    shutil.rmtree(rep_dir, ignore_errors=True)
    return rep


def _median(values) -> float:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def _fast(results: list[dict], key: str, method: str, scale: float) -> float:
    """One method's cost per batch or per sample: the FAST_QUANTILE of each
    of its groups' intervals pooled over every repeat, averaged over the
    groups weighted by interval count. A group holds the batches that
    update as many scalars, or the samples scored against as many task
    keys (see `worker.MethodTimers`), so batches that do less work do not
    stand in for the rest. A group with fewer than 1 / FAST_QUANTILE
    intervals gives its minimum; lora's batched evaluation gives one
    interval per evaluate call, so a run holds hundreds to a few thousand
    of them."""
    groups: dict[str, list[float]] = defaultdict(list)
    for r in results:
        for group, times in r[key].items():
            if group.split("/")[0] == method:
                groups[group].extend(times)
    count = sum(len(times) for times in groups.values())
    if not count:
        return 0.0
    quantiles = (sorted(times)[int(FAST_QUANTILE * len(times))] * len(times) for times in groups.values())
    return scale * sum(quantiles) / count


def fastest_path(runs: list[list[float]]) -> float:
    """The sum over segments of each segment's shortest time across runs
    of the same work. Runs with another segment count than the first are
    left out; the output checks catch a program that is not deterministic."""
    runs = [r for r in runs if len(r) == len(runs[0])] if runs else []
    return sum(min(times) for times in zip(*runs))


def end_to_end(results: list[dict], setups: list[float], side: list[dict] = ()) -> dict:
    """Times of the pipeline and of analyze as their fastest path over the
    repeats (analyze: over every call, those of the `side` processes that
    follow the repeats included); set-up time and memory as medians;
    per-batch and per-sample costs from low quantiles (see `_fast`), lora's
    evaluation with the side processes' passes."""
    analyze_s = fastest_path([seg for r in [*results, *side] for seg in r["analyze_segments"]])
    out = {
        "wall_s": fastest_path([r["run_segments"] for r in results]) + analyze_s,
        "setup_s": _median(setups),
        "peak_rss_mb": _median(r["peak_rss_mb"] for r in results),
        "analyze_s": analyze_s,
    }
    for m in TRAINED:
        out[f"train_ms_per_batch.{m}"] = _fast([*results, *side], "batch_s", m, 1e3)
    for m in EVALUATED:
        out[f"eval_us_per_sample.{m}"] = _fast([*results, *side], "sample_s", m, 1e6)
    return out


def raw_wall_s(result: dict) -> float:
    """One repeat's pipeline time as it ran: run plus its first analyze."""
    return sum(result["run_segments"]) + sum(sum(seg) for seg in result["analyze_segments"][:1])


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "branchcl" / "__init__.py").is_file():
        print(f"bench: no branchcl sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    # On SIGTERM, unwind: subprocess.run kills and reaps the running worker,
    # and the finally below removes the work directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    begin = time.monotonic()
    deadline = begin + DEADLINE_S
    workload = WORKLOADS[args.workload]
    config = workload.config(args.seed)
    seeds = config["seeds"]
    tasks = config.get("stream", {}).get("tasks", 4)  # 4 is branchcl's built-in default
    reference, tol = checks.load_reference(workload.name, args.seed)
    facts = probe.machine_facts()
    print("machine: " + " ".join(f"{k}={v}" for k, v in facts.items())
          + f" workload={workload.name} workload_seed={args.seed} run_seeds={seeds}")
    before = probe.probe()

    work = ROOT / ".bench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    reps: list[dict] = []
    setup_reps: list[dict] = []
    try:
        if args.trace:
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            trace_out = out_dir / f"trace-{workload.name}-seed{args.seed}.json"
            reps.append(run_repeat(work, 0, config, deadline, reload_check=workload.reload_check))
            reps.append(run_repeat(work, 1, config, deadline, trace=True, trace_out=trace_out))
        else:
            start = time.monotonic()
            longest = 0.0
            kept = work / "kept"
            while True:
                t0 = time.monotonic()
                first = not reps
                reps.append(run_repeat(
                    work, len(reps) + len(setup_reps), config, deadline,
                    reload_check=workload.reload_check and first, analyze_calls=workload.analyze_calls,
                    keep_as=kept if first and workload.side_measurements else None))
                on_kept = kept.is_dir()
                for _ in range(SIDE_PROCESSES):
                    setup_reps.append(run_repeat(
                        work, len(reps) + len(setup_reps), config, deadline, setup_only=True,
                        kept_dir=kept if on_kept else None,
                        analyze_calls=SIDE_ANALYZE_CALLS if on_kept else 0,
                        eval_passes=EVAL_PASSES if on_kept else 0))
                now = time.monotonic()
                longest = max(longest, now - t0)
                if now + longest > deadline:
                    break
                if len(reps) >= MIN_REPEATS and now - start + longest > args.seconds:
                    break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    after = probe.probe()
    print("probe (median ms): before " + " ".join(f"{k}={v:.4f}" for k, v in before.items())
          + " | after " + " ".join(f"{k}={v:.4f}" for k, v in after.items()))

    attempted, failed, notes = checks.check_repeats(reps, seeds, METHODS, tasks, reference, tol)
    setup_attempted, setup_failed, setup_notes = checks.check_setups(
        setup_reps, reps[0]["hashes"] if reps else {})
    attempted, failed, notes = attempted + setup_attempted, failed + setup_failed, notes + setup_notes
    # a crashed run's partial times feed no metric; the checks count it
    results = [r["result"] for r in reps if r["result"] and r["result"]["rc_run"] == 0]
    setup_results = [p["result"] for p in setup_reps if p["result"]]
    side = [r for r in setup_results if "analyze_segments" in r]
    setups = [r["setup_s"] for r in results + setup_results if r["setup_s"] is not None]
    for i, rep in enumerate(reps):
        if rep["result"]:
            res = rep["result"]
            print(f"repeat {i}: " + " ".join(
                f"{k}={_fmt(v)}" for k, v in end_to_end([res], [res["setup_s"]]).items()))
        else:
            print(f"repeat {i}: no result; stderr tail: {rep['stderr'][-2000:]}")
    for line in notes:
        print(f"check failed: {line}")
    print(f"checks: attempted={attempted} failed={failed} error_rate={failed / attempted:.4f} "
          f"reference={'yes' if reference else 'none for this seed'}")

    if args.trace:
        traced = reps[1]["result"] or {}
        layers = dict(traced.get("layers", {}))
        layers["trace.spans"] = traced.get("spans", 0)
        layers["trace.overhead_s"] = traced.get("spans", 0) * traced.get("span_cost_s", 0.0)
        walls = [raw_wall_s(r["result"]) if r["result"] else None for r in reps]
        for name, row in sorted(traced.get("summary", {}).items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"span {name:32s} calls={row['calls']:8d} self_s={row['self_s']:.4f} "
                  f"total_s={row['total_s']:.4f}")
        for name in sorted(layers):
            if not name.endswith(".self_s"):
                print(f"count {name} = {_fmt(layers[name])}")
        print(f"trace: overhead_s={_fmt(layers['trace.overhead_s'])} "
              f"({layers['trace.spans']} spans x {_fmt(1e6 * traced.get('span_cost_s', 0.0))} us); "
              f"one pair of runs, dominated by machine noise: traced wall_s={_fmt(walls[1])} "
              f"untraced={_fmt(walls[0])}; spans written to {trace_out}")
        metrics = {name: {"value": layers.get(name, 0), "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        values = end_to_end(results, setups, side)
        print("wall_s as run, median over repeats: "
              f"{_fmt(_median(raw_wall_s(r) for r in results))} s; fastest path: {_fmt(values['wall_s'])} s")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    for name, m in metrics.items():
        print(f"metric {name} = {_fmt(m['value'])} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
