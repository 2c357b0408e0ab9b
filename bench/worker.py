"""One repeat of a workload, in a fresh Python process.

    python3 bench/worker.py SPEC.json RESULT.json

SPEC names the config file, the run directory, the parent's clock reading
just before it started this process (``t0``), how many times to call
``analyze``, and whether to trace and to reload checkpoints. The worker
drives the public entry point, ``branchcl.cli.main``, for ``run`` and then
``analyze``, times the calls into the package from outside it, and writes
RESULT as JSON. With ``setup_only`` set it stops at the first ``run_seed``
call and reports the set-up time; given ``kept_dir``, the run directory
of an earlier repeat, it then times analyze calls and lora evaluation
passes on that directory (see `_on_kept_run`).

Timers that stay on in every repeat:
    set-up       ``t0`` to the first ``run_seed`` call. ``time.monotonic``
                 reads CLOCK_MONOTONIC, which on Linux is one clock for
                 every process, so the parent's reading can be used here.
    segments     clock marks at the entry and exit of every ``run_seed``,
                 ``train_task`` and ``evaluate`` call and of the analysis
                 calls ``analyze`` makes, and at the return of every
                 optimizer step, ``ContinualModel.forward`` and, inside
                 ``efficiency_report``, ``backward``: a segment is at most
                 one batch or one evaluated sample. The program is
                 deterministic, so every repeat passes the same marks in
                 the same order, and the parent can compare segment i
                 across repeats.
    per method   the time of each training batch and of each evaluated
                 test sample (see `MethodTimers`)
With tracing on, every layer boundary also becomes a span, and counters
record tape entries, optimizer scalars, forward rows, selector hits and
checkpoint files at the same boundaries.
"""

from __future__ import annotations

import inspect
import json
import os
import resource
import statistics
import sys
import time
import traceback
import weakref
from collections import defaultdict
from pathlib import Path

from tracing import Patches, Recorder

ROOT = Path(__file__).resolve().parent.parent


def _method_of(kind: str, task_id) -> str:
    # multitask is a lora model trained once on all tasks, without a task id
    return "multitask" if kind == "lora" and task_id is None else kind


class SetupDone(Exception):
    """Raised at the first ``run_seed`` call of a set-up-only process."""


class MethodTimers:
    """Segment marks, and the per-method cost of each training batch and
    each evaluated test sample.

    A batch's time is the interval from one optimizer step's return to the
    next; the first starts when train_task is entered. It is kept under
    "method/scalars", the scalars that step updated: branchlora's batches
    get cheaper as its branches freeze, and batches that update as many
    scalars do the same work. A test sample's time is the interval from one
    ``ContinualModel.forward`` return to the next inside evaluate, over the
    rows of that forward call; the first starts when evaluate is entered.
    It is kept under "method/keys", the task keys the model holds, because
    branchlora's automatic selection scores each of them per sample (the
    other methods hold none). Only the path each method's metric names is
    kept: branchlora's oracle-routed evaluations, which skip task
    selection, are not. So each interval covers all the harness does per
    batch or per sample, measured at boundaries visible from outside.
    """

    def __init__(self):
        self.batch_s: dict[str, list[float]] = defaultdict(list)
        self.sample_s: dict[str, list[float]] = defaultdict(list)
        self.marks: list[float] = []
        self.first_run_seed: float | None = None
        # (method, task id) while train_task runs
        self.training: tuple[str, int | None] | None = None
        # the sample_s key while a timed evaluate runs
        self.evaluating: str | None = None
        # the true task id while an auto-selecting evaluate runs
        self.true_task: int | None = None
        self._mark = 0.0
        self._methods: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def install(self, patches: Patches, analysis, cli, harness, model, optim) -> None:
        patches.replace(cli, "run_seed", self._wrap_run_seed)
        for name in ("load_model", "expert_similarity", "expert_vectors", "efficiency_report"):
            patches.replace(cli, name, self._marked)
        patches.replace(analysis, "backward", self._marked)
        patches.replace(harness, "train_task", self._wrap_train)
        patches.replace(harness, "evaluate", self._wrap_evaluate)
        patches.replace(model.ContinualModel, "forward", self._wrap_forward)
        for cls in (optim.Adam, optim.Sgd):
            patches.replace(cls, "step", self._wrap_step)

    def _marked(self, fn):
        marks = self.marks

        def marked(*args, **kwargs):
            marks.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                marks.append(time.perf_counter())

        return marked

    def _wrap_run_seed(self, fn):
        fn = self._marked(fn)

        def run_seed(*args, **kwargs):
            if self.first_run_seed is None:
                self.first_run_seed = time.monotonic()
            return fn(*args, **kwargs)

        return run_seed

    def _wrap_train(self, fn):
        sig = inspect.signature(fn)
        marked = self._marked(fn)

        def train_task(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            model, task_id = bound.arguments["model"], bound.arguments["task_id"]
            method = _method_of(model.kind, task_id)
            self._methods[model] = method
            self.training = (method, task_id)
            self._mark = time.perf_counter()
            try:
                return marked(*args, **kwargs)
            finally:
                self.training = None

        return train_task

    def _wrap_step(self, fn):
        def step(opt):
            updated = fn(opt)
            now = time.perf_counter()
            self.marks.append(now)
            if self.training is not None:
                self.batch_s[f"{self.training[0]}/{updated}"].append(now - self._mark)
                self._mark = now
            return updated

        return step

    def _wrap_evaluate(self, fn):
        sig = inspect.signature(fn)
        marked = self._marked(fn)

        def evaluate(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            model, task, selector = (bound.arguments[k] for k in ("model", "task", "selector"))
            if model.kind != "branchlora" or selector == "auto":
                self.evaluating = f"{self._methods.get(model, model.kind)}/{len(model.keys)}"
            if selector == "auto":
                self.true_task = task.task_id
            self._mark = time.perf_counter()
            try:
                return marked(*args, **kwargs)
            finally:
                self.evaluating = self.true_task = None

        return evaluate

    def _wrap_forward(self, fn):
        def forward(model, x, *rest, **kwargs):
            out = fn(model, x, *rest, **kwargs)
            now = time.perf_counter()
            self.marks.append(now)
            if self.evaluating is not None:
                self.sample_s[self.evaluating].append((now - self._mark) / x.rows)
                self._mark = now
            return out

        return forward


class Counters:
    """Exact counts taken at the traced boundaries."""

    def __init__(self, timers: MethodTimers):
        self.timers = timers
        self.tape_entries: dict[str, int] = defaultdict(int)
        self.tape_batches: dict[str, int] = defaultdict(int)
        self.step_scalars: dict[tuple[str, int | None], int] = defaultdict(int)
        self.steps: dict[tuple[str, int | None], int] = defaultdict(int)
        self.skipped: dict[str, int] = defaultdict(int)
        self.forward_calls = 0
        self.forward_rows = 0
        self.select_attempts = 0
        self.select_hits = 0
        self.saved: list[str] = []
        self.loaded: list[str] = []

    def backward(self, fn):
        def backward(tape, loss, *rest):
            if self.timers.training is not None:
                method = self.timers.training[0]
                self.tape_entries[method] += len(tape.entries)
                self.tape_batches[method] += 1
            return fn(tape, loss, *rest)

        return backward

    def step(self, fn):
        def step(opt):
            skipped = sum(1 for p in opt.params if p.trainable and p.grad is None)
            updated = fn(opt)
            if self.timers.training is not None:
                self.step_scalars[self.timers.training] += updated
                self.steps[self.timers.training] += 1
                self.skipped[self.timers.training[0]] += skipped
            return updated

        return step

    def forward(self, fn):
        def forward(model, x, *rest, **kwargs):
            self.forward_calls += 1
            self.forward_rows += x.rows
            return fn(model, x, *rest, **kwargs)

        return forward

    def select(self, fn):
        def select_task(embeds, store):
            tid = fn(embeds, store)
            if self.timers.true_task is not None:
                self.select_attempts += 1
                self.select_hits += int(tid == self.timers.true_task)
            return tid

        return select_task

    def saving(self, fn):
        def save_model(directory, model):
            out = fn(directory, model)
            self.saved.append(str(out))
            return out

        return save_model

    def loading(self, fn):
        def load_model(directory):
            self.loaded.append(str(directory))
            return fn(directory)

        return load_model


def _instrument(patches: Patches, rec: Recorder, counters: Counters) -> None:
    """Counters first, spans around them, so a span covers its counter."""
    from branchcl import adapters, analysis, cli, harness, model, optim, routing, selector

    def span(owner, attr, name, counter=None):
        if counter is not None:
            patches.replace(owner, attr, counter)
        patches.replace(owner, attr, lambda fn: rec.wrap(name, fn))

    span(cli, "cmd_run", "cli.cmd_run")
    span(cli, "cmd_analyze", "cli.cmd_analyze")
    span(cli, "run_seed", "harness.run_seed")
    span(cli, "load_model", "checkpoint.load_model", counters.loading)
    span(cli, "efficiency_report", "analysis.efficiency_report")
    span(cli, "expert_similarity", "analysis.expert_similarity")
    span(cli, "expert_vectors", "analysis.expert_vectors")
    span(harness, "train_task", "harness.train_task")
    span(harness, "evaluate", "harness.evaluate")
    span(harness.ImmutabilityGuard, "verify", "harness.guard_verify")
    span(harness, "generate_stream", "stream.generate_stream")
    span(harness, "stream_fingerprint", "stream.stream_fingerprint")
    span(harness, "save_model", "checkpoint.save_model", counters.saving)
    span(harness, "backward", "tensor.backward", counters.backward)
    span(analysis, "backward", "tensor.backward")
    span(harness, "cross_entropy", "tensor.cross_entropy")
    span(harness, "alignment_loss", "selector.alignment_loss")
    span(harness, "select_task", "selector.select_task", counters.select)
    span(selector, "select_task", "selector.select_task")
    span(harness, "selector_accuracy", "selector.selector_accuracy")
    span(harness, "select_freeze_set", "routing.freeze")
    span(harness, "apply_freeze", "routing.freeze")
    span(routing.UsageStats, "record_gate", "routing.record_gate")
    span(model.ContinualModel, "forward", "model.forward", counters.forward)
    span(adapters.LoRALayer, "forward", "adapters.lora.forward")
    span(adapters.MoELoRALayer, "forward", "adapters.moelora.forward")
    span(adapters.BranchLoRALayer, "forward", "adapters.branchlora.forward")
    span(adapters.BranchLoRALayer, "gate_for", "adapters.branchlora.gate")
    span(optim.Adam, "step", "optim.step", counters.step)
    span(optim.Sgd, "step", "optim.step", counters.step)


def _dir_usage(dirs) -> tuple[int, int]:
    files = size = 0
    for d in dirs:
        for entry in os.scandir(d):
            if entry.is_file():
                files += 1
                size += entry.stat().st_size
    return files, size


def _layer_metrics(summary: dict, counters: Counters, tasks: int) -> dict:
    """Self time of every span name, call counts, and the exact counters."""

    def ratio(num, den):
        return num / den if den else 0.0

    def method_total(counts, method):
        return sum(v for (m, _), v in counts.items() if m == method)

    out = {f"{name}.self_s": row["self_s"] for name, row in summary.items()}
    out.update({f"{name}.calls": row["calls"] for name, row in summary.items()})
    for method in ("lora", "moelora", "branchlora", "multitask"):
        out[f"tensor.tape_entries_per_batch.{method}"] = ratio(
            counters.tape_entries[method], counters.tape_batches[method]
        )
        out[f"optim.scalars_per_step.{method}"] = ratio(
            method_total(counters.step_scalars, method), method_total(counters.steps, method)
        )
    # branchlora updates fewer scalars as its branches freeze, so per task
    for tid in range(tasks):
        key = ("branchlora", tid)
        out[f"optim.scalars_per_step.branchlora.task{tid}"] = ratio(
            counters.step_scalars[key], counters.steps[key]
        )
    out["optim.skipped_params_per_step.branchlora"] = ratio(
        counters.skipped["branchlora"], method_total(counters.steps, "branchlora")
    )
    out["model.forward.rows_per_call"] = ratio(counters.forward_rows, counters.forward_calls)
    out["selector.hit_ratio"] = ratio(counters.select_hits, counters.select_attempts)
    out["checkpoint.save_model.files"], out["checkpoint.save_model.bytes"] = _dir_usage(counters.saved)
    out["checkpoint.load_model.files"], out["checkpoint.load_model.bytes"] = _dir_usage(counters.loaded)
    return out


def _reload_failures(run_dir: Path, cfg) -> list[str]:
    """(seed, method) cells whose reloaded checkpoints do not reproduce the
    evaluation rows recorded in report.json."""
    from branchcl import checkpoint, harness

    report = json.loads((run_dir / "report.json").read_text())
    s = cfg.stream
    failures = []
    for seed in cfg.seeds:
        stream = _generate(cfg, seed)
        for method in cfg.methods:
            rows = report["per_seed"][str(seed)]["methods"][method]["eval_matrix"]
            stages = [s.tasks - 1] if method in ("zero_shot", "multitask") else range(s.tasks)
            for tid in stages:
                ckpt = run_dir / "checkpoints" / f"seed{seed}" / method / f"task{tid}"
                m = checkpoint.load_model(ckpt)
                selector = "auto" if m.kind == "branchlora" else "oracle"
                got = [harness.evaluate(m, stream.tasks[k], selector) for k in range(tid + 1)]
                if got != rows[tid]:
                    failures.append(f"{seed}/{method}")
                    break
    return failures


def _call(main, argv) -> int:
    """Exit code of one CLI call; an escaping exception is a crash (code 70)."""
    try:
        return main(argv)
    except Exception:  # any crash is counted as a failed operation, not fatal here
        traceback.print_exc()
        return 70


def span_cost_s(blocks: int = 21, calls: int = 2000) -> float:
    """Seconds one `Recorder` span adds to a call: the median over timed
    blocks of a wrapped call's time minus a bare call's, per call."""
    rec = Recorder()

    def bare(*args, **kwargs):
        return args

    traced = rec.wrap("calibration", bare)
    costs = []
    for _ in range(blocks):
        t0 = time.perf_counter()
        for _ in range(calls):
            bare(1)
        t1 = time.perf_counter()
        for _ in range(calls):
            traced(1)
        t2 = time.perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(costs)


def _setup_only(spec: dict, cli) -> dict:
    """Run ``branchcl run`` up to its first ``run_seed`` call."""
    patches = Patches()
    started: list[float] = []

    def stop(fn):
        def run_seed(*args, **kwargs):
            started.append(time.monotonic())
            raise SetupDone

        return run_seed

    patches.replace(cli, "run_seed", stop)
    try:
        cli.main(["run", "--config", spec["config"], "--out", spec["run_dir"]])
    except SetupDone:
        pass
    finally:
        patches.restore()
    return {"setup_s": started[0] - spec["t0"] if started else None}


def _generate(cfg, seed: int):
    from branchcl import stream as stream_mod

    s = cfg.stream
    return stream_mod.generate_stream(
        tasks=s.tasks, train_samples=s.train_samples, test_samples=s.test_samples,
        dim=s.dim, classes=s.classes, seed=seed, separation=s.separation, noise=s.noise,
    )


def _on_kept_run(spec: dict, analysis, cli, config, harness, model, optim) -> dict:
    """What a side process measures after set-up, on the run
    directory an earlier repeat kept (``kept_dir``): ``analyze_calls``
    analyze calls writing to ``run_dir``, then ``eval_passes`` passes of
    lora's batched evaluation over every task with the final lora
    checkpoint of the first run seed. A repeat holds a few short analyze
    and lora evaluate calls, all in one stretch of a few seconds; these
    processes add more of them, spread over the run between the repeats.
    A pass whose accuracies differ from the report's final lora row counts
    in ``eval_failures``."""
    from branchcl import checkpoint

    kept = Path(spec["kept_dir"])
    patches, timers = Patches(), MethodTimers()
    analyze_segments: list[list[float]] = []
    rc_analyze = None
    eval_failures = 0
    try:
        timers.install(patches, analysis, cli, harness, model, optim)
        while rc_analyze in (None, 0) and len(analyze_segments) < spec["analyze_calls"]:
            rc_analyze, segments = _timed_call(
                cli.main, ["analyze", str(kept), "--out", spec["run_dir"]], timers.marks
            )
            analyze_segments.append(segments)
        if spec["eval_passes"]:
            cfg = config.load_config(spec["config"])
            seed, final = cfg.seeds[0], cfg.stream.tasks - 1
            report = json.loads((kept / "report.json").read_text())
            row = report["per_seed"][str(seed)]["methods"]["lora"]["eval_matrix"][final]
            tasks = _generate(cfg, seed).tasks
            lora = checkpoint.load_model(kept / "checkpoints" / f"seed{seed}" / "lora" / f"task{final}")
            for _ in range(spec["eval_passes"]):
                eval_failures += [harness.evaluate(lora, task, "oracle") for task in tasks] != row
    finally:
        patches.restore()
    return {
        "rc_analyze": rc_analyze,
        "analyze_segments": analyze_segments,
        "eval_failures": eval_failures,
        "batch_s": timers.batch_s,
        "sample_s": timers.sample_s,
    }


def _timed_call(main, argv, marks: list[float]) -> tuple[int, list[float]]:
    """Exit code and segment durations of one CLI call. The segments run
    between consecutive marks, from the call's start to its end."""
    del marks[:]
    marks.append(time.perf_counter())
    rc = _call(main, argv)
    marks.append(time.perf_counter())
    return rc, [b - a for a, b in zip(marks, marks[1:])]


def run(spec: dict) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    from branchcl import analysis, cli, config, harness, model, optim

    if spec.get("setup_only"):
        result = _setup_only(spec, cli)
        if spec.get("kept_dir") and result["setup_s"] is not None:
            result.update(_on_kept_run(spec, analysis, cli, config, harness, model, optim))
        return result
    run_dir = Path(spec["run_dir"])
    patches = Patches()
    timers = MethodTimers()
    rec = counters = None
    try:
        timers.install(patches, analysis, cli, harness, model, optim)
        if spec["trace"]:
            rec, counters = Recorder(), Counters(timers)
            _instrument(patches, rec, counters)
        rc_run, run_segments = _timed_call(
            cli.main, ["run", "--config", spec["config"], "--out", str(run_dir)], timers.marks
        )
        analyze_segments: list[list[float]] = []
        rc_analyze = None
        while rc_run == 0 and rc_analyze in (None, 0) and len(analyze_segments) < spec["analyze_calls"]:
            rc_analyze, segments = _timed_call(cli.main, ["analyze", str(run_dir)], timers.marks)
            analyze_segments.append(segments)
    finally:
        patches.restore()
    result = {
        "rc_run": rc_run,
        "rc_analyze": rc_analyze,
        "run_segments": run_segments,
        "analyze_segments": analyze_segments,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": None if timers.first_run_seed is None else timers.first_run_seed - spec["t0"],
        "batch_s": timers.batch_s,
        "sample_s": timers.sample_s,
    }
    cfg = config.load_config(spec["config"])
    if rec is not None:
        summary = rec.summary()
        result["spans"] = len(rec)
        result["span_cost_s"] = span_cost_s()
        result["summary"] = summary
        result["layers"] = _layer_metrics(summary, counters, cfg.stream.tasks)
        if spec.get("trace_out"):
            rec.dump(spec["trace_out"])
    if spec["reload_check"] and rc_run == 0:
        result["reload_failures"] = _reload_failures(run_dir, cfg)
    return result


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: worker.py SPEC.json RESULT.json", file=sys.stderr)
        return 2
    spec = json.loads(Path(argv[0]).read_text())
    result = run(spec)
    Path(argv[1]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
