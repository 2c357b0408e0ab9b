"""Sequential training harness over a synthetic task stream.

`run_seed` trains and evaluates each configured method on one stream and
assembles a per-seed report; `branchcl run` calls it once per seed, and
`aggregate_reports` combines the per-seed reports with medians. Wall-clock
timings are collected separately from the report so reports stay
byte-for-byte reproducible.

Frozen state is actively policed: after every task boundary the harness
re-reads the bytes of everything that is supposed to be immutable
(backbones, the head, frozen branches, finished routers and keys) and
aborts on any drift.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from .checkpoint import checkpoint_dir, save_model
from .config import ExperimentConfig
from .errors import ContractError, NumericError, ParameterError
from .metrics import EvalMatrix, compute_metrics
from .model import ContinualModel, ModelConfig, build_model
from .optim import make_optimizer
from .routing import FreezeLedger, UsageStats, apply_freeze, select_freeze_set
from .selector import alignment_loss, select_task, selector_accuracy
from .stream import SyntheticTask, TaskStream, generate_stream, stream_fingerprint
from .tensor import Matrix, Tape, backward, cross_entropy

_TRAIN_TAGS = {"lora": 21, "moelora": 22, "branchlora": 23, "multitask": 24}


class ImmutabilityGuard:
    """Byte-level watchdog over matrices that must never change again."""

    def __init__(self):
        self._frozen: dict[str, bytes] = {}

    def track(self, named: list[tuple[str, Matrix]]) -> None:
        """Start watching every non-trainable matrix not watched yet."""
        for name, m in named:
            if not m.trainable and name not in self._frozen:
                self._frozen[name] = m.data.tobytes()

    def verify(self, named: list[tuple[str, Matrix]]) -> None:
        lookup = dict(named)
        for name, expected in self._frozen.items():
            m = lookup.get(name)
            if m is None:
                raise ContractError(f"immutability guard: tensor {name} disappeared")
            if m.data.tobytes() != expected:
                raise ContractError(f"immutability guard: frozen tensor {name} changed")


@dataclass
class TrainStats:
    first_loss: float
    last_loss: float
    batches: int
    batch_seconds: list[float] = field(default_factory=list)


def train_task(
    model: ContinualModel,
    x_train: np.ndarray,
    y_train: np.ndarray,
    task_id: int | None,
    epochs: int,
    batch_size: int,
    lr: float,
    optimizer: str,
    rng: np.random.Generator,
    usage: list[UsageStats] | None = None,
) -> TrainStats:
    """Train the model's adapter parameters on one task's data.

    For branchlora runs, `usage` collects per-layer gate observations and
    each batch's inputs also feed the key alignment loss. A NaN or inf in
    the parameters after a step raises NumericError naming the seed,
    method, task, batch and matrix.
    """
    if model.kind == "zero_shot":
        raise ParameterError("zero_shot models have nothing to train")
    params = model.trainable_params()
    # Sparse gating keeps unselected branches off the tape, so a branch
    # model's optimizer must tolerate parameters with no gradient.
    opt = make_optimizer(
        optimizer, params, lr, allow_missing=model.kind == "branchlora"
    )
    n = x_train.shape[0]
    align_weight = model.hp.align_weight
    keys = model.keys.get(task_id) if model.kind == "branchlora" else None
    first_loss = None
    last_loss = None
    batches = 0
    batch_seconds: list[float] = []
    for _ in range(epochs):
        perm = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = perm[start : start + batch_size]
            xb = Matrix(x_train[idx])
            yb = y_train[idx]
            t0 = time.perf_counter()
            with Tape() as tape:
                logits, gates = model.forward(xb, task_id)
                loss = cross_entropy(logits, yb)
                if keys is not None:
                    backward(tape, loss, alignment_loss(xb, keys, align_weight))
                else:
                    backward(tape, loss)
            try:
                opt.step()
            except NumericError as err:
                method = "multitask" if task_id is None else model.kind
                task = "all tasks" if task_id is None else f"task {task_id}"
                name = next(n for n, m in model.all_named_matrices() if m is params[err.index])
                raise NumericError(
                    f"seed {model.seed}, method {method}, {task}, batch {batches}: "
                    f"tensor {name} holds a non-finite value after the optimizer step"
                ) from err
            batch_seconds.append(time.perf_counter() - t0)
            if usage is not None:
                for st, gate in zip(usage, gates):
                    st.record_gate(gate)
            value = loss.item()
            if first_loss is None:
                first_loss = value
            last_loss = value
            batches += 1
    # every matrix gets its own bytes back, so the arena dies with opt
    opt.release()
    return TrainStats(first_loss, last_loss, batches, batch_seconds)


def evaluate(
    model: ContinualModel,
    task: SyntheticTask,
    selector: str = "oracle",
) -> float:
    """Accuracy on a task's test split. `selector` matters only for
    branchlora: "oracle" routes by the true task id, "auto" picks the
    task via key similarity per sample. A NaN or inf in the test inputs
    raises NumericError naming the method, the task and the first bad row,
    before any forward: argmax would silently score such a row as class 0.

    The other kinds run the whole split as one forward with every row
    routed on its own (``per_row``). branchlora runs one `select_task` call
    and one forward per row. That is the benchmark's contract: its
    per-sample timer (``bench/worker.py``) charges the time up to each
    forward to that forward's rows, and its tests pin one forward per row,
    so grouping rows by selected task (ROADMAP item 4) waits for a change
    to the benchmark. Such a row costs about 70 us at eval-many-tasks
    shapes (two 32-wide layers, eight task keys, a shared 2-core x86
    machine), almost all of it the fixed cost of a few dozen small numpy
    calls; a batched moelora row costs about 1.6 us.
    """
    if selector not in ("oracle", "auto"):
        raise ParameterError(f"selector must be 'oracle' or 'auto', got {selector!r}")
    x, y = task.x_test, task.y_test
    if not np.isfinite(x).all():
        row = int(np.argmin(np.isfinite(x).all(axis=1)))
        raise NumericError(
            f"method {model.kind}, task {task.task_id}: test row {row} holds a non-finite value"
        )
    if model.kind != "branchlora":
        logits, _ = model.forward(Matrix(x), task.task_id, per_row=True)
        return int(np.count_nonzero(np.argmax(logits.data, axis=1) == y)) / len(y)
    keys = model.keys.stack() if selector == "auto" else None
    hits = 0
    for row, label in zip(x, y):
        tid = task.task_id if keys is None else select_task(row, keys)
        logits, _ = model.forward(Matrix(row[None]), tid)
        hits += int(logits.data[0].argmax() == label)
    return hits / len(y)


def _freeze_after_task(
    model: ContinualModel,
    task_id: int,
    usage: list[UsageStats],
    width: int,
    by: str,
    ledger: FreezeLedger,
) -> None:
    for li, layer in enumerate(model.layers):
        st = usage[li]
        chosen = select_freeze_set(st, width, layer.frozen, by=by)
        mass = st.normalized_mass()
        apply_freeze(layer, chosen)
        ledger.record(task_id, li, chosen, mass)


def _run_zero_shot(model, stream, entry, save) -> tuple[list, list[float]]:
    """The untrained backbone, evaluated once for every stage."""
    accs = [evaluate(model, task) for task in stream.tasks]
    rows = [accs[: i + 1] for i in range(len(stream))]
    entry["trainable_params_per_task"] = [0] * len(stream)
    save(len(stream) - 1)
    return rows, []


def _run_multitask(model, stream, config, rng, guard, entry, save) -> tuple[list, list[float]]:
    """One adapter trained on all tasks at once: the upper bound."""
    t = config.train
    x_all = np.concatenate([task.x_train for task in stream.tasks])
    y_all = np.concatenate([task.y_train for task in stream.tasks])
    stats = train_task(
        model, x_all, y_all, None, t.epochs, t.batch_size, t.lr, t.optimizer, rng
    )
    guard.verify(model.all_named_matrices())
    accs = [evaluate(model, task) for task in stream.tasks]
    rows = [accs[: i + 1] for i in range(len(stream))]
    entry["trainable_params_per_task"] = [model.count_trainable_params()]
    save(len(stream) - 1)
    return rows, stats.batch_seconds


def _run_sequential(model, stream, config, rng, guard, entry, save) -> tuple[list, list[float]]:
    """Train the tasks in order; after each, evaluate every task seen so far.

    branchlora also records gate usage, freezes branches after each task
    and routes evaluation through automatic task selection.
    """
    a, t = config.adapter, config.train
    branched = model.kind == "branchlora"
    ledger = FreezeLedger()
    rows = []
    params_per_task = []
    batch_seconds: list[float] = []
    for task in stream.tasks:
        tid = task.task_id
        model.start_task(tid)
        usage = [UsageStats(model.hp.experts) for _ in model.layers] if branched else None
        params_per_task.append(model.count_trainable_params())
        stats = train_task(
            model,
            task.x_train,
            task.y_train,
            tid,
            t.epochs,
            t.batch_size,
            t.lr,
            t.optimizer,
            rng,
            usage=usage,
        )
        batch_seconds.extend(stats.batch_seconds)
        # catch any drift of already-frozen state during this task
        guard.verify(model.all_named_matrices())
        if branched:
            _freeze_after_task(model, tid, usage, a.effective_freeze_width(), a.freeze_by, ledger)
        model.finish_task(tid)
        guard.track(model.all_named_matrices())
        selector = "auto" if branched else "oracle"
        rows.append([evaluate(model, stream.tasks[k], selector) for k in range(tid + 1)])
        save(tid)
    entry["trainable_params_per_task"] = params_per_task
    if branched:
        entry["freeze_ledger"] = ledger.to_obj()
        entry["oracle_final_row"] = [evaluate(model, task, "oracle") for task in stream.tasks]
        x_test = np.concatenate([task.x_test for task in stream.tasks])
        ids = np.concatenate([np.full(len(task.x_test), task.task_id) for task in stream.tasks])
        entry["selector_accuracy"] = selector_accuracy(x_test, ids, model.keys)
    return rows, batch_seconds


def run_seed(
    config: ExperimentConfig,
    seed: int,
    out_dir=None,
    stream: TaskStream | None = None,
) -> dict:
    """Run every configured method on one seed's stream.

    Returns {"report": ..., "timings": ...}. Only "report" is
    deterministic; timings are wall-clock measurements. With `out_dir`,
    each method's checkpoints go under `out_dir/checkpoints`.
    """
    s = config.stream
    if stream is None:
        stream = generate_stream(
            tasks=s.tasks,
            train_samples=s.train_samples,
            test_samples=s.test_samples,
            dim=s.dim,
            classes=s.classes,
            seed=seed,
            separation=s.separation,
            noise=s.noise,
        )
    fingerprint = stream_fingerprint(stream)
    hp = config.adapter.hyperparams()
    mcfg = ModelConfig(width=stream.dim, classes=stream.classes, layers=config.adapter.layers)
    methods_out: dict[str, dict] = {}
    timings: dict[str, dict] = {}

    for method in config.methods:
        # multitask trains a lora model on all tasks at once
        model = build_model("lora" if method == "multitask" else method, mcfg, hp, seed)
        guard = ImmutabilityGuard()
        guard.track(model.all_named_matrices())

        def save(task_id: int) -> None:
            if out_dir is not None:
                save_model(checkpoint_dir(out_dir, seed, method, task_id), model)

        entry: dict = {"stream_fingerprint": fingerprint}
        if method == "zero_shot":
            rows, batch_seconds = _run_zero_shot(model, stream, entry, save)
        else:
            run = _run_multitask if method == "multitask" else _run_sequential
            rng = np.random.default_rng(np.random.SeedSequence([seed, _TRAIN_TAGS[method]]))
            rows, batch_seconds = run(model, stream, config, rng, guard, entry, save)

        matrix = EvalMatrix(rows)
        m = compute_metrics(matrix)
        entry["eval_matrix"] = matrix.rows
        entry["diagonal"] = matrix.diagonal()
        entry["final_row"] = matrix.final_row()
        entry["metrics"] = {"acc": m.acc, "maa": m.maa, "bwt": m.bwt}
        methods_out[method] = entry
        if batch_seconds:
            timings[method] = {
                "batches": len(batch_seconds),
                "mean_ms": 1e3 * statistics.fmean(batch_seconds),
                "std_ms": 1e3 * (statistics.pstdev(batch_seconds) if len(batch_seconds) > 1 else 0.0),
            }

    report = {
        "seed": seed,
        "stream_fingerprint": fingerprint,
        "methods": methods_out,
    }
    return {"report": report, "timings": timings}


def aggregate_reports(config_dict: dict, per_seed: dict[int, dict]) -> dict:
    """Combine per-seed reports into the experiment-level report."""
    seeds = sorted(per_seed)
    methods = list(config_dict["methods"])
    aggregate: dict[str, dict] = {}
    for method in methods:
        stats: dict[str, dict] = {}
        for metric in ("acc", "maa", "bwt"):
            values = [per_seed[s]["methods"][method]["metrics"][metric] for s in seeds]
            stats[metric] = {"per_seed": values, "median": statistics.median(values)}
        sel = [
            per_seed[s]["methods"][method].get("selector_accuracy")
            for s in seeds
            if per_seed[s]["methods"][method].get("selector_accuracy") is not None
        ]
        if sel:
            stats["selector_accuracy"] = {"per_seed": sel, "median": statistics.median(sel)}
        aggregate[method] = stats
    return {
        "config": config_dict,
        "seeds": seeds,
        "per_seed": {str(s): per_seed[s] for s in seeds},
        "aggregate": aggregate,
    }
