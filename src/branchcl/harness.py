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

import math
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from .checkpoint import checkpoint_dir, save_model
from .config import ExperimentConfig
from .errors import ContractError, DimensionError, NumericError, ParameterError
from .metrics import EvalMatrix, compute_metrics
from .model import ContinualModel, ModelConfig, build_model
from .optim import make_optimizer
from .routing import FreezeLedger, UsageStats, apply_freeze, select_freeze_set
from .selector import alignment_loss, select_task, selector_accuracy
from .stream import SyntheticTask, TaskStream, generate_stream, stream_fingerprint
from .tensor import Matrix, Tape, backward, cross_entropy, wrap


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

    `usage` collects per-layer gate observations: each batch's gate rows
    are kept, and each layer's stats record them all in one call after the
    last step. When the model holds task keys, each batch's inputs also
    give the task's keys their alignment gradient. A NaN or inf loss,
    checked before its backward, raises NumericError naming the task, batch
    and loss; one in a parameter after a step names the task, batch and
    tensor. `run_seed` adds the seed and method.
    """
    x_train = np.asarray(x_train, dtype=np.float64)
    if x_train.ndim != 2:
        raise DimensionError(f"train_task: x_train must be 2-D, got shape {x_train.shape}")
    named = model.trainable_params()
    if not named:
        raise ParameterError(f"{model.kind} models have nothing to train")
    opt = make_optimizer(optimizer, named, lr, allow_missing=model.layers[0].allow_missing)
    where = "all tasks" if task_id is None else f"task {task_id}"
    n = x_train.shape[0]
    align_weight = model.hp.align_weight
    keys = model.keys.get(task_id) if len(model.keys) else None
    first_loss = None
    last_loss = None
    batches = 0
    batch_seconds: list[float] = []
    # each layer's gate rows, one array per batch, recorded when the task ends
    gate_rows: list[list[np.ndarray]] = [[] for _ in usage] if usage is not None else []
    for _ in range(epochs):
        perm = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = perm[start : start + batch_size]
            xb = wrap(x_train[idx])
            yb = y_train[idx]
            t0 = time.perf_counter()
            tape = Tape()
            logits, gates = model.forward(xb, task_id, tape=tape)
            loss = cross_entropy(logits, yb, tape)
            value = loss.item()
            if not math.isfinite(value):
                raise NumericError(f"{where}, batch {batches}: training loss is {value}")
            backward(tape, loss)
            if keys is not None:
                alignment_loss(xb, keys, align_weight)
            try:
                opt.step()
            except NumericError as err:
                raise NumericError(f"{where}, batch {batches}: {err}") from err
            batch_seconds.append(time.perf_counter() - t0)
            for rows, gate in zip(gate_rows, gates):
                rows.append(gate)
            if first_loss is None:
                first_loss = value
            last_loss = value
            batches += 1
    for st, rows in zip(usage or [], gate_rows):
        st.record_gate(np.vstack(rows))
    # every matrix gets its own bytes back, so the arena dies with opt
    opt.release()
    return TrainStats(first_loss, last_loss, batches, batch_seconds)


def evaluate(
    model: ContinualModel,
    task: SyntheticTask,
    selector: str = "oracle",
) -> float:
    """Accuracy on a task's test split. `selector` matters only for a
    model with task keys: "oracle" routes by the true task id, "auto"
    picks the task via key similarity per sample. A NaN or inf in the test
    inputs raises NumericError naming the task and the first bad row, before
    any forward: argmax would silently score such a row as class 0;
    `run_seed` adds the seed and method.

    Models without task keys run the whole split as one forward with every
    row routed on its own (``per_row``). A model with task keys runs one
    forward per row. Under "auto" the split is first scored against every
    task's keys in one `StackedKeys.scores` call, which also rejects a row
    with a zero-norm view, naming it, before any forward; each row then
    makes one `select_task` call on its row of scores. A batch scores
    bit-identically to its rows scored one at a time, so each row selects
    what it would alone. One selection and one forward per row is the
    benchmark's contract: its per-sample timer (``bench/worker.py``)
    charges the time up to each forward to that forward's rows, and its
    tests pin one forward per row, so grouping rows by selected task waits
    for the grouped-evaluation item of ROADMAP, which changes the benchmark
    first. Evaluation passes no tape, so no forward builds a record (see
    `ContinualModel.forward`). A row with task selection costs about
    41 us at eval-many-tasks shapes (two 32-wide layers, eight task keys;
    the median of ten benchmark runs on a shared 2-core x86 machine), almost
    all of it the fixed cost of a few dozen small numpy calls in its
    forward; a batched moelora row costs about 1.6 us.
    """
    if selector not in ("oracle", "auto"):
        raise ParameterError(f"selector must be 'oracle' or 'auto', got {selector!r}")
    x, y = task.x_test, task.y_test
    if not np.isfinite(x).all():
        row = int(np.argmin(np.isfinite(x).all(axis=1)))
        raise NumericError(f"task {task.task_id}: test row {row} holds a non-finite value")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or not x.size:
        raise DimensionError(f"evaluate: x_test must be 2-D and non-empty, got shape {x.shape}")
    if not len(model.keys):
        logits, _ = model.forward(wrap(x), task.task_id, per_row=True)
        return int(np.count_nonzero(np.argmax(logits.data, axis=1) == y)) / len(y)
    keys = model.keys.stack() if selector == "auto" else None
    scores = keys.scores(x) if keys is not None else None
    hits = 0
    for i, label in enumerate(y):
        tid = task.task_id if keys is None else select_task(scores[i], keys)
        logits, _ = model.forward(wrap(x[i : i + 1]), tid)
        hits += int(logits.data[0].argmax() == label)
    return hits / len(y)


def _run_once(model, stream, config, rng, guard, entry, save) -> tuple[list, list[float]]:
    """Train on all tasks at once, if the model has anything to train, then
    evaluate every task once for every stage: multitask, the upper bound,
    and zero_shot, the untrained backbone."""
    trainable = model.count_trainable_params()
    batch_seconds: list[float] = []
    if trainable:
        t = config.train
        x_all = np.concatenate([task.x_train for task in stream.tasks])
        y_all = np.concatenate([task.y_train for task in stream.tasks])
        stats = train_task(
            model, x_all, y_all, None, t.epochs, t.batch_size, t.lr, t.optimizer, rng
        )
        batch_seconds = stats.batch_seconds
        guard.verify(model.all_named_matrices())
    accs = [evaluate(model, task) for task in stream.tasks]
    rows = [accs[: i + 1] for i in range(len(stream))]
    entry["trainable_params_per_task"] = [trainable] if trainable else [0] * len(stream)
    save(len(stream) - 1)
    return rows, batch_seconds


def _run_sequential(model, stream, config, rng, guard, entry, save) -> tuple[list, list[float]]:
    """Train the tasks in order; after each, evaluate every task seen so far.

    A model with task keys also records gate usage, freezes branches after
    each task and routes evaluation through automatic task selection.
    """
    a, t = config.adapter, config.train
    ledger = FreezeLedger()
    rows = []
    params_per_task = []
    batch_seconds: list[float] = []
    for task in stream.tasks:
        tid = task.task_id
        model.start_task(tid)
        keyed = len(model.keys) > 0
        usage = [UsageStats(model.hp.experts) for _ in model.layers] if keyed else None
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
        if keyed:
            for li, (layer, st) in enumerate(zip(model.layers, usage)):
                chosen = select_freeze_set(st, a.freeze_width, layer.frozen, by=a.freeze_by)
                apply_freeze(layer, chosen)
                ledger.record(tid, li, chosen, st.normalized_mass())
        model.finish_task(tid)
        guard.track(model.all_named_matrices())
        selector = "auto" if keyed else "oracle"
        rows.append([evaluate(model, stream.tasks[k], selector) for k in range(tid + 1)])
        save(tid)
    entry["trainable_params_per_task"] = params_per_task
    if len(model.keys):
        entry["freeze_ledger"] = ledger.to_obj()
        entry["oracle_final_row"] = [evaluate(model, task, "oracle") for task in stream.tasks]
        x_test = np.concatenate([task.x_test for task in stream.tasks])
        ids = np.concatenate([np.full(len(task.x_test), task.task_id) for task in stream.tasks])
        entry["selector_accuracy"] = selector_accuracy(x_test, ids, model.keys)
    return rows, batch_seconds


# Each method's layer kind, the tag of its training rng and its run plan.
# multitask trains a lora model on all tasks at once; zero_shot trains
# nothing, so it never draws from its rng.
METHODS = {
    "zero_shot": ("zero_shot", 20, _run_once),
    "lora": ("lora", 21, _run_sequential),
    "moelora": ("moelora", 22, _run_sequential),
    "branchlora": ("branchlora", 23, _run_sequential),
    "multitask": ("lora", 24, _run_once),
}


def run_seed(
    config: ExperimentConfig,
    seed: int,
    out_dir=None,
    stream: TaskStream | None = None,
) -> dict:
    """Run every configured method on one seed's stream.

    Returns {"report": ..., "timings": ...}. Only "report" is
    deterministic; timings are wall-clock measurements. With `out_dir`,
    each method's checkpoints go under `out_dir/checkpoints`. A
    NumericError from training or evaluation is raised again with the
    seed and method in front of its message.
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
        kind, tag, run = METHODS[method]
        model = build_model(kind, mcfg, hp, seed)
        guard = ImmutabilityGuard()
        guard.track(model.all_named_matrices())

        def save(task_id: int) -> None:
            if out_dir is not None:
                save_model(checkpoint_dir(out_dir, seed, method, task_id), model)

        entry: dict = {"stream_fingerprint": fingerprint}
        rng = np.random.default_rng(np.random.SeedSequence([seed, tag]))
        try:
            rows, batch_seconds = run(model, stream, config, rng, guard, entry, save)
        except NumericError as err:
            raise NumericError(f"seed {seed}, method {method}, {err}") from err

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
