"""Post-hoc analysis: expert-weight similarity and efficiency measurements.

Two questions this module answers about a finished run:

1. Do the per-expert down-projections (A) stay mutually similar while the
   up-projections (B) differentiate?  If yes, sharing a single A across
   branches is justified and the similarity margin (A minus B) is positive.
2. What does each adapter cost, in trainable parameters and in wall time
   per training batch, at identical dimensions?
"""

from __future__ import annotations

import time
from statistics import mean, median, pstdev

import numpy as np

from .adapters import LAYERS
from .config import ExperimentConfig
from .errors import AnalysisError
from .optim import make_optimizer
from .tensor import Matrix, Tape, backward, mse_loss, wrap

__all__ = ["expert_similarity", "expert_vectors", "efficiency_report"]


def _cos(u: np.ndarray, v: np.ndarray) -> float | None:
    """Cosine of two flattened weight vectors, or None when undefined.

    An untrained all-zero matrix has no direction, so pairs touching one
    are excluded from the statistics rather than poisoning them.
    """
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return None
    return float(np.dot(u, v) / (nu * nv))


class _PairStats:
    __slots__ = ("total", "pairs", "skipped")

    def __init__(self):
        self.total = 0.0
        self.pairs = 0
        self.skipped = 0

    def add(self, c: float | None) -> None:
        if c is None:
            self.skipped += 1
        else:
            self.total += c
            self.pairs += 1

    def mean(self) -> float | None:
        return self.total / self.pairs if self.pairs else None


def expert_vectors(snapshots) -> list[dict]:
    """Flatten per-expert weight snapshots into labeled vectors.

    ``snapshots`` is the per-task list that ``cli.load_snapshots`` reads
    from a mixture model's checkpoints:
    snapshots[task][layer][expert] == (A, B) arrays.
    Returns one row per (matrix, task, layer, expert) with the flattened
    weight vector, ready for similarity math or CSV export.
    """
    rows: list[dict] = []
    for task_idx, per_layer in enumerate(snapshots):
        for layer_idx, experts in enumerate(per_layer):
            for expert_idx, (a_w, b_w) in enumerate(experts):
                rows.append(
                    {
                        "matrix": "A",
                        "task": task_idx,
                        "layer": layer_idx,
                        "expert": expert_idx,
                        "vector": np.asarray(a_w, dtype=np.float64).ravel(),
                    }
                )
                rows.append(
                    {
                        "matrix": "B",
                        "task": task_idx,
                        "layer": layer_idx,
                        "expert": expert_idx,
                        "vector": np.asarray(b_w, dtype=np.float64).ravel(),
                    }
                )
    return rows


def expert_similarity(snapshots) -> dict:
    """How much each expert's weights move between task checkpoints, A vs B.

    For every (layer, expert) the flattened A is compared, by cosine,
    across all pairs of task snapshots; likewise for B.  ``margin`` is
    the pooled mean A cosine minus the pooled mean B cosine, pooling
    layers by pair count.  A positive margin means the down-projections
    stay essentially where they are through the task sequence while the
    up-projections keep reorienting, which is the asymmetry that makes
    sharing one A and branching the Bs a reasonable split.

    Cross-expert cosines within each snapshot are reported under
    ``cross_expert`` as a diagnostic.  At this scale each expert's A
    keeps most of its random initialization, so cross-expert values sit
    near zero and carry little signal either way.

    Pairs involving an all-zero matrix (for example B before any
    training) are excluded; a mean with no surviving pairs is None, and
    so is the margin that would need it.
    """
    if not snapshots:
        raise AnalysisError("no snapshots to analyze")
    if len(snapshots) < 2:
        raise AnalysisError(
            f"similarity needs at least 2 task snapshots, got {len(snapshots)}"
        )
    n_layers = len(snapshots[0])
    n_experts = len(snapshots[0][0]) if n_layers else 0
    if n_experts < 2:
        raise AnalysisError(
            f"similarity needs at least 2 experts, got {n_experts}"
        )
    n_tasks = len(snapshots)

    layers_out = []
    pooled = {"A": _PairStats(), "B": _PairStats()}
    cross = {"A": _PairStats(), "B": _PairStats()}
    for layer_idx in range(n_layers):
        layer_entry = {"layer": layer_idx}
        for mat_idx, key in ((0, "A"), (1, "B")):
            local = _PairStats()
            for expert_idx in range(n_experts):
                for t1 in range(n_tasks):
                    v1 = snapshots[t1][layer_idx][expert_idx][mat_idx].ravel()
                    for t2 in range(t1 + 1, n_tasks):
                        v2 = snapshots[t2][layer_idx][expert_idx][mat_idx].ravel()
                        c = _cos(v1, v2)
                        local.add(c)
                        pooled[key].add(c)
            layer_entry[f"mean_cos_{key.lower()}"] = local.mean()
            layer_entry["pairs"] = local.pairs

            for t in range(n_tasks):
                for j1 in range(n_experts):
                    v1 = snapshots[t][layer_idx][j1][mat_idx].ravel()
                    for j2 in range(j1 + 1, n_experts):
                        v2 = snapshots[t][layer_idx][j2][mat_idx].ravel()
                        cross[key].add(_cos(v1, v2))
        layers_out.append(layer_entry)

    mean_a = pooled["A"].mean()
    mean_b = pooled["B"].mean()
    margin = None if mean_a is None or mean_b is None else mean_a - mean_b
    return {
        "layers": layers_out,
        "mean_cos_a": mean_a,
        "mean_cos_b": mean_b,
        "margin": margin,
        "pairs_a": pooled["A"].pairs,
        "pairs_b": pooled["B"].pairs,
        "excluded_zero_pairs": pooled["A"].skipped + pooled["B"].skipped,
        "cross_expert": {
            "mean_cos_a": cross["A"].mean(),
            "mean_cos_b": cross["B"].mean(),
            "pairs_a": cross["A"].pairs,
            "pairs_b": cross["B"].pairs,
        },
        "snapshots": n_tasks,
        "experts": n_experts,
    }


_LAYER_KINDS = ("lora", "moelora", "branchlora")


def _summary(ms: list[float]) -> dict:
    return {"mean": mean(ms), "median": median(ms), "std": pstdev(ms)}


def _forward_backward(layer, x, target) -> np.ndarray | None:
    """One taped forward of `layer` on ``x`` and the backward of its MSE
    against ``target``, which leaves a grad on each matrix it reaches;
    returns the layer's gate."""
    tape = Tape()
    h, gate = layer.forward(x, 0, tape=tape)
    backward(tape, mse_loss(wrap(h), target, tape))
    return gate


def _one_batch(layer, x, target, opt) -> tuple[float, float]:
    """Time one training batch on a single layer.

    Returns (forward+backward seconds, optimizer-step seconds), each the
    fastest of three executions so a scheduler hiccup on one run cannot
    pollute the sample.
    """
    best_fb = None
    best_step = None
    for _ in range(3):
        start = time.perf_counter()
        _forward_backward(layer, x, target)
        mid = time.perf_counter()
        opt.step()
        end = time.perf_counter()
        fb = mid - start
        st = end - mid
        if best_fb is None or fb < best_fb:
            best_fb = fb
        if best_step is None or st < best_step:
            best_step = st
    return best_fb, best_step


def _grad_coverage(layer, named, dim: int, batch: int,
                   target, rng: np.random.Generator) -> int:
    """Scalars that receive a gradient at least once over repeated batches.

    Dense adapters cover everything in one batch.  A sparse-gated layer
    reaches only the selected branches per batch, so coverage accumulates
    over fresh random inputs until it stops growing.
    """
    seen: set[str] = set()
    for _ in range(64):
        _forward_backward(layer, rng.standard_normal((batch, dim)), target)
        for name, p in named:
            if p.grad is not None:
                seen.add(name)
                p.grad = None
        if len(seen) == len(named):
            break
    return sum(p.data.size for name, p in named if name in seen)


def efficiency_report(
    cfg: ExperimentConfig, batches: int = 100, seed: int = 0
) -> dict:
    """Trainable-parameter counts and per-batch wall time for each adapter.

    Builds one fresh layer per adapter kind at the configured width and
    times ``batches`` training batches on identical random data, reporting
    forward+backward alone and the full step including the optimizer.
    Declared parameter counts are cross-checked against the scalars that
    actually receive gradients; a mismatch raises, since it would mean
    the published counts lie about what trains.
    """
    if batches < 1:
        raise AnalysisError(f"batches must be >= 1, got {batches}")
    hp = cfg.adapter.hyperparams()
    dim = cfg.stream.dim
    rng = np.random.default_rng(np.random.SeedSequence([seed, 77]))
    x = rng.standard_normal((cfg.train.batch_size, dim))
    target = Matrix(rng.standard_normal((cfg.train.batch_size, dim)))

    methods = {}
    layers = {}
    opts = {}
    for kind in _LAYER_KINDS:
        layer = LAYERS[kind].init(rng, dim, dim, hp)
        layer.start_task(0, rng)
        layers[kind] = layer
        named = layer.params()
        declared = layer.count_trainable_params()

        covered = _grad_coverage(layer, named, dim,
                                 cfg.train.batch_size, target, rng)
        if covered != declared:
            raise AnalysisError(
                f"{kind}: {covered} scalars receive gradients, "
                f"count_trainable_params says {declared}"
            )

        # One real step for the per-step figure.  A sparse-gated layer
        # only touches the top-k branches per step: each branch its gate
        # skips leaves a per-expert-rank x dim matrix out of the step.
        gate = _forward_backward(layer, x, target)
        skipped = 0 if gate is None else int(np.count_nonzero(gate[0] == 0.0))
        expect_step = declared - skipped * hp.per_expert_rank * dim
        # lr is kept vanishingly small: the timed loop below reuses this
        # optimizer, and the layer should stay at its starting point so
        # every timed batch performs the identical computation.
        opt = make_optimizer(cfg.train.optimizer, named,
                             lr=1e-12, allow_missing=skipped > 0)
        opts[kind] = opt
        updated = opt.step()
        if updated != expect_step:
            raise AnalysisError(
                f"{kind}: optimizer updated {updated} scalars, expected {expect_step}"
            )
        methods[kind] = {
            "params_per_layer": declared,
            "params_adapters_total": declared * cfg.adapter.layers,
            "gradient_receiving_scalars": covered,
            "updated_scalars_per_step": updated,
        }

    # Interleave the timed batches round-robin so slow stretches of a
    # shared machine hit every kind equally instead of biasing whichever
    # block ran during them.
    fb_ms: dict[str, list[float]] = {kind: [] for kind in _LAYER_KINDS}
    full_ms: dict[str, list[float]] = {kind: [] for kind in _LAYER_KINDS}
    for _ in range(3):
        for kind in _LAYER_KINDS:
            _one_batch(layers[kind], x, target, opts[kind])
    for i in range(batches):
        order = _LAYER_KINDS[i % 3:] + _LAYER_KINDS[: i % 3]
        for kind in order:
            fb, st = _one_batch(layers[kind], x, target, opts[kind])
            fb_ms[kind].append(fb * 1000.0)
            full_ms[kind].append((fb + st) * 1000.0)
    for kind in _LAYER_KINDS:
        methods[kind]["forward_backward_ms"] = _summary(fb_ms[kind])
        methods[kind]["train_batch_ms"] = _summary(full_ms[kind])

    return {
        "dim": dim,
        "batch_size": cfg.train.batch_size,
        "batches": batches,
        "layers": cfg.adapter.layers,
        "rank": hp.rank,
        "experts": hp.experts,
        "methods": methods,
    }
