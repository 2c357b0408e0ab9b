"""Low-rank adapter layers over a frozen linear backbone.

Every layer kind keeps one contract (`AdapterLayer`), so the model,
checkpoints and analysis never ask which kind they hold. A layer's
constructor draws all of its matrices and ``named_matrices`` is the one
place that names them; a checkpoint loads by building the layer afresh
and overwriting those matrices. Three adapter
kinds compute h = x W_f + (alpha/r) * delta, each in its own ``forward``
after its gate (if any):

* LoRALayer: a single rank-r pair (A, B), delta = x A B.
* MoELoRALayer: N experts (A_j, B_j) of rank r/N, densely mixed by a
  softmax router (`top_k_gate` with k = N).
* BranchLoRALayer: one shared A of rank r/N, N branch matrices B_j, and
  one router per task; the gate keeps the top-k router scores, so it has
  exactly k nonzero entries, and only the branches some row selects run.
  Branches can be frozen in place (trainable flag off) and remain
  routable.

The two routed kinds gate a training batch by its first row: one 1 x N gate
row for the whole batch. ``per_row=True`` routes each row on its own (a
B x N gate), so a batch of rows takes the routes, and up to float rounding
gives the outputs, of forwarding the rows one at a time; evaluation uses it
to run a test split as one forward.

Each kind has one ``forward``, on plain arrays, for training and
evaluation alike. Handed a tape, it appends the layer to it as one
``(backward, cache)`` record, and the layer's hand-written ``backward``
takes the adjoint of its output, adds each trainable matrix's share to its
grad and returns the adjoint of its input, unless the layer's record is the
tape's first (see `tensor.backward`). Its arithmetic follows a fixed order,
that of a chain of single products, weighings and sums replayed in
reverse, which the tests hold as its reference: dx starts as g W^T and
adds each live term's share from the last term to the first; a shared A
sums its terms' shares from the last to the first before taking one
gradient share; and the gate's share of dx comes after the adapter's.

BackboneLayer is the zero-shot layer: h = x W_f with no parameters. Every
layer holds W_f as a plain non-trainable Matrix (`draw_backbone`).

A layer's constructor fixes every matrix's shape from the backbone's and
the hyperparameters, so a forward checks only what comes from outside: the
width of x.

A and the per-expert A_j are initialized from a zero-mean Gaussian with
std 1/sqrt(d_in); B matrices start at zero, so a fresh adapter layer
computes exactly the backbone output. The MoELoRA router starts at zero,
each BranchLoRA router at a tiny Gaussian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import DimensionError, ParameterError, RoutingError
from .tensor import Matrix, Tape, add_product, linear


def check_ints(**values) -> None:
    """Raise ParameterError naming the first value that is not an int; a
    bool, or a float such as 16.0, is not one."""
    for name, v in values.items():
        if type(v) is not int:
            raise ParameterError(f"{name} must be an integer, got {v!r}")


@dataclass(frozen=True)
class AdapterHyperparams:
    """Adapter knobs: total rank, scaling, expert count, gate width, key weight."""

    rank: int = 128
    alpha: float = 256.0
    experts: int = 8
    top_k: int = 2
    align_weight: float = 1.0

    def __post_init__(self):
        check_ints(rank=self.rank, experts=self.experts, top_k=self.top_k)
        if self.rank < 1:
            raise ParameterError(f"rank must be >= 1, got {self.rank}")
        if self.experts < 1:
            raise ParameterError(f"experts must be >= 1, got {self.experts}")
        if self.rank % self.experts != 0:
            raise ParameterError(
                f"rank {self.rank} must divide evenly among {self.experts} experts"
            )
        if not 1 <= self.top_k <= self.experts:
            raise ParameterError(
                f"top_k {self.top_k} out of range for {self.experts} experts"
            )
        # a NaN fails every comparison, so it is rejected with the infinities
        if not 0 < self.alpha < math.inf:
            raise ParameterError(f"alpha must be positive and finite, got {self.alpha}")
        if not 0 <= self.align_weight < math.inf:
            raise ParameterError(f"align_weight must be >= 0 and finite, got {self.align_weight}")

    @property
    def per_expert_rank(self) -> int:
        return self.rank // self.experts

    @property
    def scaling(self) -> float:
        return self.alpha / self.rank


def draw_backbone(rng: np.random.Generator, d_in: int, d_out: int) -> Matrix:
    """The pretrained weight W_f: a constant, never trainable."""
    return Matrix.randn(rng, d_in, d_out, std=1.0 / np.sqrt(d_in))


def _init_a(rng: np.random.Generator, d_in: int, r: int) -> Matrix:
    return Matrix.randn(rng, d_in, r, std=1.0 / np.sqrt(d_in), trainable=True)


class AdapterLayer:
    """The contract every layer kind keeps.

    The constructor ``cls(rng, backbone, hp)`` draws a fresh layer over a
    given backbone. ``named_matrices()`` names every matrix the layer
    holds, in checkpoint order. ``forward(x, task_id, per_row=False,
    tape=None)`` takes an array and returns the arrays ``(h, gate)``, gate
    None without a router, or raises DimensionError if x is not as wide as
    the backbone; a router gates the batch by its first row, or each row on
    its own with ``per_row`` (ignored by kinds without a router). Handed a
    tape, it appends ``backward(g, cache, need_dx)`` and its cache to it
    (see the module docstring); a forward that passes no tape builds no
    record. ``params()`` are the (name, matrix) pairs of ``named_matrices``
    whose ``trainable`` flag is on, in that order: the flag is the only
    record of what trains, so freezing a matrix is turning it off.
    ``routers`` (per-task routers) stays empty, and the task hooks do
    nothing, unless the kind has such parts.

    The model and harness read two facts off a layer, never its kind: a
    router registered by ``start_task`` gives the model a key pair for that
    task (and with it the key alignment loss, automatic task selection and
    branch freezing), and ``allow_missing`` tells the optimizer that a
    trainable matrix may get no gradient in a step.
    """

    routers = MappingProxyType({})
    allow_missing = False

    def params(self) -> list[tuple[str, Matrix]]:
        return [(name, m) for name, m in self.named_matrices() if m.trainable]

    def start_task(self, task_id: int, rng: np.random.Generator) -> None:
        pass

    def finish_task(self, task_id: int) -> None:
        pass

    def count_trainable_params(self) -> int:
        return sum(m.data.size for _, m in self.params())


class BackboneLayer(AdapterLayer):
    """The zero-shot layer: the frozen backbone alone, nothing to train."""

    def __init__(self, rng: np.random.Generator, backbone: Matrix, hp: AdapterHyperparams):
        self.backbone = backbone

    def forward(self, x: np.ndarray, task_id: int | None = None, per_row: bool = False,
                tape: Tape | None = None) -> tuple[np.ndarray, None]:
        return linear(x, self.backbone.data, tape), None

    def named_matrices(self) -> list[tuple[str, Matrix]]:
        return [("backbone", self.backbone)]


class LoRALayer(AdapterLayer):
    def __init__(self, rng: np.random.Generator, backbone: Matrix, hp: AdapterHyperparams):
        d_in, d_out = backbone.shape
        self.backbone = backbone
        self.hp = hp
        self.a = _init_a(rng, d_in, hp.rank)
        self.b = Matrix.zeros(hp.rank, d_out, trainable=True)

    def forward(self, x: np.ndarray, task_id: int | None = None, per_row: bool = False,
                tape: Tape | None = None) -> tuple[np.ndarray, None]:
        a, b = self.a.data, self.b.data
        if x.shape[1] != a.shape[0]:
            raise DimensionError(f"lora: x {x.shape} does not chain with A {a.shape}")
        xa = x @ a
        delta = xa @ b
        h = x @ self.backbone.data
        delta *= self.hp.scaling
        h += delta
        if tape is not None:
            tape.entries.append((self.backward, (x, xa)))
        return h, None

    def backward(self, g: np.ndarray, cache, need_dx: bool) -> np.ndarray | None:
        x, xa = cache
        a, b = self.a, self.b
        gs = g * self.hp.scaling
        if b.trainable:
            add_product(b, xa.T, gs)
        if not (need_dx or a.trainable):
            return None
        d = gs @ b.data.T
        if a.trainable:
            add_product(a, x.T, d)
        if not need_dx:
            return None
        dx = g @ self.backbone.data.T
        dx += d @ a.data.T
        return dx

    def named_matrices(self) -> list[tuple[str, Matrix]]:
        return [("backbone", self.backbone), ("A", self.a), ("B", self.b)]


def top_k_gate(
    x: np.ndarray, router: np.ndarray, k: int, per_row: bool = False
) -> tuple[np.ndarray, np.ndarray | None]:
    """The gate: softmax over the k largest router scores, zeros elsewhere,
    and its top-k mask. k lies in 1..N, N the router's width: the layers
    pass ``hp.top_k`` or ``hp.experts``, which `AdapterHyperparams` checks.

    By default the scores are x[0] @ router and the gate is 1 x N, shared by
    every row of x. With ``per_row`` each row of x gets its own gate row
    from its own scores, a B x N gate. Every entry outside the top k is
    exactly 0.0, and ties break toward the lowest column of each row. With k
    equal to the router's width this is a plain softmax and the mask is
    None; otherwise the mask has the gate's shape, 1.0 for each kept column
    and 0.0 for each dropped one. A row with a NaN or +inf score, or with
    every score -inf, comes out all NaN.

    Each row's scores are shifted by their largest before the exponential.
    One scored row (every batch gated by its first row, every one-row
    forward) takes its largest with Python's ``max`` over the row's floats
    instead of a numpy reduction, which costs more than the exponential,
    and is shifted, exponentiated and normalized in place, by the sum of
    the whole block, which is that row's sum. This is exact: a max returns
    one of its inputs, so a finite row is shifted by the same float
    (exp(±0) is 1 whichever zero is the largest) and gets the same bits,
    and a row that the reduction makes all NaN comes out all NaN. A block
    of several rows keeps the reductions.
    """
    d, n = router.shape
    if x.shape[1] != d:
        raise DimensionError(f"router_gate: x has {x.shape[1]} columns, router has {d} rows")
    s = (x if per_row else x[0:1]) @ router
    one_row = s.shape[0] == 1
    if one_row:
        score_rows = s.tolist()
        s -= max(score_rows[0])
        e = np.exp(s, out=s)
    else:
        score_rows = None
        e = np.exp(s - s.max(axis=1, keepdims=True))
    mask = None
    if k < n:
        if score_rows is None:
            score_rows = s.tolist()
        # each row's columns in stable descending order of score: the first
        # k are kept, the lowest first among ties
        rows = []
        for row in score_rows:
            keep = [1.0] * n
            for j in sorted(range(n), key=row.__getitem__, reverse=True)[k:]:
                keep[j] = 0.0
            rows.append(keep)
        mask = np.array(rows)
        e *= mask
    e /= e.sum() if one_row else e.sum(axis=1, keepdims=True)
    return e, mask


class _GatedLayer(AdapterLayer):
    """The gated sum and its backward, which MoELoRA and BranchLoRA share:
    they differ in their A matrices, their router and its top k."""

    def _mix(self, x, gate, mask, router, a, b, per_row, tape):
        """x W + s * sum_j g_j x A_j B_j over the given gate and, given a
        tape, its record.

        ``a`` holds one A per B, or one A shared by all of them. Only the
        columns that some gate row holds nonzero run. A one-row gate weighs
        every row of x by a float per column; a gate with one row per row of
        x weighs row i by gate row i, a column per column. Given a tape, each
        unweighted term x A_j B_j is kept for the gate's gradient.
        """
        if gate.shape[0] == 1:
            live, weights = [], []
            for j, v in enumerate(gate[0].tolist()):
                if v != 0.0:
                    live.append(j)
                    weights.append(v)
        else:
            live = np.flatnonzero((gate != 0.0).any(axis=0)).tolist()
            weights = [gate[:, j : j + 1] for j in live]
        if len(a) == 1:
            xas = [x @ a[0].data] * len(live) if live else []
        else:
            xas = [x @ a[j].data for j in live]
        w = self.backbone.data
        delta = np.zeros((x.shape[0], w.shape[1]))
        terms = []
        for j, wj, xa in zip(live, weights, xas):
            p = xa @ b[j].data
            delta += wj * p
            if tape is not None:
                terms.append(p)
        h = x @ w
        delta *= self.hp.scaling
        h += delta
        if tape is not None:
            cache = (x, gate, mask, router, per_row, a, b, live, weights, xas, terms)
            tape.entries.append((self.backward, cache))
        return h, gate

    def backward(self, g: np.ndarray, cache, need_dx: bool) -> np.ndarray | None:
        x, gate, mask, router, per_row, a, b, live, weights, xas, terms = cache
        gs = g * self.hp.scaling
        gate_grad = need_dx or router.trainable
        if gate_grad:
            dg = np.zeros(gate.shape)
            for j, p in zip(live, terms):
                dg[:, j] = (gs * p).sum() if gate.shape[0] == 1 else (gs * p).sum(axis=1)
        dx = g @ self.backbone.data.T if need_dx else None
        shared_a = len(a) == 1
        a0 = a[0]
        d_a0 = None  # a shared A's adjoint, summed from the last term
        for i in range(len(live) - 1, -1, -1):
            j = live[i]
            bj = b[j]
            gp = weights[i] * gs
            if bj.trainable:
                add_product(bj, xas[i].T, gp)
            aj = a0 if shared_a else a[j]
            if not (need_dx or aj.trainable):
                continue
            d = gp @ bj.data.T
            if shared_a:
                d_a0 = d if d_a0 is None else d_a0 + d
                continue
            if aj.trainable:
                add_product(aj, x.T, d)
            if need_dx:
                dx += d @ aj.data.T
        if d_a0 is not None:
            if a0.trainable:
                add_product(a0, x.T, d_a0)
            if need_dx:
                dx += d_a0 @ a0.data.T
        if not gate_grad:
            return None
        ds = gate * (dg - (dg * gate).sum(axis=1, keepdims=True))
        if mask is not None:
            ds = np.where(mask, ds, 0.0)
        if router.trainable:
            add_product(router, (x if per_row else x[0:1]).T, ds)
        if not need_dx:
            return None
        if per_row:
            dx += ds @ router.data.T
        else:  # only row 0 was scored
            dx_gate = np.zeros(x.shape)
            np.matmul(ds, router.data.T, out=dx_gate[0:1])
            dx += dx_gate
        return dx


class MoELoRALayer(_GatedLayer):
    """N rank-r/N experts mixed by a dense softmax gate."""

    def __init__(self, rng: np.random.Generator, backbone: Matrix, hp: AdapterHyperparams):
        d_in, d_out = backbone.shape
        pr = hp.per_expert_rank
        self.backbone = backbone
        self.hp = hp
        self.experts = []
        for j in range(hp.experts):
            a = _init_a(rng, d_in, pr)
            b = Matrix.zeros(pr, d_out, trainable=True)
            self.experts.append((a, b))
        self.router = Matrix.zeros(d_in, hp.experts, trainable=True)

    def forward(self, x: np.ndarray, task_id: int | None = None, per_row: bool = False,
                tape: Tape | None = None) -> tuple[np.ndarray, np.ndarray]:
        gate, mask = top_k_gate(x, self.router.data, self.hp.experts, per_row)
        a, b = zip(*self.experts)
        return self._mix(x, gate, mask, self.router, a, b, per_row, tape)

    def named_matrices(self) -> list[tuple[str, Matrix]]:
        out = [("backbone", self.backbone)]
        for j, (a, b) in enumerate(self.experts):
            out.append((f"expert{j}.A", a))
            out.append((f"expert{j}.B", b))
        out.append(("router", self.router))
        return out


class BranchLoRALayer(_GatedLayer):
    """Shared A, N branch B matrices, a sparse gate, and one router per task."""

    # the sparse gate leaves unselected branches without a gradient
    allow_missing = True

    def __init__(self, rng: np.random.Generator, backbone: Matrix, hp: AdapterHyperparams):
        d_in, d_out = backbone.shape
        pr = hp.per_expert_rank
        self.backbone = backbone
        self.hp = hp
        self.a_shared = _init_a(rng, d_in, pr)
        self.branches = [Matrix.zeros(pr, d_out, trainable=True) for _ in range(hp.experts)]
        self.routers: dict[int, Matrix] = {}
        self.d_in = d_in

    def start_task(self, task_id: int, rng: np.random.Generator) -> None:
        """Register the router for a new task.

        The router starts at a tiny Gaussian: the gate is still near-uniform
        but scores differ per input, so different samples pick different
        branch subsets and the branches can specialize.
        """
        if task_id in self.routers:
            raise RoutingError(f"router for task {task_id} already registered")
        std = 1e-2 / np.sqrt(self.d_in)
        self.routers[task_id] = Matrix.randn(
            rng, self.d_in, self.hp.experts, std=std, trainable=True
        )

    def finish_task(self, task_id: int) -> None:
        self.routers[task_id].trainable = False

    def gate_for(
        self, x: np.ndarray, task_id: int, per_row: bool = False
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """The gate of task_id's router and its top-k mask (see
        `top_k_gate`)."""
        router = self.routers.get(task_id)
        if router is None:
            raise RoutingError(f"no router registered for task {task_id}")
        return top_k_gate(x, router.data, self.hp.top_k, per_row)

    def forward(self, x: np.ndarray, task_id: int, per_row: bool = False,
                tape: Tape | None = None) -> tuple[np.ndarray, np.ndarray]:
        gate, mask = self.gate_for(x, task_id, per_row)
        router = self.routers[task_id]
        return self._mix(x, gate, mask, router, [self.a_shared], self.branches, per_row, tape)

    @property
    def frozen(self) -> list[bool]:
        """Per-branch freeze flags, read off each branch's trainable flag."""
        return [not b.trainable for b in self.branches]

    def named_matrices(self) -> list[tuple[str, Matrix]]:
        out = [("backbone", self.backbone), ("A", self.a_shared)]
        out.extend((f"branch{j}", b) for j, b in enumerate(self.branches))
        out.extend((f"router.task{t}", self.routers[t]) for t in sorted(self.routers))
        return out


# Layer class per model kind, in the order the kinds are reported.
LAYERS: dict[str, type[AdapterLayer]] = {
    "zero_shot": BackboneLayer,
    "lora": LoRALayer,
    "moelora": MoELoRALayer,
    "branchlora": BranchLoRALayer,
}
