"""Low-rank adapter layers over a frozen linear backbone.

Every layer kind keeps one contract (`AdapterLayer`), so the model,
checkpoints and analysis never ask which kind they hold. A layer's
constructor draws all of its matrices and ``named_matrices`` is the one
place that names them; a checkpoint loads by building the layer afresh
and overwriting those matrices. Three adapter
kinds compute h = x W_f + (alpha/r) * delta, each as one `tensor.adapter`
op after its gate (if any):

* LoRALayer: a single rank-r pair (A, B), delta = x A B.
* MoELoRALayer: N experts (A_j, B_j) of rank r/N, densely mixed by a
  softmax router (`router_gate` with k = N).
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

BackboneLayer is the zero-shot layer: h = x W_f with no parameters. Every
layer holds W_f as a plain non-trainable Matrix (`draw_backbone`).

A and the per-expert A_j are initialized from a zero-mean Gaussian with
std 1/sqrt(d_in); B matrices start at zero, so a fresh adapter layer
computes exactly the backbone output. The MoELoRA router starts at zero,
each BranchLoRA router at a tiny Gaussian.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import ParameterError, RoutingError
from .tensor import Matrix, adapter, matmul, router_gate


@dataclass(frozen=True)
class AdapterHyperparams:
    """Adapter knobs: total rank, scaling, expert count, gate width, key weight."""

    rank: int = 128
    alpha: float = 256.0
    experts: int = 8
    top_k: int = 2
    align_weight: float = 1.0

    def __post_init__(self):
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
        if self.alpha <= 0:
            raise ParameterError(f"alpha must be positive, got {self.alpha}")
        if self.align_weight < 0:
            raise ParameterError(f"align_weight must be >= 0, got {self.align_weight}")

    @property
    def per_expert_rank(self) -> int:
        return self.rank // self.experts

    @property
    def scaling(self) -> float:
        return self.alpha / self.rank


def draw_backbone(rng: np.random.Generator, d_in: int, d_out: int) -> Matrix:
    """The pretrained weight W_f: a constant, never trainable."""
    return Matrix.randn(rng, d_in, d_out, std=1.0 / np.sqrt(d_in), name="backbone")


def _init_a(rng: np.random.Generator, d_in: int, r: int, name: str) -> Matrix:
    return Matrix.randn(rng, d_in, r, std=1.0 / np.sqrt(d_in), trainable=True, name=name)


class AdapterLayer:
    """The contract every layer kind keeps.

    The constructor ``cls(rng, backbone, hp)`` draws a fresh layer over a
    given backbone, and ``init`` does so drawing the backbone too unless one
    is given. ``named_matrices()`` names every matrix the layer holds, in
    checkpoint order. ``forward(x, task_id, per_row=False)``
    returns ``(h, gate)``, gate None without a router; a router gates the
    batch by its first row, or each row on its own with ``per_row``
    (ignored by kinds without a router). ``params()`` are the matrices of
    ``named_matrices`` whose ``trainable`` flag is on, in that order: the
    flag is the only record of what trains, so freezing a matrix is turning
    it off. ``routers`` (per-task routers) stays empty, and the task hooks
    do nothing, unless the kind has such parts.

    The model and harness read two facts off a layer, never its kind: a
    router registered by ``start_task`` gives the model a key pair for that
    task (and with it the key alignment loss, automatic task selection and
    branch freezing), and ``allow_missing`` tells the optimizer that a
    trainable matrix may get no gradient in a step.
    """

    routers = MappingProxyType({})
    allow_missing = False

    @classmethod
    def init(
        cls,
        rng: np.random.Generator,
        d_in: int,
        d_out: int,
        hp: AdapterHyperparams,
        backbone: Matrix | None = None,
    ) -> "AdapterLayer":
        if backbone is None:
            backbone = draw_backbone(rng, d_in, d_out)
        return cls(rng, backbone, hp)

    def params(self) -> list[Matrix]:
        return [m for _, m in self.named_matrices() if m.trainable]

    def start_task(self, task_id: int, rng: np.random.Generator) -> None:
        pass

    def finish_task(self, task_id: int) -> None:
        pass

    def count_trainable_params(self) -> int:
        return sum(p.data.size for p in self.params())


class BackboneLayer(AdapterLayer):
    """The zero-shot layer: the frozen backbone alone, nothing to train."""

    def __init__(self, rng: np.random.Generator, backbone: Matrix, hp: AdapterHyperparams):
        self.backbone = backbone

    def forward(
        self, x: Matrix, task_id: int | None = None, per_row: bool = False
    ) -> tuple[Matrix, None]:
        return matmul(x, self.backbone), None

    def named_matrices(self) -> list[tuple[str, Matrix]]:
        return [("backbone", self.backbone)]


class LoRALayer(AdapterLayer):
    def __init__(self, rng: np.random.Generator, backbone: Matrix, hp: AdapterHyperparams):
        d_in, d_out = backbone.shape
        self.backbone = backbone
        self.hp = hp
        self.a = _init_a(rng, d_in, hp.rank, "lora.A")
        self.b = Matrix.zeros(hp.rank, d_out, trainable=True, name="lora.B")

    def forward(
        self, x: Matrix, task_id: int | None = None, per_row: bool = False
    ) -> tuple[Matrix, None]:
        return adapter(x, self.backbone, [self.a], [self.b], self.hp.scaling), None

    def named_matrices(self) -> list[tuple[str, Matrix]]:
        return [("backbone", self.backbone), ("A", self.a), ("B", self.b)]


class MoELoRALayer(AdapterLayer):
    """N rank-r/N experts mixed by a dense softmax gate."""

    def __init__(self, rng: np.random.Generator, backbone: Matrix, hp: AdapterHyperparams):
        d_in, d_out = backbone.shape
        pr = hp.per_expert_rank
        self.backbone = backbone
        self.hp = hp
        self.experts = []
        for j in range(hp.experts):
            a = _init_a(rng, d_in, pr, f"moe.expert{j}.A")
            b = Matrix.zeros(pr, d_out, trainable=True, name=f"moe.expert{j}.B")
            self.experts.append((a, b))
        self.router = Matrix.zeros(d_in, hp.experts, trainable=True, name="moe.router")

    def forward(
        self, x: Matrix, task_id: int | None = None, per_row: bool = False
    ) -> tuple[Matrix, Matrix]:
        gate = router_gate(x, self.router, self.hp.experts, per_row)
        a, b = zip(*self.experts)
        return adapter(x, self.backbone, a, b, self.hp.scaling, gate), gate

    def named_matrices(self) -> list[tuple[str, Matrix]]:
        out = [("backbone", self.backbone)]
        for j, (a, b) in enumerate(self.experts):
            out.append((f"expert{j}.A", a))
            out.append((f"expert{j}.B", b))
        out.append(("router", self.router))
        return out


class BranchLoRALayer(AdapterLayer):
    """Shared A, N branch B matrices, a sparse gate, and one router per task."""

    # the sparse gate keeps unselected branches off the tape
    allow_missing = True

    def __init__(self, rng: np.random.Generator, backbone: Matrix, hp: AdapterHyperparams):
        d_in, d_out = backbone.shape
        pr = hp.per_expert_rank
        self.backbone = backbone
        self.hp = hp
        self.a_shared = _init_a(rng, d_in, pr, "branch.A")
        self.branches = [
            Matrix.zeros(pr, d_out, trainable=True, name=f"branch.B{j}")
            for j in range(hp.experts)
        ]
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
        name = f"branch.router.task{task_id}"
        std = 1e-2 / np.sqrt(self.d_in)
        self.routers[task_id] = Matrix.randn(
            rng, self.d_in, self.hp.experts, std=std, trainable=True, name=name
        )

    def finish_task(self, task_id: int) -> None:
        self.routers[task_id].trainable = False

    def gate_for(self, x: Matrix, task_id: int, per_row: bool = False) -> Matrix:
        router = self.routers.get(task_id)
        if router is None:
            raise RoutingError(f"no router registered for task {task_id}")
        return router_gate(x, router, self.hp.top_k, per_row)

    def forward(
        self, x: Matrix, task_id: int, per_row: bool = False
    ) -> tuple[Matrix, Matrix]:
        gate = self.gate_for(x, task_id, per_row)
        h = adapter(x, self.backbone, [self.a_shared], self.branches, self.hp.scaling, gate)
        return h, gate

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
