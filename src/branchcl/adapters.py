"""Low-rank adapter layers over a frozen linear backbone.

Every layer kind keeps one contract (`AdapterLayer`), so the model,
checkpoints and analysis never ask which kind they hold. Three adapter
kinds compute h = x W_f + (alpha/r) * delta:

* LoRALayer: a single rank-r pair (A, B), delta = x A B.
* MoELoRALayer: N experts (A_j, B_j) of rank r/N, densely mixed by a
  softmax router (`router_gate` with k = N).
* BranchLoRALayer: one shared A of rank r/N, N branch matrices B_j, and
  one router per task; the gate keeps the top-k router scores, so it has
  exactly k nonzero entries. Branches can be frozen in place (trainable
  flag off) and remain routable.

The two routed kinds gate a training batch by its first row: one 1 x N gate
row for the whole batch. ``per_row=True`` routes each row on its own (a
B x N gate), so a batch of rows takes the routes, and up to float rounding
gives the outputs, of forwarding the rows one at a time; evaluation uses it
to run a test split as one forward.

BackboneLayer is the zero-shot layer: h = x W_f with no parameters.

A and the per-expert A_j are initialized from a zero-mean Gaussian with
std 1/sqrt(d_in); B matrices start at zero, so a fresh adapter layer
computes exactly the backbone output. The MoELoRA router starts at zero,
each BranchLoRA router at a tiny Gaussian.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable

import numpy as np

from .errors import ParameterError, RoutingError
from .tensor import Matrix, add, matmul, mix, router_gate, scale


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


class FrozenBackbone:
    """The pretrained weight W_f. Never trainable."""

    def __init__(self, weight: Matrix):
        weight.trainable = False
        self.weight = weight

    @classmethod
    def init(cls, rng: np.random.Generator, d_in: int, d_out: int) -> "FrozenBackbone":
        w = Matrix.randn(rng, d_in, d_out, std=1.0 / np.sqrt(d_in), name="backbone")
        return cls(w)

    def forward(self, x: Matrix) -> Matrix:
        return matmul(x, self.weight)


def _init_a(rng: np.random.Generator, d_in: int, r: int, name: str) -> Matrix:
    return Matrix.randn(rng, d_in, r, std=1.0 / np.sqrt(d_in), trainable=True, name=name)


class AdapterLayer:
    """The contract every layer kind keeps.

    ``init`` draws a fresh layer (and its backbone unless one is given);
    ``from_named`` rebuilds one from the names ``named_matrices`` gives its
    matrices, in checkpoint order. ``forward(x, task_id, per_row=False)``
    returns ``(h, gate)``, gate None without a router; a router gates the
    batch by its first row, or each row on its own with ``per_row``
    (ignored by kinds without a router). ``params(task_id)`` are the
    matrices trained on task_id, by default all but the backbone. ``frozen``
    (per-branch freeze flags) and ``routers`` (per-task routers) stay empty,
    and the task hooks do nothing, unless the kind has such parts.
    """

    frozen: tuple = ()
    routers = MappingProxyType({})

    @classmethod
    def init(
        cls,
        rng: np.random.Generator,
        d_in: int,
        d_out: int,
        hp: AdapterHyperparams,
        backbone: FrozenBackbone | None = None,
    ) -> "AdapterLayer":
        if backbone is None:
            backbone = FrozenBackbone.init(rng, d_in, d_out)
        return cls.draw(rng, backbone, hp)

    def params(self, task_id: int | None = None) -> list[Matrix]:
        return [m for name, m in self.named_matrices() if name != "backbone"]

    def start_task(self, task_id: int, rng: np.random.Generator) -> None:
        pass

    def finish_task(self, task_id: int) -> None:
        pass

    def count_trainable_params(self, task_id: int | None = None) -> int:
        return sum(p.data.size for p in self.params(task_id) if p.trainable)


class BackboneLayer(AdapterLayer):
    """The zero-shot layer: the frozen backbone alone, nothing to train."""

    def __init__(self, backbone: FrozenBackbone):
        self.backbone = backbone

    @classmethod
    def draw(cls, rng, backbone: FrozenBackbone, hp) -> "BackboneLayer":
        return cls(backbone)

    @classmethod
    def from_named(cls, hp, tensor: Callable[[str], Matrix], frozen, router_tasks):
        return cls(FrozenBackbone(tensor("backbone")))

    def forward(
        self, x: Matrix, task_id: int | None = None, per_row: bool = False
    ) -> tuple[Matrix, None]:
        return self.backbone.forward(x), None

    def named_matrices(self) -> list[tuple[str, Matrix]]:
        return [("backbone", self.backbone.weight)]


class LoRALayer(AdapterLayer):
    def __init__(self, backbone: FrozenBackbone, hp: AdapterHyperparams, a: Matrix, b: Matrix):
        self.backbone = backbone
        self.hp = hp
        self.a = a
        self.b = b

    @classmethod
    def draw(cls, rng: np.random.Generator, backbone: FrozenBackbone, hp) -> "LoRALayer":
        d_in, d_out = backbone.weight.shape
        a = _init_a(rng, d_in, hp.rank, "lora.A")
        b = Matrix.zeros(hp.rank, d_out, trainable=True, name="lora.B")
        return cls(backbone, hp, a, b)

    @classmethod
    def from_named(cls, hp, tensor: Callable[[str], Matrix], frozen, router_tasks):
        return cls(FrozenBackbone(tensor("backbone")), hp, tensor("A"), tensor("B"))

    def forward(
        self, x: Matrix, task_id: int | None = None, per_row: bool = False
    ) -> tuple[Matrix, None]:
        delta = matmul(matmul(x, self.a), self.b)
        return add(self.backbone.forward(x), scale(delta, self.hp.scaling)), None

    def named_matrices(self) -> list[tuple[str, Matrix]]:
        return [("backbone", self.backbone.weight), ("A", self.a), ("B", self.b)]


class MoELoRALayer(AdapterLayer):
    """N rank-r/N experts mixed by a dense softmax gate."""

    def __init__(
        self,
        backbone: FrozenBackbone,
        hp: AdapterHyperparams,
        experts: list[tuple[Matrix, Matrix]],
        router: Matrix,
    ):
        self.backbone = backbone
        self.hp = hp
        self.experts = experts
        self.router = router

    @classmethod
    def draw(cls, rng: np.random.Generator, backbone: FrozenBackbone, hp) -> "MoELoRALayer":
        d_in, d_out = backbone.weight.shape
        pr = hp.per_expert_rank
        experts = []
        for j in range(hp.experts):
            a = _init_a(rng, d_in, pr, f"moe.expert{j}.A")
            b = Matrix.zeros(pr, d_out, trainable=True, name=f"moe.expert{j}.B")
            experts.append((a, b))
        router = Matrix.zeros(d_in, hp.experts, trainable=True, name="moe.router")
        return cls(backbone, hp, experts, router)

    @classmethod
    def from_named(cls, hp, tensor: Callable[[str], Matrix], frozen, router_tasks):
        experts = [
            (tensor(f"expert{j}.A"), tensor(f"expert{j}.B")) for j in range(hp.experts)
        ]
        return cls(FrozenBackbone(tensor("backbone")), hp, experts, tensor("router"))

    def forward(
        self, x: Matrix, task_id: int | None = None, per_row: bool = False
    ) -> tuple[Matrix, Matrix]:
        gate = router_gate(x, self.router, self.hp.experts, per_row)
        parts = [matmul(matmul(x, a), b) for a, b in self.experts]
        delta = mix(gate, parts)
        h = add(self.backbone.forward(x), scale(delta, self.hp.scaling))
        return h, gate

    def named_matrices(self) -> list[tuple[str, Matrix]]:
        out = [("backbone", self.backbone.weight)]
        for j, (a, b) in enumerate(self.experts):
            out.append((f"expert{j}.A", a))
            out.append((f"expert{j}.B", b))
        out.append(("router", self.router))
        return out


class BranchLoRALayer(AdapterLayer):
    """Shared A, N branch B matrices, a sparse gate, and one router per task."""

    def __init__(
        self,
        backbone: FrozenBackbone,
        hp: AdapterHyperparams,
        a_shared: Matrix,
        branches: list[Matrix],
    ):
        self.backbone = backbone
        self.hp = hp
        self.a_shared = a_shared
        self.branches = branches
        self.frozen = [False] * hp.experts
        self.routers: dict[int, Matrix] = {}
        self.d_in = a_shared.rows

    @classmethod
    def draw(cls, rng: np.random.Generator, backbone: FrozenBackbone, hp) -> "BranchLoRALayer":
        d_in, d_out = backbone.weight.shape
        pr = hp.per_expert_rank
        a_shared = _init_a(rng, d_in, pr, "branch.A")
        branches = [
            Matrix.zeros(pr, d_out, trainable=True, name=f"branch.B{j}")
            for j in range(hp.experts)
        ]
        return cls(backbone, hp, a_shared, branches)

    @classmethod
    def from_named(cls, hp, tensor: Callable[[str], Matrix], frozen, router_tasks):
        branches = [tensor(f"branch{j}") for j in range(hp.experts)]
        layer = cls(FrozenBackbone(tensor("backbone")), hp, tensor("A"), branches)
        layer.frozen = list(frozen)
        for t in router_tasks:
            layer.routers[t] = tensor(f"router.task{t}")
        return layer

    def add_router(self, task_id: int, rng: np.random.Generator) -> Matrix:
        """Register the router for a new task.

        The router starts at a tiny Gaussian: the gate is still near-uniform
        but scores differ per input, so different samples pick different
        branch subsets and the branches can specialize.
        """
        if task_id in self.routers:
            raise RoutingError(f"router for task {task_id} already registered")
        name = f"branch.router.task{task_id}"
        std = 1e-2 / np.sqrt(self.d_in)
        router = Matrix.randn(rng, self.d_in, self.hp.experts, std=std, trainable=True, name=name)
        self.routers[task_id] = router
        return router

    def start_task(self, task_id: int, rng: np.random.Generator) -> None:
        self.add_router(task_id, rng)

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
        shared = matmul(x, self.a_shared)
        # Only the branches some row selects execute; the others carry an
        # exact 0.0 gate weight, so skipping them changes no value and no
        # gradient (a skipped branch matrix simply never joins the tape).
        # With per-row gates, a row adds an exact 0.0 times each branch it
        # did not select, which leaves its sum as it is on its own.
        live = (gate.data != 0.0).any(axis=0) if per_row else gate.data[0] != 0.0
        selected = [int(j) for j in np.nonzero(live)[0]]
        parts = [matmul(shared, self.branches[j]) for j in selected]
        delta = mix(gate, parts, cols=selected)
        h = add(self.backbone.forward(x), scale(delta, self.hp.scaling))
        return h, gate

    def params(self, task_id: int) -> list[Matrix]:
        """Parameters that receive gradients while training task_id."""
        router = self.routers.get(task_id)
        if router is None:
            raise RoutingError(f"no router registered for task {task_id}")
        out = [self.a_shared]
        out.extend(b for j, b in enumerate(self.branches) if not self.frozen[j])
        out.append(router)
        return out

    def named_matrices(self) -> list[tuple[str, Matrix]]:
        out = [("backbone", self.backbone.weight), ("A", self.a_shared)]
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
