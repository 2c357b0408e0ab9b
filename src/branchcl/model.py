"""A small classifier: stacked adapter layers over frozen weights.

The backbone (every layer's W_f plus the classification head) is drawn
once per seed and shared across methods, so the only difference between
runs of different methods on the same stream is the adapter kind. All
learning flows through the adapters; the head stays frozen, which is what
makes the zero-shot baseline sit at chance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adapters import LAYERS, AdapterHyperparams, AdapterLayer, draw_backbone
from .errors import ParameterError
from .selector import KeyStore
from .tensor import Matrix, matmul, tanh

_BACKBONE_TAG = 11
_ADAPTER_TAG = 12
_KEY_TAG = 13
_ROUTER_TAG = 14

KINDS = tuple(LAYERS)


@dataclass(frozen=True)
class ModelConfig:
    width: int = 32
    classes: int = 8
    layers: int = 2

    def __post_init__(self):
        if self.width < 2 or self.width % 2 != 0:
            raise ParameterError(f"model width must be even and >= 2, got {self.width}")
        if self.classes < 2:
            raise ParameterError(f"need at least two classes, got {self.classes}")
        if self.layers < 1:
            raise ParameterError(f"need at least one layer, got {self.layers}")


class ContinualModel:
    def __init__(
        self,
        kind: str,
        cfg: ModelConfig,
        hp: AdapterHyperparams,
        layers: list[AdapterLayer],
        head: Matrix,
        seed: int,
    ):
        self.kind = kind
        self.cfg = cfg
        self.hp = hp
        self.layers = layers
        self.head = head
        self.seed = seed
        self.keys = KeyStore()
        self._key_rng = np.random.default_rng(np.random.SeedSequence([seed, _KEY_TAG]))
        self._router_rng = np.random.default_rng(np.random.SeedSequence([seed, _ROUTER_TAG]))

    def forward(
        self, x: Matrix, task_id: int | None = None, per_row: bool = False
    ) -> tuple[Matrix, list[Matrix]]:
        """Run the stack; returns (logits, per-layer gates). Gates are empty
        for kinds without a router. Routers gate the batch by its first row,
        or each row on its own with ``per_row``."""
        gates: list[Matrix] = []
        h = x
        for i, layer in enumerate(self.layers):
            h, gate = layer.forward(h, task_id, per_row)
            if gate is not None:
                gates.append(gate)
            if i < len(self.layers) - 1:
                h = tanh(h)
        logits = matmul(h, self.head)
        return logits, gates

    def start_task(self, task_id: int) -> None:
        """Register the task with every layer and, if they gave it a router,
        its key pair."""
        for layer in self.layers:
            layer.start_task(task_id, self._router_rng)
        if task_id in self.layers[0].routers:
            self.keys.add(task_id, self.cfg.width // 2, self._key_rng)

    def finish_task(self, task_id: int) -> None:
        """Freeze the task's routers and every key; they must never move again."""
        for layer in self.layers:
            layer.finish_task(task_id)
        for keys in self.keys.ordered():
            keys.freeze()

    def trainable_params(self) -> list[Matrix]:
        """The matrices whose trainable flag is on, in checkpoint order.
        After ``start_task(t)`` these are each layer's unfrozen adapter
        matrices and router t, then keys t: ``finish_task`` froze every
        earlier router and key, and the backbone and head never train."""
        return [m for _, m in self.all_named_matrices() if m.trainable]

    def count_trainable_params(self) -> int:
        return sum(p.data.size for p in self.trainable_params())

    def all_named_matrices(self) -> list[tuple[str, Matrix]]:
        """Every matrix in the model, with stable names (for checkpoints)."""
        out = [
            (f"layer{i}.{name}", m)
            for i, layer in enumerate(self.layers)
            for name, m in layer.named_matrices()
        ]
        out.append(("head", self.head))
        for keys in self.keys.ordered():
            out.append((f"keys.task{keys.task_id}.img", keys.k_img))
            out.append((f"keys.task{keys.task_id}.txt", keys.k_txt))
        return out


def build_model(kind: str, cfg: ModelConfig, hp: AdapterHyperparams, seed: int) -> ContinualModel:
    """Construct a model. The backbone rng depends only on the seed, so all
    kinds share identical frozen weights for a given seed."""
    layer_cls = LAYERS.get(kind)
    if layer_cls is None:
        raise ParameterError(f"unknown model kind: {kind!r}")
    backbone_rng = np.random.default_rng(np.random.SeedSequence([seed, _BACKBONE_TAG]))
    backbones = [draw_backbone(backbone_rng, cfg.width, cfg.width) for _ in range(cfg.layers)]
    head = Matrix.randn(
        backbone_rng, cfg.width, cfg.classes, std=1.0 / np.sqrt(cfg.width), name="head"
    )
    adapter_rng = np.random.default_rng(np.random.SeedSequence([seed, _ADAPTER_TAG]))
    layers = [
        layer_cls.init(adapter_rng, cfg.width, cfg.width, hp, backbone=backbone)
        for backbone in backbones
    ]
    return ContinualModel(kind, cfg, hp, layers, head, seed)
