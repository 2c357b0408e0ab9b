"""Parameter updates: plain gradient descent and Adam.

An optimizer owns a list of Matrix parameters. `step()` updates every
trainable parameter in place from its `.grad`, clears those grads, and
returns the number of scalar values updated (used by the analysis module
to cross-check parameter counts). Non-trainable parameters are skipped
entirely, so freezing a matrix mid-run is just flipping its flag.

A trainable parameter with no gradient is an error by default, since it
usually means the forward pass silently dropped it. Sparse-gated models
legitimately leave unselected branches off the tape, so they construct
their optimizer with allow_missing=True: such parameters are skipped for
the step (for Adam, their moments and per-parameter step count do not
advance, matching the usual sparse-update convention).
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, ParameterError
from .tensor import Matrix


class Sgd:
    """w <- w - lr * grad."""

    def __init__(self, params: list[Matrix], lr: float = 1e-3, allow_missing: bool = False):
        if lr <= 0:
            raise ParameterError(f"sgd: lr must be positive, got {lr}")
        self.params = list(params)
        self.lr = float(lr)
        self.allow_missing = bool(allow_missing)

    def step(self) -> int:
        updated = 0
        for p in self.params:
            if not p.trainable:
                continue
            if p.grad is None:
                if self.allow_missing:
                    continue
                raise ContractError(f"sgd: trainable parameter {p.name or 'matrix'} has no gradient")
            p.data -= self.lr * p.grad
            p.grad = None
            updated += p.data.size
        return updated


class Adam:
    """Adam with bias correction; moments and step counts keyed per parameter."""

    def __init__(
        self,
        params: list[Matrix],
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        allow_missing: bool = False,
    ):
        if lr <= 0:
            raise ParameterError(f"adam: lr must be positive, got {lr}")
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ParameterError(f"adam: betas must lie in [0, 1), got {beta1}, {beta2}")
        self.params = list(params)
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.allow_missing = bool(allow_missing)
        self._m: dict[int, np.ndarray] = {}
        self._v: dict[int, np.ndarray] = {}
        self._t: dict[int, int] = {}

    def step(self) -> int:
        updated = 0
        for p in self.params:
            if not p.trainable:
                continue
            if p.grad is None:
                if self.allow_missing:
                    continue
                raise ContractError(f"adam: trainable parameter {p.name or 'matrix'} has no gradient")
            key = id(p)
            m = self._m.get(key)
            if m is None:
                m = np.zeros_like(p.data)
                self._m[key] = m
                self._v[key] = np.zeros_like(p.data)
                self._t[key] = 0
            v = self._v[key]
            self._t[key] += 1
            t = self._t[key]
            g = p.grad
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            mhat = m / (1.0 - self.beta1**t)
            vhat = v / (1.0 - self.beta2**t)
            p.data -= self.lr * mhat / (np.sqrt(vhat) + self.eps)
            p.grad = None
            updated += p.data.size
        return updated


def make_optimizer(kind: str, params: list[Matrix], lr: float = 1e-3, allow_missing: bool = False):
    if kind == "adam":
        return Adam(params, lr=lr, allow_missing=allow_missing)
    if kind == "sgd":
        return Sgd(params, lr=lr, allow_missing=allow_missing)
    raise ParameterError(f"unknown optimizer kind: {kind!r}")
