"""Dense float64 matrices and the tape of one training forward.

`Matrix` carries the parameters, and a model's input and logits. Each
layer kind computes its own forward on plain arrays (see `adapters`);
this module holds what every chain shares: the tape, `linear` for a
constant weight, `activation`, the two losses and `backward`.

The chain a training step differentiates is fixed: each layer, tanh
between layers, the frozen head, the loss. A training forward is handed
its `Tape` as an argument, and each link of that chain appends one
``(backward, cache)`` record to it: a layer, `activation`, `linear` (the
head) and a loss (`cross_entropy`, `mse_loss`). A forward that passes no
tape builds no record. `backward(tape, loss)` walks the records in reverse
and passes one adjoint down the chain: ``backward(g, cache, need_dx)``
takes the adjoint of its output and returns that of its input, except for
the tape's first record, whose input is data (``need_dx`` false). A loss
is the last record, and its backward ignores ``g``: the loss's adjoint is
one. A layer's backward adds each trainable matrix's share of the gradient
to its grad with `add_product`, which computes a first share straight into
the matrix's optimizer grad slot when it has one. The task keys' alignment
gradient needs no tape: `selector.alignment_loss` computes it directly.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import ContractError, DimensionError, ParameterError


class Matrix:
    """A dense 2-D float64 matrix.

    `trainable` marks parameters that should receive gradients. Frozen
    parameters are plain matrices with trainable=False: no backward gives
    them a gradient and the optimizer never touches them. An optimizer
    sets `_slot`, the matrix's segment of its grad buffer, until it is
    released; a backward writes the matrix's grad there. A matrix has no
    name of its own: the layer or model holding it names it, in
    ``named_matrices``, and that name is the one checkpoints and errors use.
    """

    __slots__ = ("data", "grad", "trainable", "_slot")

    def __init__(self, data, trainable: bool = False):
        arr = np.array(data, dtype=np.float64)
        if arr.ndim != 2:
            raise DimensionError(f"Matrix requires a 2-D value, got ndim={arr.ndim}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise DimensionError(f"Matrix must be non-empty, got shape {arr.shape}")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.trainable = bool(trainable)
        self._slot: np.ndarray | None = None

    @classmethod
    def zeros(cls, rows: int, cols: int, trainable: bool = False) -> "Matrix":
        return cls(np.zeros((rows, cols)), trainable=trainable)

    @classmethod
    def randn(
        cls,
        rng: np.random.Generator,
        rows: int,
        cols: int,
        std: float = 1.0,
        trainable: bool = False,
    ) -> "Matrix":
        return cls(rng.standard_normal((rows, cols)) * std, trainable=trainable)

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def item(self) -> float:
        if self.data.shape != (1, 1):
            raise ContractError(f"item() needs a 1x1 matrix, got {self.data.shape}")
        return float(self.data[0, 0])

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols}, trainable={self.trainable})"


def wrap(arr: np.ndarray) -> Matrix:
    """A constant Matrix over a 2-D float64 arr itself, with no copy and no
    checks."""
    out = object.__new__(Matrix)
    out.data = arr
    out.grad = None
    out.trainable = False
    out._slot = None
    return out


# backward(g, cache, need_dx) -> the adjoint of the record's input, or None
Backward = Callable[[np.ndarray | None, object, bool], np.ndarray | None]


class Tape:
    """The records of one training forward, in forward order: each link of
    the chain that is handed the tape appends one ``(backward, cache)``
    record."""

    def __init__(self):
        self.entries: list[tuple[Backward, object]] = []


def add_product(m: Matrix, p: np.ndarray, q: np.ndarray) -> None:
    """Add the share p @ q to m's grad. A first share becomes the grad: it
    is computed straight into m's optimizer grad slot if m has one, and is
    a new array otherwise. A later one, from a second backward before the
    step, adds in place."""
    if m.grad is None:
        m.grad = np.matmul(p, q, out=m._slot)
    else:
        m.grad += p @ q


def _through_constant(g: np.ndarray, w: np.ndarray, need_dx: bool) -> np.ndarray | None:
    return g @ w.T if need_dx else None


def linear(x: np.ndarray, w: np.ndarray, tape: Tape | None = None) -> np.ndarray:
    """x @ w for a constant w (a frozen backbone, the head); its record
    hands x the adjoint g w^T."""
    if x.shape[1] != w.shape[0]:
        (r, c), (r2, c2) = x.shape, w.shape
        raise DimensionError(f"matmul: inner dimensions differ, {r}x{c} @ {r2}x{c2}")
    y = x @ w
    if tape is not None:
        tape.entries.append((_through_constant, w))
    return y


def _through_tanh(g: np.ndarray, t: np.ndarray, need_dx: bool) -> np.ndarray:
    return g * (1.0 - t * t)


def activation(h: np.ndarray, tape: Tape | None = None) -> np.ndarray:
    """tanh(h), the activation between layers; its record hands h the
    adjoint g (1 - t^2)."""
    t = np.tanh(h)
    if tape is not None:
        tape.entries.append((_through_tanh, t))
    return t


def _cross_entropy_backward(g, cache, need_dx: bool) -> np.ndarray:
    e, sums, index, y, n = cache
    p = e / sums[:, None]
    p[index, y] -= 1.0
    p /= n
    return p


def cross_entropy(logits: Matrix, labels, tape: Tape | None = None) -> Matrix:
    """Mean cross-entropy of row-wise class logits against integer labels."""
    y = np.asarray(labels, dtype=np.int64).ravel()
    z = logits.data
    n, cols = z.shape
    if y.size != n:
        raise DimensionError(f"cross_entropy: {n} rows vs {y.size} labels")
    # one reduction checks both ends: a negative label viewed as unsigned
    # is above every column index
    if y.view(np.uint64).max() >= cols:
        raise ParameterError(
            f"cross_entropy: labels must lie in [0, {cols}), got [{y.min()}, {y.max()}]"
        )
    m = z.max(axis=1, keepdims=True)
    e = np.exp(z - m)
    sums = e.sum(axis=1)
    lse = m[:, 0] + np.log(sums)
    index = np.arange(n)
    losses = lse - z[index, y]
    if tape is not None:
        tape.entries.append((_cross_entropy_backward, (e, sums, index, y, n)))
    # the same bytes as losses.mean(), without its dispatch overhead
    return wrap(np.array([[losses.sum() / n]]))


def _mse_backward(g, diff: np.ndarray, need_dx: bool) -> np.ndarray:
    return 2.0 / diff.size * diff


def mse_loss(a: Matrix, b: Matrix, tape: Tape | None = None) -> Matrix:
    """Mean squared difference of a from the constant target b."""
    if a.shape != b.shape:
        raise DimensionError(f"mse_loss: shapes differ, {a.rows}x{a.cols} vs {b.rows}x{b.cols}")
    diff = a.data - b.data
    if tape is not None:
        tape.entries.append((_mse_backward, diff))
    return wrap(np.array([[float((diff * diff).mean())]]))


def backward(tape: Tape, loss: Matrix) -> None:
    """Add the gradient of the 1x1 loss, the tape's last record, to the
    grad of every trainable matrix it reaches (see `add_product`).

    The records are walked from the last to the first, each handing the
    adjoint of its input to the record before it. A trainable matrix that
    the loss does not reach keeps its grad as it was (None if it had none).
    Replaying an empty tape is a no-op.
    """
    if loss.data.shape != (1, 1):
        raise ContractError(f"backward: loss must be 1x1, got {loss.data.shape}")
    entries = tape.entries
    g = None
    for i in range(len(entries) - 1, -1, -1):
        step, cache = entries[i]
        g = step(g, cache, i > 0)
