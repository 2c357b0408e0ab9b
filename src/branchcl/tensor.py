"""Dense 2-D float64 matrices with reverse-mode autodiff on an explicit tape.

The op set is deliberately small: matmul, add, scale, tanh, router_gate
(softmax over the top-k router scores of a batch's first row), mix
(gate-weighted sum), cosine_sum (summed cosines of a batch's rows to one
key), and the two losses. Each op computes its forward value eagerly with
numpy and, when a tape is active and a gradient path exists, records a
backward closure. `backward` replays the tape in exact reverse execution
order and accumulates dLoss/dParam into `.grad` of trainable leaves.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import (
    ContractError,
    DegenerateInputError,
    DimensionError,
    ParameterError,
)

class Matrix:
    """A dense float64 matrix; the only tensor carrier in the package.

    `trainable` marks leaf parameters that should receive gradients.
    Frozen parameters are plain matrices with trainable=False: ops treat
    them as constants and the optimizer never touches them.
    """

    __slots__ = ("data", "grad", "trainable", "name", "_flow")

    def __init__(self, data, trainable: bool = False, name: str = ""):
        arr = np.array(data, dtype=np.float64)
        if arr.ndim != 2:
            raise DimensionError(
                f"Matrix requires a 2-D value, got ndim={arr.ndim} for {name or 'matrix'}"
            )
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise DimensionError(f"Matrix must be non-empty, got shape {arr.shape}")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.trainable = bool(trainable)
        self.name = name
        self._flow = False  # set on op outputs that carry a gradient path

    @classmethod
    def zeros(cls, rows: int, cols: int, trainable: bool = False, name: str = "") -> "Matrix":
        return cls(np.zeros((rows, cols)), trainable=trainable, name=name)

    @classmethod
    def randn(
        cls,
        rng: np.random.Generator,
        rows: int,
        cols: int,
        std: float = 1.0,
        trainable: bool = False,
        name: str = "",
    ) -> "Matrix":
        return cls(rng.standard_normal((rows, cols)) * std, trainable=trainable, name=name)

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    @property
    def requires_grad(self) -> bool:
        return self.trainable or self._flow

    def item(self) -> float:
        if self.data.shape != (1, 1):
            raise ContractError(f"item() needs a 1x1 matrix, got {self.data.shape}")
        return float(self.data[0, 0])

    def __repr__(self) -> str:
        tag = self.name or "matrix"
        return f"Matrix({tag}, {self.rows}x{self.cols}, trainable={self.trainable})"


def _result(arr: np.ndarray, flow: bool) -> Matrix:
    out = object.__new__(Matrix)
    out.data = arr
    out.grad = None
    out.trainable = False
    out.name = ""
    out._flow = flow
    return out


class TapeEntry:
    __slots__ = ("out", "inputs", "backward")

    def __init__(
        self,
        out: Matrix,
        inputs: tuple[Matrix, ...],
        backward: Callable[[np.ndarray], list],
    ):
        self.out = out
        self.inputs = inputs
        self.backward = backward


class Tape:
    """Ordered record of differentiable ops; a context manager.

    While active, every op whose output carries a gradient path appends
    one entry. `backward` walks the entries strictly in reverse.
    """

    def __init__(self):
        self.entries: list[TapeEntry] = []

    def __enter__(self) -> "Tape":
        _TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _TAPES.pop()

    def record(
        self,
        out: Matrix,
        inputs: tuple[Matrix, ...],
        backward: Callable[[np.ndarray], list],
    ) -> None:
        self.entries.append(TapeEntry(out, inputs, backward))


_TAPES: list[Tape] = []


def _active_tape() -> Tape | None:
    return _TAPES[-1] if _TAPES else None


def _record(out: Matrix, inputs: tuple[Matrix, ...], backward: Callable[[np.ndarray], list]) -> None:
    tape = _active_tape()
    if tape is not None and out._flow:
        tape.record(out, inputs, backward)


def matmul(a: Matrix, b: Matrix) -> Matrix:
    if a.cols != b.rows:
        raise DimensionError(
            f"matmul: inner dimensions differ, {a.rows}x{a.cols} @ {b.rows}x{b.cols}"
        )
    out = _result(a.data @ b.data, a.requires_grad or b.requires_grad)

    def backward(g: np.ndarray) -> list:
        contribs = []
        if a.requires_grad:
            contribs.append((a, g @ b.data.T))
        if b.requires_grad:
            contribs.append((b, a.data.T @ g))
        return contribs

    _record(out, (a, b), backward)
    return out


def add(a: Matrix, b: Matrix) -> Matrix:
    if a.shape != b.shape:
        raise DimensionError(f"add: shapes differ, {a.rows}x{a.cols} vs {b.rows}x{b.cols}")
    out = _result(a.data + b.data, a.requires_grad or b.requires_grad)

    def backward(g: np.ndarray) -> list:
        contribs = []
        if a.requires_grad:
            contribs.append((a, g))
        if b.requires_grad:
            contribs.append((b, g))
        return contribs

    _record(out, (a, b), backward)
    return out


def scale(a: Matrix, c: float) -> Matrix:
    c = float(c)
    out = _result(a.data * c, a.requires_grad)

    def backward(g: np.ndarray) -> list:
        return [(a, g * c)]

    _record(out, (a,), backward)
    return out


def tanh(a: Matrix) -> Matrix:
    y = np.tanh(a.data)
    out = _result(y, a.requires_grad)

    def backward(g: np.ndarray) -> list:
        return [(a, g * (1.0 - y * y))]

    _record(out, (a,), backward)
    return out


def router_gate(x: Matrix, router: Matrix, k: int) -> Matrix:
    """The 1 x N gate: softmax over the k largest entries of x[0] @ router.

    Every other entry is exactly 0.0, and ties break toward the lowest
    column. With k equal to the router's width this is a plain softmax and
    no mask is built. Gradients reach row 0 of x and the router; masked
    columns get exactly zero.
    """
    n = router.cols
    if x.cols != router.rows:
        raise DimensionError(
            f"router_gate: x has {x.cols} columns, router has {router.rows} rows"
        )
    if not 1 <= k <= n:
        raise ParameterError(f"router_gate: k={k} out of range for {n} columns")
    row = x.data[0:1]
    s = row @ router.data
    e = np.exp(s - s.max())
    keep = None
    if k < n:
        keep = np.zeros(s.shape, dtype=bool)
        keep[0, np.argsort(-s[0], kind="stable")[:k]] = True
        e = np.where(keep, e, 0.0)
    y = e / e.sum()
    out = _result(y, x.requires_grad or router.requires_grad)

    def backward(g: np.ndarray) -> list:
        ds = y * (g - (g * y).sum())
        if keep is not None:
            ds = np.where(keep, ds, 0.0)
        contribs = []
        if router.requires_grad:
            contribs.append((router, row.T @ ds))
        if x.requires_grad:
            dx = np.zeros_like(x.data)
            dx[0] = (ds @ router.data.T)[0]
            contribs.append((x, dx))
        return contribs

    _record(out, (x, router), backward)
    return out


def mix(
    gate: Matrix,
    parts: Sequence[Matrix],
    cols: Sequence[int] | None = None,
) -> Matrix:
    """Gate-weighted sum of same-shape matrices: sum_j gate[0,j] * parts[j].

    Gradients reach both the gate (d gate_j = <g, parts_j>) and every part
    (d part_j = gate_j * g); a part weighted by an exact 0.0 gate entry
    receives an exactly zero gradient.

    With ``cols``, parts[i] is weighted by gate[0, cols[i]] and the other
    gate columns are treated as exact zeros.  This lets a sparse-gated
    caller skip building terms it knows are zeroed out: the result and
    every gradient match the dense call as long as the omitted columns
    really hold 0.0 (checked).
    """
    if gate.rows != 1:
        raise DimensionError(f"mix: gate must be a row vector, got {gate.rows}x{gate.cols}")
    w = gate.data[0]
    if cols is None:
        cols = range(gate.cols)
        if len(parts) != gate.cols:
            raise DimensionError(f"mix: gate width {gate.cols} != {len(parts)} parts")
    else:
        cols = [int(c) for c in cols]
        if len(parts) != len(cols):
            raise DimensionError(f"mix: {len(cols)} cols != {len(parts)} parts")
        if len(set(cols)) != len(cols):
            raise DimensionError(f"mix: duplicate cols {cols}")
        for c in cols:
            if not 0 <= c < gate.cols:
                raise DimensionError(f"mix: col {c} outside gate width {gate.cols}")
        if np.count_nonzero(w) != np.count_nonzero(w[cols]):
            raise ContractError("mix: omitted gate columns must be exactly 0.0")
    shape = parts[0].shape
    for p in parts[1:]:
        if p.shape != shape:
            raise DimensionError(f"mix: part shapes differ, {shape} vs {p.shape}")
    acc = np.zeros(shape)
    for c, p in zip(cols, parts):
        acc += w[c] * p.data
    flow = gate.requires_grad or any(p.requires_grad for p in parts)
    out = _result(acc, flow)

    def backward(g: np.ndarray) -> list:
        contribs = []
        if gate.requires_grad:
            dg = np.zeros((1, gate.cols))
            for c, p in zip(cols, parts):
                dg[0, c] = float((g * p.data).sum())
            contribs.append((gate, dg))
        for c, p in zip(cols, parts):
            if p.requires_grad:
                contribs.append((p, w[c] * g))
        return contribs

    _record(out, (gate, *parts), backward)
    return out


def cosine_sum(x: Matrix, k: Matrix) -> Matrix:
    """Sum over the rows of x of cos(x_i, k), as a 1x1 matrix.

    x is B x d and k is a 1 x d row. One tape entry covers the whole batch;
    gradients reach both x and k.
    """
    if k.rows != 1:
        raise DimensionError(f"cosine_sum: key must be a row vector, got {k.rows}x{k.cols}")
    if x.cols != k.cols:
        raise DimensionError(f"cosine_sum: widths differ, {x.cols} vs {k.cols}")
    u = x.data
    v = k.data[0]
    # vecdot takes each row's dot product with the same BLAS dot as `u_i @ v`,
    # so every cosine is bit-identical to computing that row on its own.
    nu = np.sqrt(np.vecdot(u, u))
    nv = float(np.linalg.norm(v))
    if nv == 0.0 or np.any(nu == 0.0):
        raise DegenerateInputError("cosine_sum: zero-norm row or key")
    denom = nu * nv
    c = np.vecdot(u, v) / denom
    out = _result(np.array([[float(c.sum())]]), x.requires_grad or k.requires_grad)

    def backward(g: np.ndarray) -> list:
        gs = float(g[0, 0])
        contribs = []
        if x.requires_grad:
            dx = gs * (v / denom[:, None] - c[:, None] * u / (nu * nu)[:, None])
            contribs.append((x, dx))
        if k.requires_grad:
            per_row = gs * (u / denom[:, None] - c[:, None] * v / (nv * nv))
            # Summed from the last row to the first, the order in which a
            # chain of one-row cosine ops accumulates on replay, so both
            # give bit-identical key gradients.
            contribs.append((k, per_row[::-1].sum(axis=0, keepdims=True)))
        return contribs

    _record(out, (x, k), backward)
    return out


def cross_entropy(logits: Matrix, labels) -> Matrix:
    """Mean cross-entropy of row-wise class logits against integer labels."""
    y = np.asarray(labels, dtype=np.int64).ravel()
    if y.size != logits.rows:
        raise DimensionError(f"cross_entropy: {logits.rows} rows vs {y.size} labels")
    if y.size and (y.min() < 0 or y.max() >= logits.cols):
        raise ParameterError(
            f"cross_entropy: labels must lie in [0, {logits.cols}), got [{y.min()}, {y.max()}]"
        )
    z = logits.data
    m = z.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(z - m).sum(axis=1))
    n = z.shape[0]
    losses = lse - z[np.arange(n), y]
    out = _result(np.array([[losses.mean()]]), logits.requires_grad)

    def backward(g: np.ndarray) -> list:
        p = np.exp(z - m)
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(n), y] -= 1.0
        return [(logits, float(g[0, 0]) * p / n)]

    _record(out, (logits,), backward)
    return out


def mse_loss(a: Matrix, b: Matrix) -> Matrix:
    if a.shape != b.shape:
        raise DimensionError(f"mse_loss: shapes differ, {a.rows}x{a.cols} vs {b.rows}x{b.cols}")
    diff = a.data - b.data
    out = _result(np.array([[float((diff * diff).mean())]]), a.requires_grad or b.requires_grad)

    def backward(g: np.ndarray) -> list:
        gs = 2.0 * float(g[0, 0]) / diff.size
        contribs = []
        if a.requires_grad:
            contribs.append((a, gs * diff))
        if b.requires_grad:
            contribs.append((b, -gs * diff))
        return contribs

    _record(out, (a, b), backward)
    return out


def backward(tape: Tape, loss: Matrix) -> None:
    """Accumulate dLoss/dParam into .grad of every trainable leaf on the tape.

    Trainable leaves touched by any recorded op get a zero-initialized grad
    even when disconnected from this particular loss. Replaying an empty
    tape is a no-op.
    """
    if loss.data.shape != (1, 1):
        raise ContractError(f"backward: loss must be 1x1, got {loss.data.shape}")
    adjoint: dict[int, np.ndarray] = {id(loss): np.ones((1, 1))}
    for entry in reversed(tape.entries):
        g = adjoint.pop(id(entry.out), None)
        if g is None:
            continue
        for m, contrib in entry.backward(g):
            if m.trainable:
                if m.grad is None:
                    m.grad = np.zeros_like(m.data)
                m.grad += contrib
            else:
                key = id(m)
                if key in adjoint:
                    adjoint[key] = adjoint[key] + contrib
                else:
                    adjoint[key] = contrib
    # Zero-fill grads of trainable leaves that appeared on the tape but were
    # not reachable from this loss, so "disconnected => zero gradient" holds.
    for entry in tape.entries:
        for m in entry.inputs:
            if m.trainable and m.grad is None:
                m.grad = np.zeros_like(m.data)
