"""Dense 2-D float64 matrices with reverse-mode autodiff on an explicit tape.

The op set is deliberately small: matmul, tanh, router_gate (softmax over
the top-k router scores, of a batch's first row or of each row), adapter
(one adapter layer's x W + s * sum_j g_j x A_j B_j, running only the gated
columns), and the losses cross_entropy and mse_loss. Training routes a
batch by its first row; evaluation routes each row on its own. Each op
computes its forward value eagerly with numpy and, when a tape is active
and a gradient path exists, records a backward closure. `backward(tape,
loss)` seeds the 1x1 loss with an adjoint of one, replays the tape in
exact reverse execution order and accumulates the loss's gradient into
`.grad` of the trainable leaves it reaches; any other leaf's grad stays as
it was. The task keys' alignment gradient needs no tape:
`selector.alignment_loss` computes it directly.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, DimensionError, ParameterError

class Matrix:
    """A dense float64 matrix; the only tensor carrier in the package.

    `trainable` marks leaf parameters that should receive gradients.
    Frozen parameters are plain matrices with trainable=False: ops treat
    them as constants and the optimizer never touches them. An optimizer
    sets `_slot`, the matrix's segment of its grad buffer, until it is
    released; `backward` writes the matrix's grad there.
    """

    __slots__ = ("data", "grad", "trainable", "name", "_flow", "_slot")

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
        self._slot: np.ndarray | None = None

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
    # op outputs are never trainable, so backward never reads their _slot
    out = object.__new__(Matrix)
    out.data = arr
    out.grad = None
    out.trainable = False
    out.name = ""
    out._flow = flow
    return out


class TapeEntry:
    __slots__ = ("out", "backward")

    def __init__(self, out: Matrix, backward: Callable[[np.ndarray], list]):
        self.out = out
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

    def record(self, out: Matrix, backward: Callable[[np.ndarray], list]) -> None:
        self.entries.append(TapeEntry(out, backward))


_TAPES: list[Tape] = []


def _active_tape() -> Tape | None:
    return _TAPES[-1] if _TAPES else None


def _record(out: Matrix, backward: Callable[[np.ndarray], list]) -> None:
    tape = _active_tape()
    if tape is not None and out._flow:
        tape.record(out, backward)


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

    _record(out, backward)
    return out


def tanh(a: Matrix) -> Matrix:
    y = np.tanh(a.data)
    out = _result(y, a.requires_grad)

    def backward(g: np.ndarray) -> list:
        return [(a, g * (1.0 - y * y))]

    _record(out, backward)
    return out


def router_gate(x: Matrix, router: Matrix, k: int, per_row: bool = False) -> Matrix:
    """The gate: softmax over the k largest router scores, zeros elsewhere.

    By default the scores are x[0] @ router and the gate is 1 x N, shared by
    every row of x. With ``per_row`` each row of x gets its own gate row
    from its own scores, a B x N gate. Every entry outside the top k is
    exactly 0.0, and ties break toward the lowest column of each row. With k
    equal to the router's width this is a plain softmax and no mask is
    built. Gradients reach the rows of x that were scored and the router;
    masked columns get exactly zero.
    """
    d, n = router.data.shape
    if x.data.shape[1] != d:
        raise DimensionError(
            f"router_gate: x has {x.data.shape[1]} columns, router has {d} rows"
        )
    if not 1 <= k <= n:
        raise ParameterError(f"router_gate: k={k} out of range for {n} columns")
    rows = x.data if per_row else x.data[0:1]
    s = rows @ router.data
    e = np.exp(s - s.max(axis=1, keepdims=True))
    keep = None
    if k < n:
        # a column's rank in its row's stable descending order: the k
        # columns ranked below k are kept, the lowest first among ties
        rank = (-s).argsort(axis=1, kind="stable").argsort(axis=1, kind="stable")
        keep = rank < k
        e *= keep
    y = e / e.sum(axis=1, keepdims=True)
    out = _result(y, x.requires_grad or router.requires_grad)

    def backward(g: np.ndarray) -> list:
        ds = y * (g - (g * y).sum(axis=1, keepdims=True))
        if keep is not None:
            ds = np.where(keep, ds, 0.0)
        contribs = []
        if router.requires_grad:
            contribs.append((router, rows.T @ ds))
        if x.requires_grad:
            dx = ds @ router.data.T
            if not per_row:  # only row 0 was scored
                dx, scored = np.zeros_like(x.data), dx
                dx[0] = scored[0]
            contribs.append((x, dx))
        return contribs

    _record(out, backward)
    return out


def adapter(
    x: Matrix,
    w: Matrix,
    a: Sequence[Matrix],
    b: Sequence[Matrix],
    scaling: float,
    gate: Matrix | None = None,
) -> Matrix:
    """Every adapter layer's output, x W + scaling * sum_j g_j (x A_j B_j).

    ``a`` holds one down-projection per matrix of ``b``, or one A shared by
    all of them. With no gate, ``b`` holds one matrix and its term is added
    with weight one. The gate is either one row shared by every row of x
    (1 x N), or one row per row of x (B x N, row i weighting row i). Only
    the columns that some gate row holds nonzero run: a column that is 0.0
    in every row contributes nothing, its B gets no gradient and its gate
    entries get exactly zero. W is a constant (the frozen backbone).

    Gradients are bit-identical to those of the same sum built from matmul,
    scale and add ops with the backbone term recorded last: dx starts as
    g W^T and adds each term's share from the last term to the first, and a
    shared A's adjoint sums its terms from the last to the first.
    """
    s = float(scaling)
    n = len(b)
    shared_a = len(a) == 1
    if not shared_a and len(a) != n:
        raise DimensionError(f"adapter: {len(a)} A matrices for {n} B matrices, need 1 or {n}")
    rows, d_in = x.data.shape
    d_w, d_out = w.data.shape
    a_shapes = [aj.data.shape for aj in a]
    b_shapes = [bj.data.shape for bj in b]
    # B_j must be r x d_out, r the width of the A it follows
    ranks = [sa[1] for sa in a_shapes] * (n if shared_a else 1)
    if (
        d_w != d_in
        or [sa[0] for sa in a_shapes] != [d_in] * len(a)
        or b_shapes != [(r, d_out) for r in ranks]
    ):
        raise DimensionError(
            f"adapter: shapes do not chain, x {x.data.shape}, w {w.data.shape}, "
            f"a {a_shapes}, b {b_shapes}"
        )
    if w.requires_grad:
        raise ContractError("adapter: w must be a constant")
    if gate is None:
        if n != 1:
            raise DimensionError(f"adapter: without a gate b must hold one matrix, got {n}")
        live = [0]
        weights = [None]
        shared_gate = False
    else:
        g_rows, g_cols = gate.data.shape
        if g_cols != n:
            raise DimensionError(f"adapter: gate width {g_cols} != {n} B matrices")
        shared_gate = g_rows == 1
        if shared_gate:
            # one shared row: its live columns and their weights as floats
            row = gate.data[0].tolist()
            live = [j for j, v in enumerate(row) if v != 0.0]
            weights = [row[j] for j in live]
        elif g_rows == rows:
            live = np.flatnonzero((gate.data != 0.0).any(axis=0)).tolist()
            weights = [gate.data[:, j : j + 1] for j in live]
        else:
            raise DimensionError(
                f"adapter: gate has {g_rows} rows, need 1 or one per row of x ({rows})"
            )

    flow = any(m.requires_grad for m in (x, *a, *b)) or (gate is not None and gate.requires_grad)
    # The gate's gradient needs each unweighted term; keep them only when a
    # tape will record this op, so an untaped forward frees each term at once.
    keep = gate is not None and gate.requires_grad and _active_tape() is not None
    xa = {}  # x A_k, keyed by the index of A
    parts = []
    delta = None if gate is None else np.zeros((rows, d_out))
    for j, wj in zip(live, weights):
        k = 0 if shared_a else j
        if k not in xa:
            xa[k] = x.data @ a[k].data
        p = xa[k] @ b[j].data
        if gate is None:
            delta = p
        else:
            delta += wj * p
        if keep:
            parts.append(p)
    h = x.data @ w.data
    delta *= s
    h += delta
    out = _result(h, flow)

    def backward(g: np.ndarray) -> list:
        gs = g * s
        contribs = []
        if gate is not None and gate.requires_grad:
            dg = np.zeros(gate.shape)
            for j, p in zip(live, parts):
                dg[:, j] = (gs * p).sum() if shared_gate else (gs * p).sum(axis=1)
            contribs.append((gate, dg))
        # Last term first: the summation order the docstring fixes.
        d_xa = {}
        for j, wj in reversed(list(zip(live, weights))):
            k = 0 if shared_a else j
            gp = gs if gate is None else wj * gs
            if b[j].requires_grad:
                contribs.append((b[j], xa[k].T @ gp))
            if x.requires_grad or a[k].requires_grad:
                d = gp @ b[j].data.T
                d_xa[k] = d_xa[k] + d if k in d_xa else d
        dx = g @ w.data.T if x.requires_grad else None
        for k, d in d_xa.items():
            if a[k].requires_grad:
                contribs.append((a[k], x.data.T @ d))
            if dx is not None:
                dx = dx + d @ a[k].data.T
        if dx is not None:
            contribs.append((x, dx))
        return contribs

    _record(out, backward)
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
    e = np.exp(z - m)
    lse = m[:, 0] + np.log(e.sum(axis=1))
    n = z.shape[0]
    losses = lse - z[np.arange(n), y]
    out = _result(np.array([[losses.mean()]]), logits.requires_grad)

    def backward(g: np.ndarray) -> list:
        p = e / e.sum(axis=1, keepdims=True)
        p[np.arange(n), y] -= 1.0
        return [(logits, float(g[0, 0]) * p / n)]

    _record(out, backward)
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

    _record(out, backward)
    return out


def backward(tape: Tape, loss: Matrix) -> None:
    """Accumulate the gradient of a 1x1 loss into .grad of every trainable
    leaf it reaches.

    The loss's adjoint starts at one. A trainable leaf that the loss does
    not reach keeps its grad as it was (None if it had none), even if a
    recorded op used it. Replaying an empty tape is a no-op.

    A leaf whose grad is None gets a new one from its first contribution:
    a copy in its optimizer's grad slot if it has one, so the step reads
    it in place, and a new array otherwise. Later contributions add to
    the grad in place, whichever array it is.
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
                if m.grad is not None:
                    m.grad += contrib
                elif m._slot is not None:
                    m._slot[...] = contrib
                    m.grad = m._slot
                else:
                    m.grad = np.zeros_like(m.data)
                    m.grad += contrib
            else:
                key = id(m)
                if key in adjoint:
                    adjoint[key] = adjoint[key] + contrib
                else:
                    adjoint[key] = contrib
