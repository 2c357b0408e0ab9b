"""Dense 2-D float64 matrices with reverse-mode autodiff on an explicit tape.

The op set is deliberately small: matmul, tanh, router_gate (softmax over
the top-k router scores, of a batch's first row or of each row), adapter
(one adapter layer's x W + s * sum_j g_j x A_j B_j, running only the gated
columns), and the losses cross_entropy and mse_loss. Training routes a
batch by its first row; evaluation routes each row on its own. Each op
computes its forward value eagerly with numpy. When a tape is active and
the output carries a gradient path, the op appends one (output, closure)
entry to it; with no tape it builds no closure.

The forward values of matmul, router_gate and adapter come from plain-array
kernels (`product`, `gate_kernel`, `adapter_kernel`), which also make the
ops' shape and range checks. A forward that no tape records can call the
kernels directly, as `ContinualModel.forward` does when `recording()` is
false: each formula is written once, so both paths give the same bits.

`backward(tape, loss)` seeds the 1x1 loss with an adjoint of one and
replays the tape in exact reverse execution order. Each closure hands its
inputs their shares itself: an op output's share adds to its adjoint,
which lives on its ``.grad`` until its own entry is replayed, and a
trainable leaf's share adds to its gradient. A leaf's first share is
computed straight into its optimizer's grad slot when it has one, so no
copy is made. Any other leaf's grad stays as it was. The task keys'
alignment gradient needs no tape: `selector.alignment_loss` computes it
directly.
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
    released; `backward` writes the matrix's grad there. An op output is
    never trainable; during `backward` its ``grad`` holds its adjoint
    until its tape entry is replayed. A matrix has no
    name of its own: the layer or model holding it names it, in
    ``named_matrices``, and that name is the one checkpoints and errors use.
    """

    __slots__ = ("data", "grad", "trainable", "_flow", "_slot")

    def __init__(self, data, trainable: bool = False):
        arr = np.array(data, dtype=np.float64)
        if arr.ndim != 2:
            raise DimensionError(f"Matrix requires a 2-D value, got ndim={arr.ndim}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise DimensionError(f"Matrix must be non-empty, got shape {arr.shape}")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.trainable = bool(trainable)
        self._flow = False  # set on op outputs that carry a gradient path
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

    @property
    def requires_grad(self) -> bool:
        return self.trainable or self._flow

    def item(self) -> float:
        if self.data.shape != (1, 1):
            raise ContractError(f"item() needs a 1x1 matrix, got {self.data.shape}")
        return float(self.data[0, 0])

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols}, trainable={self.trainable})"


def wrap(arr: np.ndarray, flow: bool = False) -> Matrix:
    """A Matrix over arr itself, with no copy and no checks: an op's output,
    or a value a plain-array forward computed. ``flow`` marks a gradient
    path. Such a matrix is never trainable, so backward never reads its
    _slot."""
    out = object.__new__(Matrix)
    out.data = arr
    out.grad = None
    out.trainable = False
    out._flow = flow
    return out


class Tape:
    """Ordered record of differentiable ops; a context manager.

    While active, every op whose output carries a gradient path appends
    one (output, closure) entry. `backward` walks the entries strictly in
    reverse, calling each closure with its output's adjoint.
    """

    def __init__(self):
        self.entries: list[tuple[Matrix, Callable[[np.ndarray], None]]] = []

    def __enter__(self) -> "Tape":
        _TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _TAPES.pop()


_TAPES: list[Tape] = []


def recording() -> bool:
    """Whether a tape is active, so that ops record closures."""
    return bool(_TAPES)


# the loss's adjoint; read-only, since it may become an op output's adjoint
_ONE = np.ones((1, 1))
_ONE.flags.writeable = False


def _add_grad(m: Matrix, g: np.ndarray) -> None:
    """Add a share g of the loss's gradient to m: to its grad if m is a
    trainable leaf, else to its adjoint.

    A leaf whose grad is None gets a new one: g copied into its optimizer's
    grad slot if it has one, else a new array. Later shares add in place.
    An op output's first share becomes its adjoint as it is, and later
    ones make a new sum, since g may be another matrix's share too.
    """
    if m.trainable:
        grad = m.grad
        if grad is not None:
            grad += g
        elif m._slot is not None:
            m._slot[...] = g
            m.grad = m._slot
        else:
            m.grad = grad = np.zeros_like(m.data)
            grad += g
    else:
        adjoint = m.grad
        m.grad = g if adjoint is None else adjoint + g


def _add_matmul(m: Matrix, p: np.ndarray, q: np.ndarray) -> None:
    """`_add_grad(m, p @ q)`, with a trainable leaf's first share computed
    straight into its grad slot."""
    if m.trainable and m.grad is None and m._slot is not None:
        m.grad = np.matmul(p, q, out=m._slot)
    else:
        _add_grad(m, p @ q)


def product(ad: np.ndarray, bd: np.ndarray) -> np.ndarray:
    """matmul's kernel: ad @ bd, once their inner dimensions agree."""
    if ad.shape[1] != bd.shape[0]:
        (r, c), (r2, c2) = ad.shape, bd.shape
        raise DimensionError(f"matmul: inner dimensions differ, {r}x{c} @ {r2}x{c2}")
    return ad @ bd


def matmul(a: Matrix, b: Matrix) -> Matrix:
    ad, bd = a.data, b.data
    y = product(ad, bd)
    a_grad, b_grad = a.requires_grad, b.requires_grad
    flow = a_grad or b_grad
    out = wrap(y, flow)
    if flow and _TAPES:

        def backward(g: np.ndarray) -> None:
            if a_grad:
                _add_matmul(a, g, bd.T)
            if b_grad:
                _add_matmul(b, ad.T, g)

        _TAPES[-1].entries.append((out, backward))
    return out


def tanh(a: Matrix) -> Matrix:
    y = np.tanh(a.data)
    flow = a.requires_grad
    out = wrap(y, flow)
    if flow and _TAPES:

        def backward(g: np.ndarray) -> None:
            _add_grad(a, g * (1.0 - y * y))

        _TAPES[-1].entries.append((out, backward))
    return out


def gate_kernel(
    xd: np.ndarray, rd: np.ndarray, k: int, per_row: bool = False
) -> tuple[np.ndarray, np.ndarray | None]:
    """router_gate's kernel: the gate's values and its top-k mask.

    The mask is None when k is the router's width, and otherwise has the
    gate's shape: 1.0 for each kept column, 0.0 for each dropped one.
    """
    d, n = rd.shape
    if xd.shape[1] != d:
        raise DimensionError(f"router_gate: x has {xd.shape[1]} columns, router has {d} rows")
    if not 1 <= k <= n:
        raise ParameterError(f"router_gate: k={k} out of range for {n} columns")
    s = (xd if per_row else xd[0:1]) @ rd
    e = np.exp(s - s.max(axis=1, keepdims=True))
    mask = None
    if k < n:
        # each row's columns in stable descending order of score: the first
        # k are kept, the lowest first among ties
        rows = []
        for row in s.tolist():
            keep = [1.0] * n
            for j in sorted(range(n), key=row.__getitem__, reverse=True)[k:]:
                keep[j] = 0.0
            rows.append(keep)
        mask = np.array(rows)
        e *= mask
    return e / e.sum(axis=1, keepdims=True), mask


def router_gate(x: Matrix, router: Matrix, k: int, per_row: bool = False) -> Matrix:
    """The gate: softmax over the k largest router scores, zeros elsewhere.

    By default the scores are x[0] @ router and the gate is 1 x N, shared by
    every row of x. With ``per_row`` each row of x gets its own gate row
    from its own scores, a B x N gate. Every entry outside the top k is
    exactly 0.0, and ties break toward the lowest column of each row. With k
    equal to the router's width this is a plain softmax and no mask is
    built. A row with a NaN or inf score comes out all NaN. Gradients reach
    the rows of x that were scored and the router; masked columns get
    exactly zero.
    """
    xd, rd = x.data, router.data
    y, mask = gate_kernel(xd, rd, k, per_row)
    x_grad, r_grad = x.requires_grad, router.requires_grad
    flow = x_grad or r_grad
    out = wrap(y, flow)
    if flow and _TAPES:

        def backward(g: np.ndarray) -> None:
            ds = y * (g - (g * y).sum(axis=1, keepdims=True))
            if mask is not None:
                ds = np.where(mask, ds, 0.0)
            if r_grad:
                _add_matmul(router, (xd if per_row else xd[0:1]).T, ds)
            if x_grad:
                if per_row:
                    _add_matmul(x, ds, rd.T)
                else:  # only row 0 was scored
                    dx = np.zeros(xd.shape)
                    np.matmul(ds, rd.T, out=dx[0:1])
                    _add_grad(x, dx)

        _TAPES[-1].entries.append((out, backward))
    return out


def adapter_kernel(
    xd: np.ndarray,
    wd: np.ndarray,
    a: Sequence[np.ndarray],
    b: Sequence[np.ndarray],
    scaling: float,
    gd: np.ndarray | None = None,
    keep_terms: bool = False,
) -> tuple[np.ndarray, Sequence[int], list | None, Sequence[np.ndarray], Sequence[np.ndarray]]:
    """adapter's kernel on plain arrays; `adapter` states the formula.

    Returns ``(h, live, weights, xas, terms)``: the output; the gate columns
    that ran (``(0,)`` with no gate); the weight of each, a float for a
    shared gate row and a column for a gate with one row per row of x
    (None with no gate); x A_j for each; and, with ``keep_terms``, each
    unweighted x A_j B_j, which the gate's gradient needs. Each term is
    freed as soon as it is added when ``keep_terms`` is off.
    """
    n = len(b)
    shared_a = len(a) == 1
    if not shared_a and len(a) != n:
        raise DimensionError(f"adapter: {len(a)} A matrices for {n} B matrices, need 1 or {n}")
    rows, d_in = xd.shape
    d_out = wd.shape[1]
    # B_j must be r x d_out, r the width of the A it follows
    chained = wd.shape[0] == d_in
    for j, bj in enumerate(b):
        a_shape = a[0 if shared_a else j].shape
        chained = chained and a_shape[0] == d_in and bj.shape == (a_shape[1], d_out)
    if not chained:
        raise DimensionError(
            f"adapter: shapes do not chain, x {xd.shape}, w {wd.shape}, "
            f"a {[aj.shape for aj in a]}, b {[bj.shape for bj in b]}"
        )

    if gd is None:
        if n != 1:
            raise DimensionError(f"adapter: without a gate b must hold one matrix, got {n}")
        xa = xd @ a[0]
        delta = xa @ b[0]
        h = xd @ wd
        delta *= scaling
        h += delta
        return h, (0,), None, (xa,), ()

    g_rows, g_cols = gd.shape
    if g_cols != n:
        raise DimensionError(f"adapter: gate width {g_cols} != {n} B matrices")
    if g_rows == 1:
        # one shared row: its live columns and their weights as floats
        row = gd[0].tolist()
        live = [j for j, v in enumerate(row) if v != 0.0]
        weights = [row[j] for j in live]
    elif g_rows == rows:
        live = np.flatnonzero((gd != 0.0).any(axis=0)).tolist()
        weights = [gd[:, j : j + 1] for j in live]
    else:
        raise DimensionError(
            f"adapter: gate has {g_rows} rows, need 1 or one per row of x ({rows})"
        )
    if shared_a:
        xas = [xd @ a[0]] * len(live) if live else []
    else:
        xas = [xd @ a[j] for j in live]
    delta = np.zeros((rows, d_out))
    terms = []
    for j, wj, xa in zip(live, weights, xas):
        p = xa @ b[j]
        delta += wj * p
        if keep_terms:
            terms.append(p)
    h = xd @ wd
    delta *= scaling
    h += delta
    return h, live, weights, xas, terms


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
    if w.requires_grad:
        raise ContractError("adapter: w must be a constant")
    s = float(scaling)
    xd, wd = x.data, w.data
    x_grad = x.requires_grad
    # a one-matrix list is built directly: a comprehension's frame costs
    # more than the list
    ad = [a[0].data] if len(a) == 1 else [m.data for m in a]
    bd = [b[0].data] if len(b) == 1 else [m.data for m in b]

    if gate is None:
        h, _, _, (xa,), _ = adapter_kernel(xd, wd, ad, bd, s)
        a0, b0 = a[0], b[0]
        a_grad, b_grad = a0.requires_grad, b0.requires_grad
        flow = x_grad or a_grad or b_grad
        out = wrap(h, flow)
        if flow and _TAPES:

            def backward(g: np.ndarray) -> None:
                gs = g * s
                if b_grad:
                    _add_matmul(b0, xa.T, gs)
                if x_grad or a_grad:
                    d = gs @ b0.data.T
                    if a_grad:
                        _add_matmul(a0, xd.T, d)
                    if x_grad:
                        dx = g @ wd.T
                        dx += d @ a0.data.T
                        _add_grad(x, dx)

            _TAPES[-1].entries.append((out, backward))
        return out

    gd = gate.data
    gate_grad = gate.requires_grad
    # The gate's gradient needs each unweighted term; keep them only when a
    # tape records this op, so an untaped forward frees each term at once.
    keep_terms = gate_grad and bool(_TAPES)
    h, live, weights, xas, terms = adapter_kernel(xd, wd, ad, bd, s, gd, keep_terms)
    flow = x_grad or gate_grad or any(m.requires_grad for m in (*a, *b))
    out = wrap(h, flow)
    if not (flow and _TAPES):
        return out

    shared_a = len(a) == 1
    shared_gate = gd.shape[0] == 1

    def backward(g: np.ndarray) -> None:
        gs = g * s
        if gate_grad:
            dg = np.zeros(gd.shape)
            for j, p in zip(live, terms):
                dg[:, j] = (gs * p).sum() if shared_gate else (gs * p).sum(axis=1)
            _add_grad(gate, dg)
        dx = g @ wd.T if x_grad else None
        a0 = a[0]
        d_a0 = None  # a shared A's adjoint, summed from the last term
        # Last term first: the summation order the docstring fixes.
        for i in range(len(live) - 1, -1, -1):
            j = live[i]
            bj = b[j]
            gp = weights[i] * gs
            if bj.requires_grad:
                _add_matmul(bj, xas[i].T, gp)
            aj = a0 if shared_a else a[j]
            if not (x_grad or aj.requires_grad):
                continue
            d = gp @ bj.data.T
            if shared_a:
                d_a0 = d if d_a0 is None else d_a0 + d
                continue
            if aj.requires_grad:
                _add_matmul(aj, xd.T, d)
            if dx is not None:
                dx += d @ aj.data.T
        if d_a0 is not None:
            if a0.requires_grad:
                _add_matmul(a0, xd.T, d_a0)
            if dx is not None:
                dx += d_a0 @ a0.data.T
        if dx is not None:
            _add_grad(x, dx)

    _TAPES[-1].entries.append((out, backward))
    return out


def cross_entropy(logits: Matrix, labels) -> Matrix:
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
    flow = logits.requires_grad
    # the same bytes as losses.mean(), without its dispatch overhead
    out = wrap(np.array([[losses.sum() / n]]), flow)
    if flow and _TAPES:

        def backward(g: np.ndarray) -> None:
            p = e / sums[:, None]
            p[index, y] -= 1.0
            p *= float(g[0, 0])
            p /= n
            _add_grad(logits, p)

        _TAPES[-1].entries.append((out, backward))
    return out


def mse_loss(a: Matrix, b: Matrix) -> Matrix:
    if a.shape != b.shape:
        raise DimensionError(f"mse_loss: shapes differ, {a.rows}x{a.cols} vs {b.rows}x{b.cols}")
    diff = a.data - b.data
    a_grad, b_grad = a.requires_grad, b.requires_grad
    flow = a_grad or b_grad
    out = wrap(np.array([[float((diff * diff).mean())]]), flow)
    if flow and _TAPES:

        def backward(g: np.ndarray) -> None:
            gs = 2.0 * float(g[0, 0]) / diff.size
            if a_grad:
                _add_grad(a, gs * diff)
            if b_grad:
                _add_grad(b, -gs * diff)

        _TAPES[-1].entries.append((out, backward))
    return out


def backward(tape: Tape, loss: Matrix) -> None:
    """Accumulate the gradient of a 1x1 loss into .grad of every trainable
    leaf it reaches.

    The loss's adjoint starts at one. A trainable leaf that the loss does
    not reach keeps its grad as it was (None if it had none), even if a
    recorded op used it. Replaying an empty tape is a no-op, and so is a
    loss that no op produced.

    A leaf whose grad is None gets a new one from its first share: in its
    optimizer's grad slot if it has one, so the step reads it in place, and
    a new array otherwise. Later shares add to the grad in place, whichever
    array it is. Each op output's adjoint is dropped once its entry is
    replayed.
    """
    if loss.data.shape != (1, 1):
        raise ContractError(f"backward: loss must be 1x1, got {loss.data.shape}")
    if not loss._flow:
        return
    loss.grad = _ONE
    for out, replay in reversed(tape.entries):
        g = out.grad
        if g is not None:
            out.grad = None
            replay(g)
    loss.grad = None  # a loss that is not on the tape keeps no adjoint
