"""Parameter updates: plain gradient descent and Adam, over one flat arena.

An optimizer is built from (name, matrix) pairs, as ``trainable_params()``
and ``params()`` give them, and ``params`` lists the matrices. Every error
it raises (a matrix listed twice, a missing grad, a rebound ``.data``, a
non-finite value) names the matrix by that name, the one its checkpoint
file carries. Building it copies their values into
one contiguous float64 vector, the arena, and rebinds each matrix's
``.data`` to a reshaped view of its segment. From then on the
optimizer updates that view in place, so everything holding the matrix
sees each step. Rebinding ``.data`` to another array detaches the matrix:
the next step that would update it raises. One optimizer is built per
``train_task``, which calls `release()` when the task ends: each matrix
gets its own copy of its values, so no matrix, frozen or not, keeps a
finished optimizer's arena alive. The next optimizer copies the current
values into its own arena.

The optimizer also owns the gradients. Beside the arena sits a grad
buffer of the same layout, zeroed when it is built, and each matrix's
``_slot`` is its segment of that buffer until `release()` clears it.
A layer's backward computes a matrix's first share of the gradient
straight into its slot (`tensor.add_product`) and makes the slot its
`.grad`, so the step reads it where it lies. A grad
assigned any other way (by hand, as tests do) is copied into the slot.
`release()` also drops every `.grad` that is still a slot, so the buffer
is freed with the arena.

`step()` updates every trainable parameter from its `.grad`, clears those
grads, and returns the number of scalar values updated (used by the
analysis module to cross-check parameter counts). Non-trainable parameters
are skipped entirely, so freezing a matrix mid-run is just flipping its
flag. A step never touches a parameter it skips: its values, grad slot,
and for Adam its moments and step count, keep their bytes.

The update runs as a few numpy calls per pass, each written once with
a ``where=``. When the updated parameters, from the first to the last,
span at most `_BUCKET` elements, the step is one pass over that span,
and its ``where=`` is a mask that is False on the parameters the step
skips inside it, or the scalar True if it skips none: numpy takes that as
no mask at all, where an all-True array would cost time per element. A
wider step has a pass per run of consecutive updated parameters, cut only
between parameters into at most `_BUCKET` elements, unless it is one
parameter larger than that; such a pass skips nothing, so its ``where=``
is True. Scratch is never wider than the larger of a bucket and the
largest parameter. A pass makes the same elementwise operations in the
same order as an update of one matrix at a time, so the results are bit
for bit the same. Each pass then checks the values of the parameters it
updated: a NaN or inf raises `NumericError` naming the first matrix that
holds one.

A trainable parameter with no gradient is an error by default, since it
usually means the forward pass silently dropped it. Sparse-gated models
legitimately leave unselected branches without one, so they construct
their optimizer with allow_missing=True: such parameters are skipped for
the step (for Adam, their moments and per-parameter step count do not
advance, matching the usual sparse-update convention).
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, NumericError, ParameterError
from .tensor import Matrix

# elements per fused pass; the default shapes fit in one
_BUCKET = 1 << 14

# Adam's decay rates of the two moments, and the eps added to sqrt(v)
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8

# (name, matrix) pairs, named as in named_matrices
NamedMatrices = list[tuple[str, Matrix]]


class _Arena:
    """The arena, grad buffer and scratch that Sgd and Adam share, and the
    parts of a step that do not depend on the update rule."""

    kind = ""
    scratch_rows = 1

    def __init__(self, named: NamedMatrices, lr: float = 1e-3, allow_missing: bool = False):
        if lr <= 0:
            raise ParameterError(f"{self.kind}: lr must be positive, got {lr}")
        self._names = [name for name, _ in named]
        self.params = [p for _, p in named]
        seen: set[int] = set()
        for name, p in named:
            if id(p) in seen:
                raise ContractError(f"{self.kind}: parameter {name} is listed twice")
            seen.add(id(p))
        self.lr = float(lr)
        self.allow_missing = bool(allow_missing)
        self._sizes = [p.data.size for p in self.params]
        self._starts = np.cumsum([0] + self._sizes).tolist()
        total = self._starts[-1]
        self._flat = np.empty(total)
        self._grad = np.zeros(total)
        # per parameter: the matrix, its arena view, its grad slot, its size
        self._slots = []
        for p, lo, hi in zip(self.params, self._starts, self._starts[1:]):
            view = self._flat[lo:hi].reshape(p.shape)
            view[...] = p.data
            p.data = view
            p._slot = self._grad[lo:hi].reshape(p.shape)
            self._slots.append((p, view, p._slot, hi - lo))
        self._bucket = _BUCKET
        width = min(total, max([self._bucket] + self._sizes))
        self._scratch = np.empty((self.scratch_rows, width))
        self._on = np.empty(width, dtype=bool)
        self._finite = np.empty(width, dtype=bool)

    def release(self) -> None:
        """Give every matrix that still views the arena its own copy of its
        values, and drop the grad slots and every grad that is still one,
        so that the arena and grad buffer are freed with the optimizer. A
        step after this raises."""
        for p, view, slot, _ in self._slots:
            if p.data is view:
                p.data = view.copy()
            if p.grad is slot:
                p.grad = None
            if p._slot is slot:
                p._slot = None

    def _gather(self) -> tuple[list[int], int]:
        """The indices of the parameters this step updates, and how many
        scalars they hold. A grad that is not already in its slot is copied
        there; every one is cleared."""
        active = []
        updated = 0
        for i, (p, view, slot, size) in enumerate(self._slots):
            if not p.trainable:
                continue
            g = p.grad
            if g is None:
                if self.allow_missing:
                    continue
                raise ContractError(
                    f"{self.kind}: trainable parameter {self._names[i]} has no gradient"
                )
            if p.data is not view:
                raise ContractError(
                    f"{self.kind}: parameter {self._names[i]} no longer views the "
                    "optimizer's arena (its .data was rebound)"
                )
            if g is not slot:
                slot[...] = g
            p.grad = None
            active.append(i)
            updated += size
        return active, updated

    def _passes(self, active: list[int]) -> list[tuple[int, int, np.ndarray | bool]]:
        """The passes of a step that updates the parameters `active`, as
        (a, b, on): the range [a, b) of parameters the pass covers and the
        ``where=`` of each of its calls. If the active parameters span at
        most a bucket of elements, that span is one pass, masked by
        `_mask`. Otherwise each run of consecutive active parameters is cut
        between parameters into at most a bucket of elements each, or one
        parameter larger than a bucket; such a pass skips nothing."""
        starts, bucket = self._starts, self._bucket
        a, b = active[0], active[-1] + 1
        if starts[b] - starts[a] <= bucket:
            return [(a, b, self._mask(a, b, active))]
        passes: list[list[int]] = []
        for i in active:
            if passes and passes[-1][1] == i and starts[i + 1] - starts[passes[-1][0]] <= bucket:
                passes[-1][1] = i + 1
            else:
                passes.append([i, i + 1])
        return [(a, b, True) for a, b in passes]

    def _mask(self, a: int, b: int, active: list[int]) -> np.ndarray | bool:
        """The ``where=`` of the pass over [a, b) that updates `active`:
        True if it skips no parameter, else a mask over its elements that
        is False on each skipped one."""
        if b - a == len(active):
            return True
        starts = self._starts
        lo = starts[a]
        mask = self._on[: starts[b] - lo]
        mask[...] = True
        on = set(active)
        for i in range(a, b):
            if i not in on:
                mask[starts[i] - lo : starts[i + 1] - lo] = False
        return mask

    def _check(self, a: int, b: int, w: np.ndarray, on: np.ndarray | bool) -> None:
        """Raise NumericError if a parameter in [a, b), whose values are
        ``w``, holds a NaN or inf and the pass updated it: ``on`` is the
        pass's ``where=``."""
        finite = self._finite[: w.size]
        np.isfinite(w, out=finite)
        if finite.all():
            return
        starts = self._starts
        lo = starts[a]
        for i in range(a, b):
            i_lo, i_hi = starts[i] - lo, starts[i + 1] - lo
            if not finite[i_lo:i_hi].all() and (on is True or on[i_lo]):
                raise NumericError(
                    f"tensor {self._names[i]} holds a non-finite value after the optimizer step"
                )


class Sgd(_Arena):
    """w <- w - lr * grad."""

    kind = "sgd"

    def step(self) -> int:
        active, updated = self._gather()
        if not active:
            return 0
        for a, b, on in self._passes(active):
            lo, hi = self._starts[a], self._starts[b]
            g, w = self._grad[lo:hi], self._flat[lo:hi]
            upd = self._scratch[0, : hi - lo]
            np.multiply(g, self.lr, out=upd, where=on)
            np.subtract(w, upd, out=w, where=on)
            self._check(a, b, w, on)
        return updated


class Adam(_Arena):
    """Adam with bias correction; moments and step counts kept per parameter,
    and the bias corrections looked up by step count in a table."""

    kind = "adam"
    scratch_rows = 2
    # per moment row m, v: its decay rate, and the weight of the new grad
    _decay = np.array([[_BETA1], [_BETA2]])
    _mix = 1.0 - _decay

    def __init__(self, named: NamedMatrices, lr: float = 1e-3, allow_missing: bool = False):
        super().__init__(named, lr, allow_missing)
        # rows m and v, so that one call updates both moments
        self._moments = np.zeros((2, self._flat.size))
        self._t = [0] * len(self.params)
        # column k: the bias corrections 1 - b1**k and 1 - b2**k after k
        # steps, 0 at k = 0; doubled in width whenever a step count outgrows it
        self._corrections = np.zeros((2, 1))

    def step(self) -> int:
        active, updated = self._gather()
        if not active:
            return 0
        t = self._t
        steps = set()
        for i in active:
            t[i] = k = t[i] + 1
            steps.add(k)
        top = max(steps)
        if top >= self._corrections.shape[1]:
            n = 2 * top
            self._corrections = np.array(
                [[1.0 - _BETA1**j for j in range(n)], [1.0 - _BETA2**j for j in range(n)]]
            )
        table = self._corrections
        if len(steps) == 1:
            (k,) = steps
            c = table[:, k : k + 1]
            per_param = None
        else:
            # 0 for a parameter with no step yet, which a mask keeps out
            per_param = table.take(t, axis=1)
        for a, b, on in self._passes(active):
            lo, hi = self._starts[a], self._starts[b]
            if per_param is not None:
                c = per_param[:, a:b].repeat(self._sizes[a:b], axis=1)
            g, mv, w = self._grad[lo:hi], self._moments[:, lo:hi], self._flat[lo:hi]
            s = self._scratch[:, : hi - lo]
            upd, root = s
            # m = b1 m + (1 - b1) g;  v = b2 v + ((1 - b2) g) g, then
            # w -= (lr * (m / c1)) / (sqrt(v / c2) + eps)
            np.multiply(mv, self._decay, out=mv, where=on)
            np.multiply(g, self._mix, out=s, where=on)
            np.multiply(root, g, out=root, where=on)
            np.add(mv, s, out=mv, where=on)
            np.divide(mv, c, out=s, where=on)
            np.multiply(upd, self.lr, out=upd, where=on)
            np.sqrt(root, out=root, where=on)
            np.add(root, _EPS, out=root, where=on)
            np.divide(upd, root, out=upd, where=on)
            np.subtract(w, upd, out=w, where=on)
            self._check(a, b, w, on)
        return updated


def make_optimizer(kind: str, named: NamedMatrices, lr: float = 1e-3, allow_missing: bool = False):
    if kind == "adam":
        return Adam(named, lr=lr, allow_missing=allow_missing)
    if kind == "sgd":
        return Sgd(named, lr=lr, allow_missing=allow_missing)
    raise ParameterError(f"unknown optimizer kind: {kind!r}")
