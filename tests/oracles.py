"""Independent reference implementations used to check the package.

Everything here is written directly from the defining formulas, with no
imports from the package under test, so agreement between the two is
meaningful. The exception is the per-matrix optimizers `RefSgd` and
`RefAdam`, which raise the package's ContractError.

At the end is a reference autodiff of its own (`RefTape`, `Node` and one
op per formula), with which `adapter_chain` builds an adapter layer out of
single products, sums and scalings. Each op records a closure that hands
its inputs their shares, and `ref_backward` replays them in reverse, so a
layer's hand-written backward can be checked bit for bit against the chain
of small ops whose replay order it follows.
"""

import numpy as np

from branchcl.errors import ContractError


def fd_gradient(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite differences of scalar-valued f at x, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        hi = f(x)
        x[idx] = orig - eps
        lo = f(x)
        x[idx] = orig
        grad[idx] = (hi - lo) / (2.0 * eps)
        it.iternext()
    return grad


def rel_error(approx: np.ndarray, exact: np.ndarray) -> float:
    """Max relative disagreement, guarded for near-zero entries."""
    num = np.abs(approx - exact)
    den = np.maximum(np.abs(approx) + np.abs(exact), 1e-8)
    return float((num / den).max())


def metrics_oracle(rows):
    """ACC / MAA / BWT straight from their definitions.

    rows[i][k] is accuracy on task k right after training task i, k <= i.
    """
    t = len(rows)
    final = rows[-1]
    acc = sum(final[i] for i in range(t)) / t
    maa = sum(sum(rows[i]) / (i + 1) for i in range(t)) / t
    bwt = sum(final[i] - rows[i][i] for i in range(t)) / t
    return acc, maa, bwt


def softmax_oracle(z):
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy_oracle(logits, labels):
    p = softmax_oracle(logits)
    n = len(labels)
    return float(-np.log(p[np.arange(n), labels]).mean())


def cosine_sum_oracle(x, k):
    """Sum over the rows x_i of x of cos(x_i, k)."""
    x = np.asarray(x, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64).ravel()
    return float(sum(row @ k / (np.linalg.norm(row) * np.linalg.norm(k)) for row in x))


def key_grad_oracle(x, k, weight):
    """The gradient with respect to the 1 x d key k of
    weight * sum_i (1 - cos(x_i, k)), one row at a time: row i adds
    -weight * (x_i / (|x_i| |k|) - cos(x_i, k) k / |k|^2), from the last
    row to the first."""
    x = np.asarray(x, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64).ravel()
    nk = np.linalg.norm(k)
    grad = np.zeros_like(k)
    for row in x[::-1]:
        denom = np.sqrt(row @ row) * nk
        cos = row @ k / denom
        grad = grad + -weight * (row / denom - cos * k / (nk * nk))
    return grad[None, :]


def select_task_oracle(x, keys):
    """Index of the (k_img, k_txt) pair whose cosines with the two halves
    of x sum highest, scored one pair at a time; the first wins ties."""
    x = np.asarray(x, dtype=np.float64)
    img, txt = x[: x.size // 2], x[x.size // 2 :]

    def cos(u, v):
        return u @ v / (np.linalg.norm(u) * np.linalg.norm(v))

    return int(np.argmax([cos(img, ki) + cos(txt, kt) for ki, kt in keys]))


def lora_forward_oracle(x, w, a, b, scaling):
    """Plain-numpy h = x W + scaling * x A B."""
    return x @ w + scaling * (x @ a @ b)


def moe_forward_oracle(x, w, experts, router, scaling):
    """Dense-gated mixture: gate from row 0, softmax over router scores."""
    gate = softmax_oracle(x[0] @ router)
    delta = np.zeros_like(x @ w)
    for j, (a, b) in enumerate(experts):
        delta += gate[j] * (x @ a @ b)
    return x @ w + scaling * delta, gate


def gate_oracle(x, router, k):
    """Softmax over the k largest scores of x[0] @ router, zeros elsewhere.

    Ties go to the lowest column.
    """
    scores = np.asarray(x, dtype=np.float64)[0] @ np.asarray(router, dtype=np.float64)
    kept = np.argsort(-scores, kind="stable")[:k]
    gate = np.zeros_like(scores)
    gate[kept] = softmax_oracle(scores[kept])
    return gate


def gate_rows_oracle(x, router, k):
    """One gate row per row of x: each row's softmax over the k largest of
    its own scores, zeros elsewhere, ties to the lowest column."""
    x = np.asarray(x, dtype=np.float64)
    return np.vstack([gate_oracle(row[None, :], router, k) for row in x])


def branch_forward_oracle(x, w, a_shared, branches, router, k, scaling):
    """Sparse-gated mixture: top-k gate, shared down-projection."""
    gate = gate_oracle(x, router, k)
    shared = x @ a_shared
    delta = np.zeros_like(x @ w)
    for j, b in enumerate(branches):
        if gate[j] != 0.0:
            delta += gate[j] * (shared @ b)
    return x @ w + scaling * delta, gate


# Per-matrix optimizers: one update of a dozen numpy calls per matrix,
# the rule the flat-arena optimizers must reproduce bit for bit.


def named(params):
    """Matrices as the (name, matrix) pairs an optimizer takes: p0, p1, ..."""
    return [(f"p{i}", p) for i, p in enumerate(params)]


class RefSgd:
    def __init__(self, params, lr, allow_missing=False):
        self.params = list(params)
        self.lr = float(lr)
        self.allow_missing = bool(allow_missing)

    def step(self) -> int:
        updated = 0
        for i, p in enumerate(self.params):
            if not p.trainable:
                continue
            if p.grad is None:
                if self.allow_missing:
                    continue
                raise ContractError(f"sgd: trainable parameter p{i} has no gradient")
            p.data -= self.lr * p.grad
            p.grad = None
            updated += p.data.size
        return updated


class RefAdam:
    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8, allow_missing=False):
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
        for i, p in enumerate(self.params):
            if not p.trainable:
                continue
            if p.grad is None:
                if self.allow_missing:
                    continue
                raise ContractError(f"adam: trainable parameter p{i} has no gradient")
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


# A reference autodiff: single ops recording closures on a tape.


class Node:
    """A value in a reference chain: a leaf, trainable or constant, or an
    op's output. ``flow`` marks a value the loss's gradient reaches."""

    def __init__(self, value, trainable=False):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self.trainable = trainable
        self.flow = trainable


class RefTape:
    """Ordered (output, closure) records; a context manager."""

    active: list = []

    def __init__(self):
        self.entries = []

    def __enter__(self):
        RefTape.active.append(self)
        return self

    def __exit__(self, *exc):
        RefTape.active.pop()


def _share(node, g):
    """Add g to a leaf's grad, or to an op output's adjoint."""
    node.grad = g.copy() if node.grad is None and node.trainable else (
        g if node.grad is None else node.grad + g
    )


def _op(value, inputs, closure):
    out = Node(value)
    out.flow = any(n.flow for n in inputs)
    if out.flow and RefTape.active:
        RefTape.active[-1].entries.append((out, closure))
    return out


def ref_matmul(a, b):
    def back(g):
        if a.flow:
            _share(a, g @ b.value.T)
        if b.flow:
            _share(b, a.value.T @ g)

    return _op(a.value @ b.value, (a, b), back)


def ref_add(a, b):
    def back(g):
        for n in (a, b):
            if n.flow:
                _share(n, g)

    return _op(a.value + b.value, (a, b), back)


def ref_scale(a, c):
    return _op(a.value * c, (a,), lambda g: _share(a, g * c))


def ref_tanh(a):
    y = np.tanh(a.value)
    return _op(y, (a,), lambda g: _share(a, g * (1.0 - y * y)))


def ref_weigh(term, gate, j):
    """term times gate column j: a float for a one-row gate, else a column
    of one factor per row."""
    rows = gate.value.shape[0]
    c = gate.value[0, j] if rows == 1 else gate.value[:, j : j + 1]

    def back(g):
        if term.flow:
            _share(term, g * c)
        if gate.flow:
            dg = np.zeros(gate.value.shape)
            dg[:, j] = (g * term.value).sum() if rows == 1 else (g * term.value).sum(axis=1)
            _share(gate, dg)

    return _op(term.value * c, (term, gate), back)


def ref_router_gate(x, router, k, per_row=False):
    """Softmax over the k largest scores of x[0] (or of each row), zeros
    elsewhere, ties to the lowest column; the masked columns get exactly
    zero gradient, and with one shared row only row 0 of x gets one."""
    xs = x.value if per_row else x.value[0:1]
    s = xs @ router.value
    e = np.exp(s - s.max(axis=1, keepdims=True))
    mask = np.zeros(s.shape)
    for i, row in enumerate(s):
        mask[i, np.argsort(-row, kind="stable")[:k]] = 1.0
    if k < s.shape[1]:
        e *= mask
    y = e / e.sum(axis=1, keepdims=True)

    def back(g):
        ds = y * (g - (g * y).sum(axis=1, keepdims=True))
        ds = np.where(mask, ds, 0.0)
        if router.flow:
            _share(router, xs.T @ ds)
        if x.flow:
            dx = np.zeros(x.value.shape)
            dx[: len(xs)] = ds @ router.value.T
            _share(x, dx)

    return _op(y, (x, router), back)


def ref_mse_loss(a, target):
    diff = a.value - target
    return _op(
        np.array([[float((diff * diff).mean())]]), (a,), lambda g: _share(a, 2.0 * g[0, 0] / diff.size * diff)
    )


def ref_backward(tape, loss):
    """Replay the tape in reverse from the loss's adjoint of one."""
    loss.grad = np.ones((1, 1))
    for out, back in reversed(tape.entries):
        if out.grad is not None:
            g, out.grad = out.grad, None
            back(g)


def adapter_chain(x, w, a, b, scaling, router=None, k=None, per_row=False):
    """One adapter layer as a chain of single ops: the gate (if a router
    is given), x A_j for each A the live columns use, each term x A_j B_j
    weighed by its gate column and summed from the first to the last, then
    x W plus the scaled sum. Replayed in reverse, this is the order the
    layers' backward follows."""
    if router is None:
        delta = ref_matmul(ref_matmul(x, a[0]), b[0])
    else:
        gate = ref_router_gate(x, router, k, per_row)
        live = [j for j in range(len(b)) if (gate.value[:, j] != 0.0).any()]
        shared = len(a) == 1
        xa = {i: ref_matmul(x, a[i]) for i in sorted({0 if shared else j for j in live})}
        delta = None
        for j in live:
            term = ref_weigh(ref_matmul(xa[0 if shared else j], b[j]), gate, j)
            delta = term if delta is None else ref_add(delta, term)
    return ref_add(ref_matmul(x, w), ref_scale(delta, scaling))
