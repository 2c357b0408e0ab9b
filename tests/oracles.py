"""Independent reference implementations used to check the package.

Everything here is written directly from the defining formulas, with no
imports from the package under test, so agreement between the two is
meaningful. The exceptions are the per-matrix optimizers `RefSgd` and
`RefAdam`, which raise the package's ContractError, and the taped
reference ops `add` and `scale` at the end: they record on the package's
tape, so that a fused op's gradients can be checked bit for bit against
the chain of small ops it replaces.
"""

import numpy as np

from branchcl.errors import ContractError, DimensionError
from branchcl.tensor import Matrix, _record, _result


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


class RefSgd:
    def __init__(self, params, lr, allow_missing=False):
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


# Taped reference ops, for the chains the fused ops replace.


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

    _record(out, backward)
    return out


def scale(a: Matrix, c: float) -> Matrix:
    c = float(c)
    out = _result(a.data * c, a.requires_grad)

    def backward(g: np.ndarray) -> list:
        return [(a, g * c)]

    _record(out, backward)
    return out
