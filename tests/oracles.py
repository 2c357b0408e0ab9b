"""Independent reference implementations used to check the package.

Everything here is written directly from the defining formulas, with no
imports from the package under test, so agreement between the two is
meaningful.
"""

import numpy as np


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


def branch_forward_oracle(x, w, a_shared, branches, router, k, scaling):
    """Sparse-gated mixture: top-k gate, shared down-projection."""
    gate = gate_oracle(x, router, k)
    shared = x @ a_shared
    delta = np.zeros_like(x @ w)
    for j, b in enumerate(branches):
        if gate[j] != 0.0:
            delta += gate[j] * (shared @ b)
    return x @ w + scaling * delta, gate
