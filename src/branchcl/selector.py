"""Task keys and key-based automatic task selection.

Each task owns a pair of trainable key vectors, one per embedding view.
At desk scale the two views of a sample are simply the two halves of its
input vector. Training pulls each key toward its task's inputs via a
cosine alignment loss, whose gradient reaches only the keys and is
computed directly rather than on the tape; at evaluation the task whose
keys are most similar to a sample's views wins.

Selection is split in two: `StackedKeys.scores` scores a whole batch of
rows against every task's keys in one pass, and makes the input checks;
`select_task` picks one row's task from its row of those scores. A batch
scores bit-identically to its rows scored one at a time, so scoring a
test split once picks what scoring each row alone would.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, DegenerateInputError, DimensionError, SelectorError
from .tensor import Matrix


def _views(a: np.ndarray) -> np.ndarray:
    """The image and text views of the rows of a B x d array, its two
    halves along d, as one B x 2 x d/2 view."""
    rows, width = a.shape
    if width % 2 != 0:
        raise DimensionError(f"input length {width} is odd, cannot split into two views")
    return a.reshape(rows, 2, width // 2)


class TaskKeys:
    """One trainable key pair for one task."""

    def __init__(self, task_id: int, k_img: Matrix, k_txt: Matrix):
        self.task_id = task_id
        self.k_img = k_img
        self.k_txt = k_txt

    @classmethod
    def init(cls, task_id: int, dim: int, rng: np.random.Generator) -> "TaskKeys":
        # zero init would make the cosine undefined, so start from a tiny
        # perturbation; the alignment loss only cares about direction.
        std = 1e-2 / np.sqrt(dim)
        k_img = Matrix.randn(rng, 1, dim, std=std, trainable=True)
        k_txt = Matrix.randn(rng, 1, dim, std=std, trainable=True)
        return cls(task_id, k_img, k_txt)

    def freeze(self) -> None:
        self.k_img.trainable = False
        self.k_txt.trainable = False


class KeyStore:
    """Keys of all tasks seen so far, in task order."""

    def __init__(self):
        self._keys: dict[int, TaskKeys] = {}

    def add(self, task_id: int, dim: int, rng: np.random.Generator) -> TaskKeys:
        if task_id in self._keys:
            raise SelectorError(f"keys for task {task_id} already registered")
        keys = TaskKeys.init(task_id, dim, rng)
        self._keys[task_id] = keys
        return keys

    def get(self, task_id: int) -> TaskKeys:
        keys = self._keys.get(task_id)
        if keys is None:
            raise SelectorError(f"no keys registered for task {task_id}")
        return keys

    def ordered(self) -> list[TaskKeys]:
        return [self._keys[t] for t in sorted(self._keys)]

    def stack(self) -> "StackedKeys":
        """Every task's keys as stacked matrices, for scoring inputs."""
        return StackedKeys(self.ordered())

    def __len__(self) -> int:
        return len(self._keys)


class StackedKeys:
    """The keys of every task in a store, stacked one row per task, with
    their norms: what scoring an input against all tasks reads.

    A snapshot: keys added or trained after stacking are not seen, so stack
    again after training a task.
    """

    __slots__ = ("task_ids", "keys", "norms")

    def __init__(self, keys: list[TaskKeys]):
        if not keys:
            raise SelectorError("no task keys registered")
        self.task_ids = [k.task_id for k in keys]
        # (2, T, half): the image keys of every task, then the text keys
        self.keys = np.stack(
            [np.vstack([k.k_img.data for k in keys]), np.vstack([k.k_txt.data for k in keys])]
        )
        # vecdot takes each key's dot product with the same BLAS dot as a
        # one-key `v @ k`, so the scores match scoring the keys one at a time.
        self.norms = np.sqrt(np.vecdot(self.keys, self.keys))
        zero = np.flatnonzero((self.norms == 0.0).any(axis=0))
        if zero.size:
            raise SelectorError(f"keys for task {self.task_ids[zero[0]]} have zero norm")

    def scores(self, x: np.ndarray) -> np.ndarray:
        """The B x T matrix of cos(img_i, k_img) + cos(txt_i, k_txt) for
        the B input rows of x, img_i and txt_i being the halves of row i,
        and the T tasks.

        Each cosine takes one BLAS dot per (row, key), as scoring a single
        row against a single key does, so a batch scores bit-identically
        to its rows scored one at a time.
        """
        if x.ndim != 2:
            raise DimensionError(f"scores takes a B x d matrix of input rows, got shape {x.shape}")
        v = _views(x)  # (B, 2, half)
        if v.shape[-1] != self.keys.shape[-1]:
            raise DimensionError(
                f"input views are {v.shape[-1]} wide, the task keys are {self.keys.shape[-1]} wide"
            )
        n = np.sqrt(np.vecdot(v, v))
        if not n.all():
            row, view = np.argwhere(n == 0.0)[0]
            name = ("image", "text")[view]
            raise SelectorError(f"input row {row}: its {name} view has zero norm")
        c = np.vecdot(self.keys, v[:, :, None, :]) / (n[:, :, None] * self.norms)
        return c[:, 0] + c[:, 1]


def alignment_loss(x: Matrix, keys: TaskKeys, weight: float) -> None:
    """Set each key's `.grad` to the gradient of the alignment loss,
    weight * (sum_j (1 - cos(img_j, k_img)) + sum_j (1 - cos(txt_j, k_txt)))
    over the rows of x.

    Each row's two views are its halves, as in `StackedKeys.scores`. The loss
    reaches only the keys, and no forward reads a key, so its gradient is
    computed here directly, with no tape, and its value, which nothing
    reads, is not computed. The grad is assigned, so the optimizer copies
    it into the key's slot. Weight 0 still gives the keys an all-zero
    gradient, so the optimizer updates and counts them at every weight.
    It is named for the loss, not its gradient, because the benchmark
    patches and times it under that name as `harness.alignment_loss`.
    """
    if x.trainable:
        raise ContractError("alignment_loss: the input batch must be a constant")
    v = _views(x.data)
    if v.shape[-1] != keys.k_img.cols:
        raise DimensionError(
            f"input views are {v.shape[-1]} wide, the task keys are {keys.k_img.cols} wide"
        )
    # (2, half): the image key, then the text key, beside the views of v
    k = np.concatenate((keys.k_img.data, keys.k_txt.data))
    # vecdot takes each (row, view) dot product with the same BLAS dot as
    # `u_i @ k`, so every cosine is bit-identical to that row on its own.
    nu = np.sqrt(np.vecdot(v, v))
    nk = np.sqrt(np.vecdot(k, k))
    if not nk.all() or not nu.all():
        raise DegenerateInputError("alignment_loss: zero-norm row or key")
    denom = nu * nk
    c = np.vecdot(v, k) / denom
    per_row = -float(weight) * (v / denom[..., None] - c[..., None] * k / (nk * nk)[:, None])
    # Summed from the last row to the first, the order in which a chain of
    # one-row losses accumulates when a tape replays it.
    g = per_row[::-1].sum(axis=0)
    keys.k_img.grad = g[0:1]
    keys.k_txt.grad = g[1:2]


def select_task(scores: np.ndarray, keys: StackedKeys) -> int:
    """Return the task id of the highest of one row's task scores.

    `scores` is one row of `keys.scores(x)`: one score per task, in the
    order of `keys.task_ids`. Ties break toward the lowest task index.
    Scoring is left to the caller so that a whole split is scored in one
    `StackedKeys.scores` call, which also makes the input checks.
    """
    if scores.shape != (len(keys.task_ids),):
        raise DimensionError(
            f"select_task takes one row of {len(keys.task_ids)} task scores, "
            f"got shape {scores.shape}"
        )
    return keys.task_ids[scores.argmax()]


def selector_accuracy(x: np.ndarray, task_ids: np.ndarray, store: KeyStore) -> float:
    """Fraction of the input rows of x routed to their true task id.

    The keys are stacked once and every row is scored in one broadcast
    pass; each row picks the task `select_task` picks from its scores.
    """
    if len(x) == 0:
        raise SelectorError("selector_accuracy needs at least one sample")
    if len(x) != len(task_ids):
        raise DimensionError(f"selector_accuracy: {len(x)} rows vs {len(task_ids)} task ids")
    keys = store.stack()
    scores = keys.scores(np.asarray(x, dtype=np.float64))
    chosen = np.asarray(keys.task_ids)[np.argmax(scores, axis=1)]
    hits = int(np.count_nonzero(chosen == np.asarray(task_ids)))
    return hits / len(x)
