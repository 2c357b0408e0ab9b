"""Task keys and key-based automatic task selection.

Each task owns a pair of trainable key vectors, one per embedding view.
At desk scale the two views of a sample are simply the two halves of its
input vector. Training pulls each key toward its task's inputs via a
cosine alignment loss; at inference the task whose keys are most similar
to a sample's views wins.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, DimensionError, SelectorError
from .tensor import Matrix, cosine_loss


def _views(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The image and text views: the two halves of the last axis."""
    width = a.shape[-1]
    if width % 2 != 0:
        raise DimensionError(f"input length {width} is odd, cannot split into two views")
    half = width // 2
    return a[..., :half], a[..., half:]


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
        k_img = Matrix.randn(rng, 1, dim, std=std, trainable=True, name=f"key.task{task_id}.img")
        k_txt = Matrix.randn(rng, 1, dim, std=std, trainable=True, name=f"key.task{task_id}.txt")
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

    __slots__ = ("task_ids", "k_img", "k_txt", "nk_img", "nk_txt")

    def __init__(self, keys: list[TaskKeys]):
        if not keys:
            raise SelectorError("no task keys registered")
        self.task_ids = [k.task_id for k in keys]
        self.k_img = np.vstack([k.k_img.data for k in keys])
        self.k_txt = np.vstack([k.k_txt.data for k in keys])
        # vecdot takes each key's dot product with the same BLAS dot as a
        # one-key `v @ k`, so the scores match scoring the keys one at a time.
        self.nk_img = np.sqrt(np.vecdot(self.k_img, self.k_img))
        self.nk_txt = np.sqrt(np.vecdot(self.k_txt, self.k_txt))
        zero = np.flatnonzero((self.nk_img == 0.0) | (self.nk_txt == 0.0))
        if zero.size:
            raise SelectorError(f"keys for task {self.task_ids[zero[0]]} have zero norm")

    def scores(self, img: np.ndarray, txt: np.ndarray) -> np.ndarray:
        """The B x T matrix of cos(img_i, k_img) + cos(txt_i, k_txt) for
        the B rows of the two views and the T tasks.

        Each cosine takes one BLAS dot per (row, key), as scoring a single
        row against a single key does, so a batch scores bit-identically
        to its rows scored one at a time.
        """
        n_img = np.sqrt(np.vecdot(img, img))[:, None]
        n_txt = np.sqrt(np.vecdot(txt, txt))[:, None]
        if np.any(n_img == 0.0) or np.any(n_txt == 0.0):
            raise SelectorError("sample embedding has zero norm")
        return (
            np.vecdot(self.k_img, img[:, None, :]) / (n_img * self.nk_img)
            + np.vecdot(self.k_txt, txt[:, None, :]) / (n_txt * self.nk_txt)
        )


def alignment_loss(x: Matrix, keys: TaskKeys, weight: float) -> Matrix:
    """weight * (sum_j (1 - cos(img_j, k_img)) + sum_j (1 - cos(txt_j, k_txt)))
    over the rows of x, as one `cosine_loss` entry.

    Each row's two views are its halves, as in `select_task`. Scalar-shaped
    output, to be passed to `backward` beside the task loss; the inputs are
    constants and gradients reach the keys only. Weight 0 still gives the
    keys an all-zero gradient.
    """
    if x.requires_grad:
        raise ContractError("alignment_loss: the input batch must be a constant")
    img, txt = _views(x.data)
    return cosine_loss([(img, keys.k_img), (txt, keys.k_txt)], weight)


def select_task(x: np.ndarray, keys: StackedKeys) -> int:
    """Return the task id whose keys best match the two views of input row x.

    A task scores cos(img, k_img) + cos(txt, k_txt), img and txt being the
    two halves of x. Ties break toward the lowest task index.
    """
    img, txt = _views(np.asarray(x, dtype=np.float64).reshape(1, -1))
    return keys.task_ids[int(np.argmax(keys.scores(img, txt)[0]))]


def selector_accuracy(x: np.ndarray, task_ids: np.ndarray, store: KeyStore) -> float:
    """Fraction of the input rows of x routed to their true task id.

    The keys are stacked once and every row is scored in one broadcast
    pass; each row picks the task `select_task` picks for it.
    """
    if len(x) == 0:
        raise SelectorError("selector_accuracy needs at least one sample")
    if len(x) != len(task_ids):
        raise DimensionError(f"selector_accuracy: {len(x)} rows vs {len(task_ids)} task ids")
    keys = store.stack()
    img, txt = _views(np.asarray(x, dtype=np.float64))
    chosen = np.asarray(keys.task_ids)[np.argmax(keys.scores(img, txt), axis=1)]
    hits = int(np.count_nonzero(chosen == np.asarray(task_ids)))
    return hits / len(x)
