"""Task keys and key-based automatic task selection.

Each task owns a pair of trainable key vectors, one per embedding view.
At desk scale the two views of a sample are simply the two halves of its
input vector. Training pulls each key toward its task's inputs via a
cosine alignment loss; at inference the task whose keys are most similar
to a sample's views wins.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .errors import ContractError, DimensionError, SelectorError
from .tensor import Matrix, add, cosine_sum, scale


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

    def params(self) -> list[Matrix]:
        return [self.k_img, self.k_txt]


class KeyStore:
    """Keys of all tasks seen so far, in task order."""

    def __init__(self, keys: Iterable[TaskKeys] = ()):
        self._keys: dict[int, TaskKeys] = {k.task_id: k for k in keys}

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

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, task_id: int) -> bool:
        return task_id in self._keys


def alignment_loss(x: Matrix, keys: TaskKeys) -> Matrix:
    """sum_j (1 - cos(img_j, k_img)) + sum_j (1 - cos(txt_j, k_txt)) over the rows of x.

    Each row's two views are its halves, as in `select_task`. Computed
    as 2*B minus the summed cosines, one `cosine_sum` per view.
    Scalar-shaped output; the inputs are constants and gradients reach the
    keys only.
    """
    if x.requires_grad:
        raise ContractError("alignment_loss: the input batch must be a constant")
    img, txt = _views(x.data)
    cos = add(cosine_sum(Matrix(img), keys.k_img), cosine_sum(Matrix(txt), keys.k_txt))
    count = Matrix([[2.0 * x.rows]])
    return add(count, scale(cos, -1.0))


def total_loss(task_loss: Matrix, align: Matrix, weight: float) -> Matrix:
    """task loss + weight * alignment loss; weight 0 leaves it untouched."""
    return add(task_loss, scale(align, weight))


def select_task(x: np.ndarray, store: KeyStore) -> int:
    """Return the task id whose keys best match the two views of input row x.

    A task scores cos(img, k_img) + cos(txt, k_txt), img and txt being the
    two halves of x. Ties break toward the lowest task index.
    """
    keys = store.ordered()
    if not keys:
        raise SelectorError("no task keys registered")
    img, txt = _views(np.asarray(x, dtype=np.float64).ravel())
    n_img, n_txt = np.linalg.norm(img), np.linalg.norm(txt)
    if n_img == 0.0 or n_txt == 0.0:
        raise SelectorError("sample embedding has zero norm")
    k_img = np.vstack([k.k_img.data for k in keys])
    k_txt = np.vstack([k.k_txt.data for k in keys])
    # vecdot takes each key's dot product with the same BLAS dot as a
    # one-key `v @ k`, so the scores match scoring the keys one at a time.
    nk_img = np.sqrt(np.vecdot(k_img, k_img))
    nk_txt = np.sqrt(np.vecdot(k_txt, k_txt))
    zero = np.flatnonzero((nk_img == 0.0) | (nk_txt == 0.0))
    if zero.size:
        raise SelectorError(f"keys for task {keys[zero[0]].task_id} have zero norm")
    scores = np.vecdot(k_img, img) / (n_img * nk_img) + np.vecdot(k_txt, txt) / (n_txt * nk_txt)
    return keys[int(np.argmax(scores))].task_id


def selector_accuracy(x: np.ndarray, task_ids: np.ndarray, store: KeyStore) -> float:
    """Fraction of the input rows of x routed to their true task id."""
    if len(x) == 0:
        raise SelectorError("selector_accuracy needs at least one sample")
    if len(x) != len(task_ids):
        raise DimensionError(f"selector_accuracy: {len(x)} rows vs {len(task_ids)} task ids")
    hits = sum(1 for row, tid in zip(x, task_ids) if select_task(row, store) == tid)
    return hits / len(x)
