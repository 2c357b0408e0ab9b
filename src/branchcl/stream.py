"""Synthetic classification task streams.

Each task is a cluster of inputs around a random center plus a private
random linear label map applied to the noise part of each sample. All
tasks share the same noise distribution, so their input supports overlap
while their labels disagree there; the cluster centers are what make
tasks tellable apart (and give the task keys something to lock onto).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError

_STREAM_TAG = 101


@dataclass
class SyntheticTask:
    task_id: int
    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray
    center: np.ndarray


@dataclass
class TaskStream:
    tasks: list[SyntheticTask]
    dim: int
    classes: int
    seed: int

    def __len__(self) -> int:
        return len(self.tasks)


def _draw_split(
    rng: np.random.Generator,
    n: int,
    center: np.ndarray,
    label_map: np.ndarray,
    noise: float,
    classes: int,
) -> tuple[np.ndarray, np.ndarray]:
    eps = rng.standard_normal((n, center.size)) * noise
    x = center[None, :] + eps
    y = np.argmax(eps @ label_map, axis=1)
    assert y.min() >= 0 and y.max() < classes
    return x, y


def generate_stream(
    tasks: int = 4,
    train_samples: int = 512,
    test_samples: int = 256,
    dim: int = 32,
    classes: int = 8,
    seed: int = 0,
    separation: float = 6.0,
    noise: float = 1.0,
) -> TaskStream:
    """Build a deterministic stream of `tasks` classification tasks.

    Every class appears in both splits of every task; the generator
    redraws a split (deterministically) in the rare case one is missing.
    """
    if tasks < 1:
        raise ParameterError(f"need at least one task, got {tasks}")
    if dim < 2 or dim % 2 != 0:
        raise ParameterError(f"dim must be even and >= 2, got {dim}")
    if classes < 2:
        raise ParameterError(f"need at least two classes, got {classes}")
    if train_samples < classes or test_samples < classes:
        raise ParameterError(
            f"splits of {train_samples}/{test_samples} samples cannot cover {classes} classes"
        )
    # a NaN fails every comparison, so it is rejected with the infinities
    if not (0 < noise < math.inf and 0 <= separation < math.inf):
        raise ParameterError(f"invalid separation/noise: {separation}/{noise}")

    out = []
    for t in range(tasks):
        task_rng = np.random.default_rng(np.random.SeedSequence([seed, _STREAM_TAG, t]))
        direction = task_rng.standard_normal(dim)
        center = separation * direction / np.linalg.norm(direction)
        label_map = task_rng.standard_normal((dim, classes))
        splits = {}
        for split, n in (("train", train_samples), ("test", test_samples)):
            for attempt in range(64):
                split_rng = np.random.default_rng(
                    np.random.SeedSequence([seed, _STREAM_TAG, t, 1 if split == "train" else 2, attempt])
                )
                x, y = _draw_split(split_rng, n, center, label_map, noise, classes)
                if np.unique(y).size == classes:
                    splits[split] = (x, y)
                    break
            else:
                raise ParameterError(
                    f"task {t}: could not draw a {split} split covering all {classes} classes"
                )
        out.append(
            SyntheticTask(
                task_id=t,
                x_train=splits["train"][0],
                y_train=splits["train"][1],
                x_test=splits["test"][0],
                y_test=splits["test"][1],
                center=center,
            )
        )
    return TaskStream(tasks=out, dim=dim, classes=classes, seed=seed)


def stream_fingerprint(stream: TaskStream) -> str:
    """SHA-256 over every sample and label, in task order."""
    h = hashlib.sha256()
    for task in stream.tasks:
        for arr in (task.x_train, task.y_train, task.x_test, task.y_test):
            h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()
