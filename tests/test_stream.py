"""Synthetic task stream: shapes, coverage, geometry, determinism."""

import numpy as np
import pytest

import branchcl as bc
from branchcl import ParameterError


def small_stream(seed=0, **kw):
    args = dict(tasks=3, train_samples=64, test_samples=32, dim=8, classes=4, seed=seed)
    args.update(kw)
    return bc.generate_stream(**args)


def test_shapes_and_dtypes():
    stream = small_stream()
    assert len(stream) == 3
    for t, task in enumerate(stream.tasks):
        assert task.task_id == t
        assert task.x_train.shape == (64, 8)
        assert task.y_train.shape == (64,)
        assert task.x_test.shape == (32, 8)
        assert task.y_test.shape == (32,)
        assert task.x_train.dtype == np.float64
        assert np.issubdtype(task.y_train.dtype, np.integer)


def test_every_class_in_every_split():
    stream = small_stream()
    for task in stream.tasks:
        assert np.unique(task.y_train).size == 4
        assert np.unique(task.y_test).size == 4


def test_centers_sit_on_separation_sphere():
    stream = small_stream(separation=6.0)
    for task in stream.tasks:
        assert np.linalg.norm(task.center) == pytest.approx(6.0, abs=1e-9)
    centers = np.array([t.center for t in stream.tasks])
    # distinct directions, not copies of one another
    assert np.linalg.norm(centers[0] - centers[1]) > 1.0


def test_samples_cluster_around_their_center():
    stream = small_stream(train_samples=512, separation=8.0)
    for task in stream.tasks:
        mean = task.x_train.mean(axis=0)
        assert np.linalg.norm(mean - task.center) < 1.0


def test_labels_depend_on_noise_not_position():
    # same noise draw shifted by different centers must keep its label,
    # which is what makes tasks genuinely distinct in input space only
    a = small_stream(seed=5, separation=2.0)
    b = small_stream(seed=5, separation=9.0)
    for ta, tb in zip(a.tasks, b.tasks):
        np.testing.assert_array_equal(ta.y_train, tb.y_train)
        assert not np.allclose(ta.x_train, tb.x_train)


def test_deterministic_per_seed():
    one = small_stream(seed=3)
    two = small_stream(seed=3)
    other = small_stream(seed=4)
    assert bc.stream_fingerprint(one) == bc.stream_fingerprint(two)
    assert bc.stream_fingerprint(one) != bc.stream_fingerprint(other)
    np.testing.assert_array_equal(one.tasks[0].x_train, two.tasks[0].x_train)


def test_fingerprint_sensitive_to_any_sample():
    stream = small_stream()
    before = bc.stream_fingerprint(stream)
    stream.tasks[1].x_test[0, 0] += 1e-9
    assert bc.stream_fingerprint(stream) != before


def test_validation():
    with pytest.raises(ParameterError):
        small_stream(tasks=0)
    with pytest.raises(ParameterError):
        small_stream(dim=7)
    with pytest.raises(ParameterError):
        small_stream(classes=1)
    with pytest.raises(ParameterError):
        small_stream(train_samples=2)  # cannot cover 4 classes
    with pytest.raises(ParameterError):
        small_stream(noise=0.0)
    with pytest.raises(ParameterError):
        small_stream(separation=-1.0)
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ParameterError):
            small_stream(noise=bad)
        with pytest.raises(ParameterError):
            small_stream(separation=bad)
