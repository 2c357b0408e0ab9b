"""Task keys, alignment loss, and automatic task selection."""

import numpy as np
import pytest

import branchcl as bc
from branchcl import ContractError, DimensionError, SelectorError
from oracles import cosine_sum_oracle, select_task_oracle


def embed(img, txt):
    """One input row: its image view, then its text view."""
    return np.array(img + txt, dtype=np.float64)


def keys_from(task_id, img, txt, trainable=True):
    k = bc.TaskKeys(
        task_id,
        bc.Matrix(np.array([img], dtype=np.float64), trainable=trainable),
        bc.Matrix(np.array([txt], dtype=np.float64), trainable=trainable),
    )
    return k


class TestKeyStore:
    def test_add_get_ordered(self):
        rng = np.random.default_rng(0)
        store = bc.KeyStore()
        store.add(1, 4, rng)
        store.add(0, 4, rng)
        assert [k.task_id for k in store.ordered()] == [0, 1]
        assert store.get(1).task_id == 1
        assert len(store) == 2
        with pytest.raises(SelectorError):
            store.get(2)

    def test_duplicate_and_missing(self):
        rng = np.random.default_rng(0)
        store = bc.KeyStore()
        store.add(0, 4, rng)
        with pytest.raises(SelectorError):
            store.add(0, 4, rng)
        with pytest.raises(SelectorError):
            store.get(3)

    def test_freeze_locks_params(self):
        rng = np.random.default_rng(0)
        store = bc.KeyStore()
        keys = store.add(0, 4, rng)
        assert all(p.trainable for p in [keys.k_img, keys.k_txt])
        keys.freeze()
        assert not any(p.trainable for p in [keys.k_img, keys.k_txt])


def batch(imgs, txts):
    """One input row per sample: its image view, then its text view."""
    return bc.Matrix(np.hstack([imgs, txts]))


class TestAlignmentLoss:
    def test_perfect_alignment_is_zero(self):
        keys = keys_from(0, [1.0, 0.0], [0.0, 2.0])
        x = batch([[2.0, 0.0]], [[0.0, 1.0]])  # same directions, any scale
        loss = bc.alignment_loss(x, keys, 1.0)
        assert loss.item() == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_views_cost_two(self):
        keys = keys_from(0, [1.0, 0.0], [1.0, 0.0])
        x = batch([[0.0, 1.0]], [[0.0, 1.0]])
        assert bc.alignment_loss(x, keys, 1.0).item() == pytest.approx(2.0, abs=1e-12)

    def test_matches_two_b_minus_cosine_sum(self):
        rng = np.random.default_rng(3)
        keys = keys_from(0, rng.standard_normal(4), rng.standard_normal(4))
        imgs = rng.standard_normal((5, 4))
        txts = rng.standard_normal((5, 4))
        expected = (
            2.0 * 5
            - cosine_sum_oracle(imgs, keys.k_img.data)
            - cosine_sum_oracle(txts, keys.k_txt.data)
        )
        assert bc.alignment_loss(batch(imgs, txts), keys, 1.0).item() == pytest.approx(
            expected, abs=1e-12
        )

    def test_gradient_reaches_keys(self):
        rng = np.random.default_rng(4)
        keys = keys_from(0, rng.standard_normal(4), rng.standard_normal(4))
        x = batch(rng.standard_normal((1, 4)), rng.standard_normal((1, 4)))
        with bc.Tape() as tape:
            loss = bc.alignment_loss(x, keys, 1.0)
            bc.backward(tape, loss)
        assert keys.k_img.grad is not None and np.any(keys.k_img.grad != 0.0)
        assert keys.k_txt.grad is not None and np.any(keys.k_txt.grad != 0.0)
        # weight 0 still records the entry: the keys get zeros, not None, so
        # the optimizer updates (and counts) them as it does at any weight
        for k in [keys.k_img, keys.k_txt]:
            k.grad = None
        with bc.Tape() as tape:
            loss = bc.alignment_loss(x, keys, 0.0)
            bc.backward(tape, loss)
        assert len(tape.entries) == 1 and loss.item() == 0.0
        for k in [keys.k_img, keys.k_txt]:
            np.testing.assert_array_equal(k.grad, np.zeros((1, 4)))

    def test_empty_batch_rejected(self):
        keys = keys_from(0, [1.0, 0.0], [1.0, 0.0])
        with pytest.raises(DimensionError):
            bc.alignment_loss(bc.Matrix(np.zeros((0, 4))), keys, 1.0)

    def test_odd_width_rejected(self):
        keys = keys_from(0, [1.0, 0.0], [1.0, 0.0])
        with pytest.raises(DimensionError):
            bc.alignment_loss(bc.Matrix(np.ones((2, 5))), keys, 1.0)

    def test_input_on_gradient_path_rejected(self):
        keys = keys_from(0, [1.0, 0.0], [1.0, 0.0])
        with pytest.raises(ContractError):
            bc.alignment_loss(bc.Matrix(np.ones((2, 4)), trainable=True), keys, 1.0)


def test_alignment_loss_weighting():
    rng = np.random.default_rng(5)
    keys = keys_from(0, rng.standard_normal(4), rng.standard_normal(4))
    x = batch(rng.standard_normal((3, 4)), rng.standard_normal((3, 4)))
    one = bc.alignment_loss(x, keys, 1.0).item()
    assert one > 0.0
    assert bc.alignment_loss(x, keys, 2.0).item() == 2.0 * one


class TestSelectTask:
    def build_store(self):
        store = bc.KeyStore()
        store._keys[0] = keys_from(0, [1.0, 0.0], [1.0, 0.0])
        store._keys[1] = keys_from(1, [0.0, 1.0], [0.0, 1.0])
        return store

    def test_picks_best_aligned_task(self):
        store = self.build_store()
        assert bc.select_task(embed([0.9, 0.1], [1.0, 0.0]), store.stack()) == 0
        assert bc.select_task(embed([0.1, 0.9], [0.0, 1.0]), store.stack()) == 1

    def test_tie_breaks_to_lowest_task(self):
        store = bc.KeyStore()
        store._keys[0] = keys_from(0, [1.0, 0.0], [1.0, 0.0])
        store._keys[1] = keys_from(1, [1.0, 0.0], [1.0, 0.0])
        assert bc.select_task(embed([1.0, 0.0], [1.0, 0.0]), store.stack()) == 0

    def test_one_view_can_outvote_the_other(self):
        # img view slightly prefers task 1, txt view strongly prefers task 0
        store = self.build_store()
        e = embed([0.4, 0.6], [1.0, 0.0])
        assert bc.select_task(e, store.stack()) == 0

    def test_matches_per_key_loop(self):
        # the stacked keys are scored with the same arithmetic as one key
        # at a time, so even near-ties pick the same task
        rng = np.random.default_rng(5)
        for _ in range(500):
            tasks = int(rng.integers(1, 9))
            pairs = [(rng.standard_normal(8), rng.standard_normal(8)) for _ in range(tasks)]
            store = bc.KeyStore()
            for t, (ki, kt) in enumerate(pairs):
                keys = store.add(t, 8, np.random.default_rng(t))
                keys.k_img.data[0], keys.k_txt.data[0] = ki, kt
            x = rng.standard_normal(16)
            assert bc.select_task(x, store.stack()) == select_task_oracle(x, pairs)

    def test_empty_store_rejected(self):
        with pytest.raises(SelectorError):
            bc.select_task(embed([1.0, 0.0], [1.0, 0.0]), bc.KeyStore().stack())

    def test_odd_width_rejected(self):
        with pytest.raises(DimensionError):
            bc.select_task(np.array([1.0, 2.0, 3.0]), self.build_store().stack())

    def test_zero_norms_rejected(self):
        store = self.build_store()
        with pytest.raises(SelectorError):
            bc.select_task(embed([0.0, 0.0], [1.0, 0.0]), store.stack())
        store._keys[0] = keys_from(0, [0.0, 0.0], [1.0, 0.0])
        with pytest.raises(SelectorError):
            bc.select_task(embed([1.0, 0.0], [1.0, 0.0]), store.stack())


class TestSelectorAccuracy:
    def test_counts_hits(self):
        store = bc.KeyStore()
        store._keys[0] = keys_from(0, [1.0, 0.0], [1.0, 0.0])
        store._keys[1] = keys_from(1, [0.0, 1.0], [0.0, 1.0])
        x = np.array([
            embed([1.0, 0.0], [1.0, 0.0]),
            embed([0.0, 1.0], [0.0, 1.0]),
            embed([1.0, 0.0], [1.0, 0.0]),  # miss
            embed([0.0, 1.0], [0.0, 1.0]),  # miss
        ])
        assert bc.selector_accuracy(x, np.array([0, 1, 1, 0]), store) == pytest.approx(0.5)

    def test_matches_select_task_row_by_row(self):
        # one broadcast pass over all rows scores each row bit-identically
        # to select_task's scoring of that row alone
        rng = np.random.default_rng(6)
        for _ in range(100):
            tasks = int(rng.integers(1, 9))
            store = bc.KeyStore()
            for t in range(tasks):
                keys = store.add(t, 8, np.random.default_rng(t))
                keys.k_img.data[0] = rng.standard_normal(8)
                keys.k_txt.data[0] = rng.standard_normal(8)
            keys = store.stack()
            x = rng.standard_normal((int(rng.integers(1, 40)), 16))
            ids = rng.integers(0, tasks, size=len(x))
            batch_scores = keys.scores(x[:, :8], x[:, 8:])
            for i, row in enumerate(x):
                np.testing.assert_array_equal(batch_scores[i], keys.scores(row[None, :8], row[None, 8:])[0])
            hits = sum(bc.select_task(row, keys) == tid for row, tid in zip(x, ids))
            assert bc.selector_accuracy(x, ids, store) == hits / len(x)

    def test_zero_norm_row_rejected(self):
        store = bc.KeyStore()
        store._keys[0] = keys_from(0, [1.0, 0.0], [1.0, 0.0])
        x = np.array([embed([1.0, 0.0], [1.0, 0.0]), embed([0.0, 0.0], [1.0, 0.0])])
        with pytest.raises(SelectorError):
            bc.selector_accuracy(x, np.array([0, 0]), store)

    def test_empty_rejected(self):
        with pytest.raises(SelectorError):
            bc.selector_accuracy(np.zeros((0, 4)), np.zeros(0, dtype=int), bc.KeyStore())

    def test_length_mismatch_rejected(self):
        store = bc.KeyStore()
        store._keys[0] = keys_from(0, [1.0, 0.0], [1.0, 0.0])
        with pytest.raises(DimensionError):
            bc.selector_accuracy(np.ones((2, 4)), np.array([0]), store)
