"""Task keys, their alignment gradient, and automatic task selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import branchcl as bc
from branchcl import ContractError, DegenerateInputError, DimensionError, SelectorError
from oracles import cosine_sum_oracle, fd_gradient, key_grad_oracle, rel_error, select_task_oracle


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


def grads(keys):
    return keys.k_img.grad, keys.k_txt.grad


class TestAlignmentLoss:
    """`alignment_loss` sets each key's grad to the gradient of
    weight * sum over both views of sum_i (1 - cos(view_i, key))."""

    def test_perfect_alignment_is_zero(self):
        keys = keys_from(0, [1.0, 0.0], [0.0, 2.0])
        x = batch([[2.0, 0.0]], [[0.0, 1.0]])  # same directions, any scale
        bc.alignment_loss(x, keys, 1.0)
        for g in grads(keys):
            np.testing.assert_array_equal(g, np.zeros((1, 2)))

    def test_orthogonal_view_pulls_key_toward_it(self):
        # cos = 0, so each view's gradient is -u / (|u| |k|)
        keys = keys_from(0, [1.0, 0.0], [2.0, 0.0])
        bc.alignment_loss(batch([[0.0, 1.0]], [[0.0, 3.0]]), keys, 1.0)
        np.testing.assert_array_equal(keys.k_img.grad, [[0.0, -1.0]])
        np.testing.assert_array_equal(keys.k_txt.grad, [[0.0, -0.5]])

    def test_matches_two_b_minus_cosine_sum(self):
        # central differences of the loss 2B - the two views' cosine sums
        rng = np.random.default_rng(3)
        imgs = rng.standard_normal((5, 4))
        txts = rng.standard_normal((5, 4))
        k_img, k_txt = rng.standard_normal(4), rng.standard_normal(4)
        for w in (1.0, 0.6):
            keys = keys_from(0, k_img, k_txt)
            bc.alignment_loss(batch(imgs, txts), keys, w)

            def loss(ki, kt):
                return w * (2.0 * 5 - cosine_sum_oracle(imgs, ki) - cosine_sum_oracle(txts, kt))

            fd_img = fd_gradient(lambda k: loss(k, k_txt), k_img.copy())
            fd_txt = fd_gradient(lambda k: loss(k_img, k), k_txt.copy())
            assert rel_error(keys.k_img.grad[0], fd_img) < 1e-6
            assert rel_error(keys.k_txt.grad[0], fd_txt) < 1e-6

    def test_gradient_matches_per_row_oracle_bit_for_bit(self):
        # rows accumulated from the last to the first, at any weight
        rng = np.random.default_rng(12)
        imgs, txts = rng.standard_normal((32, 16)), rng.standard_normal((32, 16))
        k_img, k_txt = rng.standard_normal(16), rng.standard_normal(16)
        for w in (1.0, 0.37, 0.0):
            keys = keys_from(0, k_img, k_txt)
            bc.alignment_loss(batch(imgs, txts), keys, w)
            np.testing.assert_array_equal(keys.k_img.grad, key_grad_oracle(imgs, k_img, w))
            np.testing.assert_array_equal(keys.k_txt.grad, key_grad_oracle(txts, k_txt, w))

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.integers(1, 48),
        half=st.integers(1, 24),
        weight=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 4.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_one_pass_gradient_matches_per_row_oracle(self, rows, half, weight, seed):
        # both views and both keys in one pass give each key what the
        # one-row-at-a-time oracle gives it, at weight 0 zeros, not None
        rng = np.random.default_rng(seed)
        imgs, txts = rng.standard_normal((rows, half)), rng.standard_normal((rows, half))
        k_img, k_txt = rng.standard_normal(half), rng.standard_normal(half)
        keys = keys_from(0, k_img, k_txt)
        bc.alignment_loss(batch(imgs, txts), keys, weight)
        for g in grads(keys):
            assert g is not None and g.shape == (1, half)
        np.testing.assert_array_equal(keys.k_img.grad, key_grad_oracle(imgs, k_img, weight))
        np.testing.assert_array_equal(keys.k_txt.grad, key_grad_oracle(txts, k_txt, weight))

    def test_gradient_reaches_keys(self):
        rng = np.random.default_rng(4)
        keys = keys_from(0, rng.standard_normal(4), rng.standard_normal(4))
        x = batch(rng.standard_normal((1, 4)), rng.standard_normal((1, 4)))
        bc.alignment_loss(x, keys, 1.0)
        assert all(g is not None and np.any(g != 0.0) for g in grads(keys))
        # weight 0 still gives the keys zeros, not None, so the optimizer
        # updates (and counts) them as it does at any weight
        for k in [keys.k_img, keys.k_txt]:
            k.grad = None
        bc.alignment_loss(x, keys, 0.0)
        for g in grads(keys):
            np.testing.assert_array_equal(g, np.zeros((1, 4)))

    def test_zero_norm_row_or_key_rejected(self):
        ok = [1.0, 0.0]
        for keys, x in (
            (keys_from(0, ok, ok), batch([[1.0, 0.0], [0.0, 0.0]], [ok, ok])),
            (keys_from(0, ok, ok), batch([ok], [[0.0, 0.0]])),
            (keys_from(0, [0.0, 0.0], ok), batch([ok], [ok])),
            (keys_from(0, ok, [0.0, 0.0]), batch([ok], [ok])),
        ):
            with pytest.raises(DegenerateInputError):
                bc.alignment_loss(x, keys, 1.0)

    def test_empty_batch_rejected(self):
        keys = keys_from(0, [1.0, 0.0], [1.0, 0.0])
        with pytest.raises(DimensionError):
            bc.alignment_loss(bc.Matrix(np.zeros((0, 4))), keys, 1.0)

    def test_odd_width_rejected(self):
        keys = keys_from(0, [1.0, 0.0], [1.0, 0.0])
        with pytest.raises(DimensionError):
            bc.alignment_loss(bc.Matrix(np.ones((2, 5))), keys, 1.0)

    def test_view_width_must_match_keys(self):
        keys = keys_from(0, [1.0, 0.0], [1.0, 0.0])
        with pytest.raises(DimensionError):
            bc.alignment_loss(bc.Matrix(np.ones((2, 6))), keys, 1.0)

    def test_input_on_gradient_path_rejected(self):
        keys = keys_from(0, [1.0, 0.0], [1.0, 0.0])
        with pytest.raises(ContractError):
            bc.alignment_loss(bc.Matrix(np.ones((2, 4)), trainable=True), keys, 1.0)


def test_alignment_loss_weighting():
    # weight 2 gives exactly twice the gradient of weight 1
    rng = np.random.default_rng(5)
    k_img, k_txt = rng.standard_normal(4), rng.standard_normal(4)
    x = batch(rng.standard_normal((3, 4)), rng.standard_normal((3, 4)))
    one, two = keys_from(0, k_img, k_txt), keys_from(0, k_img, k_txt)
    bc.alignment_loss(x, one, 1.0)
    bc.alignment_loss(x, two, 2.0)
    for g1, g2 in zip(grads(one), grads(two)):
        assert np.any(g1 != 0.0)
        np.testing.assert_array_equal(g2, 2.0 * g1)


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

    @settings(max_examples=200, deadline=None)
    @given(
        pool=st.lists(
            st.lists(st.integers(1, 2) | st.integers(-2, -1), min_size=6, max_size=6),
            min_size=1, max_size=3,
        ),
        picks=st.lists(st.integers(0, 2), min_size=1, max_size=6),
        x=st.lists(st.integers(-2, 2), min_size=6, max_size=6),
    )
    def test_duplicated_keys_tie_to_the_lowest_task(self, pool, picks, x):
        # each task takes its key pair from a small pool, so several tasks
        # can hold the very same keys and score exactly alike
        held = [p % len(pool) for p in picks]  # the pool entry each task holds
        pairs = [(np.array(pool[i][:3], float), np.array(pool[i][3:], float)) for i in held]
        store = bc.KeyStore()
        for t, (ki, kt) in enumerate(pairs):
            keys = store.add(t, 3, np.random.default_rng(t))
            keys.k_img.data[0], keys.k_txt.data[0] = ki, kt
        row = np.array(x, dtype=np.float64)
        if not (row[:3].any() and row[3:].any()):
            row[[0, 3]] = 1.0
        chosen = bc.select_task(row, store.stack())
        assert chosen == select_task_oracle(row, pairs)
        assert chosen == held.index(held[chosen])

    def test_takes_exactly_one_row(self):
        store = self.build_store()
        keys = store.stack()
        row = embed([0.1, 0.9], [0.0, 1.0])
        assert bc.select_task(row, keys) == bc.select_task(row[None], keys) == 1
        for bad in (np.vstack([row, row]), row[None, None], np.float64(1.0), row[:, None]):
            with pytest.raises(DimensionError, match="one input row"):
                bc.select_task(bad, keys)

    def test_width_mismatch_rejected(self):
        # a 6-wide row has 3-wide views, the keys are 2 wide
        with pytest.raises(DimensionError, match="3 wide.*2 wide"):
            bc.select_task(np.ones(6), self.build_store().stack())

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
            batch_scores = keys.scores(x)
            for i, row in enumerate(x):
                np.testing.assert_array_equal(batch_scores[i], keys.scores(row[None])[0])
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

    def test_width_mismatch_rejected(self):
        store = bc.KeyStore()
        store._keys[0] = keys_from(0, [1.0, 0.0], [1.0, 0.0])
        with pytest.raises(DimensionError, match="3 wide.*2 wide"):
            bc.selector_accuracy(np.ones((2, 6)), np.array([0, 0]), store)

    def test_length_mismatch_rejected(self):
        store = bc.KeyStore()
        store._keys[0] = keys_from(0, [1.0, 0.0], [1.0, 0.0])
        with pytest.raises(DimensionError):
            bc.selector_accuracy(np.ones((2, 4)), np.array([0]), store)
