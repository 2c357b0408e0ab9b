"""The flat-arena optimizers against the per-matrix reference rule."""

import gc
import warnings
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import branchcl as bc
from branchcl import ContractError, NumericError, optim
from oracles import RefAdam, RefSgd, add

REFS = {"adam": RefAdam, "sgd": RefSgd}
SKIP_MIDDLE = ([(2, 2)] * 3, [([True] * 3, [False] * 3), ([True, False, True], [False] * 3)])
ZERO_CORRECTION = (
    [(2, 2)] * 3,
    [(on, [False] * 3) for on in ([True, False, False], [True, False, True], [True] * 3)],
)


@st.composite
def runs(draw):
    """Parameter shapes, then per step: which parameters get a grad and
    which flip their trainable flag before the step."""
    shapes = draw(st.lists(st.tuples(st.integers(1, 6), st.integers(1, 6)), min_size=1, max_size=5))
    flags = st.lists(st.booleans(), min_size=len(shapes), max_size=len(shapes))
    steps = draw(st.lists(st.tuples(flags, flags), min_size=1, max_size=8))
    return shapes, steps


def twin_params(rng, shapes):
    init = [rng.standard_normal(s) for s in shapes]
    return [
        [bc.Matrix(a, trainable=True, name=f"p{i}") for i, a in enumerate(init)] for _ in range(2)
    ]


def step_both(ref, opt, ref_params, params, grads):
    """Give both the same grads, step both, and check they agree bit for
    bit and that every parameter the step skips keeps its bytes."""
    before = [p.data.tobytes() for p in params]
    for p, q, g in zip(params, ref_params, grads):
        p.grad = None if g is None else g.copy()
        q.grad = g
    assert opt.step() == ref.step()
    for p, q, g, old in zip(params, ref_params, grads, before):
        assert p.data.tobytes() == q.data.tobytes()
        assert (p.grad is None) == (q.grad is None)
        if not p.trainable or g is None:
            assert p.data.tobytes() == old


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(sorted(REFS)),
    allow_missing=st.booleans(),
    # tiny buckets cut passes often, only ever between parameters, and
    # make many parameters larger than a bucket, each a pass of its own;
    # passes that are cut skip nothing, so they run without a mask
    bucket=st.sampled_from([3, 7, 16, optim._BUCKET]),
    run=runs(),
    seed=st.integers(0, 2**32 - 1),
)
# a parameter skipped between two updated ones, after it has moments and a
# stale grad slot: all three fit a bucket, so one pass spans it and its mask
# must keep the pass off its values and moments
@example(kind="sgd", allow_missing=True, bucket=optim._BUCKET, run=SKIP_MIDDLE, seed=0)
@example(kind="adam", allow_missing=True, bucket=optim._BUCKET, run=SKIP_MIDDLE, seed=0)
# at the second step the updated p0 and p2 have different step counts, so
# the per-parameter correction is 0 for p1, which has none yet: only the
# mask keeps that 0 out of a division
@example(kind="adam", allow_missing=True, bucket=optim._BUCKET, run=ZERO_CORRECTION, seed=0)
def test_matches_per_matrix_reference(kind, allow_missing, bucket, run, seed):
    shapes, steps = run
    rng = np.random.default_rng(seed)
    ref_params, params = twin_params(rng, shapes)
    ref = REFS[kind](ref_params, lr=0.05, allow_missing=allow_missing)
    with mock.patch.object(optim, "_BUCKET", bucket):
        opt = bc.make_optimizer(kind, params, lr=0.05, allow_missing=allow_missing)
    for has_grad, flips in steps:
        for p, q, flip in zip(params, ref_params, flips):
            if flip:
                p.trainable = q.trainable = not p.trainable
        grads = [rng.standard_normal(s) if on else None for s, on in zip(shapes, has_grad)]
        if not allow_missing and any(p.trainable and g is None for p, g in zip(params, grads)):
            for o in (ref, opt):
                for p, q, g in zip(params, ref_params, grads):
                    p.grad = q.grad = g
                with pytest.raises(ContractError, match="has no gradient"):
                    o.step()
            return
        step_both(ref, opt, ref_params, params, grads)


@pytest.mark.parametrize("kind", sorted(REFS))
def test_matches_reference_over_several_default_buckets(kind):
    shapes = [(130, 130), (3, 5), (200, 90)]
    assert sum(r * c for r, c in shapes) > 2 * optim._BUCKET
    rng = np.random.default_rng(4)
    ref_params, params = twin_params(rng, shapes)
    ref = REFS[kind](ref_params, lr=0.01, allow_missing=True)
    opt = bc.make_optimizer(kind, params, lr=0.01, allow_missing=True)
    for has_grad in ([1, 1, 1], [0, 1, 1], [1, 0, 1], [1, 1, 1], [0, 0, 1]):
        grads = [rng.standard_normal(s) if on else None for s, on in zip(shapes, has_grad)]
        step_both(ref, opt, ref_params, params, grads)


def test_params_are_views_of_one_buffer():
    rng = np.random.default_rng(0)
    params = [bc.Matrix(rng.standard_normal(s), trainable=True) for s in ((3, 4), (1, 7), (5, 2))]
    values = [p.data.copy() for p in params]
    opt = bc.make_optimizer("adam", params, lr=0.1)
    assert opt.params == params
    arena = params[0].data.base
    assert arena is not None and arena.ndim == 1 and arena.size == 12 + 7 + 10
    for p, v in zip(params, values):
        assert p.data.base is arena
        np.testing.assert_array_equal(p.data, v)


def test_same_matrix_twice_is_rejected():
    p = bc.Matrix(np.ones((2, 2)), trainable=True, name="twice")
    for kind in sorted(REFS):
        with pytest.raises(ContractError, match="twice"):
            bc.make_optimizer(kind, [p, bc.Matrix(np.ones((1, 1)), trainable=True), p])


def test_rebound_data_is_rejected():
    p = bc.Matrix(np.ones((2, 2)), trainable=True, name="moved")
    opt = bc.make_optimizer("sgd", [p], lr=0.1)
    p.data = np.zeros((2, 2))
    p.grad = np.ones((2, 2))
    with pytest.raises(ContractError, match="moved"):
        opt.step()


@pytest.mark.parametrize("kind", sorted(REFS))
def test_non_finite_update_raises_naming_the_first_matrix(kind):
    params = [bc.Matrix(np.ones((2, 3)), trainable=True, name=f"p{i}") for i in range(3)]
    opt = bc.make_optimizer(kind, params, lr=0.1)
    params[0].grad = np.ones((2, 3))
    params[1].grad = np.full((2, 3), np.nan)
    params[2].grad = np.full((2, 3), np.nan)
    with pytest.raises(NumericError, match="parameter p1 ") as err:
        opt.step()
    assert err.value.index == 1


@pytest.mark.parametrize("kind", sorted(REFS))
def test_skipped_non_finite_parameter_is_not_named(kind):
    params = [bc.Matrix(np.ones((2, 3)), trainable=True, name=f"p{i}") for i in range(3)]
    params[1].data[0, 0] = np.inf
    params[1].trainable = False
    opt = bc.make_optimizer(kind, params, lr=0.1)
    params[0].grad = np.ones((2, 3))
    params[2].grad = np.ones((2, 3))
    assert opt.step() == 12
    params[0].grad = np.ones((2, 3))
    params[2].grad = np.full((2, 3), np.nan)
    with pytest.raises(NumericError, match="parameter p2 ") as err:
        opt.step()
    assert err.value.index == 2


def test_release_gives_each_matrix_its_own_bytes():
    a = bc.Matrix(np.ones((4, 4)), trainable=True)
    b = bc.Matrix(np.ones((4, 4)), trainable=False)
    opt = bc.make_optimizer("adam", [a, b], lr=0.1)
    arena = weakref.ref(a.data.base)
    opt.release()
    for m in (a, b):
        assert m.data.base is None
        np.testing.assert_array_equal(m.data, np.ones((4, 4)))
    a.grad = np.ones((4, 4))
    with pytest.raises(ContractError, match="rebound"):
        opt.step()
    del opt
    gc.collect()
    assert arena() is None


def reach(params, x, t, middle):
    """Grads of the sum of three losses through a real backward: p0 and p2
    each get two contributions, and p1 only when `middle` is set."""
    w0, w1, w2, w3 = params
    with bc.Tape() as tape:
        h = bc.tanh(bc.matmul(x, w0))
        if middle:
            h = bc.tanh(bc.matmul(h, w1))
        again = bc.tanh(bc.matmul(x, w0))
        loss = add(bc.mse_loss(bc.matmul(h, w2), t), bc.mse_loss(bc.matmul(again, w2), t))
        bc.backward(tape, add(loss, bc.mse_loss(bc.matmul(x, w3), t)))


@pytest.mark.parametrize("kind", sorted(REFS))
def test_backward_into_slots_matches_reference(kind):
    rng = np.random.default_rng(5)
    ref_params, params = twin_params(rng, [(4, 3), (3, 3), (3, 2), (4, 2)])
    ref = REFS[kind](ref_params, lr=0.05, allow_missing=True)
    opt = bc.make_optimizer(kind, params, lr=0.05, allow_missing=True)
    # p1 is first skipped with no step yet, later after steps of its own;
    # once it is frozen after its backward, so it keeps that grad in its
    # slot through the step, and the next backward adds to it
    for middle, frozen in ((False, False), (True, False), (False, False),
                           (True, True), (True, False), (False, False), (True, False)):
        x = bc.Matrix(rng.standard_normal((5, 4)))
        t = bc.Matrix(rng.standard_normal((5, 2)))
        reach(ref_params, x, t, middle)
        reach(params, x, t, middle)
        params[1].trainable = ref_params[1].trainable = not frozen
        for p, q in zip(params, ref_params):
            assert (p.grad is None) == (q.grad is None)
            if p.grad is not None:
                assert p.grad is p._slot
                assert p.grad.tobytes() == q.grad.tobytes()
        kept = params[1].data.tobytes()
        assert opt.step() == ref.step()
        for p, q in zip(params, ref_params):
            assert p.data.tobytes() == q.data.tobytes()
        if frozen:
            assert params[1].data.tobytes() == kept
            assert params[1].grad is params[1]._slot
            assert params[1].grad.tobytes() == ref_params[1].grad.tobytes()
            params[1].trainable = ref_params[1].trainable = True


@pytest.mark.parametrize("kind", ["moelora", "branchlora"])
def test_backward_allocates_no_grad_for_optimized_leaves(kind):
    model = bc.build_model(kind, bc.ModelConfig(width=16, classes=4, layers=2),
                           bc.AdapterHyperparams(rank=8, alpha=16.0, experts=4, top_k=2), seed=0)
    model.start_task(0)
    leaves = model.trainable_params()
    rng = np.random.default_rng(0)
    x, y = rng.standard_normal((16, 16)), rng.integers(0, 4, 16)
    zeros_like = np.zeros_like
    calls = []

    def counted(a, *args, **kwargs):
        calls.append(any(a is p.data for p in leaves))
        return zeros_like(a, *args, **kwargs)

    # one batch: the whole set, one epoch
    with mock.patch.object(np, "zeros_like", counted):
        bc.train_task(model, x, y, 0, 1, 16, 1e-3, "adam", rng)
    assert not any(calls)
    # outside an optimizer, backward still allocates each leaf's grad
    with mock.patch.object(np, "zeros_like", counted):
        with bc.Tape() as tape:
            bc.backward(tape, bc.mse_loss(bc.matmul(bc.Matrix(x), leaves[0]),
                                          bc.Matrix(np.zeros((16, leaves[0].cols)))))
    assert any(calls)


def test_release_drops_the_grad_slots():
    w = bc.Matrix(np.ones((2, 2)), trainable=True)
    x = bc.Matrix(np.arange(6.0).reshape(3, 2))

    def grad_of_loss():
        with bc.Tape() as tape:
            bc.backward(tape, bc.mse_loss(bc.matmul(x, w), x))

    opt = bc.make_optimizer("adam", [w], lr=0.1)
    grad_of_loss()
    buffer = weakref.ref(w.grad.base)
    assert w.grad is w._slot
    opt.release()
    assert w.grad is None and w._slot is None
    grad_of_loss()
    assert w.grad.base is None
    del opt
    gc.collect()
    assert buffer() is None


def test_skipped_parameter_with_a_large_stale_slot_is_unchanged():
    # p1's grad is large enough that one more step's arithmetic on it, with
    # the stale grad still in its slot or the correction of a later step
    # count, would overflow
    rng = np.random.default_rng(2)
    shapes = [(2, 2)] * 3
    ref_params, params = twin_params(rng, shapes)
    ref = RefAdam(ref_params, lr=0.05, allow_missing=True)
    opt = bc.make_optimizer("adam", params, lr=0.05, allow_missing=True)
    big = np.full((2, 2), 1.3e154)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for grads in ([None, big, None], [None, big, None],
                      [rng.standard_normal((2, 2)), None, rng.standard_normal((2, 2))],
                      [rng.standard_normal((2, 2)) for _ in shapes]):
            step_both(ref, opt, ref_params, params, grads)
