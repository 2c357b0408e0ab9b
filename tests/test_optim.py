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
from branchcl.adapters import draw_backbone
from branchcl.tensor import wrap
from oracles import RefAdam, RefSgd, named

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
        [bc.Matrix(a, trainable=True) for a in init] for _ in range(2)
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
        opt = bc.make_optimizer(kind, named(params), lr=0.05, allow_missing=allow_missing)
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
    opt = bc.make_optimizer(kind, named(params), lr=0.01, allow_missing=True)
    for has_grad in ([1, 1, 1], [0, 1, 1], [1, 0, 1], [1, 1, 1], [0, 0, 1]):
        grads = [rng.standard_normal(s) if on else None for s, on in zip(shapes, has_grad)]
        step_both(ref, opt, ref_params, params, grads)


def test_params_are_views_of_one_buffer():
    rng = np.random.default_rng(0)
    params = [bc.Matrix(rng.standard_normal(s), trainable=True) for s in ((3, 4), (1, 7), (5, 2))]
    values = [p.data.copy() for p in params]
    opt = bc.make_optimizer("adam", named(params), lr=0.1)
    assert opt.params == params
    arena = params[0].data.base
    assert arena is not None and arena.ndim == 1 and arena.size == 12 + 7 + 10
    for p, v in zip(params, values):
        assert p.data.base is arena
        np.testing.assert_array_equal(p.data, v)


@pytest.mark.parametrize("lr", [0.0, -0.1, float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("cls", [bc.Adam, bc.Sgd])
def test_lr_must_be_positive_and_finite(cls, lr):
    p = bc.Matrix(np.ones((1, 1)), trainable=True)
    match = rf"^{cls.kind}: lr must be positive and finite, got {lr}$"
    with pytest.raises(bc.ParameterError, match=match):
        cls([("p", p)], lr=lr)


def test_same_matrix_twice_is_rejected():
    p = bc.Matrix(np.ones((2, 2)), trainable=True)
    q = bc.Matrix(np.ones((1, 1)), trainable=True)
    for kind in sorted(REFS):
        with pytest.raises(ContractError, match="parameter again is listed twice"):
            bc.make_optimizer(kind, [("p", p), ("q", q), ("again", p)])


def test_rebound_data_is_rejected():
    p = bc.Matrix(np.ones((2, 2)), trainable=True)
    opt = bc.make_optimizer("sgd", [("moved", p)], lr=0.1)
    p.data = np.zeros((2, 2))
    p.grad = np.ones((2, 2))
    with pytest.raises(ContractError, match="moved"):
        opt.step()


@pytest.mark.parametrize("kind", sorted(REFS))
def test_non_finite_update_raises_naming_the_first_matrix(kind):
    params = [bc.Matrix(np.ones((2, 3)), trainable=True) for _ in range(3)]
    opt = bc.make_optimizer(kind, named(params), lr=0.1)
    params[0].grad = np.ones((2, 3))
    params[1].grad = np.full((2, 3), np.nan)
    params[2].grad = np.full((2, 3), np.nan)
    with pytest.raises(NumericError, match="^tensor p1 holds a non-finite value after"):
        opt.step()


@pytest.mark.parametrize("kind", sorted(REFS))
def test_skipped_non_finite_parameter_is_not_named(kind):
    params = [bc.Matrix(np.ones((2, 3)), trainable=True) for _ in range(3)]
    params[1].data[0, 0] = np.inf
    params[1].trainable = False
    opt = bc.make_optimizer(kind, named(params), lr=0.1)
    params[0].grad = np.ones((2, 3))
    params[2].grad = np.ones((2, 3))
    assert opt.step() == 12
    params[0].grad = np.ones((2, 3))
    params[2].grad = np.full((2, 3), np.nan)
    with pytest.raises(NumericError, match="^tensor p2 "):
        opt.step()


@pytest.mark.parametrize("kind", sorted(REFS))
def test_errors_name_the_tensor_by_its_checkpoint_name(kind):
    # both layers hold an A and a B: only the checkpoint name tells them apart
    model = bc.build_model("lora", bc.ModelConfig(width=8, classes=4, layers=2),
                           bc.AdapterHyperparams(rank=4, alpha=8.0, experts=1, top_k=1), seed=0)
    named = model.trainable_params()
    assert [name for name, _ in named] == ["layer0.A", "layer0.B", "layer1.A", "layer1.B"]
    opt = bc.make_optimizer(kind, named, lr=0.1)
    for name, m in named:
        m.grad = None if name == "layer1.A" else np.zeros(m.shape)
    with pytest.raises(ContractError, match=f"^{kind}: trainable parameter layer1.A has no grad"):
        opt.step()
    for name, m in named:
        m.grad = np.full(m.shape, np.nan if name == "layer1.B" else 0.0)
    with pytest.raises(NumericError, match="^tensor layer1.B holds a non-finite value after"):
        opt.step()
    opt.release()
    for name, m in named:
        m.trainable = name.startswith("layer1.")
        m.grad = np.zeros(m.shape)
    with pytest.raises(ContractError, match=f"^{kind}: parameter layer1.A no longer views"):
        opt.step()


def test_release_gives_each_matrix_its_own_bytes():
    a = bc.Matrix(np.ones((4, 4)), trainable=True)
    b = bc.Matrix(np.ones((4, 4)), trainable=False)
    opt = bc.make_optimizer("adam", named([a, b]), lr=0.1)
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


def reach(model, x, y):
    """Grads of one batch's cross-entropy through a real backward."""
    tape = bc.Tape()
    logits, _ = model.forward(bc.Matrix(x), 0, tape=tape)
    bc.backward(tape, bc.cross_entropy(logits, y, tape))


MODEL_CFG = bc.ModelConfig(width=16, classes=4, layers=2)
MODEL_HP = bc.AdapterHyperparams(rank=8, alpha=16.0, experts=4, top_k=2)


@pytest.mark.parametrize("kind", sorted(REFS))
def test_backward_into_slots_matches_reference(kind):
    # Twin branchlora models, one stepped by the reference rule: each batch
    # selects two of four branches per layer, so the others are skipped,
    # first with no step yet, later after steps of their own. Once a branch
    # is frozen after its backward, so it keeps that grad in its slot
    # through the step, and the next backward adds to it.
    rng = np.random.default_rng(5)
    ref_model, model = (bc.build_model("branchlora", MODEL_CFG, MODEL_HP, seed=1) for _ in range(2))
    for m in (ref_model, model):
        m.start_task(0)
    ref_params = [m for _, m in ref_model.trainable_params()]
    pairs = model.trainable_params()
    params = [m for _, m in pairs]
    ref = REFS[kind](ref_params, lr=0.05, allow_missing=True)
    opt = bc.make_optimizer(kind, pairs, lr=0.05, allow_missing=True)
    branches = [i for i, (name, _) in enumerate(pairs) if ".branch" in name]
    skipped = set()
    for frozen in (False, False, True, False, False, True, False):
        x, y = rng.standard_normal((5, 16)), rng.integers(0, 4, size=5)
        reach(ref_model, x, y)
        reach(model, x, y)
        for p, q in zip(params, ref_params):
            assert (p.grad is None) == (q.grad is None)
            if p.grad is not None:
                assert p.grad is p._slot
                assert p.grad.tobytes() == q.grad.tobytes()
        skipped.update(i for i in branches if params[i].grad is None)
        j = next(i for i in branches if params[i].grad is not None)
        params[j].trainable = ref_params[j].trainable = not frozen
        kept = params[j].data.tobytes()
        assert opt.step() == ref.step()
        for p, q in zip(params, ref_params):
            assert p.data.tobytes() == q.data.tobytes()
        if frozen:
            assert params[j].data.tobytes() == kept
            assert params[j].grad is params[j]._slot
            assert params[j].grad.tobytes() == ref_params[j].grad.tobytes()
            params[j].trainable = ref_params[j].trainable = True
    assert skipped, "every batch reached every branch"


@pytest.mark.parametrize("kind", ["moelora", "branchlora"])
def test_backward_allocates_no_grad_for_optimized_leaves(kind):
    model = bc.build_model(kind, MODEL_CFG, MODEL_HP, seed=0)
    model.start_task(0)
    leaves = [m for _, m in model.trainable_params()]
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
    # outside an optimizer, backward gives each leaf it reaches a new array
    reach(model, x, y)
    assert leaves[0].grad is not None and leaves[0].grad.base is None


def test_release_drops_the_grad_slots():
    rng = np.random.default_rng(0)
    layer = bc.LoRALayer(rng, draw_backbone(rng, 2, 2), MODEL_HP)
    w = layer.b
    x = np.arange(6.0).reshape(3, 2)

    def grad_of_loss():
        tape = bc.Tape()
        h, _ = layer.forward(x, tape=tape)
        bc.backward(tape, bc.mse_loss(wrap(h), bc.Matrix(x), tape))

    opt = bc.make_optimizer("adam", [("w", w)], lr=0.1)
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
    opt = bc.make_optimizer("adam", named(params), lr=0.05, allow_missing=True)
    big = np.full((2, 2), 1.3e154)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for grads in ([None, big, None], [None, big, None],
                      [rng.standard_normal((2, 2)), None, rng.standard_normal((2, 2))],
                      [rng.standard_normal((2, 2)) for _ in shapes]):
            step_both(ref, opt, ref_params, params, grads)
