"""Per-row routing: a batch routed row by row gives what its rows give one
at a time, and `evaluate` scores a test split as the per-sample loop does."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import branchcl as bc
from branchcl.adapters import LAYERS
from branchcl.checkpoint import load_model

WIDTH = 8
CFG = bc.ModelConfig(width=WIDTH, classes=4, layers=2)
HP = bc.AdapterHyperparams(rank=8, alpha=16.0, experts=4, top_k=2)


def trained_like(kind: str, seed: int) -> bc.ContinualModel:
    """A model with every matrix moved off its initial value, so adapters,
    routers and experts all contribute; branchlora holds two tasks."""
    model = bc.build_model(kind, CFG, HP, seed)
    for tid in range(2):
        model.start_task(tid)
    rng = np.random.default_rng(seed)
    for _, m in model.all_named_matrices():
        m.data += 0.5 * rng.standard_normal(m.shape)
    return model


@pytest.mark.parametrize("kind", LAYERS)
@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**16),
    task_id=st.integers(0, 1),
    x=arrays(
        np.float64,
        st.tuples(st.integers(1, 12), st.just(WIDTH)),
        elements=st.floats(-3.0, 3.0, allow_nan=False),
    ),
)
def test_per_row_forward_equals_one_row_forwards(kind, seed, task_id, x):
    # Row i of a per-row forward routes as row i alone does: the same
    # selected branches, the same prediction. Values agree to rounding, since
    # a batch multiplies through gemm and a single row through gemv.
    model = trained_like(kind, seed)
    tid = task_id if kind == "branchlora" else None
    logits, gates = model.forward(bc.Matrix(x), tid, per_row=True)
    for i in range(x.shape[0]):
        one, one_gates = model.forward(bc.Matrix(x[i : i + 1]), tid)
        assert np.argmax(logits.data[i]) == np.argmax(one.data[0])
        np.testing.assert_allclose(logits.data[i], one.data[0], rtol=0, atol=1e-12)
        assert len(gates) == len(one_gates)
        for gate, one_gate in zip(gates, one_gates):
            np.testing.assert_array_equal(gate[i] != 0.0, one_gate[0] != 0.0)
            np.testing.assert_allclose(gate[i], one_gate[0], rtol=0, atol=1e-12)


def both_paths(model, x, tid, per_row=False):
    """The forward run on a tape, which records it, and with none."""
    taped = model.forward(bc.Matrix(x), tid, per_row, tape=bc.Tape())
    return taped, model.forward(bc.Matrix(x), tid, per_row)


@pytest.mark.parametrize("kind", LAYERS)
@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**16),
    task_id=st.integers(0, 1),
    frozen=st.lists(st.integers(0, HP.experts - 1), max_size=2, unique=True),
    per_row=st.booleans(),
    x=arrays(
        np.float64,
        st.tuples(st.integers(1, 12), st.just(WIDTH)),
        elements=st.floats(-3.0, 3.0, allow_nan=False),
    ),
)
def test_untaped_forward_is_the_taped_forward_bit_for_bit(kind, seed, task_id, frozen, per_row, x):
    # A tape only records the forward's layers, so the logits and gates are
    # the same bits, not merely close. Frozen branches change what the
    # backward computes, never what the forward does.
    model = trained_like(kind, seed)
    for layer in model.layers:
        for j in frozen if hasattr(layer, "branches") else ():
            layer.branches[j].trainable = False
    tid = task_id if kind == "branchlora" else None
    (logits, gates), (bare, bare_gates) = both_paths(model, x, tid, per_row)
    assert np.array_equal(bare.data, logits.data)
    assert len(bare_gates) == len(gates)
    for gate, bare_gate in zip(gates, bare_gates):
        assert np.array_equal(bare_gate, gate)


def assert_both_paths_raise(error, model, x, tid, match=None, per_row=False):
    with pytest.raises(error, match=match):
        model.forward(bc.Matrix(x), tid, per_row, tape=bc.Tape())
    with pytest.raises(error, match=match):
        model.forward(bc.Matrix(x), tid, per_row)


@pytest.mark.parametrize("kind", LAYERS)
def test_untaped_forward_makes_the_checks_the_ops_make(kind):
    # the same checks, with a tape to record on and without, per_row off
    # and on
    model = trained_like(kind, seed=5)
    tid = 0 if kind == "branchlora" else None
    x = np.random.default_rng(5).standard_normal((3, WIDTH))
    # x one column too narrow or too wide (a layer's own forward:
    # tests/test_tensor.py::TestContracts)
    for bad in (x[:, :-1], np.hstack([x, x[:, :1]])):
        for per_row in (False, True):
            assert_both_paths_raise(bc.DimensionError, model, bad, tid, per_row=per_row)
    if model.layers[0].routers:
        assert_both_paths_raise(bc.RoutingError, model, x, 7, match="task 7")
    # the head rebound to the wrong shape
    head = model.head.data
    model.head.data = np.ones((WIDTH - 1, CFG.classes))
    assert_both_paths_raise(bc.DimensionError, model, x, tid, match="matmul")
    model.head.data = head
    # the head is back in place, and both paths run again
    assert np.array_equal(*(out.data for out, _ in both_paths(model, x, tid)))


def per_sample_accuracy(model, task, selector):
    """The reference: every test row forwarded on its own, each routed by
    its own selected task under "auto"."""
    keys = model.keys.stack() if len(model.keys) else None
    hits = 0
    for i, row in enumerate(task.x_test):
        tid = task.task_id
        if selector == "auto" and model.kind == "branchlora":
            tid = bc.select_task(keys.scores(row[None])[0], keys)
        logits, _ = model.forward(bc.Matrix(task.x_test[i : i + 1]), tid)
        hits += int(np.argmax(logits.data[0]) == task.y_test[i])
    return hits / len(task.x_test)


def test_evaluate_matches_per_sample_loop_on_smoke_config(tmp_path):
    cfg = bc.load_config(Path(__file__).parent.parent / "configs" / "smoke.json")
    seed = cfg.seeds[0]
    bc.run_seed(cfg, seed, out_dir=tmp_path)
    s = cfg.stream
    stream = bc.generate_stream(
        tasks=s.tasks, train_samples=s.train_samples, test_samples=s.test_samples,
        dim=s.dim, classes=s.classes, seed=seed, separation=s.separation, noise=s.noise,
    )
    checked = 0
    for method in cfg.methods:
        stages = sorted((tmp_path / "checkpoints" / f"seed{seed}" / method).iterdir())
        # zero_shot and multitask save one checkpoint, after the last task
        assert len(stages) == (1 if method in ("zero_shot", "multitask") else s.tasks)
        for ckpt in stages:
            model = load_model(ckpt)
            seen = int(ckpt.name.removeprefix("task")) + 1
            for task in stream.tasks[:seen]:
                for selector in ("oracle", "auto"):
                    got = bc.evaluate(model, task, selector)
                    assert got == per_sample_accuracy(model, task, selector), (
                        method, ckpt.name, task.task_id, selector
                    )
                    checked += 1
    # every stage of lora, moelora and branchlora, the final one of the others
    assert checked == 2 * (3 * s.tasks * (s.tasks + 1) // 2 + 2 * s.tasks)
    # a split whose rows select different tasks
    mixed = bc.SyntheticTask(
        0, stream.tasks[0].x_train, stream.tasks[0].y_train,
        np.concatenate([t.x_test for t in stream.tasks]),
        np.concatenate([t.y_test for t in stream.tasks]),
        stream.tasks[0].center,
    )
    model = load_model(stages[-1].parent.parent / "branchlora" / f"task{s.tasks - 1}")
    assert bc.evaluate(model, mixed, "auto") == per_sample_accuracy(model, mixed, "auto")


@pytest.mark.parametrize("selector", ["oracle", "auto"])
@pytest.mark.parametrize("kind", ["lora", "moelora", "branchlora"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_test_input_raises_before_any_forward(kind, selector, bad):
    # argmax over NaN logits is class 0, so an unchecked split scores as if
    # every row predicted class 0
    model = trained_like(kind, seed=3)
    rng = np.random.default_rng(3)
    x = rng.standard_normal((6, WIDTH))
    x[4, 1] = x[5, 0] = bad
    task = bc.SyntheticTask(1, x, np.zeros(6, dtype=int), x, np.zeros(6, dtype=int), x[0])

    def no_forward(*args, **kwargs):
        raise AssertionError("evaluate ran a forward on a non-finite split")

    model.forward = no_forward
    with pytest.raises(bc.NumericError, match="^task 1: test row 4 "):
        bc.evaluate(model, task, selector)


def test_auto_evaluate_scores_the_split_once_and_selects_per_row(monkeypatch):
    # one scoring pass per split, then one selection and one forward per row
    from branchcl import harness

    model = trained_like("branchlora", seed=4)
    rng = np.random.default_rng(4)
    x = rng.standard_normal((7, WIDTH))
    task = bc.SyntheticTask(1, x, np.zeros(7, dtype=int), x, np.zeros(7, dtype=int), x[0])
    calls = {"scores": [], "select": [], "forward": []}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name].append(args)
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(bc.StackedKeys, "scores", counted("scores", bc.StackedKeys.scores))
    monkeypatch.setattr(harness, "select_task", counted("select", harness.select_task))
    monkeypatch.setattr(bc.ContinualModel, "forward", counted("forward", bc.ContinualModel.forward))
    auto = bc.evaluate(model, task, "auto")
    assert [args[1].shape for args in calls["scores"]] == [(7, WIDTH)]
    assert len(calls["select"]) == len(calls["forward"]) == 7
    monkeypatch.undo()
    assert auto == per_sample_accuracy(model, task, "auto")


def test_zero_norm_view_under_auto_selection_names_its_row():
    # selection divides by each view's norm; the row is named before any
    # forward runs, and oracle routing, which selects nothing, still runs
    model = trained_like("branchlora", seed=3)
    x = np.random.default_rng(3).standard_normal((6, WIDTH))
    x[4, WIDTH // 2 :] = 0.0
    task = bc.SyntheticTask(1, x, np.zeros(6, dtype=int), x, np.zeros(6, dtype=int), x[0])
    assert 0.0 <= bc.evaluate(model, task, "oracle") <= 1.0

    def no_forward(*args, **kwargs):
        raise AssertionError("evaluate ran a forward before selecting every row's task")

    model.forward = no_forward
    with pytest.raises(bc.SelectorError, match="^input row 4: its text view has zero norm$"):
        bc.evaluate(model, task, "auto")
