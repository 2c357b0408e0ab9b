"""Forwards, records and backward: frozen values, gradients against finite
differences and against a chain of single ops, contracts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import branchcl as bc
from branchcl import ContractError, DimensionError, ParameterError
from branchcl.adapters import LAYERS, top_k_gate
from branchcl.tensor import activation, linear, wrap
import gradcheck
import oracles
from gradcheck import watch


def mat(rows, trainable=False):
    return bc.Matrix(np.array(rows, dtype=np.float64), trainable=trainable)


def arr(rows):
    return np.array(rows, dtype=np.float64)


def gate(x, router, k, per_row=False):
    """The gate's values from `top_k_gate`, over array-likes."""
    return top_k_gate(arr(x), arr(router), k, per_row)[0]


def gate_of(scores, k=None):
    """The gate over a given score row: x = [[1]] and the row as router."""
    router = arr(scores)
    return gate([[1.0]], router, router.shape[1] if k is None else k)


def layer_with(cls, w, values, experts=1, top_k=1, scaling=1.0):
    """A layer of kind cls over the backbone w, with task 0 started, whose
    other matrices take the given values in `named_matrices` order. The
    second value is a B, and each of the layer's ``experts`` B matrices
    has its rows."""
    w = arr(w)
    rank = arr(values[1]).shape[0] * experts
    hp = bc.AdapterHyperparams(rank=rank, alpha=scaling * rank, experts=experts, top_k=top_k)
    rng = np.random.default_rng(0)
    layer = cls.init(rng, *w.shape, hp, backbone=bc.Matrix(w))
    layer.start_task(0, rng)
    for (_, m), v in zip(layer.named_matrices()[1:], values, strict=True):
        m.data = arr(v)
    return layer


def layer_of(cls, d_in, d_out, rank, experts, top_k, rng):
    """A layer whose every trainable matrix is drawn afresh (no B at
    zero), with task 0 started."""
    hp = bc.AdapterHyperparams(rank=rank, alpha=1.5 * rank, experts=experts, top_k=top_k)
    layer = cls.init(rng, d_in, d_out, hp)
    layer.start_task(0, rng)
    for _, m in layer.params():
        m.data = rng.standard_normal(m.shape)
    return layer


def mse_backward(layer, x, target, task_id=0, per_row=False):
    """One backward of mse(layer(watch(x)), target): x's grad is the
    layer's dx."""
    tape = bc.Tape()
    h, _ = layer.forward(watch(x, tape), task_id, per_row, tape)
    bc.backward(tape, bc.mse_loss(wrap(h), mat(target), tape))


class TestValues:
    def test_matmul(self):
        np.testing.assert_allclose(linear(arr([[1.0, 2.0]]), arr([[3.0], [4.0]])), [[11.0]])

    def test_tanh(self):
        out = activation(arr([[0.5, 0.0]]))
        np.testing.assert_allclose(out, [[0.46211715726000974, 0.0]], rtol=0, atol=1e-15)
        # a model applies it between its layers, not after the last
        model = bc.build_model("zero_shot", bc.ModelConfig(width=4, classes=3, layers=2),
                               bc.AdapterHyperparams(rank=2, experts=1, top_k=1), seed=0)
        x = np.random.default_rng(0).standard_normal((3, 4))
        w0, w1 = (layer.backbone.data for layer in model.layers)
        logits, _ = model.forward(bc.Matrix(x))
        assert logits.data.tobytes() == (np.tanh(x @ w0) @ w1 @ model.head.data).tobytes()

    def test_row_softmax(self):
        # with k = N the gate is the plain softmax of the scores
        out = gate_of([[0.4, 0.0]])
        np.testing.assert_allclose(out, [[0.598687660112452, 0.401312339887548]], rtol=0, atol=1e-15)
        assert out.sum() == pytest.approx(1.0, abs=1e-15)

    def test_row_softmax_shift_invariant(self):
        x = [[700.0, 701.0, 699.0]]
        out = gate_of(x)
        ref = gate_of((np.array(x) - 700.0).tolist())
        np.testing.assert_allclose(out, ref, atol=1e-15)
        assert np.all(np.isfinite(out))

    def test_topk_mask_values(self):
        # exact zeros outside the top k; softmax over the kept scores
        out = gate_of([[3.0, 1.0, 2.0, 2.0]], k=2)
        assert out[0, 1] == 0.0 and out[0, 3] == 0.0
        np.testing.assert_allclose(
            out[0, [0, 2]], oracles.softmax_oracle([3.0, 2.0]), rtol=0, atol=1e-15
        )

    def test_topk_mask_tie_prefers_lowest_index(self):
        np.testing.assert_array_equal(gate_of([[1.0, 1.0, 1.0]], k=1), [[1.0, 0.0, 0.0]])
        np.testing.assert_array_equal(gate_of([[1.0, 1.0, 1.0]], k=2), [[0.5, 0.5, 0.0]])

    def test_topk_mask_full_width_keeps_everything(self):
        x = [[0.3, -0.7, 0.1]]
        out = gate_of(x, k=3)
        assert np.all(out > 0.0)
        np.testing.assert_allclose(out[0], oracles.softmax_oracle(x[0]), rtol=0, atol=1e-15)

    def test_router_gate_reads_only_row_zero(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((3, 4))
        router = rng.standard_normal((4, 5))
        np.testing.assert_array_equal(gate(x, router, 2), gate(x[:1], router, 2))

    def test_router_gate_matches_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            k = int(rng.integers(1, n + 1))
            x = rng.standard_normal((int(rng.integers(1, 4)), 6))
            router = rng.standard_normal((6, n))
            out = gate(x, router, k)
            ref = oracles.gate_oracle(x, router, k)
            np.testing.assert_allclose(out[0], ref, rtol=0, atol=1e-15)
            assert np.count_nonzero(out) == k

    def test_router_gate_per_row_matches_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            k = int(rng.integers(1, n + 1))
            x = rng.standard_normal((int(rng.integers(1, 6)), 6))
            router = rng.standard_normal((6, n))
            out = gate(x, router, k, per_row=True)
            assert out.shape == (x.shape[0], n)
            ref = oracles.gate_rows_oracle(x, router, k)
            np.testing.assert_allclose(out, ref, rtol=0, atol=1e-14)
            np.testing.assert_array_equal(out != 0.0, ref != 0.0)
            np.testing.assert_array_equal(np.count_nonzero(out, axis=1), k)

    def test_router_gate_per_row_of_one_row_is_the_shared_gate(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((1, 4))
        router = rng.standard_normal((4, 5))
        for k in range(1, 6):
            np.testing.assert_array_equal(gate(x, router, k, per_row=True), gate(x, router, k))

    def test_router_gate_per_row_ties_prefer_lowest_index(self):
        # row scores [1, 1, 1] and [0, 3, 3]: each row keeps its own lowest tied columns
        router = [[1.0, 1.0, 1.0], [0.0, 3.0, 3.0]]
        eye = np.eye(2)
        np.testing.assert_array_equal(
            gate(eye, router, 1, per_row=True), [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
        )
        np.testing.assert_array_equal(
            gate(eye, router, 2, per_row=True), [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5]]
        )

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_router_gate_matches_oracle_under_ties(self, data):
        # Scores from five integers tie often. x is the identity, so row i
        # of the router is row i's scores, exactly.
        rows = data.draw(st.integers(1, 5), label="rows")
        n = data.draw(st.integers(1, 6), label="columns")
        k = data.draw(st.integers(1, n), label="k")
        per_row = data.draw(st.booleans(), label="per_row")
        scores = data.draw(
            arrays(np.float64, (rows, n), elements=st.integers(-2, 2).map(float)), label="scores"
        )
        x = np.eye(rows)
        out = gate(x, scores, k, per_row=per_row)
        ref = oracles.gate_rows_oracle(x if per_row else x[:1], scores, k)
        assert out.shape == ref.shape
        np.testing.assert_array_equal(out != 0.0, ref != 0.0)
        # the oracle sums the kept entries in descending order, the gate
        # in column order: the values may differ in the last bit
        np.testing.assert_allclose(out, ref, rtol=1e-15, atol=0.0)

    @staticmethod
    def assert_one_row_gate_is_a_blocks_first_row(scores, second):
        """One scored row takes its largest score with Python's max, a block
        of two rows with a numpy reduction per row. x is one column and its
        first entry 1.0, so the first row's scores are the router's row."""
        n = scores.shape[1]
        # a NaN or +inf score, or a row of -inf, makes the whole row NaN
        nan_row = bool(np.isnan(scores).any() or np.isposinf(scores).any()
                       or np.isneginf(scores).all())
        for k in range(1, n + 1):
            with np.errstate(all="ignore"):  # inf - inf and 0 * inf are NaN
                one, one_mask = top_k_gate(arr([[1.0]]), scores, k)
                block, block_mask = top_k_gate(arr([[1.0], [second]]), scores, k, per_row=True)
            assert np.array_equal(one, block[:1], equal_nan=True)
            assert (one_mask is None) == (block_mask is None) == (k == n)
            if one_mask is not None:
                assert np.array_equal(one_mask, block_mask[:1])
            assert np.isnan(one).all() == nan_row

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_one_row_gate_is_the_bits_of_a_blocks_first_row(self, data):
        # a few values, both zeros among them, give ties
        n = data.draw(st.integers(1, 6), label="columns")
        score = st.one_of(st.sampled_from([-1.0, -0.0, 0.0, 1.0, 2.0]), st.floats())
        scores = data.draw(arrays(np.float64, (1, n), elements=score), label="scores")
        second = data.draw(st.floats(-2.0, 2.0), label="second row's x")
        self.assert_one_row_gate_is_a_blocks_first_row(scores, second)

    @pytest.mark.parametrize("scores", [
        [0.0, -0.0], [-0.0, 0.0, 1.0, 1.0], [np.nan, 1.0], [np.inf, 0.0],
        [-np.inf, 0.0], [-np.inf], [-np.inf, -np.inf],
    ])
    def test_one_row_gate_at_signed_zeros_and_non_finite_scores(self, scores):
        self.assert_one_row_gate_is_a_blocks_first_row(arr([scores]), -1.5)

    def test_adapter_weighs_each_gated_pair(self):
        # x = [[1]] and A = [[1]]: each B row is weighted by its gate entry,
        # softmax([0, log 3]) = [0.25, 0.75]
        layer = layer_with(bc.BranchLoRALayer, [[0.0, 0.0]],
                           [[[1.0]], [[4.0, 0.0]], [[0.0, 4.0]], [[0.0, np.log(3.0)]]],
                           experts=2, top_k=2)
        out, g = layer.forward(arr([[1.0]]), 0)
        np.testing.assert_allclose(g, [[0.25, 0.75]])
        np.testing.assert_allclose(out, [[1.0, 3.0]])

    def test_adapter_matches_oracles(self):
        # ungated: LoRA; distinct A with a dense gate: MoELoRA; shared A with
        # a top-k gate, whose zero columns never run: BranchLoRA
        rng = np.random.default_rng(7)
        for _ in range(25):
            x = rng.standard_normal((3, 5))
            w = rng.standard_normal((5, 4))
            s = float(rng.uniform(0.5, 3.0))
            a = [rng.standard_normal((5, 2)) for _ in range(4)]
            b = [rng.standard_normal((2, 4)) for _ in range(4)]
            router = rng.standard_normal((5, 4))
            lora = layer_with(bc.LoRALayer, w, [a[0], b[0]], scaling=s)
            out, _ = lora.forward(x)
            want = oracles.lora_forward_oracle(x, w, a[0], b[0], lora.hp.scaling)
            np.testing.assert_allclose(out, want, rtol=0, atol=1e-12)
            experts = [m for pair in zip(a, b) for m in pair]
            moe = layer_with(bc.MoELoRALayer, w, [*experts, router], experts=4, scaling=s)
            out, _ = moe.forward(x)
            want, _ = oracles.moe_forward_oracle(x, w, list(zip(a, b)), router, moe.hp.scaling)
            np.testing.assert_allclose(out, want, rtol=0, atol=1e-12)
            for k in (1, 2, 3):
                branch = layer_with(bc.BranchLoRALayer, w, [a[0], *b, router], experts=4,
                                    top_k=k, scaling=s)
                out, _ = branch.forward(x, 0)
                want, _ = oracles.branch_forward_oracle(
                    x, w, a[0], b, router, k, branch.hp.scaling
                )
                np.testing.assert_allclose(out, want, rtol=0, atol=1e-12)

    def test_adapter_per_row_gate_matches_row_by_row(self):
        # a B x N gate weights row i of every term by gate row i, as the
        # layer over row i alone with a one-row gate does; with one A per
        # B (MoELoRA) and with a shared A and top-k zero columns (BranchLoRA)
        rng = np.random.default_rng(8)
        for _ in range(25):
            x = rng.standard_normal((3, 5))
            for cls, k in ((bc.MoELoRALayer, 4), (bc.BranchLoRALayer, 2)):
                layer = layer_of(cls, 5, 2, 8, 4, k, rng)
                rows, g = layer.forward(x, 0, per_row=True)
                assert g.shape == (3, 4)
                for i in range(3):
                    one, _ = layer.forward(x[i : i + 1], 0)
                    np.testing.assert_allclose(rows[i], one[0], rtol=0, atol=1e-12)

    def test_cross_entropy(self):
        out = bc.cross_entropy(mat([[1.0, 2.0, 3.0]]), np.array([2]))
        assert out.item() == pytest.approx(0.40760596444438013, abs=1e-15)

    def test_cross_entropy_batch_mean(self):
        logits = np.array([[1.0, 2.0, 3.0], [3.0, 2.0, 1.0]])
        labels = np.array([2, 0])
        out = bc.cross_entropy(mat(logits.tolist()), labels)
        assert out.item() == pytest.approx(oracles.cross_entropy_oracle(logits, labels))

    def test_mse_loss(self):
        out = bc.mse_loss(mat([[1.0, 2.0], [3.0, 4.0]]), mat([[0.0, 2.0], [3.0, 2.0]]))
        assert out.item() == pytest.approx(1.25)


class TestContracts:
    def test_matrix_rejects_non_2d(self):
        with pytest.raises(DimensionError):
            bc.Matrix(np.zeros(3))
        with pytest.raises(DimensionError):
            bc.Matrix(np.zeros((2, 0)))

    def test_matmul_shape_mismatch(self):
        with pytest.raises(DimensionError, match="^matmul: inner dimensions differ, 1x2 @ 1x2$"):
            linear(arr([[1.0, 2.0]]), arr([[1.0, 2.0]]))

    def test_topk_k_out_of_range(self):
        with pytest.raises(ParameterError):
            gate_of([[1.0, 2.0]], k=0)
        with pytest.raises(ParameterError):
            gate_of([[1.0, 2.0]], k=3)

    def test_router_gate_width_mismatch(self):
        with pytest.raises(DimensionError):
            gate([[1.0, 2.0]], [[1.0, 2.0]], 1)

    def test_adapter_shapes_must_chain_and_w_be_constant(self):
        # x too wide, an A of the wrong height, a B that does not follow its
        # A, a B of the wrong width; then a trainable backbone
        x = np.ones((1, 2))
        rng = np.random.default_rng(0)
        for cls in (bc.LoRALayer, bc.MoELoRALayer, bc.BranchLoRALayer):
            layer = layer_of(cls, 2, 3, 2, 2, 1, rng)
            assert layer.forward(x, 0)[0].shape == (1, 3)
            with pytest.raises(DimensionError):
                layer.forward(np.ones((1, 3)), 0)
            a, b = (m for _, m in layer.named_matrices()[1:3])
            for m, shape in ((a, (3, a.cols)), (b, (b.rows + 1, 3)), (b, (b.rows, 2))):
                kept, m.data = m.data, np.ones(shape)
                with pytest.raises(DimensionError, match="^adapter: shapes do not chain"):
                    layer.forward(x, 0)
                m.data = kept
            layer.backbone.trainable = True
            with pytest.raises(ContractError, match="w must be a constant"):
                layer.forward(x, 0)

    def test_cross_entropy_label_validation(self):
        with pytest.raises(DimensionError):
            bc.cross_entropy(mat([[1.0, 2.0]]), np.array([0, 1]))
        with pytest.raises(ParameterError):
            bc.cross_entropy(mat([[1.0, 2.0]]), np.array([2]))
        with pytest.raises(ParameterError):
            bc.cross_entropy(mat([[1.0, 2.0]]), np.array([-1]))
        # a negative label among valid ones, a label equal to the column
        # count, and a strided view of labels: each message names the true
        # min and max
        logits = mat(np.zeros((3, 4)))
        labels = np.array([5, 3, -2, 0, 9, 1])
        for y, lo, hi in (([0, -3, 2], -3, 2), ([4, 0, 3], 0, 4), (labels[::2], -2, 9)):
            with pytest.raises(ParameterError, match=rf"^cross_entropy: labels must lie in \[0, 4\), got \[{lo}, {hi}\]$"):
                bc.cross_entropy(logits, np.asarray(y))
        assert bc.cross_entropy(logits, labels[1::2]).item() == pytest.approx(np.log(4.0))

    def test_backward_requires_scalar_loss(self):
        layer = layer_of(bc.LoRALayer, 2, 3, 2, 1, 1, np.random.default_rng(0))
        tape = bc.Tape()
        h, _ = layer.forward(np.ones((1, 2)), tape=tape)
        with pytest.raises(ContractError, match="loss must be 1x1"):
            bc.backward(tape, wrap(h))
        assert layer.a.grad is None and layer.b.grad is None

    def test_item_requires_1x1(self):
        with pytest.raises(ContractError):
            mat([[1.0, 2.0]]).item()


class TestGradients:
    """Finite-difference spot checks; the acceptance sweep runs 100 per case."""

    @pytest.mark.parametrize("name,gen", gradcheck.OP_CASES)
    def test_against_finite_differences(self, name, gen):
        worst = 0.0
        for seed in range(5):
            rng = np.random.default_rng(31 * seed + 5)
            params, run = gen(rng)
            worst = max(worst, gradcheck.run_case(params, run))
        assert worst < 1e-4, f"{name}: rel err {worst:.3e}"

    def test_grad_accumulates_over_reuse(self):
        # a second backward before the step adds its shares, in the
        # optimizer's grad slots and without an optimizer alike
        rng = np.random.default_rng(1)
        x, target = rng.standard_normal((3, 4)), rng.standard_normal((3, 2))
        for slotted in (False, True):
            layer = layer_of(bc.MoELoRALayer, 4, 2, 4, 2, 2, rng)
            params = [m for _, m in layer.params()]
            if slotted:
                bc.make_optimizer("sgd", layer.params())
            grads = []
            for _ in range(2):
                mse_backward(layer, bc.Matrix(x), target)
                grads.append([m.grad.copy() for m in params])
            for m, once, twice in zip(params, *grads):
                assert twice.tobytes() == (once + once).tobytes()
                assert (m.grad is m._slot) == slotted

    @pytest.mark.parametrize("slotted", [False, True])
    @pytest.mark.parametrize("kind", ["lora", "moelora", "branchlora"])
    def test_two_tapes_backward_as_if_alone(self, kind, slotted):
        # A forward appends only to the tape it is handed, so two forwards
        # may run before either backward: each backward then gives the
        # gradient bits of its forward and backward run alone, in either
        # order. The two batches differ in rows and in per_row, and
        # branchlora's route by two tasks' routers.
        rng = np.random.default_rng(16)
        hp = bc.AdapterHyperparams(rank=8, alpha=12.0, experts=4, top_k=2)
        model = bc.build_model(kind, bc.ModelConfig(width=6, classes=3, layers=2), hp, seed=3)
        model.start_task(0)
        model.start_task(1)
        for layer in model.layers:
            for _, m in layer.params():
                m.data = rng.standard_normal(m.shape)
        if slotted:  # shares are computed straight into the optimizer's grad slots
            opt = bc.make_optimizer("sgd", model.trainable_params(), allow_missing=True)
        params = [m for _, m in model.trainable_params()]
        tids = (0, 1) if model.layers[0].routers else (None, None)
        batches = [
            (bc.Matrix(rng.standard_normal((rows, 6))), rng.integers(0, 3, size=rows), tid, per_row)
            for rows, tid, per_row in zip((5, 4), tids, (False, True))
        ]

        def forward(x, y, tid, per_row):
            tape = bc.Tape()
            logits, _ = model.forward(x, tid, per_row, tape)
            return tape, bc.cross_entropy(logits, y, tape)

        def take_grads():
            assert all(m.grad is None or (m.grad is m._slot) == slotted for m in params)
            out = [None if m.grad is None else m.grad.tobytes() for m in params]
            for m in params:
                m.grad = None
            return out

        alone = []
        for batch in batches:
            bc.backward(*forward(*batch))
            alone.append(take_grads())
        assert alone[0] != alone[1]
        assert all(g is not None for g in alone[0] + alone[1] if kind != "branchlora")
        for order in ((0, 1), (1, 0)):
            runs = [forward(*batch) for batch in batches]
            for i in order:
                bc.backward(*runs[i])
                assert take_grads() == alone[i]
        if slotted:
            opt.release()

    def test_untouched_leaf_keeps_none_grad(self):
        # only the branches the gate selects, and that are not frozen, get
        # a grad; an unreached matrix keeps the grad it had, None or not
        rng = np.random.default_rng(2)
        layer = layer_of(bc.BranchLoRALayer, 4, 3, 4, 4, 1, rng)
        layer.start_task(1, rng)
        x = rng.standard_normal((5, 4))
        chosen = int(np.argmax(layer.gate_for(x, 0)[0][0]))
        others = [j for j in range(4) if j != chosen]
        layer.branches[others[0]].trainable = False
        kept = layer.branches[others[1]].grad = np.ones((1, 3))
        mse_backward(layer, bc.Matrix(x), np.zeros((5, 3)))
        assert layer.branches[chosen].grad is not None
        assert layer.branches[others[0]].grad is None
        assert layer.branches[others[1]].grad is kept
        assert layer.branches[others[2]].grad is None
        assert layer.routers[1].grad is None
        assert layer.routers[0].grad is not None and layer.a_shared.grad is not None

    def test_topk_masked_entries_get_zero_grad(self):
        # k = 2 of row 0's scores [2, -3, 4]: the masked column's router
        # entries get exactly zero and its branch no grad. The target equals
        # the output on row 1, so a gate share that leaked below row 0, the
        # only scored row, would show in x's grad there
        rng = np.random.default_rng(3)
        layer = layer_of(bc.BranchLoRALayer, 2, 2, 3, 3, 2, rng)
        layer.routers[0].data = arr([[3.0, 1.0, 2.0], [0.5, 2.0, -1.0]])
        x = mat([[1.0, -2.0], [5.0, 7.0]], trainable=True)
        h, _ = layer.forward(x.data, 0)
        target = h.copy()
        target[0] += 1.0
        mse_backward(layer, x, target)
        router = layer.routers[0].grad
        np.testing.assert_array_equal(router[:, 1], [0.0, 0.0])
        assert np.all(router[:, [0, 2]] != 0.0)
        assert layer.branches[1].grad is None
        assert np.all(x.grad[0] != 0.0)
        np.testing.assert_array_equal(x.grad[1], [0.0, 0.0])

    def test_router_gate_per_row_grads_reach_every_row(self):
        # per row, the gradients are those of that row forwarded on its own;
        # the router's and each branch's are their sum. The batch's loss is
        # the mean of the rows' losses, so its grads are 1/4 of the sums
        rng = np.random.default_rng(13)
        x = rng.standard_normal((4, 5))
        target = rng.standard_normal((4, 6))
        layer = layer_of(bc.BranchLoRALayer, 5, 6, 6, 6, 3, rng)
        params = [m for _, m in layer.params()]
        xs = bc.Matrix(x, trainable=True)
        mse_backward(layer, xs, target, per_row=True)
        batch = [None if m.grad is None else 4.0 * m.grad for m in params]
        sums = [np.zeros(m.shape) for m in params]
        for i in range(4):
            for m in params:
                m.grad = None
            xi = bc.Matrix(x[i : i + 1], trainable=True)
            mse_backward(layer, xi, target[i : i + 1])
            np.testing.assert_allclose(4.0 * xs.grad[i], xi.grad[0], rtol=0, atol=1e-12)
            assert np.all(xs.grad[i] != 0.0)
            for total, m in zip(sums, params):
                if m.grad is not None:
                    total += m.grad
        for got, total in zip(batch, sums):
            np.testing.assert_allclose(0.0 if got is None else got, total, rtol=0, atol=1e-12)

    def test_cross_entropy_grad_matches_recomputed_softmax_exactly(self):
        # the backward reuses the forward's exponentials; the gradient is
        # bit-identical to recomputing the softmax from the logits
        rng = np.random.default_rng(14)
        for rows, cols in ((1, 2), (5, 3), (32, 8)):
            z = rng.standard_normal((rows, cols)) * 3.0
            labels = rng.integers(0, cols, size=rows)
            logits = mat(z, trainable=True)
            tape = bc.Tape()
            bc.backward(tape, bc.cross_entropy(wrap(watch(logits, tape)), labels, tape))
            p = np.exp(z - z.max(axis=1, keepdims=True))
            p /= p.sum(axis=1, keepdims=True)
            p[np.arange(rows), labels] -= 1.0
            np.testing.assert_array_equal(logits.grad, p / rows)

    def test_adapter_zero_gate_column_gets_no_grad(self):
        # branch 1 scores lowest in every row, so with k = 2 of 3 it is 0.0
        # in every gate row, shared or per row: it never runs, its branch
        # gets no grad and its router column exactly zero
        rng = np.random.default_rng(4)
        layer = layer_of(bc.BranchLoRALayer, 2, 2, 3, 3, 2, rng)
        layer.routers[0].data = arr([[1.0, -5.0, 2.0], [2.0, -5.0, 1.0]])
        x = np.abs(rng.standard_normal((3, 2))) + 0.5
        for per_row in (False, True):
            for _, m in layer.params():
                m.grad = None
            mse_backward(layer, bc.Matrix(x), np.zeros((3, 2)), per_row=per_row)
            assert layer.branches[1].grad is None
            np.testing.assert_array_equal(layer.routers[0].grad[:, 1], [0.0, 0.0])
            assert np.all(layer.routers[0].grad[:, [0, 2]] != 0.0)
            assert layer.branches[0].grad is not None and layer.branches[2].grad is not None

    def test_adapter_runs_every_nonzero_column(self):
        # a tiny weight still runs its term and trains its B; NaN propagates
        one = np.ones((1, 1))
        experts = [[[1.0]], [[1.0]], [[1.0]], [[2.0]], [[1.0]], [[4.0]]]
        layer = layer_with(bc.MoELoRALayer, [[0.0]], [*experts, [[0.0, 0.0, -27.0]]],
                           experts=3, top_k=3)
        out, g = layer.forward(one)
        assert 0.0 < g[0, 2] < 1e-11
        g0, g1, g2 = g[0].tolist()
        assert out[0, 0] == g0 + 2.0 * g1 + 4.0 * g2 != g0 + 2.0 * g1
        mse_backward(layer, bc.Matrix(one), np.zeros((1, 1)))
        assert layer.experts[2][1].grad[0, 0] != 0.0
        layer.router.data = arr([[0.0, 0.0, np.nan]])
        assert np.isnan(layer.forward(one)[0][0, 0])

    def test_adapter_grads_match_op_chain_exactly(self):
        for kind, per_row in (("lora", False), ("moelora", False), ("moelora", True),
                              ("branchlora", False), ("branchlora", True)):
            for x_kind in ("leaf", "op_output", "constant"):
                self._check_layer_against_op_chain(kind, per_row, x_kind)

    @staticmethod
    def _check_layer_against_op_chain(kind, per_row, x_kind):
        # The layer's backward sums in the order of the chain of single
        # products, weighings and sums that `oracles.adapter_chain` builds:
        # the gate first, the backbone term last on the tape, so first on
        # replay. Each gate mode: none (LoRA), one shared row and one row
        # per row of x, a dense gate with one A per expert (MoELoRA) and a
        # top-1 gate with a shared A and branch 1 frozen (BranchLoRA). x is
        # a leaf, the output of a tanh (a deeper layer's input) or a
        # constant (the first layer, which gets no dx). The layer's
        # matrices hold optimizer grad slots, so their shares are computed
        # straight into them.
        rng = np.random.default_rng(15)
        cls = LAYERS[kind]
        layer = layer_of(cls, 5, 4, 8, 4, 1, rng)
        if kind == "branchlora":
            layer.branches[1].trainable = False
        bc.make_optimizer("sgd", layer.params(), allow_missing=True)
        x0 = rng.standard_normal((6, 5))
        named = dict(layer.named_matrices())
        leaf = mat(x0, trainable=True)
        tape = bc.Tape()
        x = x0 if x_kind == "constant" else watch(leaf, tape)
        if x_kind == "op_output":
            x = activation(x, tape)
        h, g = layer.forward(x, 0, per_row, tape)
        bc.backward(tape, bc.mse_loss(wrap(activation(h, tape)), mat(np.zeros(h.shape)), tape))

        nodes = {name: oracles.Node(m.data, m.trainable) for name, m in named.items()}
        a = [nodes[n] for n in named if n == "A" or n.endswith(".A")]
        bs = [n for n in named if n == "B" or n.endswith(".B") or n.startswith("branch")]
        router = nodes.get("router", nodes.get("router.task0"))
        k = None if router is None else layer.hp.experts if kind == "moelora" else 1
        ref_leaf = oracles.Node(x0, trainable=x_kind != "constant")
        with oracles.RefTape() as ref_tape:
            ref_x = oracles.ref_tanh(ref_leaf) if x_kind == "op_output" else ref_leaf
            ref_h = oracles.adapter_chain(
                ref_x, nodes["backbone"], a, [nodes[n] for n in bs], layer.hp.scaling,
                router, k, per_row,
            )
            oracles.ref_backward(ref_tape, oracles.ref_mse_loss(oracles.ref_tanh(ref_h), 0.0))

        pairs = [(leaf.grad, ref_leaf.grad)] + [(m.grad, nodes[n].grad) for n, m in named.items()]
        for got, want in pairs:
            assert (got is None) == (want is None)
            if got is not None:
                assert got.tobytes() == want.tobytes()
        assert (leaf.grad is None) == (x_kind == "constant")
        assert all(m.grad is None or m.grad is m._slot for m in named.values())
        # a B gets a grad only if its gate column is nonzero in some row
        live = [True] if g is None else (g != 0.0).any(axis=0)
        assert [named[n].grad is not None for n in bs] == [
            bool(on) and named[n].trainable for n, on in zip(bs, live)
        ]
        if kind == "branchlora" and not per_row:
            assert not all(live)  # a top-1 row leaves branches that never run


class TestOptim:
    """The optimizer steps on the grads a backward leaves; see also
    test_optim.py."""

    @staticmethod
    def square_grad(p):
        """p's grad from the loss mean(p^2), 2p / size, by a backward."""
        tape = bc.Tape()
        bc.backward(tape, bc.mse_loss(wrap(watch(p, tape)), mat(np.zeros(p.shape)), tape))

    def test_sgd_step(self):
        p = mat([[1.0]], trainable=True)
        opt = bc.make_optimizer("sgd", [("p", p)], lr=0.1)
        self.square_grad(p)
        n = opt.step()
        assert n == 1
        assert p.data[0, 0] == pytest.approx(0.8)

    def test_adam_first_step_is_signed_lr(self):
        p = mat([[1.0]], trainable=True)
        opt = bc.make_optimizer("adam", [("p", p)], lr=0.1)
        self.square_grad(p)
        opt.step()
        # first step: m_hat = g, v_hat = g^2, so the move is lr * g / (|g| + eps)
        assert p.data[0, 0] == pytest.approx(0.9, abs=1e-8)

    def test_missing_grad_raises_unless_allowed(self):
        p = mat([[1.0]], trainable=True)
        q = mat([[1.0]], trainable=True)
        for kind in ("sgd", "adam"):
            self.square_grad(p)
            strict = bc.make_optimizer(kind, [("p", p), ("q", q)], lr=0.1)
            with pytest.raises(ContractError, match=f"^{kind}: trainable parameter q has no "):
                strict.step()
            p.grad = None

    def test_allow_missing_skips_and_counts(self):
        p = mat([[1.0, 1.0]], trainable=True)
        q = mat([[5.0]], trainable=True)
        opt = bc.make_optimizer("sgd", [("p", p), ("q", q)], lr=0.1, allow_missing=True)
        self.square_grad(p)
        n = opt.step()
        assert n == 2
        assert q.data[0, 0] == 5.0

    def test_adam_bias_correction_is_per_parameter(self):
        # q first receives a gradient on the optimizer's second step; its
        # update must match a fresh Adam taking its first step.
        p = mat([[1.0]], trainable=True)
        q = mat([[1.0]], trainable=True)
        opt = bc.make_optimizer("adam", [("p", p), ("q", q)], lr=0.1, allow_missing=True)
        self.square_grad(p)
        opt.step()
        self.square_grad(p)
        self.square_grad(q)
        q_grad = q.grad.copy()
        opt.step()

        fresh_q = mat([[1.0]], trainable=True)
        fresh = bc.make_optimizer("adam", [("q", fresh_q)], lr=0.1)
        fresh_q.grad = q_grad
        fresh.step()
        assert q.data[0, 0] == fresh_q.data[0, 0]

    def test_bad_lr_and_kind(self):
        p = mat([[1.0]], trainable=True)
        with pytest.raises(ParameterError):
            bc.make_optimizer("sgd", [("p", p)], lr=0.0)
        with pytest.raises(ParameterError):
            bc.make_optimizer("rmsprop", [("p", p)])
