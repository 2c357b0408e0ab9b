"""Ops: frozen values, gradients against finite differences, contracts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import branchcl as bc
from branchcl import ContractError, DimensionError, ParameterError
import gradcheck
import oracles


def mat(rows, trainable=False):
    return bc.Matrix(np.array(rows, dtype=np.float64), trainable=trainable)


def gate_of(scores, k=None):
    """router_gate over a given score row: x = [[1]] and the row as router."""
    router = mat(scores)
    return bc.router_gate(mat([[1.0]]), router, router.cols if k is None else k)


class TestValues:
    def test_matmul(self):
        out = bc.matmul(mat([[1.0, 2.0]]), mat([[3.0], [4.0]]))
        np.testing.assert_allclose(out.data, [[11.0]])

    def test_tanh(self):
        out = bc.tanh(mat([[0.5, 0.0]]))
        np.testing.assert_allclose(out.data, [[0.46211715726000974, 0.0]], rtol=0, atol=1e-15)

    def test_row_softmax(self):
        # with k = N the gate is the plain softmax of the scores
        out = gate_of([[0.4, 0.0]])
        np.testing.assert_allclose(
            out.data, [[0.598687660112452, 0.401312339887548]], rtol=0, atol=1e-15
        )
        assert out.data.sum() == pytest.approx(1.0, abs=1e-15)

    def test_row_softmax_shift_invariant(self):
        x = [[700.0, 701.0, 699.0]]
        out = gate_of(x)
        ref = gate_of((np.array(x) - 700.0).tolist())
        np.testing.assert_allclose(out.data, ref.data, atol=1e-15)
        assert np.all(np.isfinite(out.data))

    def test_topk_mask_values(self):
        # exact zeros outside the top k; softmax over the kept scores
        out = gate_of([[3.0, 1.0, 2.0, 2.0]], k=2)
        assert out.data[0, 1] == 0.0 and out.data[0, 3] == 0.0
        np.testing.assert_allclose(
            out.data[0, [0, 2]], oracles.softmax_oracle([3.0, 2.0]), rtol=0, atol=1e-15
        )

    def test_topk_mask_tie_prefers_lowest_index(self):
        np.testing.assert_array_equal(gate_of([[1.0, 1.0, 1.0]], k=1).data, [[1.0, 0.0, 0.0]])
        np.testing.assert_array_equal(gate_of([[1.0, 1.0, 1.0]], k=2).data, [[0.5, 0.5, 0.0]])

    def test_topk_mask_full_width_keeps_everything(self):
        x = [[0.3, -0.7, 0.1]]
        out = gate_of(x, k=3)
        assert np.all(out.data > 0.0)
        np.testing.assert_allclose(out.data[0], oracles.softmax_oracle(x[0]), rtol=0, atol=1e-15)

    def test_router_gate_reads_only_row_zero(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((3, 4))
        router = mat(rng.standard_normal((4, 5)))
        full = bc.router_gate(mat(x), router, 2)
        first = bc.router_gate(mat(x[:1]), router, 2)
        np.testing.assert_array_equal(full.data, first.data)

    def test_router_gate_matches_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            k = int(rng.integers(1, n + 1))
            x = rng.standard_normal((int(rng.integers(1, 4)), 6))
            router = rng.standard_normal((6, n))
            out = bc.router_gate(mat(x), mat(router), k)
            ref = oracles.gate_oracle(x, router, k)
            np.testing.assert_allclose(out.data[0], ref, rtol=0, atol=1e-15)
            assert np.count_nonzero(out.data) == k

    def test_router_gate_per_row_matches_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            k = int(rng.integers(1, n + 1))
            x = rng.standard_normal((int(rng.integers(1, 6)), 6))
            router = rng.standard_normal((6, n))
            out = bc.router_gate(mat(x), mat(router), k, per_row=True)
            assert out.shape == (x.shape[0], n)
            ref = oracles.gate_rows_oracle(x, router, k)
            np.testing.assert_allclose(out.data, ref, rtol=0, atol=1e-14)
            np.testing.assert_array_equal(out.data != 0.0, ref != 0.0)
            np.testing.assert_array_equal(np.count_nonzero(out.data, axis=1), k)

    def test_router_gate_per_row_of_one_row_is_the_shared_gate(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((1, 4))
        router = mat(rng.standard_normal((4, 5)))
        for k in range(1, 6):
            np.testing.assert_array_equal(
                bc.router_gate(mat(x), router, k, per_row=True).data,
                bc.router_gate(mat(x), router, k).data,
            )

    def test_router_gate_per_row_ties_prefer_lowest_index(self):
        # row scores [1, 1, 1] and [0, 3, 3]: each row keeps its own lowest tied columns
        router = mat([[1.0, 1.0, 1.0], [0.0, 3.0, 3.0]])
        eye = mat(np.eye(2))
        np.testing.assert_array_equal(
            bc.router_gate(eye, router, 1, per_row=True).data, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
        )
        np.testing.assert_array_equal(
            bc.router_gate(eye, router, 2, per_row=True).data, [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5]]
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
        out = bc.router_gate(mat(x), mat(scores), k, per_row=per_row).data
        ref = oracles.gate_rows_oracle(x if per_row else x[:1], scores, k)
        assert out.shape == ref.shape
        np.testing.assert_array_equal(out != 0.0, ref != 0.0)
        # the oracle sums the kept entries in descending order, the op in
        # column order: the values may differ in the last bit
        np.testing.assert_allclose(out, ref, rtol=1e-15, atol=0.0)

    def test_adapter_weighs_each_gated_pair(self):
        # x = [[1]] and A = [[1]]: each B row is weighted by its gate entry
        out = bc.adapter(
            mat([[1.0]]), mat([[0.0, 0.0]]), [mat([[1.0]])],
            [mat([[4.0, 0.0]]), mat([[0.0, 4.0]])], 1.0, mat([[0.25, 0.75]]),
        )
        np.testing.assert_allclose(out.data, [[1.0, 3.0]])

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
            out = bc.adapter(mat(x), mat(w), [mat(a[0])], [mat(b[0])], s)
            np.testing.assert_allclose(
                out.data, oracles.lora_forward_oracle(x, w, a[0], b[0], s), rtol=0, atol=1e-12
            )
            gate = bc.router_gate(mat(x), mat(router), 4)
            out = bc.adapter(mat(x), mat(w), [mat(m) for m in a], [mat(m) for m in b], s, gate)
            want, _ = oracles.moe_forward_oracle(x, w, list(zip(a, b)), router, s)
            np.testing.assert_allclose(out.data, want, rtol=0, atol=1e-12)
            for k in (1, 2, 3):
                gate = bc.router_gate(mat(x), mat(router), k)
                out = bc.adapter(mat(x), mat(w), [mat(a[0])], [mat(m) for m in b], s, gate)
                want, _ = oracles.branch_forward_oracle(x, w, a[0], b, router, k, s)
                np.testing.assert_allclose(out.data, want, rtol=0, atol=1e-12)

    def test_adapter_per_row_gate_matches_row_by_row(self):
        # a B x N gate weights row i of every term by gate row i, as the
        # adapter over row i alone with a one-row gate does; with one A per
        # B and with a shared A, and with zero columns that never run
        rng = np.random.default_rng(8)
        for _ in range(25):
            g = rng.uniform(0.1, 1.0, size=(3, 4))
            g[rng.random((3, 4)) < 0.4] = 0.0
            x = rng.standard_normal((3, 5))
            w = mat(rng.standard_normal((5, 2)))
            b = [mat(rng.standard_normal((2, 2))) for _ in range(4)]
            distinct = [mat(rng.standard_normal((5, 2))) for _ in range(4)]
            for a in (distinct, distinct[:1]):
                rows = bc.adapter(mat(x), w, a, b, 1.5, mat(g))
                for i in range(3):
                    one = bc.adapter(mat(x[i : i + 1]), w, a, b, 1.5, mat(g[i : i + 1]))
                    np.testing.assert_allclose(rows.data[i], one.data[0], rtol=0, atol=1e-12)

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
        with pytest.raises(DimensionError):
            bc.matmul(mat([[1.0, 2.0]]), mat([[1.0, 2.0]]))

    def test_topk_k_out_of_range(self):
        with pytest.raises(ParameterError):
            gate_of([[1.0, 2.0]], k=0)
        with pytest.raises(ParameterError):
            gate_of([[1.0, 2.0]], k=3)

    def test_router_gate_width_mismatch(self):
        with pytest.raises(DimensionError):
            bc.router_gate(mat([[1.0, 2.0]]), mat([[1.0, 2.0]]), 1)

    def test_adapter_gate_width_must_match_b(self):
        with pytest.raises(DimensionError):
            bc.adapter(mat([[1.0]]), mat([[1.0]]), [mat([[1.0]])], [mat([[1.0]])], 1.0, mat([[0.5, 0.5]]))

    def test_mix_gate_must_be_row(self):
        # the gate that mixes the adapter pairs: a one-row x takes only a one-row gate
        with pytest.raises(DimensionError):
            bc.adapter(mat([[1.0]]), mat([[1.0]]), [mat([[1.0]])], [mat([[1.0]])] * 2, 1.0,
                       mat([[1.0, 0.0], [0.0, 1.0]]))

    def test_mix_gate_rows_must_be_one_or_part_rows(self):
        # the mixing gate has 1 row (shared by every row of x) or one row per row of x
        x, w, a = mat(np.ones((3, 2))), mat(np.ones((2, 2))), [mat(np.ones((2, 1)))]
        b = [mat(np.ones((1, 2))), mat(np.ones((1, 2)))]
        for rows in (2, 4):
            with pytest.raises(DimensionError):
                bc.adapter(x, w, a, b, 1.0, mat(np.full((rows, 2), 0.5)))
            with pytest.raises(DimensionError):
                bc.adapter(x, w, a, b, 1.0, mat(np.tile([1.0, 0.0], (rows, 1))))
        for rows in (1, 3):
            assert bc.adapter(x, w, a, b, 1.0, mat(np.full((rows, 2), 0.5))).shape == (3, 2)

    def test_adapter_a_count_must_be_one_or_len_b(self):
        x, w = mat(np.ones((1, 2))), mat(np.ones((2, 2)))
        a = [mat(np.ones((2, 1))) for _ in range(3)]
        b = [mat(np.ones((1, 2))) for _ in range(3)]
        gate = mat([[0.2, 0.3, 0.5]])
        with pytest.raises(DimensionError):
            bc.adapter(x, w, a[:2], b, 1.0, gate)
        for n_a in (1, 3):
            assert bc.adapter(x, w, a[:n_a], b, 1.0, gate).shape == (1, 2)
        with pytest.raises(DimensionError):  # no gate: exactly one pair
            bc.adapter(x, w, a[:1], b[:2], 1.0)

    def test_adapter_shapes_must_chain_and_w_be_constant(self):
        x, w = mat(np.ones((1, 2))), mat(np.ones((2, 3)))
        a, b = mat(np.ones((2, 1))), mat(np.ones((1, 3)))
        assert bc.adapter(x, w, [a], [b], 1.0).shape == (1, 3)
        for args in ((mat(np.ones((1, 3))), w, a, b), (x, w, mat(np.ones((3, 1))), b),
                     (x, w, a, mat(np.ones((2, 3)))), (x, w, a, mat(np.ones((1, 2))))):
            with pytest.raises(DimensionError):
                bc.adapter(args[0], args[1], [args[2]], [args[3]], 1.0)
        with pytest.raises(ContractError):
            bc.adapter(x, mat(np.ones((2, 3)), trainable=True), [a], [b], 1.0)

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
        x = mat([[1.0, 2.0]], trainable=True)
        with bc.Tape() as tape:
            y = bc.tanh(x)
            with pytest.raises(ContractError):
                bc.backward(tape, y)
        assert x.grad is None

    def test_item_requires_1x1(self):
        with pytest.raises(ContractError):
            mat([[1.0, 2.0]]).item()


class TestGradients:
    """Finite-difference spot checks; the acceptance sweep runs 100 per op."""

    @pytest.mark.parametrize("name,gen", gradcheck.OP_CASES + gradcheck.COMPOSITE_CASES)
    def test_against_finite_differences(self, name, gen):
        worst = 0.0
        for seed in range(5):
            rng = np.random.default_rng(31 * seed + 5)
            params, run = gen(rng)
            worst = max(worst, gradcheck.run_case(params, run))
        assert worst < 1e-4, f"{name}: rel err {worst:.3e}"

    def test_grad_accumulates_over_reuse(self):
        # a leaf used twice
        x = mat([[3.0]], trainable=True)
        with bc.Tape() as tape:
            loss = bc.matmul(x, x)
            bc.backward(tape, loss)
        np.testing.assert_allclose(x.grad, [[6.0]])

    def test_untouched_leaf_keeps_none_grad(self):
        x = mat([[1.0]], trainable=True)
        y = mat([[1.0]], trainable=True)
        z = mat([[1.0]], trainable=True)
        with bc.Tape() as tape:
            bc.tanh(z)  # recorded, but the loss does not reach it
            loss = bc.matmul(x, mat([[2.0]]))
            bc.backward(tape, loss)
        assert y.grad is None
        assert z.grad is None
        np.testing.assert_allclose(x.grad, [[2.0]])

    def test_topk_masked_entries_get_zero_grad(self):
        x = mat([[1.0, -2.0], [5.0, 7.0]], trainable=True)
        router = mat([[3.0, 1.0, 2.0], [0.5, 2.0, -1.0]], trainable=True)  # scores 2, -3, 4
        with bc.Tape() as tape:
            loss = bc.mse_loss(bc.router_gate(x, router, 2), mat([[0.2, 0.3, 0.5]]))
            bc.backward(tape, loss)
        np.testing.assert_array_equal(router.grad[:, 1], [0.0, 0.0])
        assert np.all(router.grad[:, [0, 2]] != 0.0)
        assert np.all(x.grad[0] != 0.0)
        np.testing.assert_array_equal(x.grad[1], [0.0, 0.0])

    def test_router_gate_per_row_grads_reach_every_row(self):
        # per row, the gradients are those of that row's own one-row gate;
        # the router's is their sum
        rng = np.random.default_rng(13)
        x = rng.standard_normal((4, 5))
        router = rng.standard_normal((5, 6))
        target = rng.standard_normal((4, 6))
        xs, rs = mat(x, trainable=True), mat(router, trainable=True)
        with bc.Tape() as tape:
            gate = bc.router_gate(xs, rs, 3, per_row=True)
            bc.backward(tape, bc.matmul(bc.mse_loss(gate, mat(target)), mat([[4.0 * 6]])))
        router_sum = np.zeros_like(router)
        for i in range(4):
            xi, ri = mat(x[i : i + 1], trainable=True), mat(router, trainable=True)
            with bc.Tape() as tape:
                gi = bc.router_gate(xi, ri, 3)
                bc.backward(tape, bc.matmul(bc.mse_loss(gi, mat(target[i : i + 1])), mat([[6.0]])))
            np.testing.assert_allclose(xs.grad[i], xi.grad[0], rtol=0, atol=1e-12)
            router_sum += ri.grad
            assert np.all(xs.grad[i] != 0.0)
        np.testing.assert_allclose(rs.grad, router_sum, rtol=0, atol=1e-12)

    def test_cross_entropy_grad_matches_recomputed_softmax_exactly(self):
        # the backward reuses the forward's exponentials; the gradient is
        # bit-identical to recomputing the softmax from the logits
        rng = np.random.default_rng(14)
        for rows, cols in ((1, 2), (5, 3), (32, 8)):
            z = rng.standard_normal((rows, cols)) * 3.0
            labels = rng.integers(0, cols, size=rows)
            logits = mat(z, trainable=True)
            with bc.Tape() as tape:
                bc.backward(tape, bc.matmul(bc.cross_entropy(logits, labels), mat([[0.7]])))
            p = np.exp(z - z.max(axis=1, keepdims=True))
            p /= p.sum(axis=1, keepdims=True)
            p[np.arange(rows), labels] -= 1.0
            np.testing.assert_array_equal(logits.grad, 0.7 * p / rows)

    def test_adapter_zero_gate_column_gets_no_grad(self):
        # x = [[1]] and A = [[1]], so each B row is a term; column 1 is 0.0
        # in every gate row: its gate entries get exactly zero and its B no grad
        for g in ([[0.4, 0.0, 0.6]], [[0.4, 0.0, 0.6], [0.4, 0.0, 0.6]]):
            gate = mat(g, trainable=True)
            b = [mat([[1.0, 2.0]], trainable=True), mat([[5.0, 6.0]], trainable=True),
                 mat([[3.0, 4.0]], trainable=True)]
            x = mat(np.ones((len(g), 1)))
            with bc.Tape() as tape:
                out = bc.adapter(x, mat([[0.0, 0.0]]), [mat([[1.0]])], b, 1.0, gate)
                loss = bc.matmul(mat(np.ones((1, len(g)))), bc.matmul(out, mat([[1.0], [1.0]])))
                bc.backward(tape, loss)
            assert np.all(gate.grad[:, 1] == 0.0)
            np.testing.assert_allclose(gate.grad, [[3.0, 0.0, 7.0]] * len(g))
            assert b[1].grad is None
            np.testing.assert_allclose(b[0].grad, [[0.4 * len(g)] * 2])
            np.testing.assert_allclose(b[2].grad, [[0.6 * len(g)] * 2])

    def test_adapter_runs_every_nonzero_column(self):
        # a tiny weight still runs its term and trains its B; NaN propagates
        gate = mat([[0.5, 0.5, 1e-12]])
        b = [mat([[1.0]], trainable=True), mat([[2.0]], trainable=True),
             mat([[4.0]], trainable=True)]
        x, w, a = mat([[1.0]]), mat([[0.0]]), [mat([[1.0]])]
        with bc.Tape() as tape:
            out = bc.adapter(x, w, a, b, 1.0, gate)
            bc.backward(tape, out)
        assert out.item() == 0.5 + 1.0 + 4e-12
        assert b[2].grad[0, 0] == 1e-12
        assert np.isnan(bc.adapter(x, w, a, b, 1.0, mat([[0.5, 0.5, np.nan]])).item())

    def test_adapter_grads_match_op_chain_exactly(self):
        for gate_rows in (None, 1, 6):
            for x_kind in ("leaf", "op_output", "constant"):
                self._check_adapter_against_op_chain(gate_rows, x_kind)

    @staticmethod
    def _check_adapter_against_op_chain(gate_rows, x_kind):
        # the backward sums in the order of the matmul, scale and add chain
        # the op replaces (the backbone term last on the tape, so first on
        # replay), with one A per B and with a shared A, for each gate mode:
        # none (LoRA), one shared row and one row per row of x, whose column
        # 1 is zero in every row and so never runs. x is a trainable leaf, an
        # op output (a deeper layer's input) or a constant (the first layer,
        # which gets no dx). The fused op's leaves hold optimizer grad slots,
        # so their first shares are computed straight into them.
        rng = np.random.default_rng(15)
        x0, w = rng.standard_normal((6, 5)), mat(rng.standard_normal((5, 4)))
        if gate_rows is None:
            gate, live, n = None, [0], 1
        elif gate_rows == 1:
            gate, live, n = np.array([[0.1, 0.3, 0.6]]), [0, 1, 2], 3
        else:
            gate = rng.uniform(0.1, 1.0, size=(gate_rows, 3))
            gate[:, 1] = 0.0
            gate[::2, 2] = 0.0
            live, n = [0, 2], 3
        b0 = [rng.standard_normal((2, 4)) for _ in range(n)]
        a0s = [[rng.standard_normal((5, 2)) for _ in range(n)]]
        if n > 1:
            a0s.append([rng.standard_normal((5, 2))])
        for a0 in a0s:
            grads = []
            for fused in (True, False):
                leaf = mat(x0, trainable=x_kind != "constant")
                a = [mat(m, trainable=True) for m in a0]
                b = [mat(m, trainable=True) for m in b0]
                if fused:
                    bc.make_optimizer("sgd", oracles.named([leaf, *a, *b]))
                with bc.Tape() as tape:
                    x = bc.tanh(leaf) if x_kind == "op_output" else leaf
                    if fused:
                        h = bc.adapter(x, w, a, b, 1.7, None if gate is None else mat(gate))
                    else:
                        xa = {k: bc.matmul(x, a[k]) for k in sorted({j if len(a) > 1 else 0 for j in live})}
                        delta = None
                        for j in live:
                            term = bc.matmul(xa[j if len(a) > 1 else 0], b[j])
                            if gate is not None:
                                term = oracles.scale(term, gate[:, j : j + 1] if gate_rows > 1 else gate[0, j])
                            delta = term if delta is None else oracles.add(delta, term)
                        h = oracles.add(bc.matmul(x, w), oracles.scale(delta, 1.7))
                    bc.backward(tape, bc.mse_loss(bc.tanh(h), mat(np.zeros((6, 4)))))
                grads.append([leaf.grad] + [m.grad for m in a + b])
            for fused_grad, chain_grad in zip(*grads):
                if chain_grad is None:
                    assert fused_grad is None
                else:
                    assert fused_grad.tobytes() == chain_grad.tobytes()
            assert (grads[0][0] is None) == (x_kind == "constant")
            assert [m is None for m in grads[0][-n:]] == [j not in live for j in range(n)]


class TestOptim:
    def test_sgd_step(self):
        p = mat([[1.0]], trainable=True)
        opt = bc.make_optimizer("sgd", [("p", p)], lr=0.1)
        with bc.Tape() as tape:
            loss = bc.mse_loss(p, mat([[0.0]]))
            bc.backward(tape, loss)
        n = opt.step()
        assert n == 1
        assert p.data[0, 0] == pytest.approx(0.8)

    def test_adam_first_step_is_signed_lr(self):
        p = mat([[1.0]], trainable=True)
        opt = bc.make_optimizer("adam", [("p", p)], lr=0.1)
        with bc.Tape() as tape:
            loss = bc.mse_loss(p, mat([[0.0]]))
            bc.backward(tape, loss)
        opt.step()
        # first step: m_hat = g, v_hat = g^2, so the move is lr * g / (|g| + eps)
        assert p.data[0, 0] == pytest.approx(0.9, abs=1e-8)

    def test_missing_grad_raises_unless_allowed(self):
        p = mat([[1.0]], trainable=True)
        q = mat([[1.0]], trainable=True)
        for kind in ("sgd", "adam"):
            with bc.Tape() as tape:
                loss = bc.mse_loss(p, mat([[0.0]]))
                bc.backward(tape, loss)
            strict = bc.make_optimizer(kind, [("p", p), ("q", q)], lr=0.1)
            with pytest.raises(ContractError, match=f"^{kind}: trainable parameter q has no "):
                strict.step()
            p.grad = None

    def test_allow_missing_skips_and_counts(self):
        p = mat([[1.0, 1.0]], trainable=True)
        q = mat([[5.0]], trainable=True)
        opt = bc.make_optimizer("sgd", [("p", p), ("q", q)], lr=0.1, allow_missing=True)
        with bc.Tape() as tape:
            loss = bc.mse_loss(p, mat([[0.0, 0.0]]))
            bc.backward(tape, loss)
        n = opt.step()
        assert n == 2
        assert q.data[0, 0] == 5.0

    def test_adam_bias_correction_is_per_parameter(self):
        # q first receives a gradient on the optimizer's second step; its
        # update must match a fresh Adam taking its first step.
        p = mat([[1.0]], trainable=True)
        q = mat([[1.0]], trainable=True)
        opt = bc.make_optimizer("adam", [("p", p), ("q", q)], lr=0.1, allow_missing=True)
        with bc.Tape() as tape:
            loss = bc.mse_loss(p, mat([[0.0]]))
            bc.backward(tape, loss)
        opt.step()
        p.grad = None
        with bc.Tape() as tape:
            loss = oracles.add(bc.mse_loss(p, mat([[0.0]])), bc.mse_loss(q, mat([[0.0]])))
            bc.backward(tape, loss)
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


def test_forward_values_identical_with_and_without_tape():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 4))
    w = rng.standard_normal((4, 2))
    with bc.Tape():
        taped = bc.router_gate(bc.Matrix(x, trainable=True), bc.Matrix(w), 1)
    bare = bc.router_gate(bc.Matrix(x), bc.Matrix(w), 1)
    np.testing.assert_array_equal(taped.data, bare.data)
