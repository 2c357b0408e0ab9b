"""Ops: frozen values, gradients against finite differences, contracts."""

import numpy as np
import pytest

import branchcl as bc
from branchcl import (
    ContractError,
    DegenerateInputError,
    DimensionError,
    ParameterError,
)
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

    def test_add_scale(self):
        out = bc.scale(bc.add(mat([[1.0, 2.0]]), mat([[3.0, -1.0]])), 0.5)
        np.testing.assert_allclose(out.data, [[2.0, 0.5]])

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

    def test_mix_dense(self):
        gate = mat([[0.25, 0.75]])
        parts = [mat([[4.0, 0.0]]), mat([[0.0, 4.0]])]
        out = bc.mix(gate, parts)
        np.testing.assert_allclose(out.data, [[1.0, 3.0]])

    def test_mix_sparse_matches_dense(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            g = np.zeros((1, 4))
            cols = sorted(rng.choice(4, size=2, replace=False).tolist())
            g[0, cols] = rng.uniform(0.2, 0.8, size=2)
            parts = [rng.standard_normal((3, 2)) for _ in range(4)]
            dense = bc.mix(mat(g.tolist()), [mat(p.tolist()) for p in parts])
            sparse = bc.mix(
                mat(g.tolist()), [mat(parts[c].tolist()) for c in cols], cols=cols
            )
            np.testing.assert_array_equal(dense.data, sparse.data)

    def test_cosine_sum(self):
        # cos([1,2,2], [2,0,1]) = 4 / (3 sqrt 5); the second row is parallel
        out = bc.cosine_sum(mat([[1.0, 2.0, 2.0], [4.0, 0.0, 2.0]]), mat([[2.0, 0.0, 1.0]]))
        assert out.shape == (1, 1)
        assert out.item() == pytest.approx(1.5962847939999439, abs=1e-15)

    def test_cosine_sum_matches_oracle(self):
        rng = np.random.default_rng(11)
        for rows in (1, 3, 32):
            x = rng.standard_normal((rows, 16))
            k = rng.standard_normal((1, 16))
            out = bc.cosine_sum(mat(x), mat(k))
            assert out.item() == pytest.approx(oracles.cosine_sum_oracle(x, k), abs=1e-13)

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

    def test_add_shape_mismatch(self):
        with pytest.raises(DimensionError):
            bc.add(mat([[1.0]]), mat([[1.0, 2.0]]))

    def test_topk_k_out_of_range(self):
        with pytest.raises(ParameterError):
            gate_of([[1.0, 2.0]], k=0)
        with pytest.raises(ParameterError):
            gate_of([[1.0, 2.0]], k=3)

    def test_router_gate_width_mismatch(self):
        with pytest.raises(DimensionError):
            bc.router_gate(mat([[1.0, 2.0]]), mat([[1.0, 2.0]]), 1)

    def test_mix_gate_must_be_row(self):
        with pytest.raises(DimensionError):
            bc.mix(mat([[1.0], [0.0]]), [mat([[1.0]]), mat([[2.0]])])

    def test_mix_width_mismatch(self):
        with pytest.raises(DimensionError):
            bc.mix(mat([[0.5, 0.5]]), [mat([[1.0]])])

    def test_mix_sparse_rejects_duplicate_and_oob_cols(self):
        gate = mat([[0.5, 0.5, 0.0]])
        parts = [mat([[1.0]]), mat([[2.0]])]
        with pytest.raises(DimensionError):
            bc.mix(gate, parts, cols=[0, 0])
        with pytest.raises(DimensionError):
            bc.mix(gate, parts, cols=[0, 3])

    def test_mix_sparse_rejects_nonzero_omitted_columns(self):
        gate = mat([[0.5, 0.5, 1e-12]])
        parts = [mat([[1.0]]), mat([[2.0]])]
        with pytest.raises(ContractError):
            bc.mix(gate, parts, cols=[0, 1])
        with pytest.raises(ContractError):
            bc.mix(mat([[0.5, 0.5, np.nan]]), parts, cols=[0, 1])

    def test_cosine_sum_zero_norm(self):
        with pytest.raises(DegenerateInputError):
            bc.cosine_sum(mat([[1.0, 0.0], [0.0, 0.0]]), mat([[1.0, 0.0]]))
        with pytest.raises(DegenerateInputError):
            bc.cosine_sum(mat([[1.0, 0.0]]), mat([[0.0, 0.0]]))

    def test_cosine_sum_key_must_be_row(self):
        with pytest.raises(DimensionError):
            bc.cosine_sum(mat([[1.0, 0.0]]), mat([[1.0, 0.0], [0.0, 1.0]]))

    def test_cosine_sum_width_mismatch(self):
        with pytest.raises(DimensionError):
            bc.cosine_sum(mat([[1.0, 0.0]]), mat([[1.0, 0.0, 0.0]]))

    def test_cross_entropy_label_validation(self):
        with pytest.raises(DimensionError):
            bc.cross_entropy(mat([[1.0, 2.0]]), np.array([0, 1]))
        with pytest.raises(ParameterError):
            bc.cross_entropy(mat([[1.0, 2.0]]), np.array([2]))
        with pytest.raises(ParameterError):
            bc.cross_entropy(mat([[1.0, 2.0]]), np.array([-1]))

    def test_backward_requires_scalar_loss(self):
        x = mat([[1.0, 2.0]], trainable=True)
        with bc.Tape() as tape:
            y = bc.scale(x, 2.0)
            with pytest.raises(ContractError):
                bc.backward(tape, y)

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
        x = mat([[3.0]], trainable=True)
        with bc.Tape() as tape:
            loss = bc.add(x, x)
            bc.backward(tape, loss)
        np.testing.assert_allclose(x.grad, [[2.0]])

    def test_untouched_leaf_keeps_none_grad(self):
        x = mat([[1.0]], trainable=True)
        y = mat([[1.0]], trainable=True)
        with bc.Tape() as tape:
            loss = bc.scale(x, 2.0)
            bc.backward(tape, loss)
        assert y.grad is None
        np.testing.assert_allclose(x.grad, [[2.0]])

    def test_cosine_sum_grads_match_per_row_chain_exactly(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((32, 16))
        k = rng.standard_normal((1, 16))
        fused_x, fused_k = mat(x, trainable=True), mat(k, trainable=True)
        with bc.Tape() as tape:
            bc.backward(tape, bc.cosine_sum(fused_x, fused_k))
        rows = [mat(x[i : i + 1], trainable=True) for i in range(32)]
        chain_k = mat(k, trainable=True)
        with bc.Tape() as tape:
            total = bc.cosine_sum(rows[0], chain_k)
            for row in rows[1:]:
                total = bc.add(total, bc.cosine_sum(row, chain_k))
            bc.backward(tape, total)
        np.testing.assert_array_equal(fused_k.grad, chain_k.grad)
        np.testing.assert_array_equal(fused_x.grad, np.vstack([r.grad for r in rows]))

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

    def test_mix_sparse_leaves_omitted_gate_grad_zero(self):
        gate = mat([[0.4, 0.0, 0.6]], trainable=True)
        parts = [mat([[1.0, 2.0]], trainable=True), mat([[3.0, 4.0]], trainable=True)]
        with bc.Tape() as tape:
            out = bc.mix(gate, parts, cols=[0, 2])
            loss = bc.matmul(out, mat([[1.0], [1.0]]))
            bc.backward(tape, loss)
        assert gate.grad[0, 1] == 0.0
        np.testing.assert_allclose(gate.grad, [[3.0, 0.0, 7.0]])
        np.testing.assert_allclose(parts[0].grad, [[0.4, 0.4]])
        np.testing.assert_allclose(parts[1].grad, [[0.6, 0.6]])


class TestOptim:
    def test_sgd_step(self):
        p = mat([[1.0]], trainable=True)
        opt = bc.make_optimizer("sgd", [p], lr=0.1)
        with bc.Tape() as tape:
            loss = bc.mse_loss(p, mat([[0.0]]))
            bc.backward(tape, loss)
        n = opt.step()
        assert n == 1
        assert p.data[0, 0] == pytest.approx(0.8)

    def test_adam_first_step_is_signed_lr(self):
        p = mat([[1.0]], trainable=True)
        opt = bc.make_optimizer("adam", [p], lr=0.1)
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
            strict = bc.make_optimizer(kind, [p, q], lr=0.1)
            with pytest.raises(ContractError):
                strict.step()
            p.grad = None

    def test_allow_missing_skips_and_counts(self):
        p = mat([[1.0, 1.0]], trainable=True)
        q = mat([[5.0]], trainable=True)
        opt = bc.make_optimizer("sgd", [p, q], lr=0.1, allow_missing=True)
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
        opt = bc.make_optimizer("adam", [p, q], lr=0.1, allow_missing=True)
        with bc.Tape() as tape:
            loss = bc.mse_loss(p, mat([[0.0]]))
            bc.backward(tape, loss)
        opt.step()
        p.grad = None
        with bc.Tape() as tape:
            loss = bc.add(bc.mse_loss(p, mat([[0.0]])), bc.mse_loss(q, mat([[0.0]])))
            bc.backward(tape, loss)
        q_grad = q.grad.copy()
        opt.step()

        fresh_q = mat([[1.0]], trainable=True)
        fresh = bc.make_optimizer("adam", [fresh_q], lr=0.1)
        fresh_q.grad = q_grad
        fresh.step()
        assert q.data[0, 0] == fresh_q.data[0, 0]

    def test_bad_lr_and_kind(self):
        p = mat([[1.0]], trainable=True)
        with pytest.raises(ParameterError):
            bc.make_optimizer("sgd", [p], lr=0.0)
        with pytest.raises(ParameterError):
            bc.make_optimizer("rmsprop", [p])


def test_forward_values_identical_with_and_without_tape():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 4))
    w = rng.standard_normal((4, 2))
    with bc.Tape():
        taped = bc.router_gate(bc.Matrix(x, trainable=True), bc.Matrix(w), 1)
    bare = bc.router_gate(bc.Matrix(x), bc.Matrix(w), 1)
    np.testing.assert_array_equal(taped.data, bare.data)
