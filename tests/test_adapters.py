"""Adapter layers: shapes, parameter counts, gating, forward values."""

import numpy as np
import pytest

import branchcl as bc
from branchcl import ParameterError, RoutingError
from branchcl.adapters import draw_backbone
import oracles


HP = bc.AdapterHyperparams(rank=16, alpha=32.0, experts=4, top_k=2)


def make_rng(seed=0):
    return np.random.default_rng(seed)


class TestHyperparams:
    def test_derived_quantities(self):
        assert HP.per_expert_rank == 4
        assert HP.scaling == 2.0

    def test_validation(self):
        with pytest.raises(ParameterError):
            bc.AdapterHyperparams(rank=0)
        with pytest.raises(ParameterError):
            bc.AdapterHyperparams(rank=16, experts=0)
        with pytest.raises(ParameterError):
            bc.AdapterHyperparams(rank=10, experts=4)
        with pytest.raises(ParameterError):
            bc.AdapterHyperparams(rank=16, experts=4, top_k=5)
        with pytest.raises(ParameterError):
            bc.AdapterHyperparams(rank=16, alpha=0.0)
        with pytest.raises(ParameterError):
            bc.AdapterHyperparams(rank=16, align_weight=-1.0)
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ParameterError, match="^alpha must be positive and finite"):
                bc.AdapterHyperparams(rank=16, alpha=bad)
            with pytest.raises(ParameterError, match="^align_weight must be >= 0 and finite"):
                bc.AdapterHyperparams(rank=16, align_weight=bad)


class TestBackbone:
    def test_never_trainable(self):
        bb = draw_backbone(make_rng(), 8, 8)
        assert bb.shape == (8, 8)
        assert not bb.trainable
        rng = make_rng()
        layer = bc.BackboneLayer(rng, draw_backbone(rng, 8, 8), HP)
        assert layer.params() == []
        assert layer.count_trainable_params() == 0

    def test_forward_is_plain_matmul(self):
        rng = make_rng(1)
        layer = bc.BackboneLayer(rng, draw_backbone(rng, 6, 5), HP)
        x = rng.standard_normal((3, 6))
        out, gate = layer.forward(x)
        assert gate is None
        np.testing.assert_allclose(out, x @ layer.backbone.data, atol=1e-15)


class TestLoRA:
    def test_neutral_at_init(self):
        rng = make_rng(2)
        layer = bc.LoRALayer(rng, draw_backbone(rng, 8, 8), HP)
        x = rng.standard_normal((4, 8))
        out, gate = layer.forward(x)
        assert gate is None
        np.testing.assert_array_equal(out, x @ layer.backbone.data)

    def test_forward_matches_oracle(self):
        rng = make_rng(3)
        layer = bc.LoRALayer(rng, draw_backbone(rng, 8, 8), HP)
        layer.b.data[:] = rng.standard_normal(layer.b.shape)
        x = rng.standard_normal((4, 8))
        out, _ = layer.forward(x)
        ref = oracles.lora_forward_oracle(
            x, layer.backbone.data, layer.a.data, layer.b.data, HP.scaling
        )
        np.testing.assert_allclose(out, ref, atol=1e-12)

    def test_param_count(self):
        rng = make_rng()
        layer = bc.LoRALayer(rng, draw_backbone(rng, 32, 32), HP)
        assert layer.count_trainable_params() == 2 * 32 * 16


class TestMoELoRA:
    def test_gate_uniform_at_init(self):
        rng = make_rng(4)
        layer = bc.MoELoRALayer(rng, draw_backbone(rng, 8, 8), HP)
        _, gate = layer.forward(rng.standard_normal((3, 8)))
        np.testing.assert_allclose(gate, np.full((1, 4), 0.25), atol=1e-15)

    def test_forward_matches_oracle(self):
        rng = make_rng(5)
        layer = bc.MoELoRALayer(rng, draw_backbone(rng, 8, 8), HP)
        layer.router.data[:] = rng.standard_normal(layer.router.shape)
        for _, b in layer.experts:
            b.data[:] = rng.standard_normal(b.shape)
        x = rng.standard_normal((4, 8))
        h, gate = layer.forward(x)
        ref_h, ref_gate = oracles.moe_forward_oracle(
            x,
            layer.backbone.data,
            [(a.data, b.data) for a, b in layer.experts],
            layer.router.data,
            HP.scaling,
        )
        np.testing.assert_allclose(gate[0], ref_gate, atol=1e-12)
        np.testing.assert_allclose(h, ref_h, atol=1e-12)

    def test_param_count(self):
        rng = make_rng()
        layer = bc.MoELoRALayer(rng, draw_backbone(rng, 32, 32), HP)
        assert layer.count_trainable_params() == 2 * 32 * 16 + 32 * 4


class TestBranchLoRA:
    def build(self, seed=6, d=8, randomize=False):
        rng = make_rng(seed)
        layer = bc.BranchLoRALayer(rng, draw_backbone(rng, d, d), HP)
        layer.start_task(0, rng)
        if randomize:
            layer.routers[0].data[:] = rng.standard_normal(layer.routers[0].shape)
            for b in layer.branches:
                b.data[:] = rng.standard_normal(b.shape)
        return rng, layer

    def test_neutral_at_init(self):
        rng, layer = self.build()
        x = rng.standard_normal((4, 8))
        h, _ = layer.forward(x, 0)
        np.testing.assert_array_equal(h, x @ layer.backbone.data)

    def test_gate_sparsity(self):
        rng, layer = self.build(randomize=True)
        for _ in range(50):
            gate, _ = layer.gate_for(rng.standard_normal((3, 8)), 0)
            nz = gate[0][gate[0] != 0.0]
            assert nz.size == HP.top_k
            assert abs(nz.sum() - 1.0) < 1e-12
            assert np.all(gate[0][gate[0] == 0.0] == 0.0)

    def test_zero_router_ties_break_to_lowest_branches(self):
        rng = make_rng(7)
        layer = bc.BranchLoRALayer(rng, draw_backbone(rng, 8, 8), HP)
        layer.start_task(0, rng)
        layer.routers[0].data[:] = 0.0
        gate, _ = layer.gate_for(rng.standard_normal((2, 8)), 0)
        np.testing.assert_allclose(gate, [[0.5, 0.5, 0.0, 0.0]], atol=1e-15)

    def test_forward_matches_oracle(self):
        rng, layer = self.build(randomize=True)
        x = rng.standard_normal((4, 8))
        h, gate = layer.forward(x, 0)
        ref_h, ref_gate = oracles.branch_forward_oracle(
            x,
            layer.backbone.data,
            layer.a_shared.data,
            [b.data for b in layer.branches],
            layer.routers[0].data,
            HP.top_k,
            HP.scaling,
        )
        np.testing.assert_allclose(gate[0], ref_gate, atol=1e-12)
        np.testing.assert_allclose(h, ref_h, atol=1e-12)

    def test_router_bookkeeping(self):
        rng, layer = self.build()
        with pytest.raises(RoutingError):
            layer.gate_for(rng.standard_normal((1, 8)), 99)
        with pytest.raises(RoutingError):
            layer.start_task(0, rng)

    def test_frozen_branches_leave_param_set(self):
        _, layer = self.build()
        full = layer.count_trainable_params()
        layer.branches[1].trainable = False
        reduced = layer.count_trainable_params()
        assert full - reduced == layer.branches[1].data.size
        assert layer.branches[1] not in dict(layer.params()).values()
        assert layer.frozen == [False, True, False, False]

    def test_param_count(self):
        rng = make_rng(8)
        layer = bc.BranchLoRALayer(rng, draw_backbone(rng, 32, 32), HP)
        layer.start_task(0, rng)
        pr = HP.per_expert_rank
        assert layer.count_trainable_params() == 32 * pr + 4 * pr * 32 + 32 * 4


@pytest.mark.parametrize("d,moe_expected,branch_expected", [(32, 1152, 768), (64, 2304, 1536)])
def test_branch_strictly_smaller_than_moe(d, moe_expected, branch_expected):
    rng = make_rng(9)
    moe = bc.MoELoRALayer(rng, draw_backbone(rng, d, d), HP)
    branch = bc.BranchLoRALayer(rng, draw_backbone(rng, d, d), HP)
    branch.start_task(0, rng)
    assert moe.count_trainable_params() == moe_expected
    assert branch.count_trainable_params() == branch_expected
    assert branch_expected < moe_expected

