"""Gate usage accounting and the freeze policy."""

import numpy as np
import pytest

import branchcl as bc
from branchcl import ContractError, PolicyError


def make_stats(gates, experts=4):
    stats = bc.UsageStats(experts)
    for g in gates:
        stats.record_gate(np.asarray(g, dtype=np.float64))
    return stats


class TestUsageStats:
    def test_accumulates_mass_and_selections(self):
        stats = make_stats([[0.7, 0.3, 0.0, 0.0], [0.0, 0.4, 0.6, 0.0]])
        np.testing.assert_allclose(stats.mass, [0.7, 0.7, 0.6, 0.0])
        np.testing.assert_array_equal(stats.selections, [1, 2, 1, 0])
        assert stats.samples_seen == 2

    def test_normalized_mass(self):
        stats = make_stats([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
        np.testing.assert_allclose(stats.normalized_mass(), [0.5, 0.5, 0.0, 0.0])

    def test_accepts_matrix_gates(self):
        stats = bc.UsageStats(2)
        stats.record_gate(bc.Matrix(np.array([[1.0, 0.0]])))
        assert stats.samples_seen == 1

    def test_rejects_bad_gates(self):
        stats = bc.UsageStats(4)
        with pytest.raises(ContractError):
            stats.record_gate([0.5, 0.5])  # wrong width
        with pytest.raises(ContractError):
            stats.record_gate([0.5, 0.4, 0.0, 0.0])  # not normalized
        with pytest.raises(ContractError):
            stats.record_gate([1.5, -0.5, 0.0, 0.0])  # negative entry

    def test_empty_stats_refuse_queries(self):
        stats = bc.UsageStats(4)
        with pytest.raises(PolicyError):
            stats.normalized_mass()
        with pytest.raises(PolicyError):
            bc.select_freeze_set(stats, 1, [False] * 4)


class TestSelectFreezeSet:
    def test_picks_heaviest(self):
        stats = make_stats([[0.1, 0.6, 0.3, 0.0], [0.1, 0.6, 0.3, 0.0]])
        assert bc.select_freeze_set(stats, 1, [False] * 4) == [1]
        assert bc.select_freeze_set(stats, 2, [False] * 4) == [1, 2]

    def test_skips_already_frozen(self):
        stats = make_stats([[0.1, 0.6, 0.3, 0.0]])
        assert bc.select_freeze_set(stats, 1, [False, True, False, False]) == [2]

    def test_tie_breaks_to_lowest_index(self):
        stats = make_stats([[0.5, 0.0, 0.5, 0.0]])
        assert bc.select_freeze_set(stats, 1, [False] * 4) == [0]

    def test_width_larger_than_candidates(self):
        stats = make_stats([[0.5, 0.5, 0.0, 0.0]])
        out = bc.select_freeze_set(stats, 4, [True, False, True, False])
        assert out == [1, 3]

    def test_width_zero(self):
        stats = make_stats([[1.0, 0.0, 0.0, 0.0]])
        assert bc.select_freeze_set(stats, 0, [False] * 4) == []

    def test_count_criterion(self):
        # branch 2 carries the most mass but branch 0 gets selected most often
        stats = make_stats(
            [[0.6, 0.0, 0.4, 0.0], [0.6, 0.4, 0.0, 0.0], [0.0, 0.1, 0.9, 0.0]]
        )
        assert bc.select_freeze_set(stats, 1, [False] * 4, by="mass") == [2]
        assert bc.select_freeze_set(stats, 1, [False] * 4, by="count") == [0]

    def test_validation(self):
        stats = make_stats([[1.0, 0.0, 0.0, 0.0]])
        with pytest.raises(PolicyError):
            bc.select_freeze_set(stats, -1, [False] * 4)
        with pytest.raises(PolicyError):
            bc.select_freeze_set(stats, 1, [False] * 3)
        with pytest.raises(PolicyError):
            bc.select_freeze_set(stats, 1, [False] * 4, by="entropy")


class TestApplyFreeze:
    def build_layer(self):
        hp = bc.AdapterHyperparams(rank=8, alpha=16.0, experts=4, top_k=2)
        rng = np.random.default_rng(0)
        layer = bc.BranchLoRALayer.init(rng, 8, 8, hp)
        layer.add_router(0, rng)
        return layer

    def test_freezes_in_place(self):
        layer = self.build_layer()
        bc.apply_freeze(layer, [1, 3])
        assert layer.frozen == [False, True, False, True]
        assert not layer.branches[1].trainable
        assert layer.branches[0].trainable

    def test_rejects_out_of_range_and_double_freeze(self):
        layer = self.build_layer()
        with pytest.raises(PolicyError):
            bc.apply_freeze(layer, [4])
        bc.apply_freeze(layer, [1])
        with pytest.raises(PolicyError):
            bc.apply_freeze(layer, [1])

    def test_rejection_leaves_layer_untouched(self):
        layer = self.build_layer()
        bc.apply_freeze(layer, [2])
        with pytest.raises(PolicyError):
            bc.apply_freeze(layer, [0, 2])  # 2 already frozen: all-or-nothing
        assert layer.frozen == [False, False, True, False]
        assert layer.branches[0].trainable


class TestFreezeLedger:
    def test_records_and_queries(self):
        ledger = bc.FreezeLedger()
        ledger.record(0, 0, [2], np.array([0.1, 0.2, 0.6, 0.1]))
        ledger.record(1, 0, [0], np.array([0.5, 0.2, 0.2, 0.1]))
        ledger.record(0, 1, [3], np.array([0.1, 0.1, 0.1, 0.7]))
        assert [(e["task"], e["layer"], e["frozen"]) for e in ledger.to_obj()] == [
            (0, 0, [2]), (1, 0, [0]), (0, 1, [3])
        ]

    def test_rejects_refreezing_on_same_layer(self):
        ledger = bc.FreezeLedger()
        ledger.record(0, 0, [2], np.zeros(4))
        with pytest.raises(PolicyError):
            ledger.record(1, 0, [2, 3], np.zeros(4))

    def test_json_round_trip(self):
        import json

        ledger = bc.FreezeLedger()
        ledger.record(0, 0, [1], np.array([0.25, 0.75, 0.0, 0.0]))
        obj = json.loads(json.dumps(ledger.to_obj()))
        assert obj == [{"task": 0, "layer": 0, "frozen": [1], "mass": [0.25, 0.75, 0.0, 0.0]}]
