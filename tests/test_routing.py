"""Gate usage accounting and the freeze policy."""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import branchcl as bc
from branchcl import ContractError, PolicyError
from branchcl.adapters import draw_backbone


def make_stats(gates, experts=4):
    stats = bc.UsageStats(experts)
    for g in gates:
        stats.record_gate(np.array([g], dtype=np.float64))
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

    def test_rejects_bad_gates(self):
        stats = bc.UsageStats(4)
        with pytest.raises(ContractError):
            stats.record_gate(np.array([[0.5, 0.5]]))  # wrong width
        with pytest.raises(ContractError):
            stats.record_gate(np.array([[0.5, 0.4, 0.0, 0.0]]))  # not normalized
        with pytest.raises(ContractError):
            stats.record_gate(np.array([[1.5, -0.5, 0.0, 0.0]]))  # negative entry
        assert stats.samples_seen == 0

    def test_a_bad_row_anywhere_is_rejected_and_changes_nothing(self):
        rng = np.random.default_rng(0)
        good = np.vstack([random_gate(rng, 4) for _ in range(5)])
        stats = make_stats([[0.25, 0.25, 0.25, 0.25]])
        before = (stats.mass.tobytes(), stats.selections.tobytes(), stats.samples_seen)
        for bad in ([0.5, 0.4, 0.0, 0.0], [1.5, -0.5, 0.0, 0.0], [np.nan, 0.0, 0.0, 1.0]):
            for at in range(len(good)):
                rows = good.copy()
                rows[at] = bad
                with pytest.raises(ContractError):
                    stats.record_gate(rows)
                assert (stats.mass.tobytes(), stats.selections.tobytes(), stats.samples_seen) == before

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
        layer = bc.BranchLoRALayer(rng, draw_backbone(rng, 8, 8), hp)
        layer.start_task(0, rng)
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
        ledger = bc.FreezeLedger()
        ledger.record(0, 0, [1], np.array([0.25, 0.75, 0.0, 0.0]))
        obj = json.loads(json.dumps(ledger.to_obj()))
        assert obj == [{"task": 0, "layer": 0, "frozen": [1], "mass": [0.25, 0.75, 0.0, 0.0]}]


def random_gate(rng, experts):
    """A 1 x N gate row: nonnegative, some entries zero, sums to one."""
    mass = rng.random(experts) * (rng.random(experts) < 0.7)
    mass[rng.integers(experts)] += 0.1
    return (mass / mass.sum())[None]


@settings(max_examples=50, deadline=None)
@given(experts=st.integers(1, 8), rows=st.integers(1, 64), seed=st.integers(0, 2**32 - 1))
def test_m_rows_in_one_call_add_what_m_one_row_calls_add(experts, rows, seed):
    """Into fresh stats, an M x N gate gives the same mass bytes,
    selections and samples_seen as its rows recorded one at a time."""
    rng = np.random.default_rng(seed)
    gate = np.vstack([random_gate(rng, experts) for _ in range(rows)])
    # rows that sum to 1 only within the tolerance, so that the order in
    # which the rows are added shows in the bytes at every width
    gate *= 1.0 + rng.uniform(-4e-7, 4e-7, (rows, 1))
    at_once, one_by_one = bc.UsageStats(experts), bc.UsageStats(experts)
    at_once.record_gate(gate)
    for row in gate:
        one_by_one.record_gate(row[None])
    assert at_once.mass.tobytes() == one_by_one.mass.tobytes()
    np.testing.assert_array_equal(at_once.selections, one_by_one.selections)
    assert at_once.samples_seen == one_by_one.samples_seen == rows


@settings(max_examples=25, deadline=None)
@given(
    tasks=st.integers(1, 4),
    experts=st.sampled_from([2, 4]),
    widths=st.lists(st.integers(0, 4), min_size=4, max_size=4),
    by=st.sampled_from(["mass", "count"]),
    gate_seed=st.integers(0, 2**32 - 1),
)
def test_freeze_invariants(tasks, experts, widths, by, gate_seed):
    """The trainable flags are the one record of what trains: they agree
    with the ledger, never thaw, and survive a checkpoint round trip."""
    hp = bc.AdapterHyperparams(rank=2 * experts, alpha=4.0, experts=experts, top_k=1)
    model = bc.build_model("branchlora", bc.ModelConfig(width=8, classes=4, layers=2), hp, seed=0)
    rng = np.random.default_rng(gate_seed)
    ledger = bc.FreezeLedger()

    def ledger_frozen(li):
        return {j for e in ledger.entries if e.layer == li for j in e.frozen}

    def expected_trainable(t):
        out = []
        for li, layer in enumerate(model.layers):
            out.append(layer.a_shared)
            out.extend(b for j, b in enumerate(layer.branches) if j not in ledger_frozen(li))
            out.append(layer.routers[t])
        keys = model.keys.get(t)
        return out + [keys.k_img, keys.k_txt]

    for t in range(tasks):
        model.start_task(t)
        trainable = [m for _, m in model.trainable_params()]
        assert [id(m) for m in trainable] == [id(m) for m in expected_trainable(t)]
        for li, layer in enumerate(model.layers):
            before = layer.frozen
            stats = bc.UsageStats(experts)
            for _ in range(int(rng.integers(1, 5))):
                stats.record_gate(random_gate(rng, experts))
            chosen = bc.select_freeze_set(stats, widths[t], before, by=by)
            bc.apply_freeze(layer, chosen)
            ledger.record(t, li, chosen, stats.normalized_mass())
            after = layer.frozen
            assert all(a for b, a in zip(before, after) if b), "a branch thawed"
            assert len(chosen) == min(widths[t], before.count(False))
        model.finish_task(t)
        for li, layer in enumerate(model.layers):
            assert {j for j, f in enumerate(layer.frozen) if f} == ledger_frozen(li)

    model.start_task(tasks)
    with tempfile.TemporaryDirectory() as tmp:
        bc.save_model(Path(tmp) / "ckpt", model)
        manifest = json.loads((Path(tmp) / "ckpt" / "manifest.json").read_text())
        loaded = bc.load_model(Path(tmp) / "ckpt")
    flagged = sum(
        spec["rows"] * spec["cols"] for spec in manifest["tensors"].values() if spec["trainable"]
    )
    assert model.count_trainable_params() == flagged == loaded.count_trainable_params()
    assert [layer.frozen for layer in loaded.layers] == [layer.frozen for layer in model.layers]
