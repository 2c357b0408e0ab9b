"""Expert-weight similarity and the adapter cost comparison."""

import copy

import numpy as np
import pytest

import branchcl as bc
from branchcl import AnalysisError
from conftest import run_with_snapshots


def random_snapshots(rng, tasks=3, layers=2, experts=4, d=8, pr=2):
    return [
        [
            [
                (rng.standard_normal((d, pr)), rng.standard_normal((pr, d)))
                for _ in range(experts)
            ]
            for _ in range(layers)
        ]
        for _ in range(tasks)
    ]


class TestExpertVectors:
    def test_row_structure(self):
        rng = np.random.default_rng(0)
        snaps = random_snapshots(rng, tasks=2, layers=2, experts=3)
        rows = bc.expert_vectors(snaps)
        assert len(rows) == 2 * 2 * 2 * 3  # matrices x tasks x layers x experts
        first = rows[0]
        assert first["matrix"] == "A" and first["task"] == 0
        assert first["vector"].shape == (16,)
        b_rows = [r for r in rows if r["matrix"] == "B"]
        assert len(b_rows) == len(rows) // 2

    def test_vectors_are_flattened_copies_of_input(self):
        rng = np.random.default_rng(1)
        snaps = random_snapshots(rng, tasks=1, layers=1, experts=2)
        rows = bc.expert_vectors(snaps)
        np.testing.assert_array_equal(rows[0]["vector"], snaps[0][0][0][0].ravel())
        np.testing.assert_array_equal(rows[1]["vector"], snaps[0][0][0][1].ravel())


class TestExpertSimilarity:
    def test_identical_snapshots_give_unit_cosines_and_zero_margin(self):
        rng = np.random.default_rng(2)
        snap = random_snapshots(rng, tasks=1)[0]
        result = bc.expert_similarity([snap, copy.deepcopy(snap)])
        assert result["mean_cos_a"] == pytest.approx(1.0, abs=1e-12)
        assert result["mean_cos_b"] == pytest.approx(1.0, abs=1e-12)
        assert result["margin"] == pytest.approx(0.0, abs=1e-12)
        assert result["excluded_zero_pairs"] == 0

    def test_pair_counts(self):
        rng = np.random.default_rng(3)
        snaps = random_snapshots(rng, tasks=3, layers=2, experts=4)
        result = bc.expert_similarity(snaps)
        # one pair per expert per unordered snapshot pair per layer
        assert result["pairs_a"] == 2 * 4 * 3
        assert result["pairs_b"] == 2 * 4 * 3
        assert result["snapshots"] == 3 and result["experts"] == 4
        assert [e["layer"] for e in result["layers"]] == [0, 1]

    def test_moving_b_with_static_a_yields_positive_margin(self):
        rng = np.random.default_rng(4)
        a_fixed = [[rng.standard_normal((8, 2)) for _ in range(4)] for _ in range(2)]
        snaps = [
            [
                [
                    (a_fixed[layer][j], rng.standard_normal((2, 8)))
                    for j in range(4)
                ]
                for layer in range(2)
            ]
            for _ in range(3)
        ]
        result = bc.expert_similarity(snaps)
        assert result["mean_cos_a"] == pytest.approx(1.0, abs=1e-12)
        assert abs(result["mean_cos_b"]) < 0.5
        assert result["margin"] > 0.5

    def test_zero_b_pairs_are_excluded(self):
        rng = np.random.default_rng(5)
        snaps = random_snapshots(rng, tasks=2, layers=1, experts=2)
        for t in range(2):
            for j in range(2):
                a_w, _ = snaps[t][0][j]
                snaps[t][0][j] = (a_w, np.zeros((2, 8)))
        result = bc.expert_similarity(snaps)
        assert result["mean_cos_b"] is None
        assert result["margin"] is None
        assert result["mean_cos_a"] is not None
        assert result["excluded_zero_pairs"] == 2

    def test_rotation_invariance(self):
        rng = np.random.default_rng(6)
        snaps = random_snapshots(rng, tasks=3, layers=1, experts=3, d=8, pr=4)
        q_small, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        q_big, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        rotated = [
            [[(a_w @ q_small, b_w @ q_big) for a_w, b_w in layer] for layer in task]
            for task in snaps
        ]
        base = bc.expert_similarity(snaps)
        rot = bc.expert_similarity(rotated)
        assert rot["mean_cos_a"] == pytest.approx(base["mean_cos_a"], abs=1e-12)
        assert rot["mean_cos_b"] == pytest.approx(base["mean_cos_b"], abs=1e-12)
        assert rot["margin"] == pytest.approx(base["margin"], abs=1e-12)

    def test_cross_expert_random_baseline_near_zero(self):
        # independent Gaussian directions: cosines have mean 0 and std
        # 1/sqrt(n); the pooled mean must land within 3 sigma of zero
        rng = np.random.default_rng(7)
        snaps = random_snapshots(rng, tasks=4, layers=2, experts=6, d=16, pr=4)
        result = bc.expert_similarity(snaps)
        n_pairs = result["cross_expert"]["pairs_a"]
        sigma = 1.0 / np.sqrt(16 * 4) / np.sqrt(n_pairs)
        assert abs(result["cross_expert"]["mean_cos_a"]) < 3 * sigma

    def test_validation(self):
        rng = np.random.default_rng(8)
        with pytest.raises(AnalysisError):
            bc.expert_similarity([])
        with pytest.raises(AnalysisError):
            bc.expert_similarity(random_snapshots(rng, tasks=1))
        with pytest.raises(AnalysisError):
            bc.expert_similarity(random_snapshots(rng, tasks=2, experts=1))


@pytest.fixture(scope="module")
def report():
    return bc.efficiency_report(bc.ExperimentConfig(), batches=8, seed=0)


class TestEfficiencyReport:
    def test_parameter_counts_at_default_dims(self, report):
        methods = report["methods"]
        assert methods["lora"]["params_per_layer"] == 1024
        assert methods["moelora"]["params_per_layer"] == 1152
        assert methods["branchlora"]["params_per_layer"] == 768
        assert report["dim"] == 32 and report["experts"] == 4

    def test_branch_updates_fewer_scalars_per_step(self, report):
        methods = report["methods"]
        # dense kinds touch everything every step; the sparse branch layer
        # touches the shared A, the router, and only the k selected branches
        assert methods["lora"]["updated_scalars_per_step"] == 1024
        assert methods["moelora"]["updated_scalars_per_step"] == 1152
        # shared A (32x4) + router (32x4) + 2 selected branches of 4x32 each
        assert methods["branchlora"]["updated_scalars_per_step"] == 512
        assert (
            methods["branchlora"]["updated_scalars_per_step"]
            < methods["moelora"]["updated_scalars_per_step"]
        )

    def test_every_declared_scalar_receives_gradients(self, report):
        for entry in report["methods"].values():
            assert entry["gradient_receiving_scalars"] == entry["params_per_layer"]

    def test_timing_fields(self, report):
        for entry in report["methods"].values():
            for field in ("forward_backward_ms", "train_batch_ms"):
                stats = entry[field]
                assert stats["mean"] > 0.0
                assert stats["median"] > 0.0
                assert stats["std"] >= 0.0
        assert report["batches"] == 8


def test_similarity_on_real_training_run(smoke_cfg, tmp_path):
    result = run_with_snapshots(smoke_cfg, 0, tmp_path)
    summary = bc.expert_similarity(result["snapshots"]["moelora"])
    assert summary["snapshots"] == smoke_cfg.stream.tasks
    assert summary["experts"] == smoke_cfg.adapter.experts
    assert summary["mean_cos_a"] is not None
    assert summary["mean_cos_b"] is not None
    # trained A barely moves between consecutive checkpoints
    assert summary["mean_cos_a"] > 0.9
