"""Training harness: per-task lifecycle, report structure, invariants."""

import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest

import branchcl as bc
from branchcl import ContractError, NumericError, ParameterError, harness
from branchcl.adapters import LAYERS
from branchcl.config import ALL_METHODS
from conftest import run_with_snapshots


class TestImmutabilityGuard:
    def test_passes_while_untouched(self):
        m = bc.Matrix(np.ones((2, 2)))
        guard = bc.ImmutabilityGuard()
        guard.track([("w", m)])
        guard.verify([("w", m)])

    def test_trips_on_any_bit_change(self):
        m = bc.Matrix(np.ones((2, 2)))
        guard = bc.ImmutabilityGuard()
        guard.track([("w", m)])
        m.data[1, 1] = np.nextafter(1.0, 2.0)
        with pytest.raises(ContractError):
            guard.verify([("w", m)])

    def test_trips_on_disappearance(self):
        m = bc.Matrix(np.ones((2, 2)))
        guard = bc.ImmutabilityGuard()
        guard.track([("w", m)])
        with pytest.raises(ContractError):
            guard.verify([])


class TestTrainTask:
    def test_loss_decreases_on_separable_data(self, smoke_cfg):
        stream = bc.generate_stream(
            tasks=1, train_samples=64, test_samples=32, dim=16, classes=4, seed=0
        )
        hp = smoke_cfg.adapter.hyperparams()
        model = bc.build_model("lora", bc.ModelConfig(width=16, classes=4, layers=2), hp, 0)
        task = stream.tasks[0]
        rng = np.random.default_rng(0)
        stats = bc.train_task(model, task.x_train, task.y_train, None, 10, 16, 3e-3, "adam", rng)
        assert stats.last_loss < stats.first_loss
        assert stats.batches == 10 * 4

    @pytest.mark.parametrize(
        "method, first",
        [
            ("lora", "layer0.A"),
            ("moelora", "layer0.expert0.A"),
            ("branchlora", "layer0.A"),
            ("multitask", "layer0.A"),
        ],
    )
    def test_nan_batch_raises_naming_seed_method_task_batch_tensor(self, smoke_cfg, method, first):
        # train_task names the task, batch and tensor; run_seed puts the
        # seed and method in front
        stream = bc.generate_stream(
            tasks=1, train_samples=64, test_samples=32, dim=16, classes=4, seed=0
        )
        stream.tasks[0].x_train[37, 3] = np.nan
        cfg = dataclasses.replace(smoke_cfg, methods=(method,))
        # the first epoch's permutation of the method's training rng puts
        # row 37 in this batch
        rng = np.random.default_rng(np.random.SeedSequence([3, harness.METHODS[method][1]]))
        batch = list(rng.permutation(64)).index(37) // cfg.train.batch_size
        with pytest.raises(NumericError) as info:
            bc.run_seed(cfg, 3, stream=stream)
        where = "all tasks" if method == "multitask" else "task 0"
        assert str(info.value).startswith(
            f"seed 3, method {method}, {where}, batch {batch}: tensor {first} "
        )

    def test_nan_test_row_names_the_multitask_method(self, smoke_cfg):
        # multitask trains a lora model, yet the error names multitask
        stream = bc.generate_stream(
            tasks=2, train_samples=64, test_samples=32, dim=16, classes=4, seed=0
        )
        stream.tasks[1].x_test[4, 0] = np.nan
        with pytest.raises(NumericError) as info:
            bc.run_seed(dataclasses.replace(smoke_cfg, methods=("multitask",)), 3, stream=stream)
        assert str(info.value) == (
            "seed 3, method multitask, task 1: test row 4 holds a non-finite value"
        )

    def test_no_matrix_views_a_finished_arena(self, smoke_cfg):
        task = bc.generate_stream(
            tasks=1, train_samples=32, test_samples=8, dim=16, classes=4, seed=0
        ).tasks[0]
        model = bc.build_model("branchlora", bc.ModelConfig(width=16, classes=4, layers=2),
                               smoke_cfg.adapter.hyperparams(), seed=0)
        model.start_task(0)
        bc.train_task(model, task.x_train, task.y_train, 0, 1, 16, 3e-3, "adam",
                      np.random.default_rng(0))
        model.finish_task(0)
        assert all(m.data.base is None for _, m in model.all_named_matrices())

    def test_zero_shot_refuses_training(self, smoke_cfg):
        hp = smoke_cfg.adapter.hyperparams()
        model = bc.build_model("zero_shot", bc.ModelConfig(width=16, classes=4, layers=2), hp, 0)
        with pytest.raises(ParameterError):
            bc.train_task(
                model, np.zeros((4, 16)), np.zeros(4, dtype=int), None, 1, 2, 1e-3,
                "adam", np.random.default_rng(0),
            )


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    cfg = bc.ExperimentConfig(
        stream=bc.StreamConfig(tasks=2, train_samples=64, test_samples=32, dim=16, classes=4),
        adapter=bc.AdapterConfig(rank=8, alpha=16.0, experts=4, top_k=2, freeze_width=1),
        train=bc.TrainConfig(epochs=3, batch_size=16),
        seeds=(0,),
    )
    return cfg, run_with_snapshots(cfg, 0, tmp_path_factory.mktemp("smoke_run"))


class TestRunSeedReport:
    def test_every_method_reported(self, smoke_run):
        cfg, result = smoke_run
        assert set(result["report"]["methods"]) == set(cfg.methods)

    def test_eval_matrix_is_lower_triangular(self, smoke_run):
        _, result = smoke_run
        for method, entry in result["report"]["methods"].items():
            rows = entry["eval_matrix"]
            assert [len(r) for r in rows] == [1, 2]
            matrix = bc.EvalMatrix(rows)
            m = bc.compute_metrics(matrix)
            assert entry["metrics"] == {"acc": m.acc, "maa": m.maa, "bwt": m.bwt}
            assert entry["final_row"] == matrix.final_row()
            assert entry["diagonal"] == matrix.diagonal()

    def test_stream_fingerprint_shared_by_all_methods(self, smoke_run):
        _, result = smoke_run
        report = result["report"]
        prints = {e["stream_fingerprint"] for e in report["methods"].values()}
        assert prints == {report["stream_fingerprint"]}

    def test_zero_shot_columns_are_constant(self, smoke_run):
        _, result = smoke_run
        rows = result["report"]["methods"]["zero_shot"]["eval_matrix"]
        assert rows[0][0] == rows[1][0]
        assert result["report"]["methods"]["zero_shot"]["metrics"]["bwt"] == 0.0

    def test_branchlora_extras_present(self, smoke_run):
        _, result = smoke_run
        entry = result["report"]["methods"]["branchlora"]
        assert 0.0 <= entry["selector_accuracy"] <= 1.0
        assert len(entry["oracle_final_row"]) == 2
        frozen_per_task = [e["frozen"] for e in entry["freeze_ledger"]]
        assert all(len(f) <= 1 for f in frozen_per_task)  # freeze_width 1
        layers = {e["layer"] for e in entry["freeze_ledger"]}
        assert layers == {0, 1}

    def test_trainable_param_counts_recorded(self, smoke_run):
        _, result = smoke_run
        methods = result["report"]["methods"]
        assert methods["zero_shot"]["trainable_params_per_task"] == [0, 0]
        d, r, n, pr = 16, 8, 4, 2
        assert methods["lora"]["trainable_params_per_task"] == [2 * 2 * d * r] * 2
        branch = methods["branchlora"]["trainable_params_per_task"]
        per_layer_full = d * pr + n * pr * d + d * n
        assert branch[0] == 2 * per_layer_full + d
        # task 1 trains one branch fewer per layer (frozen by the policy)
        assert branch[1] == branch[0] - 2 * pr * d

    def test_moelora_snapshots_per_task(self, smoke_run):
        _, result = smoke_run
        snaps = result["snapshots"]["moelora"]
        assert len(snaps) == 2  # one snapshot per task
        assert len(snaps[0]) == 2  # layers
        assert len(snaps[0][0]) == 4  # experts
        a, b = snaps[0][0][0]
        assert a.shape == (16, 2) and b.shape == (2, 16)

    def test_timings_cover_trained_methods(self, smoke_run):
        _, result = smoke_run
        for method in ("lora", "moelora", "branchlora", "multitask"):
            assert result["timings"][method]["batches"] > 0
            assert result["timings"][method]["mean_ms"] > 0.0

    def test_deterministic_given_config_and_seed(self, smoke_run):
        cfg, result = smoke_run
        again = bc.run_seed(cfg, 0)
        assert again["report"] == result["report"]


def trained_branchlora(cfg, out_dir):
    """Run `cfg` on seed 0 and load branchlora's model after its last task."""
    result = bc.run_seed(cfg, 0, out_dir=out_dir)
    last = out_dir / "checkpoints" / "seed0" / "branchlora" / f"task{cfg.stream.tasks - 1}"
    return result, bc.load_model(last)


class TestInvariants:
    def test_repeating_one_task_keeps_bwt_near_zero(self):
        # every "task" is the same data, so nothing can be forgotten; run at
        # the default scale where training converges and the 256-sample test
        # split resolves accuracy finer than the 0.02 tolerance
        base = bc.generate_stream(tasks=1, seed=0)
        t0 = base.tasks[0]
        clones = [
            bc.SyntheticTask(i, t0.x_train, t0.y_train, t0.x_test, t0.y_test, t0.center)
            for i in range(4)
        ]
        stream = bc.TaskStream(tasks=clones, dim=base.dim, classes=base.classes, seed=0)
        cfg = bc.ExperimentConfig(methods=("lora", "moelora", "branchlora"), seeds=(0,))
        result = bc.run_seed(cfg, 0, stream=stream)
        for method, entry in result["report"]["methods"].items():
            assert abs(entry["metrics"]["bwt"]) < 0.02, method

    def test_keys_never_move_when_alignment_is_off(self, smoke_cfg, tmp_path):
        cfg = dataclasses.replace(
            smoke_cfg,
            adapter=dataclasses.replace(smoke_cfg.adapter, align_weight=0.0),
            methods=("branchlora",),
        )
        _, trained = trained_branchlora(cfg, tmp_path)
        fresh = bc.build_model("branchlora", trained.cfg, trained.hp, 0)
        for tid in range(cfg.stream.tasks):
            fresh.start_task(tid)
        for tid in range(cfg.stream.tasks):
            np.testing.assert_array_equal(
                trained.keys.get(tid).k_img.data, fresh.keys.get(tid).k_img.data
            )
            np.testing.assert_array_equal(
                trained.keys.get(tid).k_txt.data, fresh.keys.get(tid).k_txt.data
            )

    def test_keys_move_when_alignment_is_on(self, smoke_cfg, tmp_path):
        cfg = dataclasses.replace(smoke_cfg, methods=("branchlora",))
        _, trained = trained_branchlora(cfg, tmp_path)
        fresh = bc.build_model("branchlora", trained.cfg, trained.hp, 0)
        fresh.start_task(0)
        assert not np.array_equal(
            trained.keys.get(0).k_img.data, fresh.keys.get(0).k_img.data
        )

    def test_multitask_upper_bounds_lora(self, default_run):
        results, _ = default_run
        multi = [r["report"]["methods"]["multitask"]["metrics"]["acc"] for r in results.values()]
        lora = [r["report"]["methods"]["lora"]["metrics"]["acc"] for r in results.values()]
        import statistics

        assert statistics.median(multi) >= statistics.median(lora)

    def test_frozen_branches_stay_bit_identical_across_tasks(self, smoke_cfg, tmp_path):
        # freeze everything the policy allows, then diff snapshots directly
        cfg = dataclasses.replace(
            smoke_cfg,
            stream=dataclasses.replace(smoke_cfg.stream, tasks=3),
            methods=("branchlora",),
        )
        result, model = trained_branchlora(cfg, tmp_path)
        ledger = result["report"]["methods"]["branchlora"]["freeze_ledger"]
        assert ledger, "policy froze nothing"
        for li, layer in enumerate(model.layers):
            frozen = [j for j, f in enumerate(layer.frozen) if f]
            assert frozen, "expected at least one frozen branch per layer"
            assert frozen == sorted(j for e in ledger if e["layer"] == li for j in e["frozen"])


class TestTapeEntries:
    def test_exact_entries_per_training_batch(self, monkeypatch):
        # The count depends only on the model structure, so every batch of a
        # method records the same number: each adapter layer is one adapter
        # entry, after one router_gate entry for the routed kinds. The key
        # alignment gradient of branchlora is computed off the tape.
        cfg = bc.load_config(Path(__file__).parent.parent / "configs" / "smoke.json")
        counts: dict[str, set[int]] = {}
        current = []
        train_task, backward = harness.train_task, harness.backward

        def counting_train_task(model, x, y, task_id, *args, **kwargs):
            current[:] = ["multitask" if task_id is None else model.kind]
            return train_task(model, x, y, task_id, *args, **kwargs)

        def counting_backward(tape, loss):
            counts.setdefault(current[0], set()).add(len(tape.entries))
            return backward(tape, loss)

        monkeypatch.setattr(harness, "train_task", counting_train_task)
        monkeypatch.setattr(harness, "backward", counting_backward)
        bc.run_seed(cfg, cfg.seeds[0])
        assert counts == {"lora": {5}, "moelora": {7}, "branchlora": {7}, "multitask": {5}}
        # branchlora's layers record what moelora's do, and its key
        # alignment records nothing
        keys = bc.KeyStore().add(0, cfg.stream.dim // 2, np.random.default_rng(0))
        xb = bc.Matrix(np.ones((cfg.train.batch_size, cfg.stream.dim)))
        with bc.Tape() as tape:
            bc.alignment_loss(xb, keys, cfg.adapter.align_weight)
        assert tape.entries == []
        assert counts["branchlora"] == counts["moelora"]


class TestForwardCalls:
    def test_one_forward_per_split_and_one_per_row_for_branchlora(self, monkeypatch):
        # Evaluation routes every row on its own inside one batched forward,
        # so a test split costs one ContinualModel.forward; branchlora, with
        # either selector, still forwards its rows one at a time.
        cfg = bc.load_config(Path(__file__).parent.parent / "configs" / "smoke.json")
        forward, evaluate = bc.ContinualModel.forward, harness.evaluate
        calls = []
        seen = []

        def counting_forward(model, x, *args, **kwargs):
            calls.append(x.rows)
            return forward(model, x, *args, **kwargs)

        def counting_evaluate(model, task, selector="oracle"):
            calls.clear()
            accuracy = evaluate(model, task, selector)
            seen.append((model.kind, selector, list(calls)))
            return accuracy

        monkeypatch.setattr(bc.ContinualModel, "forward", counting_forward)
        monkeypatch.setattr(harness, "evaluate", counting_evaluate)
        bc.run_seed(cfg, cfg.seeds[0])
        rows = cfg.stream.test_samples
        for kind, selector, got in seen:
            expected = [1] * rows if kind == "branchlora" else [rows]
            assert got == expected, (kind, selector)
        # zero_shot 2, lora 3, moelora 3, branchlora 3 + its 2-task oracle row, multitask 2
        assert len(seen) == 15
        assert sum(1 for e in seen if e[:2] == ("branchlora", "auto")) == 3


def test_aggregate_reports_shape(smoke_cfg):
    r0 = bc.run_seed(smoke_cfg, 0)["report"]
    r1 = bc.run_seed(smoke_cfg, 1)["report"]
    agg = bc.aggregate_reports({"methods": list(smoke_cfg.methods)}, {0: r0, 1: r1})
    assert agg["seeds"] == [0, 1]
    assert set(agg["per_seed"]) == {"0", "1"}
    lora = agg["aggregate"]["lora"]
    assert len(lora["acc"]["per_seed"]) == 2
    assert lora["acc"]["median"] == pytest.approx(
        sum(lora["acc"]["per_seed"]) / 2
    )
    assert "selector_accuracy" in agg["aggregate"]["branchlora"]
    assert "selector_accuracy" not in agg["aggregate"]["lora"]


class TestMethodProtocol:
    def test_method_table_matches_config_and_layers(self):
        # a method added to only one list fails here, not with a KeyError
        # inside `branchcl run`
        assert tuple(harness.METHODS) == ALL_METHODS
        for kind, _, _ in harness.METHODS.values():
            assert kind in LAYERS

    @pytest.mark.parametrize("module", ["harness.py", "model.py"])
    def test_no_comparison_of_kind_or_method_name(self, module):
        # the harness and the model read the layer and its keys; comparing
        # a `.kind` or a method name would add a per-kind branch again
        names = {"zero_shot", "lora", "moelora", "branchlora", "multitask"}

        def names_a_kind(operand):
            return any(
                (isinstance(sub, ast.Attribute) and sub.attr == "kind")
                or (isinstance(sub, ast.Constant) and sub.value in names)
                for sub in ast.walk(operand)
            )

        tree = ast.parse(Path(harness.__file__).with_name(module).read_text())
        found = [
            f"{module}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Compare)
            and any(names_a_kind(op) for op in (node.left, *node.comparators))
        ]
        assert found == []
