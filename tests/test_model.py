"""Full model assembly, task lifecycle, and checkpoint round trips."""

import json
import os
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import branchcl as bc
from branchcl import ParameterError
from branchcl.adapters import LAYERS
from branchcl.cli import _dump_json, main


SMOKE = str(Path(__file__).parent.parent / "configs" / "smoke.json")
CFG = bc.ModelConfig(width=16, classes=4, layers=2)
HP = bc.AdapterHyperparams(rank=8, alpha=16.0, experts=4, top_k=2)


def batch(rng, n=5):
    return bc.Matrix(rng.standard_normal((n, 16)))


class TestBuildModel:
    @pytest.mark.parametrize("kind", LAYERS)
    def test_forward_shapes(self, kind):
        model = bc.build_model(kind, CFG, HP, seed=0)
        if kind == "branchlora":
            model.start_task(0)
        rng = np.random.default_rng(1)
        tid = 0 if kind == "branchlora" else None
        logits, gates = model.forward(batch(rng), tid)
        assert logits.shape == (5, 4)
        expected_gates = 2 if kind in ("moelora", "branchlora") else 0
        assert len(gates) == expected_gates

    def test_unknown_kind(self):
        with pytest.raises(ParameterError):
            bc.build_model("prompt_tuning", CFG, HP, seed=0)

    def test_backbone_shared_across_kinds(self):
        lora = bc.build_model("lora", CFG, HP, seed=3)
        moe = bc.build_model("moelora", CFG, HP, seed=3)
        branch = bc.build_model("branchlora", CFG, HP, seed=3)
        zero = bc.build_model("zero_shot", CFG, HP, seed=3)
        for i in range(CFG.layers):
            w = lora.layers[i].backbone.data
            np.testing.assert_array_equal(w, moe.layers[i].backbone.data)
            np.testing.assert_array_equal(w, branch.layers[i].backbone.data)
            np.testing.assert_array_equal(w, zero.layers[i].backbone.data)
        np.testing.assert_array_equal(lora.head.data, branch.head.data)

    def test_different_seeds_differ(self):
        a = bc.build_model("lora", CFG, HP, seed=0)
        b = bc.build_model("lora", CFG, HP, seed=1)
        assert not np.array_equal(
            a.layers[0].backbone.data, b.layers[0].backbone.data
        )

    def test_zero_shot_has_no_trainable_params(self):
        model = bc.build_model("zero_shot", CFG, HP, seed=0)
        assert model.trainable_params() == []
        assert model.count_trainable_params() == 0

    def test_head_is_frozen(self):
        for kind in LAYERS:
            model = bc.build_model(kind, CFG, HP, seed=0)
            if kind == "branchlora":
                model.start_task(0)
            assert model.head not in dict(model.trainable_params()).values()


class TestTaskLifecycle:
    def test_start_task_registers_routers_and_keys(self):
        model = bc.build_model("branchlora", CFG, HP, seed=0)
        model.start_task(0)
        for layer in model.layers:
            assert 0 in layer.routers
        assert [k.task_id for k in model.keys.ordered()] == [0]
        assert model.keys.get(0).k_img.shape == (1, 8)

    def test_finish_task_freezes_routers_and_keys(self):
        model = bc.build_model("branchlora", CFG, HP, seed=0)
        for task in (0, 1):
            model.start_task(task)
            assert model.keys.get(task).k_img.trainable
            model.finish_task(task)
            for layer in model.layers:
                assert not layer.routers[task].trainable
            for keys in model.keys.ordered():
                assert not keys.k_img.trainable and not keys.k_txt.trainable
        assert [k.task_id for k in model.keys.ordered()] == [0, 1]

    @pytest.mark.parametrize("kind", ["zero_shot", "lora", "moelora"])
    def test_lifecycle_is_noop_for_dense_kinds(self, kind):
        model = bc.build_model(kind, CFG, HP, seed=0)
        before = [(n, m.data.tobytes(), m.trainable) for n, m in model.all_named_matrices()]
        model.start_task(0)
        model.finish_task(0)
        assert len(model.keys) == 0
        after = [(n, m.data.tobytes(), m.trainable) for n, m in model.all_named_matrices()]
        assert after == before

    def test_param_counts(self):
        d, r, n, pr = 16, 8, 4, 2
        lora = bc.build_model("lora", CFG, HP, seed=0)
        assert lora.count_trainable_params() == 2 * (2 * d * r)
        moe = bc.build_model("moelora", CFG, HP, seed=0)
        assert moe.count_trainable_params() == 2 * (2 * d * r + d * n)
        branch = bc.build_model("branchlora", CFG, HP, seed=0)
        branch.start_task(0)
        per_layer = d * pr + n * pr * d + d * n
        keys = 2 * (d // 2)
        assert branch.count_trainable_params() == 2 * per_layer + keys

    def test_router_inits_differ_across_tasks(self):
        model = bc.build_model("branchlora", CFG, HP, seed=0)
        model.start_task(0)
        model.start_task(1)
        r0 = model.layers[0].routers[0].data
        r1 = model.layers[0].routers[1].data
        assert not np.array_equal(r0, r1)
        assert np.all(np.abs(r0) < 0.1)  # tiny init keeps early gates near uniform


class TestCheckpoints:
    def train_a_little(self, model, rng, task_id=None):
        x = batch(rng, 8)
        y = rng.integers(0, 4, size=8)
        # a sparse gate leaves unselected branches without a grad
        allow = model.layers[0].allow_missing
        opt = bc.make_optimizer("adam", model.trainable_params(), lr=1e-2, allow_missing=allow)
        tape = bc.Tape()
        logits, _ = model.forward(x, task_id, tape=tape)
        bc.backward(tape, bc.cross_entropy(logits, y, tape))
        opt.step()

    @pytest.mark.parametrize("kind", LAYERS)
    def test_round_trip_bit_exact(self, kind, tmp_path):
        rng = np.random.default_rng(9)
        model = bc.build_model(kind, CFG, HP, seed=7)
        tid = None
        if kind == "branchlora":
            model.start_task(0)
            tid = 0
        if kind != "zero_shot":
            self.train_a_little(model, rng, tid)
        bc.save_model(tmp_path / "ckpt", model)
        loaded = bc.load_model(tmp_path / "ckpt")
        assert loaded.kind == kind
        assert loaded.cfg == model.cfg
        assert loaded.hp == model.hp
        assert loaded.seed == model.seed
        saved = dict(model.all_named_matrices())
        restored = dict(loaded.all_named_matrices())
        assert saved.keys() == restored.keys()
        for name in saved:
            np.testing.assert_array_equal(saved[name].data, restored[name].data)
            assert saved[name].trainable == restored[name].trainable

    def test_restores_freeze_mask_and_task_registry(self, tmp_path):
        model = bc.build_model("branchlora", CFG, HP, seed=7)
        model.start_task(0)
        bc.apply_freeze(model.layers[0], [2])
        model.finish_task(0)
        model.start_task(1)
        bc.save_model(tmp_path / "ckpt", model)
        loaded = bc.load_model(tmp_path / "ckpt")
        assert loaded.layers[0].frozen == [False, False, True, False]
        assert loaded.layers[1].frozen == [False] * 4
        assert sorted(loaded.layers[0].routers) == [0, 1]
        assert not loaded.layers[0].routers[0].trainable
        assert loaded.layers[0].routers[1].trainable
        assert [k.task_id for k in loaded.keys.ordered()] == [0, 1]
        assert not loaded.keys.get(0).k_img.trainable
        # the loaded model names its matrices as the built one does, and its
        # router and key rngs continue where the saved model's left off
        built = [name for name, _ in model.all_named_matrices()]
        assert [name for name, _ in loaded.all_named_matrices()] == built
        model.start_task(2)
        loaded.start_task(2)
        for ours, theirs in zip(model.layers, loaded.layers):
            assert ours.routers[2].data.tobytes() == theirs.routers[2].data.tobytes()
        for view in ("k_img", "k_txt"):
            ours, theirs = getattr(model.keys.get(2), view), getattr(loaded.keys.get(2), view)
            assert ours.data.tobytes() == theirs.data.tobytes()

    @pytest.mark.parametrize("kind", LAYERS)
    def test_loaded_model_forward_matches(self, kind, tmp_path):
        rng = np.random.default_rng(11)
        model = bc.build_model(kind, CFG, HP, seed=5)
        task_ids = [None]
        if kind == "branchlora":
            # task 0 finished with one branch frozen, task 1 started
            model.start_task(0)
            self.train_a_little(model, rng, 0)
            bc.apply_freeze(model.layers[0], [1])
            model.finish_task(0)
            model.start_task(1)
            self.train_a_little(model, rng, 1)
            task_ids = [0, 1]
        elif kind != "zero_shot":
            self.train_a_little(model, rng)
        bc.save_model(tmp_path / "ckpt", model)
        loaded = bc.load_model(tmp_path / "ckpt")
        x = batch(np.random.default_rng(12))
        for tid in task_ids:
            ours, _ = model.forward(x, tid)
            theirs, _ = loaded.forward(x, tid)
            np.testing.assert_array_equal(ours.data, theirs.data)

    def test_missing_manifest_is_contract_error(self, tmp_path):
        with pytest.raises(bc.ContractError):
            bc.load_model(tmp_path / "nothing-here")

    @pytest.mark.parametrize(
        "defect, name",
        [("extra tensor", "layer0.router.task1"), ("missing tensor", "layer1.branch3"),
         ("shape", "layer0.A")],
    )
    def test_manifest_that_differs_from_its_model_is_contract_error(self, tmp_path, defect, name):
        model = bc.build_model("branchlora", CFG, HP, seed=7)
        model.start_task(0)
        path = bc.save_model(tmp_path / "ckpt", model) / "manifest.json"
        manifest = json.loads(path.read_text())
        tensors = manifest["tensors"]
        if defect == "extra tensor":
            tensors[name] = dict(tensors["layer0.router.task0"])
        elif defect == "missing tensor":
            del tensors[name]
        else:
            # rows and cols swapped: the byte count still matches the file
            spec = tensors[name]
            spec["rows"], spec["cols"] = spec["cols"], spec["rows"]
        path.write_text(json.dumps(manifest))
        with pytest.raises(bc.ContractError, match=name):
            bc.load_model(tmp_path / "ckpt")

    @pytest.mark.parametrize(
        "kind, name",
        [("zero_shot", "head"), ("zero_shot", "layer0.backbone"), ("lora", "layer1.backbone"),
         ("moelora", "head"), ("branchlora", "layer0.backbone")],
    )
    def test_manifest_may_not_turn_a_frozen_matrix_trainable(self, tmp_path, kind, name):
        # a saved flag may freeze a matrix (a branch, a finished router) but
        # never unfreeze one that the rebuilt model holds frozen
        model = bc.build_model(kind, CFG, HP, seed=7)
        path = bc.save_model(tmp_path / "ckpt", model) / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["tensors"][name]["trainable"] = True
        path.write_text(json.dumps(manifest))
        match = rf"tensor {re.escape(name)} is marked trainable"
        with pytest.raises(bc.ContractError, match=match):
            bc.load_model(tmp_path / "ckpt")

    @pytest.mark.parametrize("where", ["absolute", "parent", "other tensor"])
    def test_manifest_may_name_only_its_tensors_own_file(self, tmp_path, where):
        # each named file holds bytes of the right size, so only the name
        # itself can stop a read from outside the checkpoint directory
        model = bc.build_model("lora", CFG, HP, seed=7)
        ckpt = bc.save_model(tmp_path / "ckpt", model)
        path = ckpt / "manifest.json"
        manifest = json.loads(path.read_text())
        name = "layer0.B"
        outside = tmp_path / "outside.f64"
        outside.write_bytes((ckpt / "layer0.B.f64").read_bytes())
        manifest["tensors"][name]["file"] = {
            "absolute": str(outside), "parent": "../outside.f64", "other tensor": "layer1.B.f64",
        }[where]
        path.write_text(json.dumps(manifest))
        match = rf"^{re.escape(str(path))}: tensor {re.escape(name)}: 'file' must be 'layer0\.B\.f64'"
        with pytest.raises(bc.ContractError, match=match):
            bc.load_model(ckpt)

    def test_tensor_file_may_not_be_a_symlink(self, tmp_path):
        # the manifest is untouched and the link's target holds the same
        # bytes, so only the link itself can stop the read
        model = bc.build_model("lora", CFG, HP, seed=7)
        ckpt = bc.save_model(tmp_path / "ckpt", model)
        tensor = ckpt / "layer0.B.f64"
        outside = tmp_path / "outside.f64"
        outside.write_bytes(tensor.read_bytes())
        tensor.unlink()
        tensor.symlink_to(outside)
        path = ckpt / "manifest.json"
        match = rf"^{re.escape(str(path))}: tensor layer0\.B: layer0\.B\.f64 is a symbolic link$"
        with pytest.raises(bc.ContractError, match=match):
            bc.load_model(ckpt)

    def test_manifest_may_not_be_a_symlink(self, tmp_path):
        # the link's target holds the same text, so only the link itself
        # can stop the read
        model = bc.build_model("lora", CFG, HP, seed=7)
        ckpt = bc.save_model(tmp_path / "ckpt", model)
        path = ckpt / "manifest.json"
        outside = tmp_path / "outside.json"
        outside.write_text(path.read_text())
        path.unlink()
        path.symlink_to(outside)
        with pytest.raises(bc.ContractError, match=rf"^{re.escape(str(path))} is a symbolic link$"):
            bc.load_model(ckpt)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_tensor_is_contract_error(self, tmp_path, value):
        # the file's size and the manifest are right, so only its values can
        # stop the load
        model = bc.build_model("branchlora", CFG, HP, seed=7)
        model.start_task(0)
        ckpt = bc.save_model(tmp_path / "ckpt", model)
        tensor = ckpt / "layer0.branch0.f64"
        data = np.frombuffer(tensor.read_bytes(), dtype="<f8").copy()
        data[5] = value
        tensor.write_bytes(data.tobytes())
        cols = model.layers[0].branches[0].cols
        match = (rf"^tensor layer0\.branch0: {re.escape(str(tensor))} holds {value} "
                 rf"at \[{5 // cols}, {5 % cols}\]$")
        with pytest.raises(bc.ContractError, match=match):
            bc.load_model(ckpt)


    @pytest.mark.parametrize("section, key, value", [("model", "width", 16.0),
                                                     ("hyperparams", "rank", 8.0)])
    def test_manifest_with_a_float_size_is_contract_error(self, tmp_path, section, key, value):
        # a float where an integer belongs stops the load with one error
        # naming the manifest and the field, not a TypeError from a draw
        model = bc.build_model("moelora", CFG, HP, seed=7)
        path = bc.save_model(tmp_path / "ckpt", model) / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest[section][key] = value
        path.write_text(json.dumps(manifest))
        match = rf"^{re.escape(str(path))}: bad '{section}': {key} must be an integer, got {value}$"
        with pytest.raises(bc.ContractError, match=match):
            bc.load_model(tmp_path / "ckpt")


@pytest.mark.parametrize("key", ["width", "classes", "layers", "rank", "experts", "top_k"])
@pytest.mark.parametrize("value", [4.0, True])
def test_sizes_must_be_ints(key, value):
    cls = bc.ModelConfig if key in ("width", "classes", "layers") else bc.AdapterHyperparams
    with pytest.raises(ParameterError, match=f"^{key} must be an integer, got {value}$"):
        cls(**{key: value})


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(sorted(LAYERS)),
    seed=st.integers(0, 2**16),
    finished=st.lists(st.booleans(), max_size=4),
    data=st.data(),
)
def test_checkpoint_round_trip_property(kind, seed, finished, data):
    # router tasks 0..n-1, each finished or not; every matrix holds fresh
    # bytes, one of them any finite float64 (-0.0, subnormals; a load
    # refuses NaN and inf, see test_non_finite_tensor_is_contract_error);
    # each branch frozen or not
    model = bc.build_model(kind, CFG, HP, seed)
    for t, done in enumerate(finished):
        model.start_task(t)
        if done:
            model.finish_task(t)
    rng = np.random.default_rng(seed)
    for _, m in model.all_named_matrices():
        m.data = rng.standard_normal(m.shape)
        m.data.flat[0] = data.draw(st.floats(width=64, allow_nan=False, allow_infinity=False))
    for layer in model.layers:
        for branch in getattr(layer, "branches", ()):
            branch.trainable = data.draw(st.booleans())
    with tempfile.TemporaryDirectory() as tmp:
        bc.save_model(Path(tmp) / "ckpt", model)
        loaded = bc.load_model(Path(tmp) / "ckpt")

    def snapshot(m):
        return [(name, x.data.tobytes(), x.trainable) for name, x in m.all_named_matrices()]

    assert snapshot(loaded) == snapshot(model)
    # the next task draws the router and keys the saved model would draw
    model.start_task(len(finished))
    loaded.start_task(len(finished))
    assert snapshot(loaded) == snapshot(model)


def test_interrupted_writes_leave_the_previous_files(tmp_path):
    report = tmp_path / "report.json"
    _dump_json(report, {"acc": 1})
    model = bc.build_model("branchlora", CFG, HP, seed=3)
    model.start_task(0)
    ckpt = bc.save_model(tmp_path / "ckpt", model)
    files = sorted(os.listdir(ckpt))
    before = [p.read_bytes() for p in (report, ckpt / "manifest.json")]
    # the new manifest would differ: one more branch frozen
    model.layers[0].branches[1].trainable = False
    # an error after each temporary file is written, before it replaces
    with mock.patch("os.replace", side_effect=OSError("interrupted")):
        with pytest.raises(OSError, match="interrupted"):
            _dump_json(report, {"acc": 2})
        with pytest.raises(OSError, match="interrupted"):
            bc.save_model(ckpt, model)
    assert [p.read_bytes() for p in (report, ckpt / "manifest.json")] == before
    assert sorted(os.listdir(ckpt)) == files
    assert not list(tmp_path.rglob("*.tmp"))
    _dump_json(report, {"acc": 2})
    bc.save_model(ckpt, model)
    assert json.loads(report.read_text()) == {"acc": 2}
    assert not bc.load_model(ckpt).layers[0].branches[1].trainable
    assert sorted(os.listdir(ckpt)) == files

    # each CSV file, written by the command that makes it, failing at its
    # own replace: the file keeps the bytes it had. Each command writes
    # what the next one reads before it fails.
    run = tmp_path / "run"
    run.mkdir()
    commands = {
        "report.csv": ["run", "--config", SMOKE, "--out", str(run)],
        "efficiency.csv": ["analyze", str(run), "--batches", "2"],
        "vectors.csv": ["analyze", str(run), "--batches", "2"],
        "maa_curve.csv": ["report", str(run)],
    }
    replace = os.replace

    def replace_except(name):
        def fake(src, dst):
            if Path(dst).name == name:
                raise OSError("interrupted")
            replace(src, dst)

        return fake

    for name, argv in commands.items():
        (run / name).write_bytes(b"previous\r\n")
        with mock.patch("os.replace", side_effect=replace_except(name)):
            assert main(argv) == 1
        assert (run / name).read_bytes() == b"previous\r\n"
    assert not list(tmp_path.rglob("*.tmp"))
