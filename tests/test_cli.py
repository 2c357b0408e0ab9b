"""Command-line interface: files written, exit codes, determinism."""

import csv
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import branchcl as bc
from branchcl.cli import load_snapshots, main

SMOKE = str(Path(__file__).parent.parent / "configs" / "smoke.json")


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    assert main(["run", "--config", SMOKE, "--out", str(out)]) == 0
    return out


class TestRun:
    def test_writes_expected_files(self, run_dir):
        for name in ("config.json", "report.json", "report.csv", "timings.json", "ledger.json"):
            assert (run_dir / name).is_file(), name
        cfg = json.loads((run_dir / "config.json").read_text())
        for method in cfg["methods"]:
            last = cfg["stream"]["tasks"] - 1
            manifest = run_dir / "checkpoints" / "seed0" / method / f"task{last}" / "manifest.json"
            assert manifest.is_file(), method

    def test_report_structure(self, run_dir):
        report = json.loads((run_dir / "report.json").read_text())
        assert report["seeds"] == [0]
        assert "out_dir" not in report["config"]
        assert set(report["aggregate"]) == set(report["config"]["methods"])
        assert "selector_accuracy" in report["aggregate"]["branchlora"]

    def test_report_csv_layout(self, run_dir):
        rows = read_csv(run_dir / "report.csv")
        assert rows[0] == ["seed", "method", "metric", "value"]
        body = rows[1:]
        # 5 methods x 3 metrics for seed 0, plus the median block
        assert len(body) == 5 * 3 * 2
        assert {r[0] for r in body} == {"0", "median"}
        # values round-trip exactly through repr
        report = json.loads((run_dir / "report.json").read_text())
        acc = next(r for r in body if r[:3] == ["0", "lora", "acc"])
        assert float(acc[3]) == report["per_seed"]["0"]["methods"]["lora"]["metrics"]["acc"]

    def test_ledger_lists_branchlora_freezes(self, run_dir):
        ledger = json.loads((run_dir / "ledger.json").read_text())
        assert "branchlora" in ledger["0"]
        assert ledger["0"]["branchlora"], "no freeze decisions recorded"

    def test_byte_identical_reports_for_same_config_and_seed(self, run_dir, tmp_path, capsys):
        other = tmp_path / "again"
        assert main(["run", "--config", SMOKE, "--out", str(other)]) == 0
        assert (other / "report.json").read_bytes() == (run_dir / "report.json").read_bytes()
        out = capsys.readouterr().out
        assert "seed 0 done" in out
        assert "branchlora" in out and "acc=" in out and "bwt=" in out
        assert f"wrote {other}/report.json" in out

    def test_nan_in_a_training_batch_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        from branchcl import harness

        def poisoned(**kwargs):
            stream = generate(**kwargs)
            stream.tasks[0].x_train[5, 0] = np.nan
            return stream

        generate = harness.generate_stream
        monkeypatch.setattr(harness, "generate_stream", poisoned)
        assert main(["run", "--config", SMOKE, "--out", str(tmp_path / "nan")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("branchcl: error: seed 0, method lora, task 0, batch ")
        assert err.endswith(": training loss is nan\n")
        assert err.count("\n") == 1

    def test_seed_override(self, tmp_path):
        out = tmp_path / "s1"
        assert main(["run", "--config", SMOKE, "--seed", "1", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["seeds"] == [1]
        assert report["config"]["seeds"] == [1]

    def test_out_dir_resolution(self, tmp_path, monkeypatch):
        env_dir = tmp_path / "from-env"
        monkeypatch.setenv("BRANCHCL_OUT", str(env_dir))
        flag_dir = tmp_path / "from-flag"
        assert main(["run", "--config", SMOKE, "--out", str(flag_dir)]) == 0
        assert (flag_dir / "report.json").is_file()
        assert not env_dir.exists()  # --out wins over the environment
        assert main(["run", "--config", SMOKE]) == 0
        assert (env_dir / "report.json").is_file()


class TestRunErrors:
    def test_malformed_json_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["run", "--config", str(bad)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("branchcl: error:")
        assert err.count("\n") == 1
        assert "line" in err

    def test_unknown_config_field(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"stream": {"dimension": 32}}))
        assert main(["run", "--config", str(bad)]) == 2
        assert "stream.dimension" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "absent.json")]) == 2

    def test_duplicate_seed_flags(self, capsys):
        assert main(["run", "--config", SMOKE, "--seed", "0", "--seed", "0"]) == 2
        assert "duplicate" in capsys.readouterr().err

    @pytest.mark.parametrize("section,name", [("train", "lr"), ("stream", "separation")])
    def test_non_finite_config_value(self, tmp_path, capsys, section, name):
        obj = json.loads(Path(SMOKE).read_text())
        obj.setdefault(section, {})[name] = float("nan")
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps(obj))  # written as the literal NaN
        assert "NaN" in bad.read_text()
        out = tmp_path / "run"
        assert main(["run", "--config", str(bad), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"branchcl: error: {section}.{name}:")
        assert not out.exists()

    def test_negative_seed_flag(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["run", "--config", SMOKE, "--seed", "-1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("branchcl: error: seeds[0]:")
        assert err.count("\n") == 1
        assert not out.exists()


class TestAnalyze:
    def test_writes_analysis_files(self, run_dir):
        assert main(["analyze", str(run_dir), "--batches", "2"]) == 0
        sim = json.loads((run_dir / "similarity.json").read_text())
        assert sim["seeds"] == [0]
        assert isinstance(sim["median_margin"], float)
        assert sim["per_seed"]["0"]["margin"] == sim["median_margin"]

        eff = read_csv(run_dir / "efficiency.csv")
        assert eff[0][:2] == ["method", "params_per_layer"]
        assert len(eff[0]) == 11
        by_method = {r[0]: r for r in eff[1:]}
        assert set(by_method) == {"lora", "moelora", "branchlora"}
        assert int(by_method["branchlora"][1]) < int(by_method["moelora"][1])

        vec = read_csv(run_dir / "vectors.csv")
        # 2 matrices x 2 tasks x 2 layers x 4 experts for the one seed
        assert len(vec) == 1 + 2 * 2 * 2 * 4
        assert vec[0][:5] == ["seed", "matrix", "task", "layer", "expert"]
        assert len(vec[0]) == 5 + 16 * 2  # flattened 16x2 / 2x16 matrices

    def test_snapshot_outputs_are_idempotent(self, run_dir, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        assert main(["analyze", str(run_dir), "--out", str(first), "--batches", "2"]) == 0
        assert main(["analyze", str(run_dir), "--out", str(second), "--batches", "2"]) == 0
        assert (first / "similarity.json").read_bytes() == (second / "similarity.json").read_bytes()
        assert (first / "vectors.csv").read_bytes() == (second / "vectors.csv").read_bytes()

    def test_vectors_csv_matches_a_csv_writer(self, run_dir, tmp_path):
        out = tmp_path / "analysis"
        assert main(["analyze", str(run_dir), "--out", str(out), "--batches", "2"]) == 0
        rows = bc.expert_vectors(load_snapshots(run_dir, 0, 2))
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["seed", "matrix", "task", "layer", "expert"]
                        + [f"v{i}" for i in range(len(rows[0]["vector"]))])
        for row in rows:
            writer.writerow([0, row["matrix"], row["task"], row["layer"], row["expert"]]
                            + [repr(float(v)) for v in row["vector"]])
        assert (out / "vectors.csv").read_bytes() == buf.getvalue().encode()

    def test_not_a_run_dir(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path)]) == 1
        assert "config.json" in capsys.readouterr().err
        assert not (tmp_path / "similarity.json").exists()

    def test_missing_checkpoint_leaves_no_partial_outputs(self, run_dir, tmp_path, capsys):
        import shutil

        broken = tmp_path / "broken"
        shutil.copytree(run_dir, broken)
        victim = broken / "checkpoints" / "seed0" / "moelora" / "task1" / "manifest.json"
        victim.unlink()
        out = tmp_path / "analysis"
        assert main(["analyze", str(broken), "--out", str(out), "--batches", "2"]) == 1
        assert "missing checkpoints" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("victim", ["expert0.A", "manifest"])
    def test_truncated_checkpoint_file_is_one_error_line(self, run_dir, tmp_path, capsys, victim):
        import shutil

        broken = tmp_path / "broken"
        shutil.copytree(run_dir, broken)
        ckpt = broken / "checkpoints" / "seed0" / "moelora" / "task1"
        path = ckpt / ("manifest.json" if victim == "manifest" else f"layer0.{victim}.f64")
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2] if victim == "manifest" else raw[:-3])
        out = tmp_path / "analysis"
        assert main(["analyze", str(broken), "--out", str(out), "--batches", "2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("branchcl: error:")
        assert err.count("\n") == 1
        assert path.name in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value",
        [
            pytest.param(key, None, id=key)
            for key in ("router_tasks", "model", "seed", "file", "rows", "cols", "trainable")
        ]
        # a value that replaces the key's own
        + [
            pytest.param("router_tasks", 3, id="router_tasks_int"),
            pytest.param("router_tasks", "01", id="router_tasks_str"),
            pytest.param("kind", ["lora"], id="kind_list"),
        ],
    )
    def test_malformed_manifest_is_one_error_line(self, run_dir, tmp_path, capsys, key, value):
        import shutil

        broken = tmp_path / "broken"
        shutil.copytree(run_dir, broken)
        path = broken / "checkpoints" / "seed0" / "moelora" / "task1" / "manifest.json"
        manifest = json.loads(path.read_text())
        entry = next(iter(manifest["tensors"].values()))
        if value is not None:
            manifest[key] = value
        elif key == "router_tasks":
            del manifest["router_tasks"]
        elif key == "model":
            manifest["model"]["depth"] = 3
        elif key == "seed":
            manifest["seed"] = "zero"
        elif key == "file":
            del entry["file"]
        elif key == "trainable":
            entry["trainable"] = "yes"
        else:
            entry[key] = float(entry[key])
        path.write_text(json.dumps(manifest))
        out = tmp_path / "analysis"
        assert main(["analyze", str(broken), "--out", str(out), "--batches", "2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("branchcl: error:")
        assert err.count("\n") == 1
        assert str(path) in err and repr(key) in err
        assert not out.exists()

    def test_requires_moelora_in_methods(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg = json.loads(Path(SMOKE).read_text())
        cfg["methods"] = ["lora"]
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "run"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert main(["analyze", str(out)]) == 1
        assert "moelora" in capsys.readouterr().err


class TestReport:
    def test_renders_tables_and_curves(self, run_dir, capsys):
        assert main(["report", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "seed 0" in out
        assert "just-trained" in out
        assert "final" in out
        assert "medians" in out
        for method in ("zero_shot", "lora", "moelora", "branchlora", "multitask"):
            assert method in out
        curves = read_csv(run_dir / "maa_curve.csv")
        assert curves[0] == ["seed", "method", "task", "maa"]
        assert len(curves) == 1 + 5 * 2  # seeds x methods x tasks

    def test_curve_values_match_metrics(self, run_dir):
        report = json.loads((run_dir / "report.json").read_text())
        curves = read_csv(run_dir / "maa_curve.csv")[1:]
        final_maa = {
            (seed, method): float(value)
            for seed, method, task, value in curves
            if task == "1"
        }
        for method, entry in report["per_seed"]["0"]["methods"].items():
            assert final_maa[("0", method)] == entry["metrics"]["maa"]

    def test_accepts_report_file_path(self, run_dir, tmp_path):
        assert main(["report", str(run_dir / "report.json"), "--out", str(tmp_path)]) == 0
        assert (tmp_path / "maa_curve.csv").is_file()

    def test_missing_report(self, tmp_path, capsys):
        assert main(["report", str(tmp_path)]) == 1
        assert "report.json" in capsys.readouterr().err

    def test_malformed_report(self, tmp_path, capsys):
        (tmp_path / "report.json").write_text("{oops")
        assert main(["report", str(tmp_path)]) == 2

    def test_schema_violation_names_the_path(self, run_dir, tmp_path, capsys):
        report = json.loads((run_dir / "report.json").read_text())
        del report["per_seed"]["0"]["methods"]["lora"]["metrics"]
        (tmp_path / "report.json").write_text(json.dumps(report))
        assert main(["report", str(tmp_path)]) == 2
        assert "metrics" in capsys.readouterr().err

    @staticmethod
    def _lora(report):
        return report["per_seed"]["0"]["methods"]["lora"]

    @pytest.mark.parametrize("break_report, path", [
        pytest.param(lambda r: TestReport._lora(r)["metrics"].update(acc="high"),
                     "per_seed.0.methods.lora.metrics.acc", id="string-metric"),
        pytest.param(lambda r: TestReport._lora(r)["metrics"].update(bwt=True),
                     "per_seed.0.methods.lora.metrics.bwt", id="bool-metric"),
        pytest.param(lambda r: TestReport._lora(r)["eval_matrix"][1].__setitem__(0, "0.5"),
                     "per_seed.0.methods.lora.eval_matrix: accuracy [1][0]='0.5'",
                     id="string-accuracy"),
        pytest.param(lambda r: TestReport._lora(r).update(eval_matrix=5),
                     "per_seed.0.methods.lora.eval_matrix: evaluation matrix needs",
                     id="number-matrix"),
        pytest.param(lambda r: TestReport._lora(r)["eval_matrix"][1].pop(),
                     "per_seed.0.methods.lora.eval_matrix: row 1 has 1 entries",
                     id="short-row"),
        pytest.param(lambda r: r["per_seed"].update(zero=r["per_seed"].pop("0")),
                     "per_seed.zero", id="word-seed-key"),
        pytest.param(lambda r: r["per_seed"].update({"0": 5}),
                     "per_seed.0 must be an object", id="number-seed-entry"),
        pytest.param(lambda r: r.update(config=["lora"]),
                     "config must be an object", id="list-config"),
        pytest.param(lambda r: r["config"].update(methods="lora"),
                     "config.methods", id="string-methods"),
        pytest.param(lambda r: r.update(aggregate=[]), "aggregate", id="list-aggregate"),
        pytest.param(lambda r: r["aggregate"]["lora"]["acc"].update(median="0.5"),
                     "aggregate.lora.acc.median", id="string-median"),
    ])
    def test_malformed_field_is_one_schema_error(self, run_dir, tmp_path, capsys, break_report,
                                                 path):
        # exit 2 and one line naming the field, before any file is written
        report = json.loads((run_dir / "report.json").read_text())
        break_report(report)
        (tmp_path / "report.json").write_text(json.dumps(report))
        assert main(["report", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"branchcl: error: report schema: {path}")
        assert not (tmp_path / "maa_curve.csv").exists()


class TestRoundTrip:
    def test_final_checkpoint_reproduces_reported_row(self, run_dir):
        cfg = bc.load_config(run_dir / "config.json")
        report = json.loads((run_dir / "report.json").read_text())
        entry = report["per_seed"]["0"]["methods"]["branchlora"]
        last = cfg.stream.tasks - 1
        model = bc.load_model(run_dir / "checkpoints" / "seed0" / "branchlora" / f"task{last}")
        stream = bc.generate_stream(
            tasks=cfg.stream.tasks,
            train_samples=cfg.stream.train_samples,
            test_samples=cfg.stream.test_samples,
            dim=cfg.stream.dim,
            classes=cfg.stream.classes,
            seed=0,
            separation=cfg.stream.separation,
            noise=cfg.stream.noise,
        )
        recomputed = [bc.evaluate(model, task, "auto") for task in stream.tasks]
        assert recomputed == entry["final_row"]
        oracle = [bc.evaluate(model, task, "oracle") for task in stream.tasks]
        assert oracle == entry["oracle_final_row"]


def test_console_script_is_installed():
    proc = subprocess.run(
        [sys.executable, "-c", "from branchcl.cli import main; raise SystemExit(main(['--help']))"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "run" in proc.stdout and "analyze" in proc.stdout and "report" in proc.stdout
