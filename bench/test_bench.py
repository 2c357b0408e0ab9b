"""Tests of the benchmark itself: python3 -m pytest bench"""

import json
import sys
import time
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from tracing import Patches, Recorder, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_self_times_on_a_hand_built_tree():
    # 0 [0, 10]
    # ├── 1 [1, 4]
    # │   └── 3 [2, 3]
    # ├── 2 [3, 6]      overlaps 1 on [3, 4]
    # └── 4 [9, 12]     runs past its parent; only [9, 10] counts
    parent = [-1, 0, 0, 1, 0]
    start = [0.0, 1.0, 3.0, 2.0, 9.0]
    end = [10.0, 4.0, 6.0, 3.0, 12.0]
    assert self_times(parent, start, end) == [10 - 5 - 1, 3 - 1, 3, 1, 3]


def test_recorder_nests_spans_and_sums_self_time():
    ticks = iter(range(100))
    rec = Recorder(clock=lambda: float(next(ticks)))
    inner = rec.wrap("inner", lambda: None)
    outer = rec.wrap("outer", lambda: inner() or inner())
    outer()
    assert list(rec.parent) == [-1, 0, 0]
    summary = rec.summary()
    assert summary["outer"] == {"calls": 1, "total_s": 5.0, "self_s": 3.0}
    assert summary["inner"] == {"calls": 2, "total_s": 2.0, "self_s": 2.0}


def test_recorder_closes_a_span_when_the_call_raises():
    rec = Recorder()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        rec.wrap("boom", boom)()
    assert len(rec) == 1 and rec.end[0] >= rec.start[0]
    assert rec.wrap("ok", lambda: 1)() == 1
    assert rec.parent[1] == -1


def test_patches_restore_the_original_bindings():
    mod = types.ModuleType("fake")
    mod.fn = lambda: "original"

    class Layer:
        def forward(self):
            return "original"

    fn, forward = mod.fn, Layer.__dict__["forward"]
    patches = Patches()
    rec = Recorder()
    patches.replace(mod, "fn", lambda f: rec.wrap("fn", f))
    patches.replace(Layer, "forward", lambda f: rec.wrap("forward", f))
    patches.replace(Layer, "forward", lambda f: rec.wrap("outer", f))
    with pytest.raises(AttributeError):
        patches.replace(mod, "gone", lambda f: f)
    assert mod.fn() == "original" and Layer().forward() == "original"
    assert mod.fn is not fn and Layer.__dict__["forward"] is not forward
    patches.restore()
    assert mod.fn is fn and Layer.__dict__["forward"] is forward
    assert not hasattr(mod, "gone")


def test_oracle_metrics_and_cell_problems():
    rows = [[0.5], [0.25, 1.0]]
    want = {"acc": 0.625, "maa": 0.5625, "bwt": -0.125}
    assert checks.oracle_metrics(rows) == want
    cell = {"eval_matrix": rows, "metrics": dict(want)}
    assert checks.cell_problems(cell, 2, want, 0.01) == []
    assert checks.cell_problems(cell, 3, None, 0.01)
    assert checks.cell_problems({"eval_matrix": [[0.5], [0.25]], "metrics": want}, 2, None, 0.01)
    wrong = {"eval_matrix": rows, "metrics": {**want, "acc": 0.6}}
    assert checks.cell_problems(wrong, 2, None, 0.01)
    assert checks.cell_problems(cell, 2, {**want, "bwt": 0.0}, 0.01)


def _rep(report_hash="r", analyze_segments=([0.1], [0.1]), rc_analyze=0):
    rows = [[0.5], [0.25, 1.0]]
    cell = {"eval_matrix": rows, "metrics": checks.oracle_metrics(rows)}
    return {
        "result": {"rc_run": 0, "rc_analyze": rc_analyze, "analyze_segments": list(analyze_segments)},
        "report": {"per_seed": {"0": {"stream_fingerprint": "fp", "methods": {"lora": cell}}}},
        "analyze_calls": 2,
        "hashes": {"report.json": report_hash, "similarity.json": "s", "vectors.csv": "v"},
    }


def test_check_repeats_counts_cells_and_analyze_calls():
    assert checks.check_repeats([_rep(), _rep()], [0], ["lora"], 2, None, 0.01)[:2] == (6, 0)
    # repeat 1's report differs from repeat 0's; repeat 2's first analyze call fails
    reps = [_rep(), _rep(report_hash="x"), _rep(analyze_segments=([0.1],), rc_analyze=1)]
    attempted, failed, notes = checks.check_repeats(reps, [0], ["lora"], 2, None, 0.01)
    assert (attempted, failed, len(notes)) == (9, 3, 2)
    ref = {"0": {"stream_fingerprint": "other", "metrics": {"lora": {"acc": 0.6, "maa": 0.5, "bwt": 0.0}}}}
    attempted, failed, notes = checks.check_repeats([_rep()], [0], ["lora"], 2, ref, 0.01)
    assert failed == 1 and "fingerprint" in notes[0] and "reference" in notes[0]


def _side(outputs="s", eval_failures=0, result=True):
    return {
        "result": {"setup_s": 0.2, "rc_analyze": 0, "analyze_segments": [[0.1], [0.1]],
                   "eval_failures": eval_failures} if result else None,
        "analyze_calls": 2,
        "eval_passes": 3,
        "hashes": {"similarity.json": outputs, "vectors.csv": "v"},
        "stderr": "",
    }


def test_check_setups_counts_side_analyze_calls_and_eval_passes():
    first = {"report.json": "r", "similarity.json": "s", "vectors.csv": "v"}
    assert checks.check_setups([_side()], first)[:2] == (4, 0)
    setup_only = {"result": {"setup_s": 0.2}, "analyze_calls": 0, "eval_passes": 0, "hashes": {}, "stderr": ""}
    assert checks.check_setups([setup_only], first)[:2] == (1, 0)
    # other analysis bytes fail both analyze calls, a differing pass fails
    # the passes, and a process without a result fails all four operations
    reps = [_side(outputs="x"), _side(eval_failures=1), _side(result=False)]
    attempted, failed, notes = checks.check_setups(reps, first)
    assert (attempted, failed, len(notes)) == (12, 2 + 1 + 4, 3)


def test_side_processes_feed_analyze_s_and_lora_evaluation_only():
    repeat = {
        "run_segments": [1.0, 2.0], "analyze_segments": [[0.5, 0.5]], "peak_rss_mb": 40.0,
        "batch_s": {"lora/10": [0.002]}, "sample_s": {"lora/0": [4e-6], "moelora/0": [9e-5]},
    }
    side = {"analyze_segments": [[0.25, 0.75]], "batch_s": {}, "sample_s": {"lora/0": [2e-6]}}
    out = run.end_to_end([repeat], [0.3], [side])
    assert out["analyze_s"] == 0.25 + 0.5
    assert out["wall_s"] == 3.0 + 0.75
    assert out["eval_us_per_sample.lora"] == pytest.approx(2.0)
    assert out["eval_us_per_sample.moelora"] == pytest.approx(90.0)
    assert out["train_ms_per_batch.lora"] == pytest.approx(2.0)


def test_side_process_reproduces_the_kept_run(tmp_path):
    config = json.loads((ROOT / "configs" / "smoke.json").read_text())
    deadline = time.monotonic() + 120
    kept = tmp_path / "kept"
    first = run.run_repeat(tmp_path, 0, config, deadline, keep_as=kept)
    assert first["result"]["rc_run"] == 0 and (kept / "report.json").is_file()
    side = run.run_repeat(tmp_path, 1, config, deadline, setup_only=True, kept_dir=kept,
                          analyze_calls=1, eval_passes=3)
    assert checks.check_setups([side], first["hashes"]) == (3, 0, [])
    # three passes over both tasks, one interval per batched evaluate call
    assert {k: len(v) for k, v in side["result"]["sample_s"].items()} == {"lora/0": 6}
    assert len(side["result"]["analyze_segments"]) == 1


def _fingerprint(workload, workload_seed):
    sys.path.insert(0, str(ROOT / "src"))
    from branchcl.config import config_from_dict
    from branchcl.stream import generate_stream, stream_fingerprint

    cfg = config_from_dict(workload.config(workload_seed))
    s = cfg.stream
    return [
        stream_fingerprint(generate_stream(
            tasks=s.tasks, train_samples=s.train_samples, test_samples=s.test_samples,
            dim=s.dim, classes=s.classes, seed=seed, separation=s.separation, noise=s.noise,
        ))
        for seed in cfg.seeds
    ]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_seed_sets_the_stream(name):
    workload = WORKLOADS[name]
    reference = json.loads(checks.REFERENCE.read_text())["workloads"][name]["0"]
    default = _fingerprint(workload, 0)
    assert default == [reference[str(s)]["stream_fingerprint"] for s in workload.seeds(0)]
    other = _fingerprint(workload, 1)
    assert not set(other) & set(default)


def test_benchmark_json_lists_what_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_fastest_path_takes_each_segment_at_its_best():
    runs = [[1.0, 5.0, 2.0], [3.0, 4.0, 2.5], [0.5, 9.0]]
    assert run.fastest_path(runs) == 1.0 + 4.0 + 2.0
    assert run.fastest_path([]) == 0


def test_fast_weights_each_group_by_its_intervals():
    # 1000 batches updating 1056 scalars at 2.0 (one outlier at 0.5 is below
    # the 0.1% quantile) and 3000 updating 800 at 1.0; other methods'
    # groups are ignored
    slow = [2.0] * 999 + [0.5]
    results = [
        {"batch_s": {"branchlora/1056": slow, "branchlora/800": [1.0] * 1500, "lora/2048": [9.0]}},
        {"batch_s": {"branchlora/800": [1.0] * 1500}},
    ]
    assert run._fast(results, "batch_s", "branchlora", 1.0) == pytest.approx((2.0 * 1000 + 1.0 * 3000) / 4000)
    assert run._fast(results, "batch_s", "moelora", 1.0) == 0.0


def test_branchlora_samples_come_only_from_auto_selection():
    sys.path.insert(0, str(ROOT / "src"))
    from branchcl import analysis, cli, harness, model, optim
    from branchcl.adapters import AdapterHyperparams
    from branchcl.stream import generate_stream

    stream = generate_stream(tasks=2, train_samples=8, test_samples=6, dim=8, classes=2, seed=0)
    m = model.build_model("branchlora", model.ModelConfig(width=8, classes=2),
                          AdapterHyperparams(rank=4, alpha=8.0, experts=4, top_k=2), seed=0)
    for tid in range(2):
        m.start_task(tid)
    timers, patches = worker.MethodTimers(), Patches()
    timers.install(patches, analysis, cli, harness, model, optim)
    try:
        harness.evaluate(m, stream.tasks[1], "oracle")
        assert not timers.sample_s
        harness.evaluate(m, stream.tasks[1], "auto")
    finally:
        patches.restore()
    # grouped by the two task keys that selection scores
    assert {k: len(v) for k, v in timers.sample_s.items()} == {"branchlora/2": 6}
    # entry and exit of both evaluate calls, and the return of each forward
    assert len(timers.marks) == 2 * 2 + 2 * 6
