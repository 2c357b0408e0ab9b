"""Acceptance gate: the nine shipping criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible under ``pytest -s``);
under ``pytest -v`` the test names themselves serve as the checklist.
The expensive five-seed default experiment is computed once per session
by the ``default_run`` fixture and shared by criteria 3, 4, 6, and 7.
"""

import json
import statistics
import time

import numpy as np
import pytest

import branchcl as bc
import gradcheck
from branchcl.cli import main as cli_main
from oracles import metrics_oracle


def _line(n: int, ok: bool, detail: str) -> None:
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'} - {detail}")


def _medians(results, method, metric):
    vals = [r["report"]["methods"][method]["metrics"][metric] for r in results.values()]
    return statistics.median(vals)


def test_criterion_1_gradient_correctness():
    start = time.perf_counter()
    worst_name, worst = "", 0.0
    for name, gen in gradcheck.OP_CASES:
        for case in range(100):
            rng = np.random.default_rng(10_000 + 137 * case)
            params, run = gen(rng)
            err = gradcheck.run_case(params, run)
            if err > worst:
                worst_name, worst = name, err
    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and elapsed < 30.0
    _line(1, ok, f"worst rel err {worst:.2e} ({worst_name}), {elapsed:.1f}s")
    assert worst < 1e-4, f"{worst_name}: {worst:.3e}"
    assert elapsed < 30.0


def test_criterion_2_metric_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(1000):
        t = int(rng.integers(1, 10))
        rows = [rng.uniform(0.0, 1.0, size=i + 1).tolist() for i in range(t)]
        m = bc.compute_metrics(bc.EvalMatrix(rows))
        acc, maa, bwt = metrics_oracle(rows)
        worst = max(worst, abs(m.acc - acc), abs(m.maa - maa), abs(m.bwt - bwt))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and elapsed < 5.0
    _line(2, ok, f"worst abs err {worst:.2e} over 1000 matrices, {elapsed:.2f}s")
    assert worst < 1e-12
    assert elapsed < 5.0


def test_criterion_3_forgetting_ordering(default_run):
    results, elapsed = default_run
    bwt = {m: _medians(results, m, "bwt") for m in ("lora", "moelora", "branchlora")}
    acc = {m: _medians(results, m, "acc") for m in ("moelora", "branchlora")}
    ok = (
        bwt["branchlora"] > bwt["moelora"] > bwt["lora"]
        and acc["branchlora"] > acc["moelora"]
        and elapsed < 600.0
    )
    _line(
        3,
        ok,
        f"bwt branch {bwt['branchlora']:+.3f} > moe {bwt['moelora']:+.3f} > "
        f"lora {bwt['lora']:+.3f}; acc branch {acc['branchlora']:.3f} > "
        f"moe {acc['moelora']:.3f}; {elapsed:.0f}s",
    )
    assert bwt["branchlora"] > bwt["moelora"] > bwt["lora"]
    assert acc["branchlora"] > acc["moelora"]
    assert elapsed < 600.0


def test_criterion_4_projection_similarity_margin(default_run):
    results, _ = default_run
    margins = []
    for seed, result in results.items():
        summary = bc.expert_similarity(result["snapshots"]["moelora"])
        assert summary["margin"] is not None, f"seed {seed}: no surviving pairs"
        margins.append(summary["margin"])
    med = statistics.median(margins)
    ok = med > 0.0
    _line(4, ok, f"median A-vs-B cosine margin {med:+.4f} (per seed: "
                 + ", ".join(f"{m:+.3f}" for m in margins) + ")")
    assert med > 0.0


def test_criterion_5_efficiency_direction():
    hp_grid = []
    for rank in (8, 16, 32):
        for experts in (2, 4, 8):
            if rank % experts == 0:
                hp_grid.append((rank, experts))
    checked = 0
    for dim in (16, 32, 64):
        for rank, experts in hp_grid:
            hp = bc.AdapterHyperparams(rank=rank, alpha=2.0 * rank, experts=experts,
                                       top_k=min(2, experts))
            rng = np.random.default_rng(0)
            moe = bc.MoELoRALayer.init(rng, dim, dim, hp)
            branch = bc.BranchLoRALayer.init(rng, dim, dim, hp)
            branch.start_task(0, rng)
            n_moe = moe.count_trainable_params()
            n_branch = branch.count_trainable_params()
            assert n_branch < n_moe, (dim, rank, experts, n_branch, n_moe)
            checked += 1

    eff = bc.efficiency_report(bc.ExperimentConfig(), batches=100, seed=0)
    t_branch = eff["methods"]["branchlora"]["train_batch_ms"]["mean"]
    t_moe = eff["methods"]["moelora"]["train_batch_ms"]["mean"]
    ok = t_branch <= t_moe
    _line(5, ok, f"{checked} configs all branch<moe by count; "
                 f"train {t_branch:.3f} vs {t_moe:.3f} ms/batch over 100 batches")
    assert t_branch <= t_moe


def test_criterion_6_freeze_immutability(default_run, tmp_path):
    # the harness guard byte-checks frozen state after every task of every
    # run (a violation raises, so the fixture finishing is itself evidence);
    # here the same property is verified independently across checkpoints
    results, _ = default_run
    for result in results.values():
        assert "branchlora" in result["report"]["methods"]

    cfg = bc.ExperimentConfig(methods=("branchlora",), seeds=(0,))
    out = tmp_path / "immutability"
    result = bc.run_seed(cfg, 0, out_dir=out)
    ledger = result["report"]["methods"]["branchlora"]["freeze_ledger"]
    assert ledger, "freeze policy never fired"
    tasks = cfg.stream.tasks
    models = {
        t: bc.load_model(out / "checkpoints" / "seed0" / "branchlora" / f"task{t}")
        for t in range(tasks)
    }
    compared = 0
    for entry in ledger:
        t0, layer = entry["task"], entry["layer"]
        for j in entry["frozen"]:
            frozen_bytes = models[t0].layers[layer].branches[j].data.tobytes()
            for later in range(t0 + 1, tasks):
                assert models[later].layers[layer].branches[j].data.tobytes() == frozen_bytes
                compared += 1
    for t0 in range(tasks - 1):
        for layer_idx in range(len(models[t0].layers)):
            router_bytes = models[t0].layers[layer_idx].routers[t0].data.tobytes()
            for later in range(t0 + 1, tasks):
                assert models[later].layers[layer_idx].routers[t0].data.tobytes() == router_bytes
                compared += 1
        for part in ("k_img", "k_txt"):
            key_bytes = getattr(models[t0].keys.get(t0), part).data.tobytes()
            for later in range(t0 + 1, tasks):
                assert getattr(models[later].keys.get(t0), part).data.tobytes() == key_bytes
                compared += 1
    _line(6, True, f"{compared} frozen tensors bit-identical across later tasks; "
                   "in-run guard active on every harness run")


def test_criterion_7_selector_quality(default_run):
    results, _ = default_run
    accs = [
        r["report"]["methods"]["branchlora"]["selector_accuracy"]
        for r in results.values()
    ]
    gaps = []
    for r in results.values():
        entry = r["report"]["methods"]["branchlora"]
        auto = statistics.fmean(entry["final_row"])
        oracle = statistics.fmean(entry["oracle_final_row"])
        gaps.append(abs(auto - oracle))
    med_acc = statistics.median(accs)
    med_gap = statistics.median(gaps)
    ok = med_acc >= 0.95 and med_gap <= 0.03
    _line(7, ok, f"selector accuracy median {med_acc:.3f} "
                 f"(per seed: {', '.join(f'{a:.3f}' for a in accs)}); "
                 f"auto-vs-oracle gap median {med_gap:.4f}, max {max(gaps):.4f}")
    assert med_acc >= 0.95
    assert med_gap <= 0.03


def test_criterion_8_sparse_gate_contract():
    hp = bc.AdapterHyperparams(rank=16, alpha=32.0, experts=4, top_k=2)
    rng = np.random.default_rng(88)
    layer = bc.BranchLoRALayer.init(rng, 32, 32, hp)
    n_total = 10_000
    per_router = 1_000
    checked = 0
    for task in range(n_total // per_router):
        layer.start_task(task, rng)
        for _ in range(per_router):
            x = bc.Matrix(rng.standard_normal((1, 32)))
            gate = layer.gate_for(x, task).data[0]
            nonzero = gate[gate != 0.0]
            assert nonzero.size == hp.top_k
            assert abs(float(nonzero.sum()) - 1.0) < 1e-9
            assert np.all(gate[gate == 0.0] == 0.0)
            assert np.all(nonzero > 0.0)
            checked += 1
    _line(8, True, f"{checked} random gates: exactly k={hp.top_k} nonzeros, "
                   "sums within 1e-9, zeros exact")
    assert checked == n_total


def test_criterion_9_determinism(tmp_path):
    dirs = [tmp_path / "first", tmp_path / "second"]
    for d in dirs:
        code = cli_main(["run", "--seed", "0", "--out", str(d)])
        assert code == 0
    first = (dirs[0] / "report.json").read_bytes()
    second = (dirs[1] / "report.json").read_bytes()
    ok = first == second
    _line(9, ok, f"two default-config seed-0 runs: report.json byte-identical "
                 f"({len(first)} bytes)")
    assert ok
    # and the bytes parse back to the same structure they claim to hold
    assert json.loads(first)["seeds"] == [0]
