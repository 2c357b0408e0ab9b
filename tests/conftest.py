"""Shared fixtures.

The expensive one is `default_run`: the full default experiment over all
five seeds, shared by the acceptance tests and the harness-level checks
so it only runs once per session.
"""

import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import branchcl as bc
from branchcl.cli import load_snapshots


def run_with_snapshots(cfg, seed, out_dir):
    """run_seed with checkpoints under out_dir; the moelora snapshots read
    back from them go under result["snapshots"]["moelora"]."""
    result = bc.run_seed(cfg, seed, out_dir=out_dir)
    result["snapshots"] = {"moelora": load_snapshots(out_dir, seed, cfg.stream.tasks)}
    return result


@pytest.fixture(scope="session")
def default_run(tmp_path_factory):
    """All methods, all five default seeds, with parameter snapshots.

    Returns (per-seed results dict, wall seconds for the whole sweep).
    """
    cfg = bc.ExperimentConfig()
    out_dir = tmp_path_factory.mktemp("default_run")
    start = time.perf_counter()
    results = {seed: run_with_snapshots(cfg, seed, out_dir) for seed in cfg.seeds}
    elapsed = time.perf_counter() - start
    return results, elapsed


@pytest.fixture()
def smoke_cfg():
    """A configuration small enough for per-test training runs."""
    return bc.ExperimentConfig(
        stream=bc.StreamConfig(
            tasks=2, train_samples=64, test_samples=32, dim=16, classes=4
        ),
        adapter=bc.AdapterConfig(rank=8, alpha=16.0, experts=4, top_k=2, freeze_width=1),
        train=bc.TrainConfig(epochs=3, batch_size=16),
        seeds=(0,),
    )
