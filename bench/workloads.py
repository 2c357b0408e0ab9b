"""The benchmark's workloads: which config each one runs, and why.

A workload turns the benchmark's ``--seed`` into the `seeds` list of a
branchcl config. Every other field is fixed here, so the same seed always
gives the same stream. Every workload trains all five methods and runs
``branchcl analyze`` after ``branchcl run``, so each end-to-end metric
exists on each workload.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    overrides: dict
    seeds_per_run: int
    # Reloading every checkpoint costs as much as the run's evaluation, so
    # only the workload that is about checkpoint I/O pays for that check.
    reload_check: bool = False
    # analyze calls per repeat. Where one call takes a quarter second, a
    # few calls per repeat give analyze_s more runs of each segment to take
    # the fastest from.
    analyze_calls: int = 1
    # Whether the side processes after each repeat (see run.py) also time
    # analyze calls and lora evaluation passes on the first repeat's run.
    # Each method's work, and analyze, runs in one stretch of each
    # repeat, and the machine's speed changes from one stretch of a few
    # seconds to the next; these add stretches where a repeat holds only a
    # fraction of a second of them. They cost time that would otherwise go
    # to more repeats, so only the workload whose repeats are too long to
    # give enough stretches uses them.
    side_measurements: bool = False

    def seeds(self, workload_seed: int) -> list[int]:
        """Run seeds for one workload seed; disjoint across workload seeds."""
        if workload_seed < 0:
            raise ValueError(f"workload seed must be >= 0, got {workload_seed}")
        k = self.seeds_per_run
        return [workload_seed * k + i for i in range(k)]

    def config(self, workload_seed: int) -> dict:
        return {**self.overrides, "seeds": self.seeds(workload_seed)}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="train-default",
            why="built-in default config; training dominates and its cost is "
            "Python overhead per tape entry",
            overrides={},
            seeds_per_run=1,
            analyze_calls=3,
            side_measurements=True,
        ),
        # Evaluation grows with the T(T+1)/2 rows of the matrix. Its test
        # split is kept small so that a run fits about ten repeats: this
        # workload's training batches come in short bursts, and more
        # repeats give their per-batch times more bursts to draw from.
        Workload(
            name="eval-many-tasks",
            why="8 tasks, 128 test samples, 4 epochs; the per-sample evaluation "
            "loop and task selection dominate, training is a small share",
            overrides={
                "stream": {"tasks": 8, "train_samples": 128, "test_samples": 128},
                "train": {"epochs": 4},
            },
            seeds_per_run=1,
            analyze_calls=3,
        ),
        Workload(
            name="wide-pipeline",
            why="dim 256, rank 64: BLAS FLOPs outweigh per-op overhead, "
            "checkpoints write real bytes and analyze reads them back",
            overrides={
                "stream": {"tasks": 6, "train_samples": 256, "test_samples": 32, "dim": 256},
                "adapter": {"rank": 64, "alpha": 128.0},
                "train": {"epochs": 2, "batch_size": 64},
            },
            seeds_per_run=2,
            reload_check=True,
        ),
    )
}

METHODS = ("zero_shot", "lora", "moelora", "branchlora", "multitask")
TRAINED = ("lora", "moelora", "branchlora", "multitask")
EVALUATED = ("lora", "moelora", "branchlora")
