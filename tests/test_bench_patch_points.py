"""Every boundary the benchmark patches still exists in the package.

The benchmark (``bench/``) times and counts calls by swapping package
attributes for wrappers. A renamed or moved boundary makes its patch raise,
but only in a benchmark run; this applies the same patches here, runs one
auto-selecting evaluation under them, and puts every original back.
"""

from pathlib import Path

import pytest

import branchcl as bc
from branchcl import adapters, analysis, cli, harness, model, optim, routing, selector

BENCH = Path(__file__).resolve().parent.parent / "bench"
PATCHED = (adapters, analysis, cli, harness, model, optim, routing, selector)


@pytest.fixture()
def bench_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing
    import worker

    return tracing, worker


def namespaces():
    """A copy of every attribute of the patched modules and their classes."""
    out = {}
    for mod in PATCHED:
        out[mod] = dict(vars(mod))
        for value in vars(mod).values():
            if isinstance(value, type) and value.__module__ == mod.__name__:
                out[value] = dict(vars(value))
    return out


def test_benchmark_patches_apply_and_restore(bench_modules):
    tracing, worker = bench_modules
    before = namespaces()
    patches = tracing.Patches()
    timers = worker.MethodTimers()
    counters = worker.Counters(timers)
    try:
        timers.install(patches, analysis, cli, harness, model, optim)
        worker._instrument(patches, tracing.Recorder(), counters)
        assert harness.select_task is not before[harness]["select_task"]
        # one auto evaluation: the wrappers take the arguments the package
        # passes, and count one selection and one forward per test row
        m = bc.build_model("branchlora", bc.ModelConfig(width=8, classes=2),
                           bc.AdapterHyperparams(rank=4, alpha=8.0, experts=4, top_k=2), seed=0)
        for tid in range(2):
            m.start_task(tid)
        stream = bc.generate_stream(tasks=2, train_samples=8, test_samples=6, dim=8, classes=2, seed=0)
        harness.evaluate(m, stream.tasks[1], "auto")
    finally:
        patches.restore()
    assert counters.select_attempts == 6
    assert counters.forward_calls == 6
    assert {k: len(v) for k, v in timers.sample_s.items()} == {"branchlora/2": 6}
    after = namespaces()
    for owner, attrs in before.items():
        assert after[owner] == attrs, owner
