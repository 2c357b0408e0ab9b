"""Finite-difference gradient checking for every differentiable operation.

Each case builds a scalar loss from trainable inputs; the recorded
gradients are compared against central differences, aggregated by vector
norm per input matrix (so isolated rounding noise on near-zero entries
does not swamp the comparison).

Matrix-valued operations are reduced to a scalar through mse_loss
against a fixed target; mse_loss itself has a direct case, so the
composition is covered from both ends.
"""

import numpy as np

import branchcl as bc
from oracles import fd_gradient


def run_case(params_np, run, eps=1e-6):
    """Max norm-relative disagreement between tape gradients and FD."""
    mats = [bc.Matrix(p.copy(), trainable=True) for p in params_np]
    with bc.Tape() as tape:
        loss = run(mats)
        bc.backward(tape, loss)
    worst = 0.0
    for i, m in enumerate(mats):
        def value(x, i=i):
            probe = [bc.Matrix(p.copy()) for p in params_np]
            probe[i] = bc.Matrix(np.asarray(x, dtype=np.float64).copy())
            return run(probe).item()

        fd = fd_gradient(value, params_np[i].copy(), eps)
        ad = m.grad if m.grad is not None else np.zeros_like(fd)
        num = np.linalg.norm(ad - fd)
        den = max(np.linalg.norm(ad) + np.linalg.norm(fd), 1e-8)
        worst = max(worst, num / den)
    return worst


def _gapped_rows(rng, rows, cols):
    """Rows with pairwise gaps >= 1 so top-k selection is FD-stable."""
    base = rng.uniform(0.0, 1.0, size=(rows, cols)) + 2.0 * np.arange(cols)
    for r in range(rows):
        rng.shuffle(base[r])
    return base


def _target(rng, rows, cols):
    return bc.Matrix(rng.standard_normal((rows, cols)))


def case_matmul(rng):
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 2))
    t = _target(rng, 3, 2)
    return [a, b], lambda m: bc.mse_loss(bc.matmul(m[0], m[1]), t)


def case_add(rng):
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((3, 4))
    t = _target(rng, 3, 4)
    return [a, b], lambda m: bc.mse_loss(bc.add(m[0], m[1]), t)


def case_scale(rng):
    a = rng.standard_normal((2, 5))
    c = float(rng.uniform(-2.0, 2.0)) or 0.5
    t = _target(rng, 2, 5)
    return [a], lambda m: bc.mse_loss(bc.scale(m[0], c), t)


def case_tanh(rng):
    a = rng.standard_normal((3, 3))
    t = _target(rng, 3, 3)
    return [a], lambda m: bc.mse_loss(bc.tanh(m[0]), t)


def case_router_gate(rng):
    # Row 0 of x scores gapped by >= 1, so top-k selection is FD-stable;
    # the other rows of x must get an exactly zero gradient.
    rows, d, n = 3, 6, 5
    x = rng.standard_normal((rows, d))
    x0 = x[0]
    router = rng.standard_normal((d, n))
    router -= np.outer(x0, x0 @ router) / (x0 @ x0)
    router += np.outer(x0, _gapped_rows(rng, 1, n)[0]) / (x0 @ x0)
    k = int(rng.integers(1, n + 1))
    t = _target(rng, 1, n)
    return [x, router], lambda m: bc.mse_loss(bc.router_gate(m[0], m[1], k), t)


def case_mix_dense(rng):
    gate = rng.standard_normal((1, 3))
    parts = [rng.standard_normal((2, 4)) for _ in range(3)]
    t = _target(rng, 2, 4)
    return [gate] + parts, lambda m: bc.mse_loss(bc.mix(m[0], m[1:]), t)


def case_mix_sparse(rng):
    # The sparse path only ever sees top-k router gates, so build one whose
    # router is the score row itself; the masked columns stay exactly zero
    # under FD perturbation thanks to the gap construction.
    scores = _gapped_rows(rng, 1, 4)
    parts = [rng.standard_normal((2, 3)) for _ in range(4)]
    t = _target(rng, 2, 3)
    one = bc.Matrix([[1.0]])

    def run(m):
        gate = bc.router_gate(one, m[0], 2)
        cols = [int(j) for j in np.nonzero(gate.data[0] != 0.0)[0]]
        chosen = [m[1 + j] for j in cols]
        return bc.mse_loss(bc.mix(gate, chosen, cols=cols), t)

    return [scores] + parts, run


def case_cosine_sum(rng):
    x = rng.standard_normal((4, 6)) + 0.1
    k = rng.standard_normal((1, 6)) + 0.1
    return [x, k], lambda m: bc.cosine_sum(m[0], m[1])


def case_cross_entropy(rng):
    logits = rng.standard_normal((4, 5))
    labels = rng.integers(0, 5, size=4)
    return [logits], lambda m: bc.cross_entropy(m[0], labels)


def case_mse_loss(rng):
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((3, 4))
    return [a, b], lambda m: bc.mse_loss(m[0], m[1])


def case_branch_layer(rng):
    """End to end: top-k gate, shared projection, mix, backbone, loss."""
    hp = bc.AdapterHyperparams(rank=4, alpha=8.0, experts=2, top_k=1)
    layer = bc.BranchLoRALayer.init(rng, 5, 5, hp)
    layer.add_router(0, rng)
    router = rng.standard_normal((5, 2))
    while True:
        x = bc.Matrix(rng.standard_normal((3, 5)))
        scores = x.data @ router
        if np.min(np.abs(scores[:, 0] - scores[:, 1])) > 1e-2:
            break
    labels = rng.integers(0, 5, size=3)
    params = [
        layer.a_shared.data.copy(),
        router,
        *(rng.standard_normal(b.shape) for b in layer.branches),
    ]

    def run(m):
        layer.a_shared = m[0]
        layer.routers[0] = m[1]
        layer.branches = list(m[2:])
        h, _ = layer.forward(x, 0)
        return bc.cross_entropy(h, labels)

    return params, run


def case_moe_layer(rng):
    """End to end: dense softmax gate over per-expert adapters."""
    hp = bc.AdapterHyperparams(rank=4, alpha=8.0, experts=2, top_k=1)
    layer = bc.MoELoRALayer.init(rng, 5, 5, hp)
    x = bc.Matrix(rng.standard_normal((3, 5)))
    labels = rng.integers(0, 5, size=3)
    params = [layer.experts[0][0].data.copy(), rng.standard_normal(layer.experts[0][1].shape),
              layer.experts[1][0].data.copy(), rng.standard_normal(layer.experts[1][1].shape),
              layer.router.data.copy()]

    def run(m):
        layer.experts = [(m[0], m[1]), (m[2], m[3])]
        layer.router = m[4]
        h, _ = layer.forward(x)
        return bc.cross_entropy(h, labels)

    return params, run


OP_CASES = [
    ("matmul", case_matmul),
    ("add", case_add),
    ("scale", case_scale),
    ("tanh", case_tanh),
    ("router_gate", case_router_gate),
    ("mix_dense", case_mix_dense),
    ("mix_sparse", case_mix_sparse),
    ("cosine_sum", case_cosine_sum),
    ("cross_entropy", case_cross_entropy),
    ("mse_loss", case_mse_loss),
]

COMPOSITE_CASES = [
    ("branch_layer", case_branch_layer),
    ("moe_layer", case_moe_layer),
]
