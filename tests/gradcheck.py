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


def case_router_gate_rows(rng):
    # Per-row gates: every row's scores gapped by >= 1, so each row's top-k
    # selection is FD-stable; the router is solved so that x @ router hits
    # those scores, and every row of x gets a gradient.
    rows, d, n = 3, 6, 5
    x = rng.standard_normal((rows, d))
    pinv = np.linalg.pinv(x)
    router = rng.standard_normal((d, n))
    router += pinv @ (_gapped_rows(rng, rows, n) - x @ router)
    k = int(rng.integers(1, n + 1))
    t = _target(rng, rows, n)
    return [x, router], lambda m: bc.mse_loss(bc.router_gate(m[0], m[1], k, per_row=True), t)


def _adapter_inputs(rng, n_a, n_b):
    """x, the A and B matrices, a constant W, a scaling and a target."""
    rows, d_in, r, d_out = 2, 4, 2, 3
    x = rng.standard_normal((rows, d_in))
    a = [rng.standard_normal((d_in, r)) for _ in range(n_a)]
    b = [rng.standard_normal((r, d_out)) for _ in range(n_b)]
    w = bc.Matrix(rng.standard_normal((d_in, d_out)))
    s = float(rng.uniform(0.5, 2.0))
    return x, a, b, w, s, _target(rng, rows, d_out)


def case_adapter(rng):
    # No gate: one (A, B) pair added with weight one, as LoRA does.
    x, a, b, w, s, t = _adapter_inputs(rng, 1, 1)
    return [x, *a, *b], lambda m: bc.mse_loss(bc.adapter(m[0], w, m[1:2], m[2:], s), t)


def _adapter_dense(rng, gate_rows):
    # One A per B and a gate with every entry nonzero, as MoELoRA has.
    n = 3
    x, a, b, w, s, t = _adapter_inputs(rng, n, n)
    gate = rng.standard_normal((gate_rows, n))

    def run(m):
        return bc.mse_loss(bc.adapter(m[0], w, m[2 : 2 + n], m[2 + n :], s, m[1]), t)

    return [x, gate, *a, *b], run


def case_adapter_dense(rng):
    return _adapter_dense(rng, 1)


def case_adapter_dense_rows(rng):
    return _adapter_dense(rng, 2)


def _adapter_sparse(rng, per_row):
    # A shared A and a top-2 gate over 4 branches, as BranchLoRA has. The
    # gate comes from gapped scores, one row or one per row of x (each row
    # of the identity reads its own score row), so the unselected columns
    # stay exactly zero under FD perturbation.
    n = 4
    x, a, b, w, s, t = _adapter_inputs(rng, 1, n)
    scores = _gapped_rows(rng, x.shape[0] if per_row else 1, n)
    score_x = bc.Matrix(np.eye(x.shape[0]) if per_row else [[1.0]])

    def run(m):
        gate = bc.router_gate(score_x, m[1], 2, per_row=per_row)
        return bc.mse_loss(bc.adapter(m[0], w, m[2:3], m[3:], s, gate), t)

    return [x, scores, *a, *b], run


def case_adapter_sparse(rng):
    return _adapter_sparse(rng, per_row=False)


def case_adapter_sparse_rows(rng):
    return _adapter_sparse(rng, per_row=True)


def case_cross_entropy(rng):
    logits = rng.standard_normal((4, 5))
    labels = rng.integers(0, 5, size=4)
    return [logits], lambda m: bc.cross_entropy(m[0], labels)


def case_mse_loss(rng):
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((3, 4))
    return [a, b], lambda m: bc.mse_loss(m[0], m[1])


def case_branch_layer(rng):
    """End to end: top-k gate, then the adapter op with a shared A, then the loss."""
    hp = bc.AdapterHyperparams(rank=4, alpha=8.0, experts=2, top_k=1)
    layer = bc.BranchLoRALayer.init(rng, 5, 5, hp)
    layer.start_task(0, rng)
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
    ("tanh", case_tanh),
    ("router_gate", case_router_gate),
    ("router_gate_rows", case_router_gate_rows),
    ("adapter", case_adapter),
    ("adapter_dense", case_adapter_dense),
    ("adapter_dense_rows", case_adapter_dense_rows),
    ("adapter_sparse", case_adapter_sparse),
    ("adapter_sparse_rows", case_adapter_sparse_rows),
    ("cross_entropy", case_cross_entropy),
    ("mse_loss", case_mse_loss),
]

COMPOSITE_CASES = [
    ("branch_layer", case_branch_layer),
    ("moe_layer", case_moe_layer),
]
