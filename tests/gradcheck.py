"""Finite-difference gradient checking for every record of the training
chain: each layer kind's backward, the activation and linear records,
the two losses and the whole model.

Each case builds a scalar loss from trainable matrices; the gradients
`backward` gives are compared against central differences, aggregated by
vector norm per matrix (so isolated rounding noise on near-zero entries
does not swamp the comparison). A layer's input is data, not a parameter,
so a case that checks the input's gradient (dx) reads it through `watch`:
a record ahead of the layer that stores the adjoint it is handed. A
case's ``run(tape=None)`` hands the tape to every link it builds; finite
differences call it with no tape.

Matrix-valued outputs are reduced to a scalar through mse_loss against a
fixed target; mse_loss itself has a direct case, so the composition is
covered from both ends.
"""

import numpy as np

import branchcl as bc
from branchcl.adapters import draw_backbone
from branchcl.tensor import activation, linear, wrap
from oracles import fd_gradient


def _store(g, m, need_dx):
    m.grad = g if m.grad is None else m.grad + g


def watch(m: bc.Matrix, tape: bc.Tape | None) -> np.ndarray:
    """m's values as a chain's input. Given a tape, a record ahead of the
    chain adds the adjoint it is handed to m.grad, so m's gradient is the
    dx of the record after it."""
    if tape is not None:
        tape.entries.append((_store, m))
    return m.data


def run_case(mats, run, eps=1e-6):
    """Max norm-relative disagreement between backward's gradients and FD.

    ``mats`` are the trainable matrices that ``run(tape=None)`` reads, and
    it returns the loss. Each matrix's values are perturbed in place for
    FD."""
    for m in mats:
        m.grad = None
    tape = bc.Tape()
    bc.backward(tape, run(tape))
    worst = 0.0
    for m in mats:
        ad, values = m.grad, m.data

        def value(x, m=m):
            m.data = x
            return run().item()

        fd = fd_gradient(value, values.copy(), eps)
        m.data = values
        ad = ad if ad is not None else np.zeros_like(fd)
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


def _mse(h, t, tape):
    return bc.mse_loss(wrap(h), t, tape)


def _input(rng, rows, cols):
    return bc.Matrix(rng.standard_normal((rows, cols)), trainable=True)


def case_matmul(rng):
    """`linear`: a product with a constant, as the backbone layer and the
    head make; x gets g W^T."""
    x = _input(rng, 3, 4)
    w = rng.standard_normal((4, 2))
    t = _target(rng, 3, 2)
    return [x], lambda tape=None: _mse(linear(watch(x, tape), w, tape), t, tape)


def case_tanh(rng):
    """`activation`, the tanh between layers."""
    x = _input(rng, 3, 3)
    t = _target(rng, 3, 3)
    return [x], lambda tape=None: _mse(activation(watch(x, tape), tape), t, tape)


def _randomized(layer, rng):
    """Every trainable matrix of the layer moved off its initial value, so
    that no B starts at zero."""
    for _, m in layer.params():
        m.data = rng.standard_normal(m.shape)
    return layer


def _lora(rng, d_in=4, d_out=3):
    hp = bc.AdapterHyperparams(rank=2, alpha=3.0, experts=1, top_k=1)
    return _randomized(bc.LoRALayer(rng, draw_backbone(rng, d_in, d_out), hp), rng)


def _moe(rng, d_in=4, d_out=3):
    hp = bc.AdapterHyperparams(rank=6, alpha=4.0, experts=3, top_k=3)
    layer = _randomized(bc.MoELoRALayer(rng, draw_backbone(rng, d_in, d_out), hp), rng)
    # a router of unit scale saturates the softmax now and then: an expert
    # with a weight near 1e-6 has a gradient below FD's noise
    layer.router.data *= 0.3
    return layer


def _branch(rng, x, per_row, frozen=(), d_out=3):
    """A BranchLoRA layer with a top-2 gate over 4 branches for task 0,
    whose router is solved so that the scored rows of x have scores gapped
    by >= 1: its top-k selection then stays put under FD perturbation."""
    rows, d_in = x.shape
    hp = bc.AdapterHyperparams(rank=8, alpha=6.0, experts=4, top_k=2)
    layer = bc.BranchLoRALayer(rng, draw_backbone(rng, d_in, d_out), hp)
    layer.start_task(0, rng)
    _randomized(layer, rng)
    scored = x if per_row else x[:1]
    router = layer.routers[0].data
    router += np.linalg.pinv(scored) @ (_gapped_rows(rng, len(scored), 4) - scored @ router)
    for j in frozen:
        layer.branches[j].trainable = False
    return layer


def _layer_case(rng, layer, x, per_row, task_id=None):
    """x and every trainable matrix of the layer as parameters."""
    t = _target(rng, x.rows, layer.backbone.cols)

    def run(tape=None):
        h, _ = layer.forward(watch(x, tape), task_id, per_row, tape)
        return _mse(h, t, tape)

    return [x, *(m for _, m in layer.params())], run


def _router_only(rng, per_row):
    # x and the router are the only parameters: the gate's own backward,
    # which reaches the rows of x below row 0 only when every row is scored
    x = _input(rng, 3, 4)
    layer = _branch(rng, x.data, per_row)
    for m in (layer.a_shared, *layer.branches):
        m.trainable = False
    return _layer_case(rng, layer, x, per_row, task_id=0)


def case_router_gate(rng):
    return _router_only(rng, per_row=False)


def case_router_gate_rows(rng):
    return _router_only(rng, per_row=True)


def case_adapter(rng):
    """A LoRA layer: no gate, one (A, B) pair added with weight one."""
    return _layer_case(rng, _lora(rng), _input(rng, 2, 4), False)


def case_adapter_dense(rng):
    """A MoELoRA layer: one A per B and a dense gate from row 0."""
    return _layer_case(rng, _moe(rng), _input(rng, 3, 4), False)


def case_adapter_dense_rows(rng):
    """A MoELoRA layer with a gate row per row of x."""
    return _layer_case(rng, _moe(rng), _input(rng, 3, 4), True)


def case_adapter_sparse(rng):
    """A BranchLoRA layer: a shared A, a top-2 gate over 4 branches from
    row 0, and branch 1 frozen."""
    x = _input(rng, 3, 4)
    return _layer_case(rng, _branch(rng, x.data, False, frozen=(1,)), x, False, task_id=0)


def case_adapter_sparse_rows(rng):
    """A BranchLoRA layer with a gate row per row of x, branch 2 frozen."""
    x = _input(rng, 3, 4)
    return _layer_case(rng, _branch(rng, x.data, True, frozen=(2,)), x, True, task_id=0)


def case_chain(rng):
    """dx through two layers: LoRA, the activation, then BranchLoRA."""
    x = _input(rng, 3, 4)
    first = _lora(rng, 4, 4)
    second = _branch(rng, np.tanh(first.forward(x.data)[0]), False)
    t = _target(rng, 3, 3)

    def run(tape=None):
        h, _ = first.forward(watch(x, tape), tape=tape)
        h, _ = second.forward(activation(h, tape), 0, tape=tape)
        return _mse(h, t, tape)

    return [x, *(m for layer in (first, second) for _, m in layer.params())], run


def case_cross_entropy(rng):
    logits = _input(rng, 4, 5)
    labels = rng.integers(0, 5, size=4)
    return [logits], lambda tape=None: bc.cross_entropy(wrap(watch(logits, tape)), labels, tape)


def case_mse_loss(rng):
    a = _input(rng, 3, 4)
    b = _target(rng, 3, 4)
    return [a], lambda tape=None: bc.mse_loss(wrap(watch(a, tape)), b, tape)


def _model_case(rng, kind):
    """A two-layer model and its cross-entropy, every trainable matrix a
    parameter. The input is redrawn until the score gaps that pick each
    layer's top k are wide enough to stay put under FD perturbation."""
    hp = bc.AdapterHyperparams(rank=4, alpha=8.0, experts=2, top_k=1)
    model = bc.build_model(kind, bc.ModelConfig(width=4, classes=3, layers=2), hp, seed=0)
    model.start_task(0)
    task_id = 0 if model.layers[0].routers else None
    for layer in model.layers:
        _randomized(layer, rng)
    labels = rng.integers(0, 3, size=3)
    while True:
        x = bc.Matrix(rng.standard_normal((3, 4)))
        h, gaps = x.data, []
        for layer in model.layers:
            if layer.routers:
                s = h[0] @ layer.routers[0].data
                gaps.append(abs(s[0] - s[1]))
            h = np.tanh(layer.forward(h, task_id)[0])
        if min(gaps, default=1.0) > 1e-3:
            break

    def run(tape=None):
        logits, _ = model.forward(x, task_id, tape=tape)
        return bc.cross_entropy(logits, labels, tape)

    return [m for _, m in model.trainable_params()], run


def case_branch_layer(rng):
    """End to end: a two-layer BranchLoRA model (top-1 of 2 branches)."""
    return _model_case(rng, "branchlora")


def case_moe_layer(rng):
    """End to end: a two-layer MoELoRA model."""
    return _model_case(rng, "moelora")


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
    ("chain", case_chain),
    ("cross_entropy", case_cross_entropy),
    ("mse_loss", case_mse_loss),
    ("branch_layer", case_branch_layer),
    ("moe_layer", case_moe_layer),
]
