"""Continual-learning metrics against hand-computed and oracle values."""

import numpy as np
import pytest

import branchcl as bc
from branchcl import ContractError
from oracles import metrics_oracle


def test_two_task_example():
    m = bc.compute_metrics(bc.EvalMatrix([[0.8], [0.6, 0.9]]))
    assert m.acc == pytest.approx(0.75, abs=1e-12)
    assert m.maa == pytest.approx(0.775, abs=1e-12)
    assert m.bwt == pytest.approx(-0.1, abs=1e-12)


def test_constant_matrix():
    rows = [[0.4] * (i + 1) for i in range(5)]
    m = bc.compute_metrics(bc.EvalMatrix(rows))
    assert m.acc == pytest.approx(0.4, abs=1e-12)
    assert m.maa == pytest.approx(0.4, abs=1e-12)
    assert m.bwt == pytest.approx(0.0, abs=1e-12)


def test_single_task_bwt_is_zero():
    m = bc.compute_metrics(bc.EvalMatrix([[0.9]]))
    assert m.acc == 0.9
    assert m.maa == 0.9
    assert m.bwt == 0.0


def test_strict_forgetting_gives_negative_bwt():
    rows = [[0.9], [0.5, 0.9], [0.3, 0.4, 0.9]]
    m = bc.compute_metrics(bc.EvalMatrix(rows))
    assert m.bwt < 0.0


def test_backward_improvement_gives_positive_bwt():
    rows = [[0.5], [0.8, 0.5]]
    m = bc.compute_metrics(bc.EvalMatrix(rows))
    assert m.bwt == pytest.approx(0.15, abs=1e-12)


def test_matches_oracle_on_random_matrices():
    rng = np.random.default_rng(42)
    for _ in range(200):
        t = int(rng.integers(1, 9))
        rows = [rng.uniform(0.0, 1.0, size=i + 1).tolist() for i in range(t)]
        m = bc.compute_metrics(bc.EvalMatrix(rows))
        acc, maa, bwt = metrics_oracle(rows)
        assert abs(m.acc - acc) < 1e-12
        assert abs(m.maa - maa) < 1e-12
        assert abs(m.bwt - bwt) < 1e-12


def test_task_wise_maa_prefix_structure():
    rows = [[0.8], [0.6, 0.9], [0.5, 0.7, 0.9]]
    curve = bc.task_wise_maa(bc.EvalMatrix(rows))
    assert len(curve) == 3
    assert curve[0] == pytest.approx(0.8, abs=1e-12)
    assert curve[1] == pytest.approx((0.8 + 0.75) / 2, abs=1e-12)
    assert curve[-1] == pytest.approx(bc.compute_metrics(bc.EvalMatrix(rows)).maa, abs=1e-12)


def test_eval_matrix_accessors():
    m = bc.EvalMatrix([[0.8], [0.6, 0.9]])
    assert m.num_tasks == 2
    assert m.final_row() == [0.6, 0.9]
    assert m.diagonal() == [0.8, 0.9]


def test_eval_matrix_validation():
    with pytest.raises(ContractError):
        bc.EvalMatrix([])
    with pytest.raises(ContractError):
        bc.EvalMatrix([[0.5], [0.5]])
    with pytest.raises(ContractError):
        bc.EvalMatrix([[1.2]])
    with pytest.raises(ContractError):
        bc.EvalMatrix([[-0.1]])
