"""Continual-learning metrics against hand-computed and oracle values."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import branchcl as bc
from branchcl import ContractError
from oracles import metrics_oracle


@st.composite
def eval_rows(draw):
    """The rows of a valid evaluation matrix of one to eight tasks."""
    tasks = draw(st.integers(1, 8))
    acc = st.floats(0.0, 1.0)
    return [draw(st.lists(acc, min_size=i + 1, max_size=i + 1)) for i in range(tasks)]


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


@given(value=st.floats(0.0, 1.0))
def test_single_task_bwt_is_zero(value):
    m = bc.compute_metrics(bc.EvalMatrix([[value]]))
    assert m.acc == value
    assert m.maa == value
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


@settings(max_examples=200, deadline=None)
@given(rows=eval_rows())
def test_metric_identities(rows):
    matrix = bc.EvalMatrix(rows)
    m = bc.compute_metrics(matrix)
    # the MAA curve ends at MAA, summed in the same order
    assert bc.task_wise_maa(matrix)[-1] == m.maa
    diagonal = matrix.diagonal()
    assert abs(m.bwt - (m.acc - sum(diagonal) / len(diagonal))) <= 1e-12


@given(rows=eval_rows(), data=st.data())
def test_eval_matrix_rejects_a_row_of_the_wrong_length(rows, data):
    i = data.draw(st.integers(0, len(rows) - 1))
    if data.draw(st.booleans()):
        rows[i].append(0.5)
    else:
        rows[i].pop()
    with pytest.raises(ContractError, match=f"^row {i} has {len(rows[i])} entries"):
        bc.EvalMatrix(rows)


@given(rows=eval_rows(), data=st.data())
def test_eval_matrix_rejects_a_value_outside_the_unit_interval(rows, data):
    i = data.draw(st.integers(0, len(rows) - 1))
    k = data.draw(st.integers(0, i))
    rows[i][k] = data.draw(
        st.floats(max_value=0.0, exclude_max=True)
        | st.floats(min_value=1.0, exclude_min=True)
        | st.just(float("nan"))
    )
    with pytest.raises(ContractError, match=f"^{re.escape(f'accuracy [{i}][{k}]=')}"):
        bc.EvalMatrix(rows)
