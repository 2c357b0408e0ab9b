"""Continual-learning metrics over a lower-triangular evaluation matrix.

Row i holds the accuracy on every task k <= i measured right after
training task i. From a complete matrix:

* ACC: mean of the final row.
* MAA: mean over rows of each row's own mean (mean average accuracy).
* BWT: mean over tasks of (final accuracy - accuracy right after
  training that task); the last task contributes zero by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ContractError


@dataclass
class Metrics:
    acc: float
    maa: float
    bwt: float


class EvalMatrix:
    """Lower-triangular accuracy matrix; rows[i] has exactly i+1 entries."""

    def __init__(self, rows: list[list[float]]):
        if not rows:
            raise ContractError("evaluation matrix needs at least one row")
        for i, row in enumerate(rows):
            if len(row) != i + 1:
                raise ContractError(f"row {i} has {len(row)} entries, expected {i + 1}")
            for k, v in enumerate(row):
                if not 0.0 <= v <= 1.0:
                    raise ContractError(f"accuracy [{i}][{k}]={v!r} outside [0, 1]")
        self.rows = [[float(v) for v in row] for row in rows]

    @property
    def num_tasks(self) -> int:
        return len(self.rows)

    def final_row(self) -> list[float]:
        return list(self.rows[-1])

    def diagonal(self) -> list[float]:
        return [self.rows[i][i] for i in range(self.num_tasks)]


def compute_metrics(matrix: EvalMatrix) -> Metrics:
    t = matrix.num_tasks
    final = matrix.final_row()
    acc = sum(final) / t
    maa = sum(sum(row) / len(row) for row in matrix.rows) / t
    bwt = sum(final[i] - matrix.rows[i][i] for i in range(t)) / t
    return Metrics(acc=acc, maa=maa, bwt=bwt)


def task_wise_maa(matrix: EvalMatrix) -> list[float]:
    """MAA as it evolves: entry i is the MAA over the first i+1 rows.

    The last entry equals compute_metrics(matrix).maa.
    """
    row_means = [sum(row) / len(row) for row in matrix.rows]
    out = []
    running = 0.0
    for i, rm in enumerate(row_means):
        running += rm
        out.append(running / (i + 1))
    return out
