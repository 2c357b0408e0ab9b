"""Gate usage accounting and the per-task branch freezing policy.

After a task finishes, the branches that carried the most gate mass during
that task get frozen: their B matrices stop receiving gradients but remain
fully routable. Frozen branches never thaw. The ledger keeps an append-only
record of every freeze decision for later inspection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, PolicyError
from .tensor import Matrix


class UsageStats:
    """Accumulated gate observations for one adapter layer within one task."""

    def __init__(self, experts: int):
        self.experts = experts
        self.mass = np.zeros(experts)
        self.selections = np.zeros(experts, dtype=np.int64)
        self.samples_seen = 0

    def record_gate(self, gate: Matrix) -> None:
        """Accumulate one observed gate distribution (1 x N, sums to 1)."""
        row = gate.data[0]
        if row.size != self.experts:
            raise ContractError(f"gate has {row.size} entries, expected {self.experts}")
        total = float(row.sum())
        if abs(total - 1.0) > 1e-6:
            raise ContractError(f"gate not normalized: sums to {total!r}")
        if np.any(row < 0.0):
            raise ContractError("gate has negative entries")
        self.mass += row
        self.selections += row > 0.0
        self.samples_seen += 1

    def normalized_mass(self) -> np.ndarray:
        if self.samples_seen == 0:
            raise PolicyError("no gate observations recorded")
        return self.mass / self.samples_seen


def select_freeze_set(
    stats: UsageStats,
    width: int,
    already_frozen: list[bool],
    by: str = "mass",
) -> list[int]:
    """Pick up to `width` unfrozen branches with the highest accumulated
    gate mass (or selection count with by="count"). Ties break toward the
    lowest branch index. Returns a sorted list, possibly shorter than
    `width` when few unfrozen branches remain.
    """
    if stats.samples_seen == 0:
        raise PolicyError("cannot select a freeze set without gate observations")
    if width < 0:
        raise PolicyError(f"freeze width must be >= 0, got {width}")
    if len(already_frozen) != stats.experts:
        raise PolicyError(
            f"freeze mask has {len(already_frozen)} entries, expected {stats.experts}"
        )
    if by == "mass":
        score = stats.mass
    elif by == "count":
        score = stats.selections.astype(np.float64)
    else:
        raise PolicyError(f"unknown freeze criterion: {by!r}")
    candidates = [j for j in range(stats.experts) if not already_frozen[j]]
    # stable sort on negated score keeps lowest index first among ties
    candidates.sort(key=lambda j: (-score[j], j))
    return sorted(candidates[:width])


def apply_freeze(layer, indices: list[int]) -> None:
    """Freeze the given branch indices of a BranchLoRALayer in place."""
    for j in indices:
        if not 0 <= j < len(layer.branches):
            raise PolicyError(f"branch index {j} out of range for {len(layer.branches)} branches")
        if layer.frozen[j]:
            raise PolicyError(f"branch {j} is already frozen")
    for j in indices:
        layer.frozen[j] = True
        layer.branches[j].trainable = False


@dataclass
class LedgerEntry:
    task_id: int
    layer: int
    frozen: list[int]
    mass: list[float]


@dataclass
class FreezeLedger:
    """Append-only record of freeze decisions, serializable to JSON."""

    entries: list[LedgerEntry] = field(default_factory=list)

    def record(self, task_id: int, layer: int, frozen: list[int], mass: np.ndarray) -> None:
        for prior in self.entries:
            if prior.layer == layer and set(prior.frozen) & set(frozen):
                overlap = sorted(set(prior.frozen) & set(frozen))
                raise PolicyError(
                    f"branches {overlap} on layer {layer} already frozen at task {prior.task_id}"
                )
        self.entries.append(
            LedgerEntry(task_id, layer, sorted(frozen), [float(v) for v in mass])
        )

    def to_obj(self) -> list[dict]:
        return [
            {"task": e.task_id, "layer": e.layer, "frozen": e.frozen, "mass": e.mass}
            for e in self.entries
        ]
