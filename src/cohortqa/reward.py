"""Composite cohort reward (accuracy + retrieval usage + rejection penalty)
and group-relative advantage normalization.

The component functions take counts that a CohortExecutionSummary has
already range-checked."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .data_model import COHORT_SIZE

VARIANT_COHORT = "cohort"
VARIANT_NORMAL = "normal"

ACCURACY_PER_QUESTION = 0.2
COHORT_GATE_MIN_CORRECT = 4
RETRIEVAL_BONUS = 0.6
REJECTION_PENALTY_PER_QUESTION = 0.1
ADVANTAGE_EPSILON = 1e-8  # keeps a group of equal rewards at zero advantages


@dataclass(frozen=True)
class CohortExecutionSummary:
    n_correct: int
    n_calls: int
    n_rejected: int

    def __post_init__(self):
        if not 0 <= self.n_correct <= COHORT_SIZE:
            raise ValueError(f"n_correct {self.n_correct} outside [0, {COHORT_SIZE}]")
        if self.n_calls < 0:
            raise ValueError(f"n_calls {self.n_calls} negative")
        if not 0 <= self.n_rejected <= COHORT_SIZE:
            raise ValueError(f"n_rejected {self.n_rejected} outside [0, {COHORT_SIZE}]")


class RewardBreakdown(NamedTuple):
    r_acc: float
    r_ret: float
    r_rej: float
    total: float
    variant: str


def accuracy_reward(n_correct: int, variant: str = VARIANT_NORMAL) -> float:
    """0.2 per correct member; the cohort variant gates on >= 4 of 6 correct."""
    if variant == VARIANT_COHORT and n_correct < COHORT_GATE_MIN_CORRECT:
        return 0.0
    if variant not in (VARIANT_COHORT, VARIANT_NORMAL):
        raise ValueError(f"unknown variant {variant!r}")
    return ACCURACY_PER_QUESTION * n_correct


def retrieval_reward(n_calls: int) -> float:
    """-0.6 for zero calls, 0 for one, +0.6 for more than one."""
    if n_calls == 0:
        return -RETRIEVAL_BONUS
    if n_calls == 1:
        return 0.0
    return RETRIEVAL_BONUS


def rejection_penalty(n_rejected: int) -> float:
    """-0.1 per cohort member whose execution had a rejected retrieve."""
    return -REJECTION_PENALTY_PER_QUESTION * n_rejected


def cohort_reward(summary: CohortExecutionSummary, variant: str = VARIANT_NORMAL) -> RewardBreakdown:
    r_acc = accuracy_reward(summary.n_correct, variant)
    r_ret = retrieval_reward(summary.n_calls)
    r_rej = rejection_penalty(summary.n_rejected)
    # rounded so that equal rewards compare equal: the components are
    # multiples of 0.1, and a raw float sum of them may be off by ~1e-16,
    # which group_advantages would blow up into non-zero advantages
    return RewardBreakdown(
        r_acc=r_acc, r_ret=r_ret, r_rej=r_rej,
        total=round(r_acc + r_ret + r_rej, 10), variant=variant,
    )


class GroupAdvantages(NamedTuple):
    rewards: tuple[float, ...]
    advantages: tuple[float, ...]


def _left_sum(values: Sequence[float]) -> float:
    """Left-to-right float sum, which is how numpy sums fewer than 8 values.

    The builtin `sum` compensates its rounding on Python 3.12 and later, so
    it is not used here: the result would then depend on the Python version.
    """
    total = 0.0
    for value in values:
        total += value
    return total


def group_advantages(rewards: Sequence[float]) -> GroupAdvantages:
    """a_i = (r_i - mean) / (std + ADVANTAGE_EPSILON), population std.

    Plain floats, in numpy's order of operations: for groups under 8 the
    result equals `(arr - arr.mean()) / (arr.std() + 1e-8)` bit for bit;
    larger groups may differ in the last bits, because numpy then sums
    pairwise. Equal rewards get exact zeros, where numpy may leave rounding error.
    """
    if len(rewards) == 0:
        raise ValueError("rewards must be non-empty")
    values = tuple(map(float, rewards))
    if max(values) == min(values):
        return GroupAdvantages(rewards=values, advantages=(0.0,) * len(values))
    n = len(values)
    mean = _left_sum(values) / n
    centered = [value - mean for value in values]
    scale = math.sqrt(_left_sum([c * c for c in centered]) / n) + ADVANTAGE_EPSILON
    return GroupAdvantages(rewards=values, advantages=tuple(c / scale for c in centered))
