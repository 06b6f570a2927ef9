"""Toy softmax policy over a candidate program pool, trained with REINFORCE
on group-normalized cohort rewards. Demonstrates that the cohort-gated reward
suppresses shortcut programs that only fit the original question.

The policy holds one float logit per candidate program, a handful of them, so
the loop needs no array library: plain floats do the vector math, and a seeded
`random.Random` draws the rollouts. Training yields each update's record as it
is made, so a caller that writes the log as it goes holds none of it."""

from __future__ import annotations

import math
import random
import sys
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator, NamedTuple, Sequence

from .data_model import COHORT_SIZE, CohortInstance
from .dsl import Program
from .evaluation import CohortOutcome, run_cohort
from .reward import (
    VARIANT_COHORT,
    VARIANT_NORMAL,
    CohortExecutionSummary,
    _left_sum,
    cohort_reward,
    group_advantages,
)
from .runtime import ExecutionLimits

MODE_COHORT = VARIANT_COHORT
MODE_NORMAL = VARIANT_NORMAL
MODE_ORG = "org"  # reward computed from the original member only

MODES = (MODE_COHORT, MODE_NORMAL, MODE_ORG)

# how far probabilities may sum from 1 (numpy's Generator.choice tolerance)
PROBABILITY_SUM_ATOL = math.sqrt(sys.float_info.epsilon)


def softmax(logits: Sequence[float]) -> list[float]:
    """Probabilities as floats: shifted by the max logit, summed left to right.

    Non-finite logits give NaN probabilities, never an exception.
    """
    top = max(logits)
    exp = [math.exp(x - top) for x in logits]
    total = _left_sum(exp)
    return [e / total for e in exp]


@dataclass(frozen=True)
class ToyTrainConfig:
    rollouts_per_update: int = 5
    updates: int = 200
    learning_rate: float = 0.5
    mode: str = MODE_COHORT
    seed: int = 0

    def __post_init__(self):
        if self.rollouts_per_update < 2:
            raise ValueError("group advantages need at least 2 rollouts")
        if self.updates < 1:
            raise ValueError(f"updates must be >= 1, not {self.updates}")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if not math.isfinite(self.learning_rate):
            raise ValueError(f"learning rate must be finite, not {self.learning_rate!r}")
        if type(self.seed) is not int:
            raise ValueError(f"seed must be an int, not {self.seed!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, not {self.seed}")


class UpdateRecord(NamedTuple):
    cohort_index: int
    sampled: tuple[int, ...]
    rewards: tuple[float, ...]
    advantages: tuple[float, ...]
    probabilities_after: tuple[float, ...]

    def to_json(self) -> dict:
        return {
            "cohort_index": self.cohort_index,
            "sampled": list(self.sampled),
            "rewards": list(self.rewards),
            "advantages": list(self.advantages),
            "probabilities_after": list(self.probabilities_after),
        }


class TrainingLog(NamedTuple):
    updates: list[UpdateRecord]
    final_probabilities: tuple[float, ...]


def mode_reward(outcome: CohortOutcome, mode: str) -> float:
    """Scalar reward for one rollout, summed and rounded by `cohort_reward`.
    `org` scores the original member alone as the `normal` variant: its
    correctness counts for all six members, and its rejection once."""
    summary = outcome.summary
    if mode == MODE_ORG:
        original = outcome.members[0]
        n_correct = COHORT_SIZE if original.correct else 0
        summary = CohortExecutionSummary(n_correct, summary.n_calls, int(original.rejected))
        mode = VARIANT_NORMAL
    return cohort_reward(summary, variant=mode).total


def policy_gradient_step(
    logits: Sequence[float],
    sampled: Sequence[int],
    advantages: Sequence[float],
    learning_rate: float,
    probs: Sequence[float] | None = None,
) -> list[float]:
    """Exact softmax score-function update for advantage-weighted log-prob.

    For each sampled index i: grad log pi(i) = onehot(i) - p, with p held
    fixed at the pre-update distribution; contributions sum over rollouts.
    `probs` is that distribution, `softmax(logits)`, when the caller has it.
    The arithmetic runs in the order of the array form (grad -= adv * p;
    grad[i] += adv; logits + lr * grad), so an array version of this step
    agrees with it bit for bit.
    """
    p = softmax(logits) if probs is None else probs
    grad = [0.0] * len(p)
    for i, adv in zip(sampled, advantages):
        for j, p_j in enumerate(p):
            grad[j] -= adv * p_j
        grad[i] += adv
    return [x + learning_rate * g for x, g in zip(logits, grad)]


def _sampling_cdf(probs: Sequence[float]) -> list[float]:
    """numpy `Generator.choice`'s cumulative distribution: `probs` summed left
    to right, each sum divided by the last. Unless `probs` sum to 1 within
    PROBABILITY_SUM_ATOL (a NaN fails too), it raises a ValueError."""
    cdf = list(accumulate(probs))
    total = cdf[-1]
    if not abs(total - 1.0) <= PROBABILITY_SUM_ATOL:
        raise ValueError(f"probabilities sum to {total!r}, not 1")
    return [c / total for c in cdf]


def toy_training_updates(
    config: ToyTrainConfig,
    pool: Sequence[Program],
    cohorts: Sequence[CohortInstance],
    retriever,
    limits: ExecutionLimits = ExecutionLimits(),
) -> Iterator[UpdateRecord]:
    """Round-robin over cohorts; sample rollouts, reward, normalize, update,
    and yield each update's record as soon as it is made.

    Each rollout is one `random()` of `random.Random(config.seed)`, placed
    with `bisect_right` on `_sampling_cdf(probs)` as numpy's `Generator.choice`
    places it, so one seed gives the same records on every run and Python
    version. That CDF, and its sum-to-1 check, is built only when the policy
    changes: at the start and after each step. A step that leaves the probabilities summing away from 1, such as
    logits overflowing at a huge learning rate, raises a ValueError naming the
    next update (or `config.updates` after the last), before it draws; every
    record before it has been yielded by then.

    A group of equal rewards gets one shared tuple of +0.0 advantages, as
    `group_advantages` would give it, and no step: the previous probabilities
    tuple is kept. That is exact: every gradient entry would be +0.0, a logit
    plus `learning_rate * 0.0` is that logit (they start at +0.0 and never
    become -0.0), and so is the softmax. Rewards are kept in one row per
    cohort, indexed by program, and logged as the very floats of that row.

    A retriever `error` outcome (the mock's answer to an empty question or to
    a kind that differs from its table's) fails that member's execution as a
    program bug does: the member is a `runtime_failure` and not correct (it
    counts as rejected only if an earlier lookup of its run was rejected), and
    the errored call counts toward `n_calls`. The rollout is rewarded from that
    outcome, and the reward kept, like any other.
    """
    if not pool:
        raise ValueError("empty candidate pool")
    if not cohorts:
        raise ValueError("empty cohort list")
    rng = random.Random(config.seed)
    draw, n = rng.random, config.rollouts_per_update
    logits = [0.0] * len(pool)  # the uniform policy
    probs, cdf = tuple(softmax(logits)), None
    no_advantage = (0.0,) * n  # shared by every group of equal rewards
    # deterministic retriever => rewards are pure in (program, cohort): one row
    # per cohort, indexed by program; the outcome is not kept once rewarded
    reward_rows: list[list] = [[None] * len(pool) for _ in cohorts]

    for update_index in range(config.updates + 1):
        if cdf is None:  # the policy changed: the uniform start, or a step
            try:
                cdf = _sampling_cdf(probs)
            except ValueError as exc:
                raise ValueError(f"policy diverged at update {update_index}: {exc}") from None
        if update_index == config.updates:
            return  # the last step's policy is checked, but nothing draws on it
        sampled = tuple([bisect_right(cdf, draw()) for _ in range(n)])
        cohort_index = update_index % len(cohorts)
        row = reward_rows[cohort_index]
        for program_index in sampled:
            if row[program_index] is None:
                outcome = run_cohort(pool[program_index], cohorts[cohort_index], retriever, limits)
                row[program_index] = mode_reward(outcome, config.mode)
        rewards = tuple([row[i] for i in sampled])
        if max(rewards) == min(rewards):
            advantages = no_advantage
        else:
            advantages = group_advantages(rewards).advantages
            logits = policy_gradient_step(logits, sampled, advantages, config.learning_rate, probs)
            probs, cdf = tuple(softmax(logits)), None
        yield UpdateRecord(cohort_index, sampled, rewards, advantages, probs)


def run_toy_training(config: ToyTrainConfig, pool: Sequence[Program],
                     cohorts: Sequence[CohortInstance], retriever,
                     limits: ExecutionLimits = ExecutionLimits()) -> TrainingLog:
    """`toy_training_updates` collected: every record, and the last one's
    probabilities as the final ones. Raises as the generator does."""
    updates = list(toy_training_updates(config, pool, cohorts, retriever, limits))
    return TrainingLog(updates, updates[-1].probabilities_after)
