"""Toy softmax policy over a candidate program pool, trained with REINFORCE
on group-normalized cohort rewards. Demonstrates that the cohort-gated reward
suppresses shortcut programs that only fit the original question.

The policy holds one float logit per candidate program, a handful of them, so
the loop needs no array library: plain floats do the vector math, and a seeded
`random.Random` draws the rollouts."""

from __future__ import annotations

import math
import random
import sys
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple, Sequence

from .data_model import CohortInstance
from .dsl import Program
from .evaluation import CohortOutcome, run_cohort
from .reward import (
    VARIANT_COHORT,
    VARIANT_NORMAL,
    _left_sum,
    cohort_reward,
    group_advantages,
    rejection_penalty,
    retrieval_reward,
)
from .runtime import ExecutionLimits

MODE_COHORT = VARIANT_COHORT
MODE_NORMAL = VARIANT_NORMAL
MODE_ORG = "org"  # reward computed from the original member only

MODES = (MODE_COHORT, MODE_NORMAL, MODE_ORG)

ORG_ACCURACY_SCALE = 1.2  # full-cohort accuracy mass granted on one question

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
    """Scalar reward for one rollout under the given reward mode."""
    summary = outcome.summary
    if mode in (MODE_COHORT, MODE_NORMAL):
        return cohort_reward(summary, variant=mode).total
    if mode == MODE_ORG:
        original = outcome.members[0]
        r_acc = ORG_ACCURACY_SCALE if original.correct else 0.0
        return r_acc + retrieval_reward(summary.n_calls) + rejection_penalty(int(original.rejected))
    raise ValueError(f"unknown mode {mode!r}")


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


def sample_rollouts(rng: random.Random, probs: Sequence[float], n: int) -> list[int]:
    """Draw `n` indices from the distribution `probs`, one `rng.random()` each.

    The steps are those of numpy's `Generator.choice(len(probs), size=n,
    p=probs)`: sum `probs` left to right, divide the sums by the last one,
    and place each uniform with `bisect_right`, so a uniform equal to a
    cumulative sum goes to the next index and a zero-probability index is
    never drawn. Unless `probs` sum to 1 within PROBABILITY_SUM_ATOL (a NaN
    fails too), it raises a ValueError before drawing anything.
    """
    cdf = list(accumulate(probs))
    total = cdf[-1]
    if not abs(total - 1.0) <= PROBABILITY_SUM_ATOL:
        raise ValueError(f"probabilities sum to {total!r}, not 1")
    cdf = [c / total for c in cdf]
    draw = rng.random
    return [bisect_right(cdf, draw()) for _ in range(n)]


def run_toy_training(
    config: ToyTrainConfig,
    pool: Sequence[Program],
    cohorts: Sequence[CohortInstance],
    retriever,
    limits: ExecutionLimits = ExecutionLimits(),
) -> TrainingLog:
    """Round-robin over cohorts; sample rollouts, reward, normalize, update.

    Rollouts are drawn by `sample_rollouts` from `random.Random(config.seed)`,
    so one seed gives the same log on every run and Python version. A step
    that leaves the probabilities summing away from 1, such as logits
    overflowing at a huge learning rate, raises a ValueError naming that
    update.

    A retriever `error` outcome (the mock's answer to an empty question or to
    a kind that differs from its table's) fails that member's execution as a
    program bug does: the member is a `runtime_failure` and not correct (it
    counts as rejected only if an earlier lookup of its run was rejected), and
    the errored call counts toward `n_calls`. The rollout is rewarded from that
    outcome, and the reward cached, like any other.
    """
    if not pool:
        raise ValueError("empty candidate pool")
    if not cohorts:
        raise ValueError("empty cohort list")
    rng = random.Random(config.seed)
    logits = [0.0] * len(pool)  # the uniform policy
    updates: list[UpdateRecord] = []
    # deterministic retriever => rewards are pure in (program, cohort); the
    # outcome itself is not kept once its reward is known
    reward_cache: dict[tuple[int, int], float] = {}
    probs = softmax(logits)

    for update_index in range(config.updates):
        cohort_index = update_index % len(cohorts)
        try:
            sampled = sample_rollouts(rng, probs, config.rollouts_per_update)
        except ValueError as exc:
            # the uniform start always passes, so the step before this draw failed
            raise ValueError(f"policy diverged at update {update_index}: {exc}") from None
        rewards = []
        for program_index in sampled:
            key = (program_index, cohort_index)
            reward = reward_cache.get(key)
            if reward is None:
                outcome = run_cohort(pool[program_index], cohorts[cohort_index], retriever, limits)
                reward = reward_cache[key] = mode_reward(outcome, config.mode)
            rewards.append(reward)
        group = group_advantages(rewards)
        logits = policy_gradient_step(logits, sampled, group.advantages, config.learning_rate, probs)
        probs = softmax(logits)  # the next update's sampling distribution
        updates.append(
            UpdateRecord(
                cohort_index=cohort_index,
                sampled=tuple(sampled),
                rewards=group.rewards,
                advantages=group.advantages,
                probabilities_after=tuple(probs),
            )
        )
    total = _left_sum(probs)  # no draw checks the last step's distribution
    if not abs(total - 1.0) <= PROBABILITY_SUM_ATOL:
        raise ValueError(
            f"policy diverged at update {config.updates}: probabilities sum to {total!r}, not 1")
    return TrainingLog(updates, tuple(probs))
