import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cohortqa.reward import (
    ACCURACY_PER_QUESTION,
    COHORT_GATE_MIN_CORRECT,
    REJECTION_PENALTY_PER_QUESTION,
    RETRIEVAL_BONUS,
    VARIANT_COHORT,
    VARIANT_NORMAL,
    CohortExecutionSummary,
    accuracy_reward,
    cohort_reward,
    group_advantages,
    rejection_penalty,
    retrieval_reward,
)


def _oracle_total(n_correct, n_calls, n_rejected, variant):
    """Closed-form reference computed independently of the implementation."""
    acc = 0.2 * n_correct
    if variant == "cohort" and n_correct < 4:
        acc = 0.0
    if n_calls == 0:
        ret = -0.6
    elif n_calls == 1:
        ret = 0.0
    else:
        ret = 0.6
    rej = -0.1 * n_rejected
    return acc, ret, rej


def test_reward_algebra_exhaustive():
    combos = 0
    for n_correct in range(7):
        for n_calls in (0, 1, 2):
            for n_rejected in range(7):
                combos += 1
                summary = CohortExecutionSummary(n_correct, n_calls, n_rejected)
                for variant in (VARIANT_COHORT, VARIANT_NORMAL):
                    acc, ret, rej = _oracle_total(n_correct, n_calls, n_rejected, variant)
                    got = cohort_reward(summary, variant)
                    assert abs(got.r_acc - acc) < 1e-12
                    assert abs(got.r_ret - ret) < 1e-12
                    assert abs(got.r_rej - rej) < 1e-12
                    assert abs(got.total - (acc + ret + rej)) < 1e-12
    assert combos == 147


def test_pinned_points():
    assert accuracy_reward(6) == pytest.approx(1.2)
    assert ACCURACY_PER_QUESTION == 0.2
    assert retrieval_reward(0) == -0.6
    assert retrieval_reward(1) == 0.0
    assert retrieval_reward(2) == 0.6
    assert retrieval_reward(40) == 0.6
    assert RETRIEVAL_BONUS == 0.6
    assert rejection_penalty(6) == pytest.approx(-0.6)
    assert REJECTION_PENALTY_PER_QUESTION == 0.1


def test_cohort_gate_boundary():
    assert COHORT_GATE_MIN_CORRECT == 4
    assert accuracy_reward(3, VARIANT_COHORT) == 0.0
    assert accuracy_reward(4, VARIANT_COHORT) == pytest.approx(0.8)
    # the normal variant pays per question below the gate
    assert accuracy_reward(3, VARIANT_NORMAL) == pytest.approx(0.6)


def test_summary_range_validation():
    with pytest.raises(ValueError):
        CohortExecutionSummary(7, 0, 0)
    with pytest.raises(ValueError):
        CohortExecutionSummary(0, -1, 0)
    with pytest.raises(ValueError):
        CohortExecutionSummary(0, 0, 7)


def test_unknown_variant_rejected():
    with pytest.raises(ValueError):
        accuracy_reward(6, "other")


# --- group advantages -----------------------------------------------------

def test_advantages_match_definition():
    rewards = [1.0, 0.5, -0.5, 1.0, 0.0]
    arr = np.array(rewards)
    expected = (arr - arr.mean()) / (arr.std() + 1e-8)
    got = group_advantages(rewards)
    assert np.allclose(got.advantages, expected, atol=1e-12)
    assert got.rewards == tuple(rewards)


def _numpy_advantages(rewards, epsilon=1e-8):
    arr = np.asarray(rewards, dtype=float)
    return ((arr - arr.mean()) / (arr.std() + epsilon)).tolist()


def test_advantages_match_numpy_bitwise_below_eight():
    rng = np.random.default_rng(6)
    for size in range(2, 8):
        for _ in range(300):
            rewards = rng.uniform(-2.0, 2.0, size=size).tolist()
            assert group_advantages(rewards).advantages == tuple(_numpy_advantages(rewards))
            # reward totals are multiples of 0.1, rounded to 10 decimals
            totals = [round(r, 1) for r in rewards]
            assert group_advantages(totals).advantages == tuple(_numpy_advantages(totals))


def test_advantages_match_numpy_closely_from_eight():
    # numpy sums 8 or more values pairwise, so the last bits may differ
    rng = np.random.default_rng(8)
    for size in range(8, 65):
        for _ in range(20):
            rewards = rng.uniform(-2.0, 2.0, size=size).tolist()
            got = group_advantages(rewards).advantages
            assert np.max(np.abs(np.subtract(got, _numpy_advantages(rewards)))) <= 1e-12


def test_equal_rewards_from_different_components_give_zero_advantages():
    # constant-Yes at 4/6: 0.8 - 0.6; over-decomposed lookup at 4/6 with six
    # rejections of its one lookup: 0.8 + 0 - 0.6. Raw float sums differ by ~1e-16.
    constant_yes = cohort_reward(CohortExecutionSummary(4, 0, 0), VARIANT_COHORT)
    over_decomposed = cohort_reward(CohortExecutionSummary(4, 1, 6), VARIANT_COHORT)
    assert constant_yes.total == over_decomposed.total
    got = group_advantages([constant_yes.total, over_decomposed.total])
    assert got.advantages == (0.0, 0.0)


def test_zero_variance_group_is_all_zero():
    got = group_advantages([0.7] * 5)
    assert got.advantages == (0.0,) * 5


def test_a_constant_group_whose_mean_does_not_round_back_is_all_zero():
    # numpy's mean of these is off by one ulp, and that error divided by the
    # epsilon alone gives 1.42e-06 each
    rewards = [85.96505732907978] * 7
    assert max(_numpy_advantages(rewards)) > 1e-6
    assert group_advantages(rewards).advantages == (0.0,) * 7


def test_empty_group_rejected():
    with pytest.raises(ValueError):
        group_advantages([])


@given(
    rewards=st.lists(st.floats(-10, 10), min_size=2, max_size=16),
    shift=st.floats(-100, 100),
)
def test_advantages_shift_invariant(rewards, shift):
    base = group_advantages(rewards).advantages
    shifted = group_advantages([r + shift for r in rewards]).advantages
    assert np.allclose(base, shifted, atol=1e-6)


@given(
    rewards=st.lists(st.floats(-10, 10), min_size=2, max_size=16),
    scale=st.floats(0.1, 50),
)
def test_advantages_scale_invariant_when_spread(rewards, scale):
    arr = np.array(rewards)
    if arr.std() < 1e-3:
        return  # epsilon dominates for near-constant groups
    base = group_advantages(rewards).advantages
    scaled = group_advantages([r * scale for r in rewards]).advantages
    assert np.allclose(base, scaled, atol=1e-6)


@given(rewards=st.lists(st.floats(-10, 10), min_size=2, max_size=16))
def test_advantages_sum_to_zero(rewards):
    got = group_advantages(rewards)
    assert abs(sum(got.advantages)) < 1e-6


def test_epsilon_guard():
    # a tiny spread must not blow up to huge advantages with a big epsilon
    got = group_advantages([0.0, 1e-12])
    assert all(math.isfinite(a) for a in got.advantages)
    assert max(abs(a) for a in got.advantages) < 1e-3
