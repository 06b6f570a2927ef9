import math
import random
import re
from bisect import bisect_right
from collections import Counter
from itertools import islice
from types import SimpleNamespace

import numpy as np
import pytest

import cohortqa.reward
import cohortqa.sim
from cohortqa.cli import _dump
from cohortqa.dsl import parse_program
from cohortqa.evaluation import CohortOutcome, MemberOutcome, run_cohort
from cohortqa.reward import CohortExecutionSummary
from cohortqa.runtime import STATUS_FAILURE, execute
from cohortqa.sim import (
    MODE_COHORT,
    MODE_NORMAL,
    MODE_ORG,
    MODES,
    ToyTrainConfig,
    mode_reward,
    policy_gradient_step,
    _sampling_cdf,
    run_toy_training,
    softmax,
)


def _pool(program_pool):
    return [program for _, program in program_pool]


def test_softmax_properties():
    probs = softmax([0.0, 1.0, 2.0])
    assert all(type(p) is float for p in probs)
    assert sum(probs) == pytest.approx(1.0)
    assert probs[0] < probs[1] < probs[2]
    # large logits do not overflow
    assert all(math.isfinite(p) for p in softmax([1000.0, 1001.0]))
    # the array form, to numpy's last-bit differences in exp
    rng = np.random.default_rng(5)
    for _ in range(50):
        logits = rng.normal(size=int(rng.integers(1, 9))) * 10
        exp = np.exp(logits - logits.max())
        assert np.allclose(softmax(logits.tolist()), exp / exp.sum(), rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("logits", [[float("inf"), 0.0], [float("-inf")] * 2, [0.0, float("nan")],
                                    [float("nan"), 1.0], [float("inf"), float("-inf")]])
def test_softmax_of_non_finite_logits_is_nan_not_an_error(logits):
    # a diverged policy must reach the sum check, which names the update
    assert math.isnan(sum(softmax(logits)))


def test_config_validation():
    with pytest.raises(ValueError):
        ToyTrainConfig(rollouts_per_update=1)
    for updates in (0, -3):
        with pytest.raises(ValueError, match=f"^updates must be >= 1, not {updates}$"):
            ToyTrainConfig(updates=updates)
    with pytest.raises(ValueError):
        ToyTrainConfig(mode="ppo")
    for learning_rate in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="finite"):
            ToyTrainConfig(learning_rate=learning_rate)
    with pytest.raises(ValueError, match="seed"):
        ToyTrainConfig(seed=-1)
    # random.Random would hash these into a seed silently
    for seed in (1.5, True, "0", None, np.int64(3)):
        with pytest.raises(ValueError, match=f"^{re.escape(f'seed must be an int, not {seed!r}')}$"):
            ToyTrainConfig(seed=seed)


def test_policy_gradient_matches_manual():
    logits = np.array([0.1, -0.2, 0.3])
    sampled = [0, 2, 2]
    advantages = [1.0, -0.5, 0.25]
    probs = softmax(logits)
    expected = logits.copy()
    for i, a in zip(sampled, advantages):
        onehot = np.eye(3)[i]
        expected = expected + 0.5 * a * (onehot - probs)  # probs pre-update
    got = policy_gradient_step(logits, sampled, advantages, 0.5)
    assert np.allclose(got, expected, atol=1e-12)


def test_policy_gradient_finite_differences():
    # J(theta) = sum_i a_i * log softmax(theta)[s_i]; the analytic step must
    # match the FD gradient of J within 1e-4
    rng = np.random.default_rng(3)
    logits = rng.normal(size=3)
    sampled = [0, 1, 2, 1]
    advantages = [0.7, -0.3, 1.1, 0.2]

    def objective(theta):
        logp = np.log(softmax(theta))
        return sum(a * logp[i] for i, a in zip(sampled, advantages))

    analytic = policy_gradient_step(logits, sampled, advantages, 1.0) - logits
    eps = 1e-6
    fd = np.zeros_like(logits)
    for j in range(len(logits)):
        up, down = logits.copy(), logits.copy()
        up[j] += eps
        down[j] -= eps
        fd[j] = (objective(up) - objective(down)) / (2 * eps)
    assert np.allclose(analytic, fd, atol=1e-4)


def test_zero_advantages_leave_logits_unchanged():
    logits = np.array([0.5, -0.5])
    got = policy_gradient_step(logits, [0, 1], [0.0, 0.0], 0.5)
    assert np.array_equal(got, logits)


def test_policy_gradient_same_with_and_without_probs():
    rng = np.random.default_rng(11)
    for _ in range(50):
        logits = rng.normal(size=6).tolist()
        sampled = rng.integers(0, 6, size=5).tolist()
        advantages = rng.normal(size=5).tolist()
        without = policy_gradient_step(logits, sampled, advantages, 0.5)
        with_probs = policy_gradient_step(logits, sampled, advantages, 0.5, softmax(logits))
        assert all(type(x) is float for x in without + with_probs)
        assert without == with_probs


def _draw(rng, probs, n):
    """`n` rollouts drawn as the training loop draws them: the CDF first,
    which raises before anything is drawn, then one `random()` per rollout
    placed on it with `bisect_right`."""
    cdf = _sampling_cdf(probs)
    return [bisect_right(cdf, rng.random()) for _ in range(n)]


class _FixedUniforms(np.random.Generator):
    """A numpy generator whose `random(n)` returns the next n of the given
    uniforms; `choice` calls it too, so it places them as numpy does."""

    def __init__(self, uniforms):
        super().__init__(np.random.PCG64(0))
        self.uniforms = iter(uniforms)

    def random(self, size=None, dtype=np.float64, out=None):
        return np.array(list(islice(self.uniforms, size)))


def test_sampler_draws_what_generator_choice_draws():
    # pools of 1-16, logit scales up to 800 so that some probabilities
    # underflow to 0, and 1-10 rollouts: the indices numpy's choice gives for
    # the same uniforms, and exactly one random() per rollout
    cases = np.random.default_rng(2024)
    underflowed = 0
    for seed in range(600):
        size = int(cases.integers(1, 17))
        n = int(cases.integers(1, 11))
        scale = float(cases.choice([0.1, 1.0, 10.0, 100.0, 800.0]))
        probs = softmax((cases.normal(size=size) * scale).tolist())
        underflowed += 0.0 in probs
        ours, twin = random.Random(seed), random.Random(seed)
        expected = _FixedUniforms(iter(twin.random, None)).choice(size, size=n, p=probs).tolist()
        assert _draw(ours, probs, n) == expected
        assert ours.getstate() == twin.getstate()
    assert underflowed > 0


@pytest.mark.parametrize("probs, uniforms", [
    # a uniform equal to a cumulative sum goes to the next index
    ([0.2, 0.3, 0.5], [0.0, 0.2, 0.5, 0.7, 0.99]),
    # zero-probability indices are never drawn, not even at 0.0; the sums are
    # divided by their total, which is 1 - 1e-9 here
    ([0.0, 0.5, 0.0, 0.5 - 1e-9], [0.0, 0.5, 0.50000000025, 0.9999999995]),
])
def test_sampler_places_uniforms_as_generator_choice_does(probs, uniforms):
    n = len(uniforms)
    expected = _FixedUniforms(uniforms).choice(len(probs), size=n, p=probs).tolist()
    # a stand-in for random.Random whose random() returns the same uniforms
    draws = SimpleNamespace(random=iter(uniforms).__next__)
    assert _draw(draws, probs, n) == expected


@pytest.mark.parametrize("probs", [[0.5, float("nan")], [0.5, 0.4], [0.6, 0.6]])
def test_sampler_rejects_probabilities_that_do_not_sum_to_one(probs):
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(ValueError, match="not 1"):
        _draw(rng, probs, 3)
    assert rng.getstate() == state  # nothing drawn


@pytest.mark.parametrize("updates", [1, 5])
def test_overflowing_logits_name_the_diverged_update(updates, program_pool, sim_cohorts, fact_retriever):
    # the first step pushes the logits to +-inf, so softmax returns NaN
    config = ToyTrainConfig(updates=updates, learning_rate=1e308)
    with pytest.raises(ValueError, match="^policy diverged at update 1: probabilities sum to nan, not 1$"):
        run_toy_training(config, _pool(program_pool), sim_cohorts, fact_retriever)


def test_mode_rewards_on_fixture(program_pool, sim_cohorts, fact_retriever):
    by_name = dict(program_pool)
    generalizer = run_cohort(by_name["generalizer"], sim_cohorts[0], fact_retriever)
    shortcut = run_cohort(by_name["shortcut"], sim_cohorts[0], fact_retriever)

    # generalizer: 5/6 correct, 2 calls, 1 rejected member (withheld fact)
    assert mode_reward(generalizer, MODE_COHORT) == pytest.approx(1.0 + 0.6 - 0.1)
    assert mode_reward(generalizer, MODE_NORMAL) == pytest.approx(1.0 + 0.6 - 0.1)
    # its original member fails, so original-only reward pays no accuracy
    assert mode_reward(generalizer, MODE_ORG) == pytest.approx(0.0 + 0.6 - 0.1)

    # shortcut: right on the original only, no retrieves
    assert mode_reward(shortcut, MODE_COHORT) == pytest.approx(0.0 - 0.6)
    assert mode_reward(shortcut, MODE_NORMAL) == pytest.approx(0.2 - 0.6)
    assert mode_reward(shortcut, MODE_ORG) == pytest.approx(1.2 - 0.6)


@pytest.mark.parametrize("term, expected", [
    ("retrieval_reward", {MODE_COHORT: 1.0 - 0.1, MODE_NORMAL: 1.0 - 0.1, MODE_ORG: -0.1}),
    ("rejection_penalty", {MODE_COHORT: 1.0 + 0.6, MODE_NORMAL: 1.0 + 0.6, MODE_ORG: 0.6}),
])
def test_every_mode_reads_each_term_through_the_reward_module(term, expected, monkeypatch,
                                                              program_pool, sim_cohorts,
                                                              fact_retriever):
    # the seam an ablation zeroes a term through: one patch moves all three modes
    generalizer = run_cohort(dict(program_pool)["generalizer"], sim_cohorts[0], fact_retriever)
    monkeypatch.setattr(cohortqa.reward, term, lambda count: 0.0)
    assert {mode: mode_reward(generalizer, mode) for mode in MODES} == pytest.approx(expected)


def test_the_original_only_reward_is_rounded_as_the_others_are():
    members = (MemberOutcome(1, True, False),) + (MemberOutcome(0, False, False),) * 5
    outcome = CohortOutcome("c", members, CohortExecutionSummary(1, 2, 0))
    # 1.2 + 0.6 summed raw is 1.7999999999999998
    assert mode_reward(outcome, MODE_ORG) == 1.8
    with pytest.raises(ValueError, match="unknown variant 'ppo'"):
        mode_reward(outcome, "ppo")


def test_training_is_deterministic(program_pool, sim_cohorts, fact_retriever):
    config = ToyTrainConfig(updates=20, seed=7)
    first = run_toy_training(config, _pool(program_pool), sim_cohorts, fact_retriever)
    second = run_toy_training(config, _pool(program_pool), sim_cohorts, fact_retriever)
    assert first.final_probabilities == second.final_probabilities
    assert [u.to_json() for u in first.updates] == [u.to_json() for u in second.updates]


def test_zero_learning_rate_keeps_uniform(program_pool, sim_cohorts, fact_retriever):
    config = ToyTrainConfig(updates=10, learning_rate=0.0, seed=1)
    log = run_toy_training(config, _pool(program_pool), sim_cohorts, fact_retriever)
    assert np.allclose(log.final_probabilities, 0.5)


def test_identical_candidates_stay_uniform(program_pool, sim_cohorts, fact_retriever):
    by_name = dict(program_pool)
    pool = [by_name["generalizer"], by_name["generalizer"]]
    config = ToyTrainConfig(updates=10, seed=2)
    log = run_toy_training(config, pool, sim_cohorts, fact_retriever)
    # equal rewards -> zero-variance groups -> zero advantages
    assert np.allclose(log.final_probabilities, 0.5)


def test_cohort_training_prefers_generalizer(program_pool, sim_cohorts, fact_retriever):
    config = ToyTrainConfig(updates=200, learning_rate=0.5, mode=MODE_COHORT, seed=0)
    log = run_toy_training(config, _pool(program_pool), sim_cohorts, fact_retriever)
    assert log.final_probabilities[0] > 0.95  # index 0 = generalizer


def test_org_training_prefers_shortcut(program_pool, sim_cohorts, fact_retriever):
    config = ToyTrainConfig(updates=200, learning_rate=0.5, mode=MODE_ORG, seed=0)
    log = run_toy_training(config, _pool(program_pool), sim_cohorts, fact_retriever)
    assert log.final_probabilities[1] > 0.95  # index 1 = shortcut


def test_empty_pool_rejected(sim_cohorts, fact_retriever):
    with pytest.raises(ValueError):
        run_toy_training(ToyTrainConfig(updates=1), [], sim_cohorts, fact_retriever)


def _array_softmax(logits):
    # math.exp, not np.exp: numpy's exp may round the last bit differently
    exp = np.array([math.exp(x) for x in logits - logits.max()])
    return exp / exp.sum()


def _reference_training(config, pool, cohorts, retriever):
    """The loop as it was before rewards were cached: one outcome cache,
    mode_reward per rollout, numpy group statistics, array softmax and step,
    and numpy's Generator.choice placing the uniforms of the seed's
    random.Random. Returns the records' JSON and the final probabilities."""
    sampler = _FixedUniforms(iter(random.Random(config.seed).random, None))
    logits = np.zeros(len(pool))
    outcomes = {}
    records = []
    for update_index in range(config.updates):
        cohort_index = update_index % len(cohorts)
        sampled = sampler.choice(len(pool), size=config.rollouts_per_update, p=_array_softmax(logits))
        rewards = []
        for program_index in sampled:
            key = (int(program_index), cohort_index)
            if key not in outcomes:
                outcomes[key] = run_cohort(pool[key[0]], cohorts[cohort_index], retriever)
            rewards.append(mode_reward(outcomes[key], config.mode))
        arr = np.asarray(rewards, dtype=float)
        advantages = ((arr - arr.mean()) / (arr.std() + 1e-8)).tolist()
        if arr.min() == arr.max():  # a constant group's advantages are exact zeros
            advantages = [0.0] * len(advantages)
        probs = _array_softmax(logits)
        grad = np.zeros_like(logits)
        for i, adv in zip(sampled, advantages):
            grad -= adv * probs
            grad[i] += adv
        logits = logits + config.learning_rate * grad
        records.append({
            "cohort_index": cohort_index,
            "sampled": [int(i) for i in sampled],
            "rewards": arr.tolist(),
            "advantages": advantages,
            "probabilities_after": _array_softmax(logits).tolist(),
        })
    return records, tuple(_array_softmax(logits).tolist())


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("rollouts", [2, 5, 7])
def test_training_matches_reference_loop(mode, rollouts, program_pool, sim_cohorts, fact_retriever):
    config = ToyTrainConfig(rollouts_per_update=rollouts, updates=60, mode=mode, seed=rollouts)
    pool = _pool(program_pool)
    log = run_toy_training(config, pool, sim_cohorts, fact_retriever)
    records, finals = _reference_training(config, pool, sim_cohorts, fact_retriever)
    # exact equality: the log must not move by a single bit
    assert [u.to_json() for u in log.updates] == records
    assert log.final_probabilities == finals


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("rollouts, learning_rate, updates", [
    (5, 0.5, 60),
    # at these rates about 20 to 45 steps interleave with zero-advantage
    # updates, so the sampling CDF is rebuilt after each of them
    (2, 0.02, 120), (5, 0.02, 120), (2, 0.05, 120), (5, 0.05, 120),
])
def test_training_log_text_matches_reference_loop(
        mode, rollouts, learning_rate, updates, program_pool, sim_cohorts, fact_retriever):
    config = ToyTrainConfig(rollouts_per_update=rollouts, updates=updates,
                            learning_rate=learning_rate, mode=mode, seed=rollouts)
    pool = _pool(program_pool)
    log = run_toy_training(config, pool, sim_cohorts, fact_retriever)
    records, finals = _reference_training(config, pool, sim_cohorts, fact_retriever)
    # as text, which unlike == tells 0.0 from -0.0 and 1 from 1.0
    assert [_dump(u.to_json()) for u in log.updates] == [_dump(r) for r in records]
    assert _dump(list(log.final_probabilities)) == _dump(list(finals))
    if updates == 120:
        assert 0 < sum(any(u.advantages) for u in log.updates) < updates


def test_run_cohort_once_per_program_cohort_pair(program_pool, sim_cohorts, fact_retriever, monkeypatch):
    calls = Counter()

    def counting_run_cohort(program, cohort, retriever, limits):
        calls[(id(program), cohort.cohort_id)] += 1
        return run_cohort(program, cohort, retriever, limits)

    monkeypatch.setattr(cohortqa.sim, "run_cohort", counting_run_cohort)
    pool = _pool(program_pool)
    config = ToyTrainConfig(updates=40, seed=3)
    log = run_toy_training(config, pool, sim_cohorts, fact_retriever)
    sampled_pairs = {
        (id(pool[i]), sim_cohorts[u.cohort_index].cohort_id) for u in log.updates for i in u.sampled
    }
    assert sum(len(u.sampled) for u in log.updates) == 200
    assert set(calls) == sampled_pairs
    assert set(calls.values()) == {1}


_ERROR_LOOKUPS = {
    # the mock answers both with an `error` outcome
    "empty question": 'retrieve("", bool)',
    "kind mismatch": 'retrieve("Is Control Room a documentary film that involves Iraq?", int)',
}


@pytest.mark.parametrize("lookup", sorted(_ERROR_LOOKUPS))
def test_a_backend_error_is_rewarded_and_cached_as_a_runtime_failure(
        lookup, program_pool, sim_cohorts, fact_retriever, monkeypatch):
    header = sim_cohorts[0].template.function_header
    erroring = parse_program(f"{header}:\n    ok = {_ERROR_LOOKUPS[lookup]}\n    return 1\n", header)
    result = execute(erroring, sim_cohorts[0].original.bindings, fact_retriever)
    assert result.status == STATUS_FAILURE
    assert result.failure_reason.startswith("retriever backend error: ")
    outcome = run_cohort(erroring, sim_cohorts[0], fact_retriever)
    assert [[event.outcome for event in trace] for trace in outcome.traces] == [["error"]] * 6
    # no member correct or rejected; the errored call counts toward n_calls
    assert outcome.summary == CohortExecutionSummary(n_correct=0, n_calls=1, n_rejected=0)

    calls = Counter()

    def counting_run_cohort(program, cohort, retriever, limits):
        calls[program is erroring] += 1
        return run_cohort(program, cohort, retriever, limits)

    monkeypatch.setattr(cohortqa.sim, "run_cohort", counting_run_cohort)
    by_name = dict(program_pool)
    config = ToyTrainConfig(updates=20, seed=4)
    log = run_toy_training(config, [by_name["generalizer"], erroring], sim_cohorts, fact_retriever)
    rewards = {r for u in log.updates for i, r in zip(u.sampled, u.rewards) if i == 1}
    # rewarded: R_acc 0 (gated), R_ret 0 (one call), R_rej 0; not skipped
    assert rewards == {mode_reward(outcome, MODE_COHORT)} == {0.0}
    assert calls[True] == 1  # cached after its first rollout
