"""The paper's claim on an input where it can fail: what each reward mode
prefers, a program that generalizes or a shortcut that fits the original
question, as the facts its lookups need go missing.

The input is `perfbench/gen.py`'s sim input (seed 9, 300 film cohorts) and
its candidate pool. A share p of the cohorts, the ones that
`random.Random(1234).sample(range(300), round(p * 300))` picks, lose the
fact behind the first lookup on the original member of `generalizer` and of
`list_loop`. The mock retriever is deterministic, so a rollout's reward is a
function of (program, cohort) alone: the mean reward of each program under
each mode is exact, and needs no sampling. Where REINFORCE ends, which a
seed sweep would show, is not tested here.
"""

import importlib.util
import json
import random
from pathlib import Path

import pytest

from cohortqa.data_model import load_cohorts
from cohortqa.dsl import ValueKind, parse_program
from cohortqa.evaluation import run_cohort
from cohortqa.retriever import FactEntry, FactTable, MockRetriever, normalize_question
from cohortqa.runtime import execute
from cohortqa.sim import MODE_COHORT, MODE_ORG, mode_reward

GEN = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"
SHARES = (0.0, 0.5, 0.8, 1.0)  # p, the share of cohorts with missing facts
PROGRAMS = ("generalizer", "shortcut")

# mean reward per mode and program, at each p of SHARES, to 3 decimals
EXPECTED = {
    MODE_ORG: {"generalizer": (1.8, 1.15, 0.76, 0.5), "shortcut": (0.6, 0.6, 0.6, 0.6)},
    MODE_COHORT: {"generalizer": (1.8, 1.579, 1.452, 1.367),
                  "shortcut": (-0.313, -0.313, -0.313, -0.313)},
}


def _records(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


@pytest.fixture(scope="module")
def sim_input(tmp_path_factory):
    """The cohorts, the pool's programs by name, and the fact entries by
    normalized question."""
    spec = importlib.util.spec_from_file_location("gen", GEN)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    paths = gen.generate_sim(tmp_path_factory.mktemp("sim"), 9, 300)
    cohorts = load_cohorts(paths["cohorts"])
    header = cohorts[0].template.function_header
    pool = {record["name"]: parse_program(record["source"], header)
            for record in _records(paths["pool"])}
    facts = {normalize_question(record["q"]):
             FactEntry(ValueKind.from_name(record["kind"]), record["value"])
             for record in _records(paths["facts"])}
    return cohorts, pool, facts


def missing_facts(cohorts, pool, facts, p: float) -> MockRetriever:
    """A retriever over `facts` without the facts behind the first lookup on
    the original member of `generalizer` and of `list_loop`, in the share p
    of the cohorts that the fixed draw picks."""
    full = MockRetriever(FactTable(facts))
    dropped = set()
    for index in random.Random(1234).sample(range(len(cohorts)), round(p * len(cohorts))):
        bindings = cohorts[index].original.bindings
        for name in ("generalizer", "list_loop"):
            first = execute(pool[name], bindings, full).trace[0]
            dropped.add(normalize_question(first.rendered_question))
    return MockRetriever(FactTable({q: entry for q, entry in facts.items() if q not in dropped}))


@pytest.fixture(scope="module")
def mean_rewards(sim_input):
    """{p: {mode: {program: its mean reward over the cohorts}}}."""
    cohorts, pool, facts = sim_input
    table = {}
    for p in SHARES:
        retriever = missing_facts(cohorts, pool, facts, p)
        outcomes = {name: [run_cohort(pool[name], cohort, retriever) for cohort in cohorts]
                    for name in PROGRAMS}
        table[p] = {mode: {name: sum(mode_reward(o, mode) for o in outcomes[name]) / len(cohorts)
                           for name in PROGRAMS}
                    for mode in EXPECTED}
    return table


def test_mean_rewards_as_facts_go_missing(mean_rewards):
    observed = {mode: {name: tuple(round(mean_rewards[p][mode][name], 3) for p in SHARES)
                       for name in PROGRAMS}
                for mode in EXPECTED}
    assert observed == EXPECTED


def test_org_prefers_the_shortcut_once_every_original_lookup_misses(mean_rewards):
    org = mean_rewards[1.0][MODE_ORG]
    assert org["shortcut"] > org["generalizer"]


@pytest.mark.parametrize("p", SHARES)
def test_cohort_prefers_the_generalizer_at_every_share(p, mean_rewards):
    cohort = mean_rewards[p][MODE_COHORT]
    assert cohort["generalizer"] > cohort["shortcut"]
