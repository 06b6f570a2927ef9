"""Runs the exemplar program corpus against a hand-built fact table and checks
the sandbox interpreter three ways: hand-traced expectations, agreement with a
CPython-exec reference evaluator, and trace/rejection bookkeeping."""

import pytest

from cohortqa.dsl import ValueKind, parse_program
from cohortqa.retriever import FactEntry, FactTable, MockRetriever, normalize_question
from cohortqa.runtime import execute
from oracle_eval import run_oracle

FACTS = {
    # entity_domain
    ("Is Miles Davis related to jazz?", "bool"): True,
    ("Is John Coltrane related to jazz?", "bool"): True,
    ("Is Isaac Newton related to jazz?", "bool"): False,
    # company_founders
    ("Who are the founders of Acme Corp?", "list"): ["Ada Lodge", "Brian Tate"],
    ("Is Ada Lodge still involved with Acme Corp?", "bool"): True,
    ("Is Brian Tate still involved with Acme Corp?", "bool"): False,
    ("Who are the founders of Solo Labs?", "list"): [],
    # periodic_group
    ("List the elements in Group 1 of the periodic table", "list"): ["Lithium", "Sodium"],
    ("How many valence electrons does Lithium have?", "int"): 1,
    ("How many valence electrons does Sodium have?", "int"): 1,
    ("List the elements in Group 99 of the periodic table", "list"): ["Carbon", "Silicon"],
    ("How many valence electrons does Carbon have?", "int"): 4,
    ("How many valence electrons does Silicon have?", "int"): 3,
    ("Is Carbon reactive with water?", "bool"): False,
    ("Is Silicon reactive with water?", "bool"): False,
    # celestial_superlative
    ("Which known planet has the largest mass?", "list"): ["Jupiter"],
    ("What is the mass of Jupiter in standard units?", "float"): 1.9,
    ("Which known neutron star has the largest mass?", "list"): ["PSR J0740"],
    ("What is the mass of PSR J0740 in the same units?", "float"): 2.8,
    ("Does 'largest' mean selecting the highest mass?", "bool"): True,
    # food_serving
    ("Is a plate a common item to serve soup?", "bool"): False,
    ("Is a bowl a common item to serve soup?", "bool"): True,
    ("Is a plate a common item to serve steak?", "bool"): True,
    ("Is a bowl a common item to serve steak?", "bool"): False,
    # ancestry
    ("Did King Rollo have ancestry from Norse?", "bool"): True,
    ("Did King Rollo have ancestry from Frankish?", "bool"): True,
    ("Did King Rollo have a greater proportion of Norse ancestry than Frankish?", "bool"): True,
    ("Did Queen Emma have ancestry from Norse?", "bool"): True,
    ("Did Queen Emma have ancestry from Frankish?", "bool"): False,
    # cold_reaction (nothing for Jane Doe on purpose)
    ("Did Ernest Shackleton have chills after three weeks in a ice floe?", "bool"): True,
    # energy_loss
    ("How does Earth lose energy from sunlight?", "str"): "radiation back into space",
    ("Does 'radiation back into space' indicate reflection?", "bool"): False,
    ("Does 'radiation back into space' indicate absorption?", "bool"): True,
}

# (exemplar, bindings) -> hand-traced (status, answer, calls, rejected)
CASES = [
    ("entity_domain",
     {"Entity1": "Miles Davis", "Entity2": "John Coltrane", "DomainX": "jazz"},
     ("answered", 1, 2, False)),
    ("entity_domain",
     {"Entity1": "Miles Davis", "Entity2": "Isaac Newton", "DomainX": "jazz"},
     ("answered", 0, 2, False)),
    ("company_founders", {"CompanyX": "Acme Corp"}, ("answered", 0, 3, False)),
    ("company_founders", {"CompanyX": "Solo Labs"}, ("answered", 1, 1, False)),
    ("periodic_group", {"Group1": "Group 1"}, ("answered", 1, 3, False)),
    ("periodic_group", {"Group1": "Group 99"}, ("answered", 0, 5, False)),
    ("celestial_superlative",
     {"Superlative": "largest", "Property": "mass"},
     ("answered", 1, 5, False)),
    ("food_serving", {"FoodItem": "soup"}, ("answered", 1, 2, False)),
    ("food_serving", {"FoodItem": "steak"}, ("answered", 0, 2, False)),
    ("ancestry",
     {"HistoricalFigure": "King Rollo", "NativeGroup": "Norse", "ForeignGroup": "Frankish"},
     ("answered", 1, 3, False)),
    ("ancestry",
     {"HistoricalFigure": "Queen Emma", "NativeGroup": "Norse", "ForeignGroup": "Frankish"},
     ("answered", 1, 2, False)),
    ("cold_reaction",
     {"Person": "Ernest Shackleton", "TimePeriod": "three weeks",
      "ColdEnvironment": "ice floe", "PhysicalReaction": "shivering"},
     ("answered", 0, 1, False)),
    ("cold_reaction",
     {"Person": "Jane Doe", "TimePeriod": "two days",
      "ColdEnvironment": "cold lake", "PhysicalReaction": "shivering"},
     ("answered", 0, 2, True)),
    ("energy_loss", {"EnergySource": "sunlight"}, ("answered", 1, 3, False)),
]


@pytest.fixture(scope="module")
def oracle_retriever():
    entries = {
        normalize_question(q): FactEntry(ValueKind.from_name(kind), value)
        for (q, kind), value in FACTS.items()
    }
    return MockRetriever(FactTable(entries))


@pytest.fixture(scope="module")
def programs(exemplar_corpus):
    return {
        record["name"]: (parse_program(record["source"], record["header"]), record["source"])
        for record in exemplar_corpus
    }


def test_corpus_covers_all_cases(programs):
    assert len(programs) >= 8
    assert {name for name, _, _ in CASES} == set(programs)


@pytest.mark.parametrize("name, bindings, expected", CASES,
                         ids=[f"{n}-{i}" for i, (n, _, _) in enumerate(CASES)])
def test_interpreter_matches_hand_trace(name, bindings, expected, programs, oracle_retriever):
    program, _ = programs[name]
    result = execute(program, bindings, oracle_retriever)
    assert (result.status, result.answer, result.dynamic_retrieve_count,
            result.was_rejected) == expected


@pytest.mark.parametrize("name, bindings, expected", CASES,
                         ids=[f"{n}-{i}" for i, (n, _, _) in enumerate(CASES)])
def test_interpreter_matches_cpython_oracle(name, bindings, expected, programs, oracle_retriever):
    program, source = programs[name]
    result = execute(program, bindings, oracle_retriever)
    oracle = run_oracle(source, bindings, oracle_retriever)
    assert result.status == oracle.status
    assert result.answer == oracle.answer
    assert result.dynamic_retrieve_count == oracle.calls
    assert result.was_rejected == oracle.rejected
    assert [e.rendered_question for e in result.trace] == oracle.questions


def _reached_return(result) -> bool:
    """True when the run ended at a `return`, whatever the value returned."""
    return result.status == "answered" or result.failure_reason.startswith(
        ("non-integer return", "negative answer")
    )


def test_fuzzed_control_flow_matches_cpython_oracle():
    """Generated programs nest `return` inside `if` and `for` at any depth.
    With an empty table every lookup is rejected, so each run is
    deterministic; wherever the interpreter reaches a `return`, CPython must
    return the same value after the same lookups."""
    from fuzz_gen import HEADER, random_valid_source

    retriever = MockRetriever(FactTable({}))
    statuses = {"answered": 0, "runtime_failure": 0}
    for seed in range(400):
        source = random_valid_source(seed)
        program = parse_program(source, HEADER)
        for count in (0, 2, 3):
            bindings = {"Alpha": "alpha", "Beta": "beta", "Count": count}
            result = execute(program, {**bindings, "Count": str(count)}, retriever)
            if not _reached_return(result):
                continue
            statuses[result.status] += 1
            oracle = run_oracle(source, bindings, retriever)
            assert (result.status, result.answer, result.dynamic_retrieve_count,
                    result.was_rejected) == (
                oracle.status, oracle.answer, oracle.calls, oracle.rejected
            ), (seed, count)
    # the sweep stays meaningful: both ends of a return are exercised
    assert statuses == {"answered": 186, "runtime_failure": 141}
