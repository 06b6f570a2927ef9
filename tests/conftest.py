import json
import sys
from pathlib import Path

import pytest

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture
def int_digits_640():
    """Python's limit on the digits of an int written as text or read from
    it, at its least, for one test."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield 640
    sys.set_int_max_str_digits(old)


@pytest.fixture(scope="session")
def film_cohort():
    from cohortqa.data_model import load_cohorts

    return load_cohorts(FIXTURES / "cohorts.jsonl")[0]


@pytest.fixture(scope="session")
def sim_cohorts():
    from cohortqa.data_model import load_cohorts

    return load_cohorts(FIXTURES / "sim_cohorts.jsonl")


@pytest.fixture(scope="session")
def fact_retriever():
    from cohortqa.retriever import FactTable, MockRetriever

    return MockRetriever(FactTable.from_jsonl(FIXTURES / "facts.jsonl"))


@pytest.fixture(scope="session")
def exemplar_corpus():
    records = []
    with open(FIXTURES / "exemplars.jsonl", encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                records.append(json.loads(line))
    return records


@pytest.fixture(scope="session")
def program_pool(sim_cohorts):
    from cohortqa.dsl import parse_program

    header = sim_cohorts[0].template.function_header
    pool = []
    with open(FIXTURES / "pool.jsonl", encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                obj = json.loads(line)
                pool.append((obj["name"], parse_program(obj["source"], header)))
    return pool


_BARE_RETURN = (
    "def answer(Film1: str, Film2: str, DocumentaryType: str, Country: str) -> int:\n"
    "    return\n"
)


@pytest.fixture(params=["unknown cohort", "parse error"])
def refused_batch(request, tmp_path):
    """Cohorts and a program batch that `eval --k 2` refuses before any report,
    with the line it prints. film-a's unparsable sample lies beyond --k."""
    cohort = json.loads((FIXTURES / "cohorts.jsonl").read_text(encoding="utf-8"))
    conj, short = (
        json.loads((FIXTURES / f"programs/{name}_batch.jsonl").read_text(encoding="utf-8"))["source"]
        for name in ("conjunction", "shortcut")
    )
    if request.param == "unknown cohort":
        samples = {"film-a": [conj], "film-z": [conj]}
        error = "eval: unknown cohort 'film-z'\n"
    else:
        samples = {"film-a": [conj, short, _BARE_RETURN], "film-b": [conj, _BARE_RETURN]}
        error = "eval: parse error in film-b: forbidden construct: bare return (line 2, col 5)\n"
    cohorts, programs = tmp_path / "cohorts.jsonl", tmp_path / "programs.jsonl"
    with open(cohorts, "w") as out:
        for cohort_id in ("film-a", "film-b"):
            print(json.dumps(dict(cohort, cohort_id=cohort_id)), file=out)
    with open(programs, "w") as out:
        for cohort_id, sources in samples.items():
            for index, source in enumerate(sources):
                record = {"cohort_id": cohort_id, "sample_index": index, "source": source}
                print(json.dumps(record), file=out)
    return cohorts, programs, error
