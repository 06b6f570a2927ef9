"""Seeded, deterministic input generator for the cohortqa benchmark.

Every file the program under test reads is written here, from the seed
alone: cohorts (JSONL), fact tables (JSONL), program batches (JSONL) and
the candidate pool for ``cohortqa sim``. Only ``random.Random(seed)`` is
used, and nothing iterates over a set or a dict keyed by hash, so the same
seed writes byte-identical files.

Three templates across three domains supply the eval cohorts. Parameter
names carry a per-cohort tag and the wording varies per cohort, so no two
cohorts share a program source. Each template writes programs in five
shapes (see ``SHAPES``); the k samples of a cohort are dealt from a seeded
shuffle of all its template's samples, so some samples of a cohort are
exact duplicates while the mix over the whole input is fixed.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

OPTIONS = ["No", "Yes"]

# shape name -> share of eval samples. The shares are an assumption, not a
# measured mix of model output: they set the duplicate share within a cohort
# (about 27% of parse calls repeat), the reject rate and the failure rate.
SHAPES = {
    "general": 0.35,      # generalizer built from bool retrieves
    "list_loop": 0.20,    # loop over a retrieved list
    "shortcut": 0.20,     # constant answer, no retrieve
    "overdecomposed": 0.15,  # one multi-step lookup the fact table lacks
    "failure": 0.10,      # indexes past the end of a retrieved list
}

_SYLLABLES = (
    "ba be bo da de di fa fe ka ko la le li lo ma me mi mo na ne ni no pa pe "
    "ra re ri ro sa se si so ta te ti to va ve vi za zo"
).split()
_ENDINGS = ("n", "r", "s", "l", "x", "th", "")

GENRES = ("documentary", "animated", "silent", "noir")
CLASSES = ("mammal", "reptile", "bird", "fish", "amphibian")
INSTRUMENTS = ("drums", "bass", "violin", "piano", "flute", "cello")


class _Names:
    """Unique synthetic proper names drawn from one seeded stream."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set()

    def word(self) -> str:
        while True:
            parts = self.rng.sample(_SYLLABLES, self.rng.randint(2, 3))
            text = ("".join(parts) + self.rng.choice(_ENDINGS)).capitalize()
            if text not in self.used:
                self.used.add(text)
                return text

    def phrase(self) -> str:
        return f"{self.word()} {self.word()}"


def _header(params: list[str]) -> str:
    return "def answer(" + ", ".join(f"{p}: str" for p in params) + ") -> int"


def _program(params: list[str], body: list[str]) -> str:
    return _header(params) + ":\n" + "".join(f"    {line}\n" for line in body)


def _fill(text: str, values: dict[str, str]) -> str:
    for key, value in values.items():
        text = text.replace("{" + key + "}", value)
    return text


def _member(masked: str, params: dict[str, str], values: dict[str, str], gold: int) -> dict:
    """One cohort member: ``values`` maps roles, ``params`` roles to parameter names."""
    bindings = {params[role]: values[role] for role in params}
    return {"bindings": bindings, "question": _fill(masked, bindings), "gold": gold}


def _cohort_record(cohort_id, domain, masked, params, members) -> dict:
    names = list(params.values())
    return {
        "cohort_id": cohort_id,
        "domain": domain,
        "masked_question": masked,
        "parameters": names,
        "options": list(OPTIONS),
        "function_header": _header(names),
        "original": members[0],
        "variants": members[1:],
    }


def _golds(rng: random.Random) -> list[int]:
    # the original answers Yes, so the constant-Yes shortcut fits it; the
    # variants answer Yes less often, so the shortcut fails the cohort
    return [1] + [int(rng.random() < 0.4) for _ in range(5)]


def _names_for(rng, roles: dict[str, list[str]], tag: str) -> dict[str, str]:
    return {role: rng.choice(pool) + tag for role, pool in roles.items()}


def _locals(rng, count: int) -> list[str]:
    pool = ["ok", "hit", "flag", "found", "items", "seen", "res", "val", "acc", "got"]
    picked = rng.sample(pool, count)
    return [f"{name}_{rng.randint(0, 99)}" for name in picked]


# --- template: film conjunction (hotpotqa) -----------------------------------

_FILM_WORDINGS = (
    ("Are {f1} and {f2} both {g} films that involve {c}?",
     "Is {x} a {g} film that involves {c}?", "Which {g} films involve {c}?"),
    ("Are {f1} and {f2} both {g} movies set in {c}?",
     "Is {x} a {g} movie set in {c}?", "Which {g} movies are set in {c}?"),
    ("Are {f1} and {f2} both {g} pictures about {c}?",
     "Is {x} a {g} picture about {c}?", "Which {g} pictures are about {c}?"),
)
_FILM_ROLES = {
    "f1": ["Film1", "MovieA", "TitleA", "FirstFilm"],
    "f2": ["Film2", "MovieB", "TitleB", "SecondFilm"],
    "g": ["Genre", "Kind", "DocumentaryType", "Style"],
    "c": ["Country", "Place", "Region", "Land"],
}


def film_cohort(rng: random.Random, style: random.Random, names: _Names, cohort_id: str, tag: str, wording: int):
    masked_w, bool_w, list_w = _FILM_WORDINGS[wording]
    params = _names_for(style, _FILM_ROLES, tag)
    p = {r: "{" + params[r] + "}" for r in params}
    masked = _fill(masked_w, p)
    films = [names.phrase() for _ in range(6)]
    genres = rng.sample(GENRES, 2)
    places = [names.word() for _ in range(2)]
    truth = {(f, g, c): rng.random() < 0.5 for f in films for g in genres for c in places}
    for g in genres:
        for c in places:
            # two films that fit and one that does not, so either gold is reachable
            yes1, yes2, no = rng.sample(films, 3)
            truth[yes1, g, c] = truth[yes2, g, c] = True
            truth[no, g, c] = False
    members, bool_facts, list_keys = [], {}, []
    for gold in _golds(rng):
        while True:
            f1, f2 = rng.sample(films, 2)
            g, c = rng.choice(genres), rng.choice(places)
            if int(truth[f1, g, c] and truth[f2, g, c]) == gold:
                break
        for f in (f1, f2):
            bool_facts[_fill(bool_w, {"x": f, "g": g, "c": c})] = truth[f, g, c]
        if (g, c) not in list_keys:
            list_keys.append((g, c))
        members.append(_member(masked, params, {"f1": f1, "f2": f2, "g": g, "c": c}, gold))
    facts = [{"q": q, "kind": "bool", "value": v} for q, v in bool_facts.items()]
    for g, c in list_keys:
        listed = [f for f in films if truth[f, g, c]]
        rng.shuffle(listed)
        facts.append({"q": _fill(list_w, {"g": g, "c": c}), "kind": "list", "value": listed})
    record = _cohort_record(cohort_id, "hotpotqa", masked, params, members)

    one = _fill(bool_w, {"g": p["g"], "c": p["c"]})
    many = _fill(list_w, p)
    a, b, items, hits, it = _locals(style, 5)
    order = [params[r] for r in ("f1", "f2", "g", "c")]
    sources = {
        "general": _program(order, [
            f'{a} = retrieve(f"{_fill(one, {"x": p["f1"]})}", bool)',
            f'{b} = retrieve(f"{_fill(one, {"x": p["f2"]})}", bool)',
            f"if {a} and {b}:",
            "    return 1",
            "return 0",
        ]),
        "list_loop": _program(order, [
            f'{items} = retrieve(f"{many}", list)',
            f"{hits} = 0",
            f"for {it} in {items}:",
            f"    if {it} == {params['f1']} or {it} == {params['f2']}:",
            f"        {hits} = {hits} + 1",
            f"if {hits} == 2:",
            "    return 1",
            "return 0",
        ]),
        "overdecomposed": _program(order, [
            f'{a} = retrieve(f"{masked}", bool)',
            f"if {a}:",
            "    return 1",
            "return 0",
        ]),
        "failure": _program(order, [
            f'{items} = retrieve(f"{many}", list)',
            f"{a} = {items}[len({items})]",
            "return 0",
        ]),
    }
    return record, facts, sources, order


# --- template: animal class and habitat (arc-easy) ---------------------------

_ANIMAL_WORDINGS = (
    ("Is {a} a {k} that lives in {h}?", "Does {a} live in {h}?", "Which animals live in {h}?"),
    ("Is {a} a {k} found in {h}?", "Is {a} found in {h}?", "Which animals are found in {h}?"),
    ("Is {a} a {k} native to {h}?", "Is {a} native to {h}?", "Which animals are native to {h}?"),
)
_ANIMAL_ROLES = {
    "a": ["Animal", "Creature", "Species", "Beast"],
    "k": ["Class", "Group", "Category", "Taxon"],
    "h": ["Habitat", "Home", "Biome", "Range"],
}


def animal_cohort(rng: random.Random, style: random.Random, names: _Names, cohort_id: str, tag: str, wording: int):
    masked_w, lives_w, list_w = _ANIMAL_WORDINGS[wording]
    is_w = "Is {a} a {k}?"
    params = _names_for(style, _ANIMAL_ROLES, tag)
    p = {r: "{" + params[r] + "}" for r in params}
    masked = _fill(masked_w, p)
    animals = [names.word() for _ in range(6)]
    homes = [names.word() for _ in range(2)]
    kind_of = {a: rng.choice(CLASSES) for a in animals}
    lives = {(a, h): rng.random() < 0.5 for a in animals for h in homes}
    for h in homes:
        # one animal that lives there and one that does not
        yes, no = rng.sample(animals, 2)
        lives[yes, h], lives[no, h] = True, False
    members, facts_map, list_keys = [], {}, []
    for gold in _golds(rng):
        while True:
            a, h = rng.choice(animals), rng.choice(homes)
            k = kind_of[a] if rng.random() < 0.6 else rng.choice(CLASSES)
            if int(kind_of[a] == k and lives[a, h]) == gold:
                break
        facts_map[_fill(is_w, {"a": a, "k": k})] = kind_of[a] == k
        facts_map[_fill(lives_w, {"a": a, "h": h})] = lives[a, h]
        if h not in list_keys:
            list_keys.append(h)
        members.append(_member(masked, params, {"a": a, "k": k, "h": h}, gold))
    facts = [{"q": q, "kind": "bool", "value": v} for q, v in facts_map.items()]
    for h in list_keys:
        listed = [a for a in animals if lives[a, h]]
        rng.shuffle(listed)
        facts.append({"q": _fill(list_w, {"h": h}), "kind": "list", "value": listed})
    record = _cohort_record(cohort_id, "arc-easy", masked, params, members)

    a_, b_, items, seen, it = _locals(style, 5)
    order = [params[r] for r in ("a", "k", "h")]
    sources = {
        "general": _program(order, [
            f'{a_} = retrieve(f"{_fill(is_w, p)}", bool)',
            f'{b_} = retrieve(f"{_fill(lives_w, p)}", bool)',
            f"if {a_} and {b_}:",
            "    return 1",
            "return 0",
        ]),
        "list_loop": _program(order, [
            f'{items} = retrieve(f"{_fill(list_w, p)}", list)',
            f"{seen} = False",
            f"for {it} in {items}:",
            f"    if {it} == {params['a']}:",
            f"        {seen} = True",
            f'{a_} = retrieve(f"{_fill(is_w, p)}", bool)',
            f"if {seen} and {a_}:",
            "    return 1",
            "return 0",
        ]),
        "overdecomposed": _program(order, [
            f'{a_} = retrieve(f"{masked}", bool)',
            f"if {a_}:",
            "    return 1",
            "return 0",
        ]),
        "failure": _program(order, [
            f'{items} = retrieve(f"{_fill(list_w, p)}", list)',
            f"{a_} = {items}[len({items})]",
            "return 0",
        ]),
    }
    return record, facts, sources, order


# --- template: band members and instruments (strategyqa) --------------------

_BAND_WORDINGS = (
    ("Did any member of {b} play the {i}?", "Who were the members of {b}?",
     "Did {x} play the {i}?", "Which members of {b} played the {i}?"),
    ("Did anyone in {b} play the {i}?", "Who played in {b}?",
     "Did {x} play the {i}?", "Who in {b} played the {i}?"),
    ("Was the {i} played by a member of {b}?", "Which musicians were in {b}?",
     "Was the {i} played by {x}?", "Which musicians in {b} played the {i}?"),
)
_BAND_ROLES = {
    "b": ["Band", "Group", "Ensemble", "Act"],
    "i": ["Instrument", "Part", "Tool", "Axe"],
}


def band_cohort(rng: random.Random, style: random.Random, names: _Names, cohort_id: str, tag: str, wording: int):
    masked_w, roster_w, plays_w, players_w = _BAND_WORDINGS[wording]
    params = _names_for(style, _BAND_ROLES, tag)
    p = {r: "{" + params[r] + "}" for r in params}
    masked = _fill(masked_w, p)
    members, facts = [], []
    for gold in _golds(rng):
        band = names.phrase()
        roster = [names.phrase() for _ in range(rng.randint(2, 4))]
        instrument = rng.choice(INSTRUMENTS)
        while True:
            plays = [rng.random() < 0.35 for _ in roster]
            if int(any(plays)) == gold:
                break
        facts.append({"q": _fill(roster_w, {"b": band}), "kind": "list", "value": roster})
        for person, played in zip(roster, plays):
            facts.append({"q": _fill(plays_w, {"x": person, "i": instrument}), "kind": "bool", "value": played})
        players = [person for person, played in zip(roster, plays) if played]
        facts.append({"q": _fill(players_w, {"b": band, "i": instrument}), "kind": "list", "value": players})
        members.append(_member(masked, params, {"b": band, "i": instrument}, gold))
    record = _cohort_record(cohort_id, "strategyqa", masked, params, members)

    ok, found, people, n, person = _locals(style, 5)
    order = [params[r] for r in ("b", "i")]
    sources = {
        "general": _program(order, [
            f'{people} = retrieve(f"{_fill(roster_w, p)}", list)',
            f"{found} = False",
            f"for {person} in {people}:",
            f'    {ok} = retrieve(f"{_fill(plays_w, {"x": "{" + person + "}", "i": p["i"]})}", bool)',
            f"    if {ok}:",
            f"        {found} = True",
            f"if {found}:",
            "    return 1",
            "return 0",
        ]),
        "list_loop": _program(order, [
            f'{people} = retrieve(f"{_fill(players_w, p)}", list)',
            f"{n} = 0",
            f"for {person} in {people}:",
            f"    {n} = {n} + 1",
            f"if {n} > 0:",
            "    return 1",
            "return 0",
        ]),
        "overdecomposed": _program(order, [
            f'{ok} = retrieve(f"{masked}", bool)',
            f"if {ok}:",
            "    return 1",
            "return 0",
        ]),
        "failure": _program(order, [
            f'{people} = retrieve(f"{_fill(roster_w, p)}", list)',
            f"{ok} = {people}[len({people})]",
            "return 0",
        ]),
    }
    return record, facts, sources, order


TEMPLATES = (film_cohort, animal_cohort, band_cohort)


def _shape_deck(rng: random.Random, count: int) -> list[str]:
    """``count`` shapes in the proportions of SHAPES, in seeded order.

    Dealing from a deck rather than drawing each sample keeps the mix, and
    so the work per cohort, the same on every seed.
    """
    deck = [shape for shape, weight in SHAPES.items() for _ in range(round(weight * count))]
    deck = (deck + ["general"] * count)[:count]
    rng.shuffle(deck)
    return deck


def _source(sources: dict, order: list[str], shape: str, rng: random.Random) -> str:
    if shape == "shortcut":
        return _program(order, [f"return {rng.randint(0, 1)}"])
    return sources[shape]


def _write_jsonl(path: Path, records) -> None:
    with open(path, "w", encoding="utf-8") as out:
        for record in records:
            out.write(json.dumps(record, sort_keys=True) + "\n")


def generate_eval(out_dir: Path, seed: int, n_cohorts: int, k: int) -> dict[str, Path]:
    """Write cohorts, facts and a k-sample program batch for ``cohortqa eval``."""
    rng = random.Random(seed)
    names = _Names(rng)
    cohorts, facts, batch = [], [], []
    decks = [_shape_deck(rng, len(range(t, n_cohorts, len(TEMPLATES))) * k) for t in range(len(TEMPLATES))]
    for index in range(n_cohorts):
        template = TEMPLATES[index % len(TEMPLATES)]
        deck = decks[index % len(TEMPLATES)]
        cohort_id = f"c{index:05d}"
        tag = f"_{index:x}"
        record, cohort_facts, sources, order = template(rng, rng, names, cohort_id, tag, rng.randrange(3))
        cohorts.append(record)
        facts.extend(cohort_facts)
        for sample in range(k):
            shape = deck.pop()
            batch.append({"cohort_id": cohort_id, "sample_index": sample,
                          "source": _source(sources, order, shape, rng)})
    paths = {name: out_dir / f"{name}.jsonl" for name in ("cohorts", "facts", "programs")}
    _write_jsonl(paths["cohorts"], cohorts)
    _write_jsonl(paths["facts"], facts)
    _write_jsonl(paths["programs"], batch)
    return paths


def generate_sim(out_dir: Path, seed: int, n_cohorts: int) -> dict[str, Path]:
    """Write one-template cohorts, facts and a candidate pool for ``cohortqa sim``.

    All cohorts share the film template with fixed parameter names and
    wording, so one pool of programs fits every cohort.
    """
    rng = random.Random(seed)
    names = _Names(rng)
    cohorts, facts = [], []
    for index in range(n_cohorts):
        # a fresh identifier stream per cohort gives every cohort the same
        # parameter and local names, so the pool sources are identical
        record, cohort_facts, sources, order = film_cohort(
            rng, random.Random(seed), names, f"s{index:05d}", "", 0
        )
        cohorts.append(record)
        facts.extend(cohort_facts)
    pool = [
        {"name": "generalizer", "source": sources["general"]},
        {"name": "list_loop", "source": sources["list_loop"]},
        {"name": "shortcut", "source": _program(order, ["return 1"])},
        {"name": "shortcut_no", "source": _program(order, ["return 0"])},
        {"name": "overdecomposed", "source": sources["overdecomposed"]},
        {"name": "failure", "source": sources["failure"]},
    ]
    paths = {name: out_dir / f"{name}.jsonl" for name in ("cohorts", "facts", "pool")}
    _write_jsonl(paths["cohorts"], cohorts)
    _write_jsonl(paths["facts"], facts)
    _write_jsonl(paths["pool"], pool)
    return paths
