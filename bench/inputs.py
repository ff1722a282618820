"""Seeded input generator for the benchmark workloads.

The phrase tables are copied from ``tests/synth.py`` (the confusable corpus)
so that a later change to the tests cannot move the benchmark's inputs.
Every record follows the four-section layout the lexicon's anchors expect;
the clue search area is the sentence between "The court finds that:" and
"Sentencing", and the distractor sentences sit outside it.

Only ``random.Random`` seeded with a string is used, so the same workload
seed gives byte-identical files on every Python 3 build.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

CHARGES = ("robbery", "theft", "fraud")
CLUE_FIELDS = ("motivation", "action", "harm")

SECTIONS = {
    "statement": "[STATEMENT]",
    "date": "[DATE]",
    "location": "[LOCATION]",
    "process": "[PROCESS]",
}
TEMPLATE = {"start": "The court finds that:", "end": "Sentencing"}

NAMES = ["Wang", "Li", "Zhang", "Chen", "Liu", "Yang", "Zhao", "Huang", "Zhou", "Wu",
         "Xu", "Sun", "Ma", "Zhu", "Hu", "Guo", "He", "Gao", "Lin", "Luo"]
PLACES = ["Nanshan", "Futian", "Luohu", "Baoan", "Longgang", "Yantian", "Guangming"]

# Overlapping clue vocabularies: repeated entries weight the shared terms.
CONFUSABLE = {
    "robbery": {
        "motivation": ["greed for money", "greed for money", "a violent impulse"],
        "action": [
            "took the cash from the counter",
            "forcibly seized the handbag",
            "threatened the clerk with a knife",
        ],
        "harm": ["loss of property", "loss of property", "minor bodily injury"],
        "article": "article 263",
        "imprisonment": "three to ten years",
    },
    "theft": {
        "motivation": ["greed for money", "greed for money", "quiet opportunism"],
        "action": [
            "took the cash from the counter",
            "secretly took the wallet",
            "slipped the phone into a coat pocket",
        ],
        "harm": ["loss of property", "loss of property", "a missing phone"],
        "article": "article 264",
        "imprisonment": "under three years",
    },
    "fraud": {
        "motivation": ["greed for money", "greed for money", "a deception scheme"],
        "action": [
            "promised a refund at the counter",
            "forged a bank transfer order",
            "fabricated an investment return",
        ],
        "harm": ["loss of property", "loss of property", "an emptied savings account"],
        "article": "article 266",
        "imprisonment": "fine only",
    },
}

DISTRACTORS = [
    "The defendant transferred {amount} yuan through a bank counter that day.",
    "A receipt for {amount} yuan was later found at the {place} branch office.",
    "Witness {name} stated that money changed hands near the market entrance.",
    "The account statement listed a cash deposit of {amount} yuan that week.",
    "Surveillance showed the defendant paying {amount} yuan at a register.",
    "Officer {name} collected the transaction records from the {place} branch.",
]

# Stands in for removed clue terms; sliced to each removed term's length so a
# fallback case searches an area exactly as long as its fuzzy twin.
FILLER = "the particulars of this conduct were never entered into the record "

def _rng(seed: int, stream: str) -> random.Random:
    return random.Random(f"lexjudge-bench/{stream}/{seed}")


def lexicon_doc() -> dict:
    """The lexicon file: every distinct term per field, the area template and
    the section anchors."""
    doc: dict = {}
    for name in CLUE_FIELDS:
        seen: list[str] = []
        for spec in CONFUSABLE.values():
            for term in spec[name]:
                if term not in seen:
                    seen.append(term)
        doc[name] = seen
    doc["templates"] = [dict(TEMPLATE)]
    doc["sections"] = dict(SECTIONS)
    return doc


def distinctive_terms(charge: str, clue_field: str) -> list[str]:
    """Terms of one charge that no other charge uses, in table order."""
    others = {
        term
        for other, spec in CONFUSABLE.items()
        if other != charge
        for term in spec[clue_field]
    }
    out: list[str] = []
    for term in CONFUSABLE[charge][clue_field]:
        if term not in others and term not in out:
            out.append(term)
    return out


def _noise(rng: random.Random) -> str:
    pieces = [
        rng.choice(DISTRACTORS).format(
            amount=100 * (1 + rng.randrange(90)),
            name=rng.choice(NAMES),
            place=rng.choice(PLACES),
        )
        for _ in range(3)
    ]
    return " " + " ".join(pieces)


def _record(case_id: str, charge: str, area: str, rng: random.Random) -> dict:
    noise = _noise(rng)
    fact = (
        f"[STATEMENT] The procuratorate accuses the defendant {rng.choice(NAMES)}."
        f"{noise} [DATE] On 2017-0{1 + rng.randrange(9)}-1{rng.randrange(10)}. "
        f"[LOCATION] Inside a store in {rng.choice(PLACES)} district. "
        f"[PROCESS] Upon review it is established as follows. "
        f"The court finds that: {area} "
        f"Sentencing shall follow the applicable provisions.{noise}"
    )
    spec = CONFUSABLE[charge]
    return {
        "id": case_id,
        "fact": fact,
        "labels": {
            "imprisonment": spec["imprisonment"],
            "charge": charge,
            "article": spec["article"],
        },
    }


def exact_records(seed: int, count: int, prefix: str) -> list[dict]:
    """Confusable cases, charges in rotation, every clue term verbatim."""
    rng = _rng(seed, prefix)
    records = []
    for k in range(count):
        charge = CHARGES[k % len(CHARGES)]
        spec = CONFUSABLE[charge]
        motivation, action, harm = (rng.choice(spec[name]) for name in CLUE_FIELDS)
        area = f"motivated by {motivation}, the defendant {action}, causing {harm}."
        records.append(_record(f"{prefix}-{k:05d}", charge, area, rng))
    return records


def transpose(term: str, rng: random.Random) -> str:
    """Swap one pair of adjacent, different characters (edit distance 2)."""
    spots = [i for i in range(len(term) - 1) if term[i] != term[i + 1]]
    i = rng.choice(spots)
    return term[:i] + term[i + 1] + term[i] + term[i + 2 :]


def filler(term: str) -> str:
    """Text as long as ``term`` that matches no term of the lexicon."""
    return FILLER[: len(term)].strip().ljust(len(term), ".")


def clue_area(clues) -> str:
    """The search area of a fuzzy-workload case: only its three clues."""
    return "; ".join(clues) + "."


def fuzzy_records(seed: int, pairs_per_charge: int) -> tuple[list[dict], list[str]]:
    """Pairs of cases per charge, in rotation: first each clue is a
    charge-distinctive term with one adjacent transposition (a fuzzy hit),
    then a twin whose terms are replaced by filler of the same lengths (no
    term left, so every field falls back to the area). The search area holds
    only the three clues, which keeps one case to about a second of fuzzy
    matching.

    Each field of a charge cycles through its distinctive terms in an order
    the seed shuffles, so every seed uses each term about equally often and
    the cost of a request set (which grows with the terms' lengths) moves
    little from seed to seed.

    Returns the records and the provenance every field of each is expected
    to get.
    """
    rng = _rng(seed, "fuzzy")
    cycles = {}
    for charge in CHARGES:
        for name in CLUE_FIELDS:
            terms = list(distinctive_terms(charge, name))
            rng.shuffle(terms)
            cycles[charge, name] = terms
    records: list[dict] = []
    expected: list[str] = []
    for k in range(pairs_per_charge * len(CHARGES)):
        charge = CHARGES[k % len(CHARGES)]
        turn = k // len(CHARGES)
        terms = [
            cycles[charge, name][turn % len(cycles[charge, name])] for name in CLUE_FIELDS
        ]
        hit = clue_area(transpose(term, rng) for term in terms)
        removed = clue_area(filler(term) for term in terms)
        records.append(_record(f"fuzzy-{k:03d}", charge, hit, rng))
        records.append(_record(f"fallback-{k:03d}", charge, removed, rng))
        expected.extend(("fuzzy", "fallback_area"))
    return records, expected


def write_jsonl(path: Path, records: list[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def write_json(path: Path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, ensure_ascii=False, indent=2)
        fh.write("\n")
