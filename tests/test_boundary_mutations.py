"""A seeded mutation test of the command line's promise that no input ends
in a traceback: every command exits 0, 2, 3 or 4, never 1.

Each case takes one intact input file (a trained checkpoint, the trace
corpus, the lexicon or the run config), changes one value in it to one of
``VALUES`` or deletes it, and runs one command that reads that file, in
process through ``cli.main``. The value changed is any member of an object
or element of a list, a leaf or a whole object or list; in the corpus a
path starts with the record's index. Commands train with tiny epoch counts.

``VALUES`` holds small numbers only: a large count (``train.epochs``, say)
is a valid request for long work, which the test's few seconds cannot hold.
So is a ``train`` section left without ``epochs``, whose default is the
reference recipe's 5000 epochs (seconds per fit); none of the seeded cases
leaves one.
"""

import contextlib
import copy
import io
import json
import random
import traceback

import pytest

from lexjudge.cli import main

SEED = 8
CASES = 240
DELETE = object()
VALUES = (
    None, True, False, 0, 1, -1, 0.5, 2.5, float("nan"), "", "x", "\udcff", [], {}, [1],
    {"x": 1}, DELETE,
)
EXIT_CODES = {0, 2, 3, 4}
CONFIG = {
    "version": 1,
    "seed": 3,
    "paths": {"corpus": "corpus.jsonl", "lexicon": "lexicon.json", "output_dir": "out"},
    "split": {"train_fraction": 0.6, "seed": 13},
    "encoder": {"backend": "hashed", "output_dim": 8, "bucket_count": 64},
    "contrastive": {"epochs": 1, "negatives_per_anchor": 2},
    "train": {"epochs": 2, "heads": 2},
}
# each command's arguments, in a directory holding the four input files
COMMANDS = {
    "trace": ["trace", "--config", "config.json"],
    "pretrain": ["pretrain", "--config", "config.json"],
    "train": ["train", "--config", "config.json"],
    "ablate": ["ablate", "--config", "config.json", "--grid", "full,no_graph"],
    "evaluate": ["evaluate", "--config", "config.json", "--checkpoint", "checkpoint.json"],
    "predict": [
        "predict", "--checkpoint", "checkpoint.json", "--in", "corpus.jsonl",
        "--out", "predictions.jsonl",
    ],
}
FILES = {
    "checkpoint": "checkpoint.json", "corpus": "corpus.jsonl", "lexicon": "lexicon.json",
    "config": "config.json",
}
# the commands that read each input
READERS = {
    "checkpoint": ("predict", "evaluate"),
    "corpus": tuple(COMMANDS),
    "lexicon": ("trace", "pretrain", "train", "ablate"),
    "config": ("trace", "pretrain", "train", "ablate", "evaluate"),
}


def paths(value, prefix=()):
    """The path, as keys and indices, of every member and element nested
    in ``value``, each container before its contents."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield (*prefix, key)
        yield from paths(child, (*prefix, key))


def mutated(doc, path, value):
    """A copy of ``doc`` with the value at ``path`` set to ``value``, or
    deleted for ``DELETE``."""
    doc = copy.deepcopy(doc)
    *parents, last = path
    holder = doc
    for key in parents:
        holder = holder[key]
    if value is DELETE:
        del holder[last]
    else:
        holder[last] = value
    return doc


def write(path, doc, jsonl=False):
    """Write ``doc`` as a JSON file, or with ``jsonl`` a list of records as a
    JSON line each; a lone surrogate is written as its ``\\u`` escape."""
    text = "".join(json.dumps(r) + "\n" for r in doc) if jsonl else json.dumps(doc)
    path.write_text(text, encoding="utf-8")


def run(argv):
    """The exit code of ``cli.main(argv)``, or the traceback it raised."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return main(argv)
    except Exception:
        return traceback.format_exc()


@pytest.fixture(scope="module")
def intact(tmp_path_factory, trace_corpus_path, lexicon_path):
    """The four intact input documents, the checkpoint trained from the
    other three."""
    tmp_path = tmp_path_factory.mktemp("intact")
    with open(trace_corpus_path, encoding="utf-8") as fh:
        corpus = [json.loads(line) for line in fh]
    with open(lexicon_path, encoding="utf-8") as fh:
        lexicon = json.load(fh)
    config = copy.deepcopy(CONFIG)
    config["paths"].update(
        corpus=trace_corpus_path, lexicon=lexicon_path, output_dir=str(tmp_path / "out"),
    )
    write(tmp_path / "config.json", config)
    assert main(["train", "--config", str(tmp_path / "config.json")]) == 0
    with open(tmp_path / "out" / "checkpoint.json", encoding="utf-8") as fh:
        checkpoint = json.load(fh)
    return {"checkpoint": checkpoint, "corpus": corpus, "lexicon": lexicon, "config": CONFIG}


def test_no_mutated_input_exits_1(intact, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rng = random.Random(SEED)
    failures = []
    for _ in range(CASES):
        target = rng.choice(sorted(intact))
        path = rng.choice(list(paths(intact[target])))
        value = rng.choice(VALUES)
        command = rng.choice(READERS[target])
        docs = {**intact, target: mutated(intact[target], path, value)}
        for name, doc in docs.items():
            write(tmp_path / FILES[name], doc, jsonl=name == "corpus")
        code = run(COMMANDS[command])
        if code not in EXIT_CODES:
            shown = "deleted" if value is DELETE else repr(value)
            failures.append(f"{command}: {target} {list(path)} {shown} -> {code}")
    assert not failures, "\n".join(failures)
