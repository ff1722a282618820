"""The reference oracles stay independent of the code they check, and the
package keeps them out of its production modules.

Each ``tests/*_reference.py`` module is parsed, not imported: none may
import ``lexjudge.autodiff``, the trainer or the contrastive module, nor
any production forward pass, objective or featurizer by name. The names
that moved to those modules, or were deleted as test-only wrappers, as
ops of the composed tape that closed-form steps replaced, or with the
production tape, must not come back into ``lexjudge``.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import lexjudge

TESTS = Path(__file__).resolve().parent
REFERENCES = sorted(TESTS.glob("*_reference.py"))
FORBIDDEN_MODULES = {"lexjudge.autodiff", "lexjudge.trainer", "lexjudge.contrastive"}
FORBIDDEN_NAMES = ("gat_forward", "stage3_objective", "contrastive_objective", "featurize")
MOVED_OR_DELETED = (
    "edge_logit", "attention_row", "aggregate_node", "gat_forward_reference",
    "total_loss", "graph_loss_reference", "graph_objective",
    "cosine_sim", "loss_from_similarities", "contrastive_loss",
    "ce_loss", "TaskLogits",
    "HashedEncoder", "PrecomputedEncoder", "HeadParams", "param_key",
    "hash_ngram",
    "elu", "leaky_relu", "segment_softmax", "logsumexp", "l2_normalize_rows",
    "_mean_ce", "_onehot",
    "concat", "gather_rows", "_cross_entropy",
    "sample_distinct",
    "stream_u64", "stream_uniform",
)


def imports(path: Path) -> list[tuple[str, str | None]]:
    """(module, imported name or None) for every import in a source file."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            out.extend((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            out.extend((module, alias.name) for alias in node.names)
            # ``from lexjudge import trainer`` imports the module itself
            out.extend((f"{module}.{alias.name}", None) for alias in node.names)
    return out


def test_reference_modules_exist():
    assert {p.name for p in REFERENCES} >= {
        "clue_reference.py", "gat_reference.py", "contrastive_reference.py",
        "encoder_reference.py", "tape_reference.py",
    }


@pytest.mark.parametrize("path", REFERENCES, ids=lambda p: p.name)
def test_reference_is_independent_of_the_checked_code(path):
    bad = []
    for module, name in imports(path):
        if any(module == m or module.startswith(m + ".") for m in FORBIDDEN_MODULES):
            bad.append(module)
        if name is not None and name.startswith(FORBIDDEN_NAMES):
            bad.append(f"{module}.{name}")
    assert not bad, f"{path.name} imports {sorted(set(bad))}"


def test_package_exports_none_of_the_oracle_names():
    assert not [name for name in MOVED_OR_DELETED if hasattr(lexjudge, name)]


def test_no_production_module_defines_them():
    defined = []
    for info in pkgutil.iter_modules(lexjudge.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"lexjudge.{info.name}")
        # the module's names, and those of the classes it defines
        scopes = {info.name: vars(module)}
        scopes.update(
            (f"{info.name}.{key}", vars(value)) for key, value in vars(module).items()
            if isinstance(value, type) and value.__module__ == module.__name__
        )
        defined += [
            f"{scope}.{name}" for scope, names in scopes.items()
            for name in MOVED_OR_DELETED + ("_scores_of",) if name in names
        ]
    assert not defined
