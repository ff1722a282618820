"""The source mutants of ``tests/mutants.py`` still apply: each snippet
occurs exactly once in its module, so every entry mutates one place, and
each test id it lists names a test file and the classes and functions
defined in it, so no entry waits on a test that does not exist."""

import ast

import pytest

from mutants import MUTANTS, ROOT, source


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_snippet_occurs_exactly_once(mutant):
    assert source(mutant.module).count(mutant.snippet) == 1
    assert mutant.replacement != mutant.snippet and mutant.tests


def test_names_are_distinct():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


def unresolved(test_id: str) -> str | None:
    """Why ``test_id`` (``path::Class::function[params]``, each ``::`` part
    optional) names no test, read from the file's syntax tree; None when
    it names one."""
    path, *names = test_id.split("::")
    if not (ROOT / path).is_file():
        return f"no file {path}"
    scope = ast.parse((ROOT / path).read_text(encoding="utf-8")).body
    for name in names:
        name = name.split("[", 1)[0]
        defined = {
            node.name: node.body for node in scope
            if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        }
        if name not in defined:
            return f"{path} defines no {name}"
        scope = defined[name]
    return None


def test_every_listed_test_exists():
    listed = dict.fromkeys(test for mutant in MUTANTS for test in mutant.tests)
    assert {test: unresolved(test) for test in listed if unresolved(test)} == {}
