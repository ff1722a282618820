"""The source mutants of ``tests/mutants.py`` still apply: each snippet
occurs exactly once in its module, so every entry mutates one place."""

import pytest

from mutants import MUTANTS, source


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_snippet_occurs_exactly_once(mutant):
    assert source(mutant.module).count(mutant.snippet) == 1
    assert mutant.replacement != mutant.snippet and mutant.tests


def test_names_are_distinct():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
