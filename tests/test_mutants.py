"""The table of scripts/mutants.py stays in step with the sources: every
entry applies to the current tree, once, and changes it."""
from __future__ import annotations

import importlib
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def mutants():
    scripts = os.path.join(ROOT, "scripts")
    sys.path.insert(0, scripts)
    try:
        return importlib.import_module("mutants")
    finally:
        sys.path.remove(scripts)


def test_every_entry_applies_once(mutants):
    names = [m.name for m in mutants.MUTANTS]
    assert len(set(names)) == len(names)
    for m in mutants.MUTANTS:
        with open(os.path.join(ROOT, m.path), encoding="utf-8") as fh:
            text = fh.read()
        assert mutants.mutated(ROOT, m) != text and m.claim


def test_rejects_text_that_does_not_occur_once(mutants):
    m = mutants.MUTANTS[0]._replace(old="no such text\n")
    with pytest.raises(ValueError, match="expected one match"):
        mutants.mutated(ROOT, m)
