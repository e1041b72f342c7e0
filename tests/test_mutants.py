"""The mutation table of tests/mutants.py stays applicable."""

import importlib.util
from pathlib import Path

_TESTS = Path(__file__).resolve().parent


def _mutants():
    spec = importlib.util.spec_from_file_location("mutants", _TESTS / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


def test_each_mutations_old_text_occurs_once_in_its_file():
    mutants = _mutants()
    assert len({m.name for m in mutants}) == len(mutants)
    for mutant in mutants:
        text = (_TESTS.parent / mutant.path).read_text()
        assert text.count(mutant.old) == 1, mutant.name
        assert mutant.new != mutant.old, mutant.name
