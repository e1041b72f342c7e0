"""Golden digests: full sha256 of the files a few fixed commands write.

Any change to a pinned byte fails here, whichever layer moved it. The pins
hold for numpy 2.4.6 with OpenBLAS built with DYNAMIC_ARCH and for the float64
`exp` loop numpy picks on the machine: another numpy or BLAS may round the
predictor's sums differently, and another `exp` path the smooth 1-D W1.
tests/golden/regen.py holds the cases, states the pins' scope and rewrites
tests/golden/pins.json.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_GOLDEN = Path(__file__).resolve().parent / "golden"


def _load_regen():
    spec = importlib.util.spec_from_file_location("golden_regen", _GOLDEN / "regen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_REGEN = _load_regen()
_PINS = json.loads((_GOLDEN / "pins.json").read_text())


def test_every_case_is_pinned():
    assert sorted(_PINS) == sorted(_REGEN.CASES)


@pytest.mark.parametrize("name", sorted(_REGEN.CASES))
def test_output_bytes_match_the_pins(name, tmp_path):
    assert _REGEN.CASES[name](tmp_path) == _PINS[name]


def test_thread_count_moves_no_byte():
    assert _PINS["mix16d_threads1"] == _PINS["mix16d_threads2"]
