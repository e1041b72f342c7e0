"""Golden digests: full sha256 of the files a few fixed commands write.

Any change to a pinned byte fails here, whichever layer moved it. A run's
manifest is pinned apart from its other files, without its version. Where a
`samples.csv` moved, the failure gives the largest move of each column over
the rows kept beside the pins, and the numpy and BLAS that ran. The pins hold
for numpy 2.4.6 with OpenBLAS built with DYNAMIC_ARCH and for the float64
`exp` loop numpy picks on the machine: another numpy or BLAS may round the
predictor's sums differently, and another `exp` path the smooth 1-D W1.
tests/golden/regen.py holds the cases, states the pins' scope and rewrites
tests/golden/pins.json.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

_GOLDEN = Path(__file__).resolve().parent / "golden"


def _load_regen():
    spec = importlib.util.spec_from_file_location("golden_regen", _GOLDEN / "regen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_REGEN = _load_regen()
_PINS = json.loads((_GOLDEN / "pins.json").read_text())


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Each case's (work dir, digests), running a case once for all its tests."""
    done = {}

    def output(name):
        if name not in done:
            work = tmp_path_factory.mktemp(name)
            done[name] = work, _REGEN.CASES[name](work)
        return done[name]
    return output


def _samples_report(name: str, work: Path) -> str:
    """The largest |change| in each column of the case's samples.csv over the
    rows kept for its pin, and the numpy and BLAS that wrote it."""
    kept = _REGEN.reference_path(_PINS[name]["samples.csv"])
    want = np.loadtxt(kept, delimiter=",", skiprows=1, ndmin=2)
    got = np.loadtxt(work / "out" / "samples.csv", delimiter=",", skiprows=1, ndmin=2,
                     max_rows=len(want))
    header = kept.read_text().splitlines()[0].split(",")
    if got.shape != want.shape:
        moved = f"{len(got)} rows where {kept.name} keeps {len(want)}"
    else:
        moved = ", ".join(f"{col} {delta:.3g}" for col, delta
                          in zip(header[1:], np.max(np.abs(got - want), axis=0)[1:]))
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = blas.get("openblas configuration") or f"{blas.get('name')} {blas.get('version')}"
    return (f"samples.csv of {name} is not its pin; max |delta| over the first "
            f"{len(want)} rows ({kept.name}): {moved}; numpy {np.__version__}, BLAS {blas}")


def test_every_case_is_pinned():
    assert sorted(_PINS) == sorted(_REGEN.CASES)


@pytest.mark.parametrize("name", sorted(_REGEN.CASES))
def test_output_bytes_match_the_pins(name, outputs):
    work, got = outputs(name)
    files, pinned = ({key: value for key, value in digests.items() if key != _REGEN.MANIFEST}
                     for digests in (got, _PINS[name]))
    report = ""
    if "samples.csv" in pinned and got.get("samples.csv") != pinned["samples.csv"]:
        report = _samples_report(name, work)
    assert files == pinned, report
    assert (_REGEN.MANIFEST in got) == (_REGEN.MANIFEST in _PINS[name])


@pytest.mark.parametrize("name", sorted(name for name, pin in _PINS.items()
                                        if _REGEN.MANIFEST in pin))
def test_manifest_matches_its_pin(name, outputs):
    # the spec as the manifest writes it back; only the version is left out
    assert outputs(name)[1][_REGEN.MANIFEST] == _PINS[name][_REGEN.MANIFEST]


def test_every_pinned_samples_file_keeps_its_first_rows():
    for name, pin in _PINS.items():
        if "samples.csv" in pin:
            assert _REGEN.reference_path(pin["samples.csv"]).is_file(), name


def test_thread_count_moves_no_byte():
    # but the manifest's, which records the thread count
    one, two = ({key: value for key, value in _PINS[f"mix16d_threads{n}"].items()
                 if key != _REGEN.MANIFEST} for n in (1, 2))
    assert one == two
