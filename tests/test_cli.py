"""Command-line interface: commands, overrides, exit codes."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import difflab

from difflab.cli import main


@pytest.fixture()
def spec_file(tmp_path):
    spec = {
        "model": {"weights": [0.5, 0.5], "means": [[-2.0], [4.0]],
                  "variances": [0.0, 0.0]},
        "schedule": {"T": 30, "beta_start": 1e-3, "beta_end": 0.05},
        "sampler": {"method": "vanilla", "eta_mode": "ddpm_unit"},
        "n_chains": 32,
        "seed": 1,
        "trajectory_chains": 2,
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return path


def test_run_command(spec_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", str(spec_file), "--out-dir", str(out)]) == 0
    assert (out / "samples.csv").exists()
    assert (out / "manifest.json").exists()
    assert "wrote 32 chains" in capsys.readouterr().out


def test_run_flag_overrides(spec_file, tmp_path):
    out = tmp_path / "out"
    main(["run", str(spec_file), "--out-dir", str(out), "--chains", "5",
          "--seed", "42", "--no-trajectories"])
    with open(out / "samples.csv", newline="") as fh:
        assert len(list(csv.DictReader(fh))) == 5
    assert not (out / "trajectories.csv").exists()
    with open(out / "manifest.json") as fh:
        man = json.load(fh)
    assert man["spec"]["seed"] == 42


def test_env_var_overrides(spec_file, tmp_path, monkeypatch):
    out = tmp_path / "out"
    monkeypatch.setenv("DIFFLAB_SEED", "7")
    monkeypatch.setenv("DIFFLAB_CHAINS", "3")
    monkeypatch.setenv("DIFFLAB_OUT_DIR", str(out))
    main(["run", str(spec_file)])
    with open(out / "manifest.json") as fh:
        man = json.load(fh)
    assert man["spec"]["seed"] == 7
    assert man["spec"]["n_chains"] == 3


def test_flags_beat_env_vars(spec_file, tmp_path, monkeypatch):
    out = tmp_path / "out"
    monkeypatch.setenv("DIFFLAB_SEED", "7")
    main(["run", str(spec_file), "--out-dir", str(out), "--seed", "9"])
    with open(out / "manifest.json") as fh:
        assert json.load(fh)["spec"]["seed"] == 9


def test_bundled_spec_resolves(tmp_path):
    out = tmp_path / "out"
    assert main(["run", "toy_fig4", "--out-dir", str(out), "--chains", "8",
                 "--no-trajectories"]) == 0
    assert (out / "samples.csv").exists()


def test_missing_spec_exits(tmp_path):
    with pytest.raises(SystemExit):
        main(["run", str(tmp_path / "nope.json")])


def test_invalid_spec_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schedule": {"T": 10, "beta_start": 1e-3,
                                            "beta_end": 0.05}}))
    assert main(["run", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_sweep_command(spec_file, tmp_path):
    sweep = {
        "base": json.loads(spec_file.read_text()),
        "axis": "b",
        "values": [0.5, 1.0],
    }
    sweep["base"]["sampler"] = {"method": "adaptive", "b": 0.5, "c": 0.0, "zeta": 0.0}
    sweep["base"]["trajectory_chains"] = 0
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(sweep))
    out = tmp_path / "out"
    assert main(["sweep", str(path), "--out-dir", str(out)]) == 0
    assert (out / "sweep.csv").exists()
    assert (out / "sweep_summary.json").exists()


def test_verify_command(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["verify", "--out", str(tmp_path / "report.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS score-consistency" in out
    with open(tmp_path / "report.json") as fh:
        report = json.load(fh)
    assert report["passed"] is True
    assert len(report["checks"]) == 6
    assert "drift_diffusion_table" in report


def test_schedules_dump(spec_file, tmp_path):
    out = tmp_path / "sched.csv"
    assert main(["schedules", "dump", str(spec_file), "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 30
    assert list(rows[0]) == ["t", "beta", "alpha_cum"]


def test_zero_chains_warns(spec_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", str(spec_file), "--out-dir", str(out),
                 "--chains", "0"]) == 0
    assert "n_chains=0" in capsys.readouterr().err


@pytest.mark.parametrize("field,text", [("weights", "[NaN, 1.0]"),
                                        ("means", "[[-2.0], [1e400]]"),
                                        ("variances", "[0.0, Infinity]")])
def test_non_finite_model_exits_2_before_running(spec_file, tmp_path, capsys, field, text):
    spec = json.loads(spec_file.read_text())
    spec["model"][field] = "@"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(spec).replace('"@"', text))
    out = tmp_path / "out"
    assert main(["run", str(bad), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "finite" in err
    assert not (out / "samples.csv").exists()


def test_cli_import_and_point_mass_run_load_no_scipy(spec_file, tmp_path):
    # scipy is imported lazily, only by the paths that need it
    code = (
        "import sys\n"
        "import difflab.cli\n"
        "assert not [m for m in sys.modules if m.startswith('scipy')], 'on import'\n"
        f"assert difflab.cli.main(['run', {str(spec_file)!r}, '--out-dir', "
        f"{str(tmp_path / 'out')!r}]) == 0\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('scipy'))\n"
        "assert not loaded, loaded[:5]\n"
    )
    src = str(Path(difflab.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
