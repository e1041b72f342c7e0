"""Command-line interface: commands, overrides, exit codes."""

import copy
import csv
import json
import os
import random
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import difflab
import difflab.cli
import difflab.runner
import difflab.verification

from difflab.cli import main
from difflab.config import RunSpec
from difflab.samplers import SecondMomentError


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


def test_missing_spec_exits(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["run", str(tmp_path / "nope.json")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: spec file not found: {tmp_path / 'nope.json'}\n"
    assert list(tmp_path.iterdir()) == []
    # a directory is not a spec file either
    spec_dir = tmp_path / "spec_dir"
    spec_dir.mkdir()
    assert main(["run", str(spec_dir)]) == 2
    assert capsys.readouterr().err == f"error: spec file not found: {spec_dir}\n"
    assert list(tmp_path.iterdir()) == [spec_dir] and list(spec_dir.iterdir()) == []


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("content", ["random-bytes", "utf-16"])
def test_spec_that_is_not_utf8_exits_2_with_one_line(spec_file, tmp_path, capsys,
                                                    command, content):
    spec = json.loads(spec_file.read_text())
    if command == "sweep":
        spec = {"base": spec, "axis": "K", "values": [10]}
    path = tmp_path / "spec.json"
    if content == "random-bytes":
        path.write_bytes(random.Random(0).randbytes(200))
    else:
        path.write_bytes(json.dumps(spec).encode("utf-16"))    # starts with a BOM
    out = tmp_path / "out"
    assert main([command, str(path), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unreadable ") and "utf-8" in err and err.count("\n") == 1
    assert not out.exists()


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
    assert [c["name"] for c in report["checks"]] == [
        "score-consistency", "drift-identity", "diffusion-scale",
        "midpoint-equivalence", "degeneracy-equivalence"]
    assert "drift_diffusion_table" in report


def test_verify_fails_a_kernel_that_drops_momentum_b(tmp_path, capsys, monkeypatch):
    # midpoint-equivalence runs its momentum side through the step kernel, so a
    # kernel whose momentum row reads m = a m + d x_bar (b dropped, i.e. b = 1)
    # fails verify
    kernel = difflab.verification._step_core

    def dropped_b(state, model, schedule, config, eps_noise, rows, i, work):
        table = copy.copy(rows)
        table.b = [1.0] * len(rows.b)
        return kernel(state, model, schedule, config, eps_noise, table, i, work)
    monkeypatch.setattr(difflab.verification, "_step_core", dropped_b)
    code = main(["verify", "--out", str(tmp_path / "report.json")])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL midpoint-equivalence" in out


def test_schedules_dump(spec_file, tmp_path):
    out = tmp_path / "sched.csv"
    assert main(["schedules", "dump", str(spec_file), "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 30
    assert list(rows[0]) == ["t", "beta", "alpha_cum"]


@pytest.mark.parametrize("respace_k", [None, 20], ids=["full", "respaced"])
def test_schedules_dump_bytes_match_csv_writer_reference(tmp_path, respace_k):
    spec = _toy_fig4()
    spec["schedule"]["respace_k"] = respace_k
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["schedules", "dump", str(path), "--out", str(tmp_path / "got.csv")]) == 0
    sched = RunSpec.from_dict(spec).build_schedule()
    with open(tmp_path / "ref.csv", "w", newline="") as fh:     # every T rate, respaced or not
        writer = csv.writer(fh)
        writer.writerow(["t", "beta", "alpha_cum"])
        for t in range(1, sched.T + 1):
            writer.writerow([t, format(float(sched.betas[t - 1]), ".17g"),
                             format(float(sched.alphas_cum[t - 1]), ".17g")])
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_reused_out_dir_holds_only_the_new_runs_files(tmp_path):
    out = tmp_path / "out"
    spec = _toy_fig4()
    spec["n_chains"] = 50
    first = tmp_path / "first.json"
    first.write_text(json.dumps(spec))
    assert main(["run", str(first), "--out-dir", str(out)]) == 0
    assert {p.name for p in out.iterdir()} == {"samples.csv", "trajectories.csv",
                                               "heatmap.csv", "metrics.json", "manifest.json"}
    spec.update(heatmap=None, metrics=False)
    second = tmp_path / "second.json"
    second.write_text(json.dumps(spec))
    assert main(["run", str(second), "--out-dir", str(out), "--no-trajectories",
                 "--seed", "5"]) == 0
    assert {p.name for p in out.iterdir()} == {"samples.csv", "manifest.json"}
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["spec"]["seed"] == 5 and manifest["spec"]["heatmap"] is None


def test_failed_sweep_leaves_no_earlier_sweeps_files(spec_file, tmp_path, capsys,
                                                     monkeypatch):
    sweep = {"base": json.loads(spec_file.read_text()), "axis": "K", "values": [10, 30]}
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(sweep))
    out = tmp_path / "out"
    assert main(["sweep", str(path), "--out-dir", str(out)]) == 0
    assert {p.name for p in out.iterdir()} == {"sweep.csv", "sweep_summary.json"}

    def diverge(*args, **kwargs):
        raise SecondMomentError("v is not positive")
    monkeypatch.setattr(difflab.runner, "run_chains", diverge)
    assert main(["sweep", str(path), "--out-dir", str(out), "--seed", "7"]) == 1
    assert "error: v is not positive" in capsys.readouterr().err
    assert list(out.iterdir()) == []


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


def _assert_run_loads_no(module: str, *commands) -> None:
    """In a fresh interpreter, neither importing the CLI nor running the
    commands (argument lists for difflab.cli.main, one after another) loads
    module or any submodule of it."""
    code = (
        "import sys\n"
        "import difflab.cli\n"
        f"def loaded(): return sorted(m for m in sys.modules if m == {module!r} "
        f"or m.startswith({module + '.'!r}))\n"
        "assert not loaded(), ('on import', loaded()[:5])\n"
        f"for args in {[[str(a) for a in c] for c in commands]!r}:\n"
        "    assert difflab.cli.main(args) == 0, args\n"
        "    assert not loaded(), (args[0], loaded()[:5])\n"
    )
    src = str(Path(difflab.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_cli_import_and_point_mass_run_load_no_scipy(spec_file, tmp_path):
    # scipy is a test dependency only: no difflab command imports it
    _assert_run_loads_no("scipy", ["run", spec_file, "--out-dir", tmp_path / "out"])


def test_smooth_1d_run_and_sweep_with_metrics_load_no_scipy(spec_file, tmp_path):
    # the smooth-mixture W1 inverts the mixture CDF on difflab's own normal CDF
    spec = json.loads(spec_file.read_text())
    spec["model"]["variances"] = [0.25, 0.25]
    run = tmp_path / "smooth.json"
    run.write_text(json.dumps(spec))
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps({"base": spec, "axis": "K", "values": [10, 30]}))
    _assert_run_loads_no("scipy", ["run", run, "--out-dir", tmp_path / "run"],
                         ["sweep", sweep, "--out-dir", tmp_path / "sweep"])
    assert json.loads((tmp_path / "run" / "metrics.json").read_text())["w1"] > 0.0
    with open(tmp_path / "sweep" / "sweep.csv", newline="") as fh:
        assert all(float(row["w1"]) > 0.0 for row in csv.DictReader(fh))


def test_one_thread_run_and_sweep_load_no_thread_pool(spec_file, tmp_path):
    # concurrent.futures is imported only where the block pool runs
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps({"base": json.loads(spec_file.read_text()), "axis": "K",
                                 "values": [10, 30]}))
    _assert_run_loads_no("concurrent",
                         ["run", spec_file, "--chains", "5000", "--threads", "1",
                          "--out-dir", tmp_path / "run"],
                         ["sweep", sweep, "--threads", "1", "--out-dir", tmp_path / "sweep"])


def test_run_and_sweep_load_no_verification(spec_file, tmp_path):
    # the verification suite is imported only by the verify command
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps({"base": json.loads(spec_file.read_text()), "axis": "K",
                                 "values": [10, 30]}))
    _assert_run_loads_no("difflab.verification",
                         ["run", spec_file, "--out-dir", tmp_path / "run"],
                         ["sweep", sweep, "--out-dir", tmp_path / "sweep"])


def _refuse_constant(name):
    raise ValueError(f"not strict JSON: {name}")


def test_one_chain_run_writes_strict_json_for_the_mode_no_sample_is_near(tmp_path, capsys):
    # one chain fills one of toy_fig4's two modes; the other's mean_abs_dev is null, not NaN
    out = tmp_path / "out"
    assert main(["run", "toy_fig4", "--chains", "1", "--out-dir", str(out)]) == 0
    metrics = json.loads((out / "metrics.json").read_text(), parse_constant=_refuse_constant)
    assert sorted(m["count"] for m in metrics["mode_stats"]) == [0, 1]
    assert [m["mean_abs_dev"] is None for m in metrics["mode_stats"]].count(True) == 1
    printed = capsys.readouterr().out
    json.loads(printed[printed.index("{"):], parse_constant=_refuse_constant)


def _toy_fig4(**sampler):
    spec = json.loads(resources.files("difflab").joinpath("specs", "toy_fig4.json")
                      .read_text())
    spec["sampler"].update(sampler)
    spec["n_chains"] = 16
    return spec


@pytest.mark.parametrize("respace_k", [None, 20], ids=["full", "respaced"])
def test_eta_mode_misfit_exits_2_before_running(tmp_path, capsys, respace_k):
    # ddpm_hat needs a non-expanding per-step rate; on toy_fig4's linear ramp
    # the step plan cannot be built, so the spec is rejected up front
    spec = _toy_fig4(eta_mode="ddpm_hat")
    spec["schedule"]["respace_k"] = respace_k
    path = tmp_path / "hat.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error: sampler.eta_mode:" in err and "at t=" in err
    assert not out.exists()


@pytest.mark.parametrize("axis,values", [("eta_mode", ["ddpm_unit", "ddpm_hat"]),
                                         ("K", [10, 500])])
def test_sweep_bad_cell_exits_2_before_any_cell_runs(tmp_path, capsys, axis, values):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"base": _toy_fig4(), "axis": axis, "values": values}))
    out = tmp_path / "out"
    assert main(["sweep", str(path), "--out-dir", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key,value,field", [
    ("model", 5, "model"),
    ("schedule", {"T": "abc", "beta_start": 1e-3, "beta_end": 0.05}, "schedule.T"),
    ("heatmap", {"t_bins": "x", "x_bins": 4}, "heatmap.t_bins"),
    ("sampler", 5, "sampler"),
    ("n_chains", "many", "n_chains"),
    ("seed", [1], "seed"),
])
def test_wrong_type_exits_2_naming_field(spec_file, tmp_path, capsys, key, value, field):
    spec = json.loads(spec_file.read_text())
    spec[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(spec))
    assert main(["run", str(bad), "--out-dir", str(tmp_path / "out")]) == 2
    assert f"error: {field}:" in capsys.readouterr().err


def test_negative_seed_exits_2(spec_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", str(spec_file), "--out-dir", str(out), "--seed", "-1"]) == 2
    assert "error: seed:" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_without_chains_exits_2(spec_file, tmp_path, capsys):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"base": json.loads(spec_file.read_text()),
                                "axis": "b", "values": [0.1]}))
    out = tmp_path / "out"
    assert main(["sweep", str(path), "--out-dir", str(out), "--chains", "0"]) == 2
    assert "error: sweep.base.n_chains: must be positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key,value,field", [
    ("model", {"weights": [1.0], "means": [[0.0, 1.0]], "variances": [0.1]}, "heatmap"),
    ("trajectory_chains", -3, "trajectory_chains"),
    ("heatmap", {"t_bins": 10, "x_bins": 120, "x_min": 1e15, "x_max": 1e15 + 1},
     "heatmap.x_min, heatmap.x_max"),
    ("heatmap", {"t_bins": 10, "x_bins": 120, "x_min": -1e308, "x_max": 1e308},
     "heatmap.x_min, heatmap.x_max"),
], ids=["heatmap-on-2d", "negative-trajectory-chains", "x-bins-narrower-than-float-spacing",
        "x-range-wider-than-floats"])
def test_bad_record_setting_exits_2_before_running(spec_file, tmp_path, capsys,
                                                   key, value, field):
    spec = json.loads(spec_file.read_text())
    spec["heatmap"] = {"t_bins": 4, "x_bins": 6}
    spec[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(spec))
    out = tmp_path / "out"
    assert main(["run", str(bad), "--out-dir", str(out)]) == 2
    assert f"error: {field}:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("section,key,field", [
    (None, "n_chain", "n_chain"),
    ("model", "weight", "model.weight"),
    ("schedule", "t", "schedule.t"),
    ("heatmap", "xbins", "heatmap.xbins"),
    ("sampler", "record_trajectory", "sampler"),
])
def test_unknown_spec_key_exits_2_naming_it(spec_file, tmp_path, capsys, section, key, field):
    spec = json.loads(spec_file.read_text())
    spec["heatmap"] = {"t_bins": 4, "x_bins": 6}
    (spec if section is None else spec[section])[key] = 10
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(spec))
    out = tmp_path / "out"
    assert main(["run", str(bad), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: {field}:" in err and key in err
    assert not out.exists()


def test_unknown_sweep_key_exits_2_naming_it(spec_file, tmp_path, capsys):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"base": json.loads(spec_file.read_text()),
                                "axis": "b", "values": [0.1], "seed_per_cell": 2}))
    out = tmp_path / "out"
    assert main(["sweep", str(path), "--out-dir", str(out)]) == 2
    assert "error: sweep.seed_per_cell: unknown field" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name", ["SEED", "CHAINS", "THREADS"])
def test_non_integer_env_var_exits_2_naming_it(spec_file, tmp_path, capsys, monkeypatch,
                                               name):
    monkeypatch.setenv(f"DIFFLAB_{name}", "abc")
    out = tmp_path / "out"
    assert main(["run", str(spec_file), "--out-dir", str(out)]) == 2
    assert f"error: DIFFLAB_{name}:" in capsys.readouterr().err
    assert not out.exists()


def test_out_dir_naming_a_file_exits_1_with_one_line(spec_file, tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("")
    assert main(["run", str(spec_file), "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("source", ["flag", "variable"])
def test_empty_out_dir_exits_2_leaving_the_working_directory_alone(
        spec_file, tmp_path, capsys, monkeypatch, command, source):
    path = spec_file
    if command == "sweep":
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"base": json.loads(spec_file.read_text()),
                                    "axis": "K", "values": [10]}))
    work = tmp_path / "work"
    work.mkdir()
    (work / "samples.csv").write_text("an earlier run's samples\n")
    monkeypatch.chdir(work)
    argv = [command, str(path)]
    if source == "flag":
        argv += ["--out-dir", ""]
        name = "--out-dir"
    else:
        monkeypatch.setenv("DIFFLAB_OUT_DIR", "")
        name = "DIFFLAB_OUT_DIR"
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {name}: must not be empty\n"
    assert [p.name for p in work.iterdir()] == ["samples.csv"]
    assert (work / "samples.csv").read_text() == "an earlier run's samples\n"


@pytest.mark.parametrize("argv,first_work", [
    (["verify", "--out", ""], "run_all_checks"),
    (["schedules", "dump", "toy_fig4", "--out", ""], "_resolve_spec_path")])
def test_empty_out_exits_2_before_any_work(tmp_path, capsys, monkeypatch, argv, first_work):
    def work(*args):
        raise AssertionError(f"{first_work} ran")
    # cmd_verify imports the checks when it runs
    owner = difflab.verification if first_work == "run_all_checks" else difflab.cli
    monkeypatch.setattr(owner, first_work, work)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: --out: must not be empty\n"
    assert list(tmp_path.iterdir()) == []


def test_failed_rerun_leaves_no_earlier_samples(spec_file, tmp_path, monkeypatch):
    out = tmp_path / "out"
    assert main(["run", str(spec_file), "--out-dir", str(out)]) == 0
    assert (out / "samples.csv").exists()
    from difflab.samplers import SecondMomentError

    def diverge(*args, **kwargs):
        raise SecondMomentError("second-moment accumulator v is not positive at t=3")
    monkeypatch.setattr("difflab.runner.run_chains", diverge)
    assert main(["run", str(spec_file), "--out-dir", str(out)]) == 1
    assert not (out / "samples.csv").exists()
    assert not (out / "manifest.json").exists()


def test_diverged_run_exits_1_with_one_line(spec_file, tmp_path, capsys, monkeypatch):
    from difflab.samplers import SecondMomentError

    def diverge(*args, **kwargs):
        raise SecondMomentError("second-moment accumulator v is not positive at t=3")
    monkeypatch.setattr("difflab.cli.execute_run", diverge)
    assert main(["run", str(spec_file), "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == \
        "error: second-moment accumulator v is not positive at t=3\n"


@pytest.mark.parametrize("value", [{}, "x", 2.5, -1, True, "0.5"],
                         ids=["object", "word", "above-1", "negative", "boolean", "numeral"])
def test_bad_a_override_exits_2_before_running(spec_file, tmp_path, capsys, value):
    spec = json.loads(spec_file.read_text())
    spec["sampler"]["a_override"] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(spec))
    out = tmp_path / "out"
    assert main(["run", str(bad), "--out-dir", str(out)]) == 2
    assert "error: sampler: a_override must be a number in [0, 1]" in capsys.readouterr().err
    assert not out.exists()


def test_nan_zeta_exits_2_before_running(spec_file, tmp_path, capsys):
    # NaN is not JSON, but Python's json reads it; a NaN zeta must fail
    # validation, not end the run as a diverged second moment after the chains
    spec = json.loads(spec_file.read_text())
    spec["sampler"] = {"method": "adaptive", "zeta": float("nan")}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(spec))
    out = tmp_path / "out"
    assert main(["run", str(bad), "--out-dir", str(out)]) == 2
    assert "error: sampler: zeta must be non-negative" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", [True, "1e-8"], ids=["boolean", "numeral"])
def test_zeta_of_another_json_type_exits_2_before_running(spec_file, tmp_path, capsys,
                                                          value):
    spec = json.loads(spec_file.read_text())
    spec["sampler"] = {"method": "adaptive", "zeta": value}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(spec))
    out = tmp_path / "out"
    assert main(["run", str(bad), "--out-dir", str(out)]) == 2
    assert "error: sampler: zeta must be non-negative" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("path,value", [
    ("trajectories", "false"),
    ("metrics", "no"),
    ("n_chains", 10.7),
    ("seed", True),
    ("threads", 1.5),
    ("trajectory_chains", "2"),
    ("schedule.T", 30.5),
    ("schedule.respace_k", 10.5),
    ("heatmap.t_bins", 4.5),
    ("heatmap.x_bins", True),
    ("schedule.beta_start", "0.0005"),
    ("schedule.alpha_zero", True),
    ("heatmap.x_min", "-6"),
    ("schedule.respace_mode", {}),
    ("heatmap", False),
    ("heatmap", 0),
    ("heatmap", []),
])
def test_spec_scalar_of_another_json_type_exits_2_naming_it(spec_file, tmp_path, capsys,
                                                             path, value):
    spec = json.loads(spec_file.read_text())
    spec["heatmap"] = {"t_bins": 4, "x_bins": 6}
    *section, key = path.split(".")
    (spec[section[0]] if section else spec)[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(spec))
    out = tmp_path / "out"
    assert main(["run", str(bad), "--out-dir", str(out)]) == 2
    assert f"error: {path}: must be " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key,value,field", [
    ("seeds_per_cell", 1.5, "sweep.seeds_per_cell"),
    ("values", [10, 12.5], "sweep.values (K)"),
])
def test_sweep_integer_of_another_json_type_exits_2_naming_it(spec_file, tmp_path, capsys,
                                                               key, value, field):
    sweep = {"base": json.loads(spec_file.read_text()), "axis": "K", "values": [10]}
    sweep[key] = value
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(sweep))
    out = tmp_path / "out"
    assert main(["sweep", str(path), "--out-dir", str(out)]) == 2
    assert f"error: {field}: must be an integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key,value,field", [
    ("weights", ["0.5", "0.5"], "model.weights[0]"),
    ("variances", [0.0, True], "model.variances[1]"),
    ("means", [["-2"], ["4"]], "model.means[0][0]"),
    ("means", [-2.0, 4.0], "model.means[0]"),
    ("weights", 1.0, "model.weights"),
], ids=["weights-numerals", "variances-boolean", "means-numerals", "means-scalars",
        "weights-number"])
def test_model_array_item_of_another_json_type_exits_2_naming_it(spec_file, tmp_path,
                                                                 capsys, key, value, field):
    spec = json.loads(spec_file.read_text())
    spec["model"][key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(spec))
    out = tmp_path / "out"
    assert main(["run", str(bad), "--out-dir", str(out)]) == 2
    assert f"error: {field}: must be " in capsys.readouterr().err
    assert not out.exists()


def test_unknown_respace_mode_exits_2_without_respacing(spec_file, tmp_path, capsys):
    # respace_k is null, so no respacing runs; the mode is still checked
    spec = json.loads(spec_file.read_text())
    spec["schedule"]["respace_mode"] = "cubic"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(spec))
    out = tmp_path / "out"
    assert main(["run", str(bad), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error: schedule: respace_mode must be one of" in err and "'quadratic'" in err
    assert not out.exists()


@pytest.mark.parametrize("axis,values,field", [
    ("K", [50, 50.0, 100], "sweep.values (K): 50 appears"),
    ("b", [0.1, 0.1], "sweep.values (b): 0.1 appears"),
], ids=["K-int-and-float", "b"])
def test_sweep_value_given_twice_exits_2(tmp_path, capsys, axis, values, field):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"base": _toy_fig4(), "axis": axis, "values": values}))
    out = tmp_path / "out"
    assert main(["sweep", str(path), "--out-dir", str(out)]) == 2
    assert f"error: {field} more than once" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_writes_and_keys_each_value_as_read(tmp_path):
    base = _toy_fig4(method="vanilla")
    base.update(trajectories=False, heatmap=None)
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"base": base, "axis": "K", "values": [10.0, 20]}))
    out = tmp_path / "out"
    assert main(["sweep", str(path), "--out-dir", str(out)]) == 0
    with open(out / "sweep.csv", newline="") as fh:
        assert [row["value"] for row in csv.DictReader(fh)] == ["10", "20"]
    summary = json.loads((out / "sweep_summary.json").read_text())
    assert list(summary["means"]) == ["10", "20"] and summary["best_value"] in (10, 20)


@pytest.mark.parametrize("axis,values,field", [
    ("b", [True], "sweep.values (b)"),
    ("b", ["0.2"], "sweep.values (b)"),
    ("b", "0.1", "sweep.values"),
    ("b", {"0.1": 1}, "sweep.values"),
    ("eta_mode", [5], "sweep.values (eta_mode)"),
], ids=["boolean", "numeral", "string", "object", "eta-mode-number"])
def test_sweep_value_of_another_json_type_exits_2_naming_it(spec_file, tmp_path, capsys,
                                                            axis, values, field):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"base": json.loads(spec_file.read_text()),
                                "axis": axis, "values": values}))
    out = tmp_path / "out"
    assert main(["sweep", str(path), "--out-dir", str(out)]) == 2
    assert f"error: {field}: must be " in capsys.readouterr().err
    assert not out.exists()


def test_no_trajectories_variable_takes_a_fixed_set_of_values(spec_file, tmp_path,
                                                              monkeypatch):
    # 1 and true turn trajectories off; 0, false and empty leave the spec's setting
    for value, written in (("1", False), ("true", False), ("0", True), ("false", True),
                           ("", True)):
        monkeypatch.setenv("DIFFLAB_NO_TRAJECTORIES", value)
        out = tmp_path / f"out-{value or 'empty'}"
        assert main(["run", str(spec_file), "--out-dir", str(out)]) == 0
        assert (out / "trajectories.csv").exists() == written, value


@pytest.mark.parametrize("value", ["yes", "2", "False"])
def test_other_no_trajectories_value_exits_2_naming_the_variable(spec_file, tmp_path, capsys,
                                                                 monkeypatch, value):
    monkeypatch.setenv("DIFFLAB_NO_TRAJECTORIES", value)
    out = tmp_path / "out"
    assert main(["run", str(spec_file), "--out-dir", str(out)]) == 2
    assert "error: DIFFLAB_NO_TRAJECTORIES:" in capsys.readouterr().err
    assert not out.exists()


def _sweep_file(spec_file, tmp_path, **base_over):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"base": {**json.loads(spec_file.read_text()), **base_over},
                                "axis": "K", "values": [10, 20], "seeds_per_cell": 2}))
    return path


def test_run_and_sweep_validate_each_spec_once(spec_file, tmp_path, monkeypatch):
    # the flags are laid over the file before it is read: no second read of the spec
    calls = []
    validate = RunSpec.validate

    def counted(self):
        calls.append(self)
        return validate(self)
    monkeypatch.setattr(RunSpec, "validate", counted)
    assert main(["run", str(spec_file), "--out-dir", str(tmp_path / "run"),
                 "--seed", "4", "--chains", "6"]) == 0
    assert len(calls) == 1
    calls.clear()
    assert main(["sweep", str(_sweep_file(spec_file, tmp_path)),
                 "--out-dir", str(tmp_path / "sweep"), "--seed", "4"]) == 0
    assert len(calls) == 1 + 2    # the base, then each value's cell


def test_flag_replaces_an_invalid_file_value(spec_file, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**json.loads(spec_file.read_text()), "threads": 0}))
    out = tmp_path / "run"
    assert main(["run", str(bad), "--out-dir", str(out), "--threads", "1"]) == 0
    with open(out / "manifest.json") as fh:
        assert json.load(fh)["spec"]["threads"] == 1
    # the sweep over 0 chains with --chains 5 is the sweep over 5 chains
    assert main(["sweep", str(_sweep_file(spec_file, tmp_path, n_chains=5)),
                 "--out-dir", str(tmp_path / "five")]) == 0
    assert main(["sweep", str(_sweep_file(spec_file, tmp_path, n_chains=0)),
                 "--out-dir", str(tmp_path / "flag"), "--chains", "5"]) == 0
    assert (tmp_path / "flag" / "sweep.csv").read_bytes() == \
        (tmp_path / "five" / "sweep.csv").read_bytes()


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_chain_count_above_2_to_the_32_exits_2_leaving_the_out_dir(spec_file, tmp_path,
                                                                   capsys, command):
    path = spec_file if command == "run" else _sweep_file(spec_file, tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    (out / "samples.csv").write_text("an earlier run's samples\n")
    assert main([command, str(path), "--out-dir", str(out),
                 "--chains", "10000000000000"]) == 2
    assert capsys.readouterr().err == "error: n_chains: must be between 0 and 2**32\n"
    assert (out / "samples.csv").read_text() == "an earlier run's samples\n"


def test_failed_allocation_exits_1_with_one_line(spec_file, tmp_path, capsys, monkeypatch):
    def exhaust(*args, **kwargs):
        raise MemoryError()
    monkeypatch.setattr(difflab.runner, "run_chains", exhaust)
    assert main(["run", str(spec_file), "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: MemoryError\n"
