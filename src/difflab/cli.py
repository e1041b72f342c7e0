"""Command-line experiment runner.

Commands: run, sweep, verify, schedules dump. Flags can also be supplied via
environment variables prefixed DIFFLAB_ (e.g. DIFFLAB_SEED=3 difflab run ...).
Exit status: 2 for bad input, found before any chain runs; 1 for a failed check or run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from importlib import resources
from pathlib import Path

from .config import RunSpec, SpecError, SweepSpec
from .files import write_json
from .runner import execute_run, execute_sweep
from .samplers import SecondMomentError
from .verification import run_all_checks

ENV_PREFIX = "DIFFLAB_"
# DIFFLAB_NO_TRAJECTORIES: whether each accepted value turns trajectories off
_SWITCH_VALUES = {"1": True, "true": True, "0": False, "false": False, "": False}


def _env(name: str):
    return os.environ.get(ENV_PREFIX + name.upper().replace("-", "_"))


def _resolve_spec_path(arg: str) -> Path:
    p = Path(arg)
    if p.is_file():
        return p
    bundled = resources.files("difflab").joinpath("specs", f"{arg}.json")
    if bundled.is_file():
        return Path(str(bundled))
    raise SpecError(f"spec file not found: {arg}")


def _run_overrides(args) -> dict:
    """Each top-level spec value that a flag, or else its DIFFLAB_ variable, sets."""
    changes = {}
    for name, field in (("seed", "seed"), ("chains", "n_chains"), ("threads", "threads")):
        value = getattr(args, name)
        if value is None and _env(name) is not None:
            try:
                value = int(_env(name))
            except ValueError as exc:
                raise SpecError(f"{ENV_PREFIX}{name.upper()}: {exc}") from exc
        if value is not None:
            changes[field] = value
    switch = _env("no_trajectories")
    if switch is not None and switch not in _SWITCH_VALUES:
        raise SpecError(f"{ENV_PREFIX}NO_TRAJECTORIES: must be one of 1, true, 0, false "
                        f"or empty, not {switch!r}")
    if args.no_trajectories or _SWITCH_VALUES.get(switch, False):
        changes["trajectories"] = False
    return changes


def _out_path(value, name: str, default: str) -> Path:
    """The path a flag or variable names, or default when it is unset."""
    if value == "":   # Path("") is the working directory, which a run would clear
        raise SpecError(f"{name}: must not be empty")
    return Path(default if value is None else value)


def _out_dir(args) -> Path:
    if args.out_dir is None and _env("out_dir") is not None:
        return _out_path(_env("out_dir"), f"{ENV_PREFIX}OUT_DIR", "runs/latest")
    return _out_path(args.out_dir, "--out-dir", "runs/latest")


def cmd_run(args) -> int:
    spec = RunSpec.from_json(_resolve_spec_path(args.spec), _run_overrides(args))
    out = _out_dir(args)
    result = execute_run(spec, out)
    if spec.n_chains == 0:
        print("warning: n_chains=0, outputs are empty", file=sys.stderr)
    print(f"wrote {spec.n_chains} chains to {out}")
    if result.metrics:
        print(json.dumps(result.metrics, indent=2, default=str))
    return 0


def cmd_sweep(args) -> int:
    sweep = SweepSpec.from_json(_resolve_spec_path(args.spec), _run_overrides(args))
    out = _out_dir(args)
    rows = execute_sweep(sweep, out)
    print(f"swept {sweep.axis} over {list(sweep.values)} "
          f"({len(rows)} cells) -> {out / 'sweep.csv'}")
    return 0


def cmd_verify(args) -> int:
    out = _out_path(args.out, "--out", "verify_report.json")
    report = run_all_checks()
    write_json(out, report)
    for check in report["checks"]:
        status = "PASS" if check["passed"] else "FAIL"
        print(f"{status} {check['name']}: observed {check['observed']} "
              f"(expected {check['expected']})")
    print(f"report written to {out}")
    return 0 if report["passed"] else 1


def cmd_schedules_dump(args) -> int:
    out = _out_path(args.out, "--out", "schedule.csv")
    spec = RunSpec.from_json(_resolve_spec_path(args.spec))
    sched = spec.build_schedule()
    sched.to_csv(out)
    print(f"schedule ({sched.T} steps) written to {out}")
    return 0


def _add_run_flags(p) -> None:
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out-dir", default=None)
    p.add_argument("--chains", type=int, default=None)
    p.add_argument("--no-trajectories", action="store_true")
    p.add_argument("--threads", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="difflab",
        description="Toy diffusion sampling lab: vanilla, momentum and "
                    "adaptive-momentum reverse samplers on analytic mixtures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one run spec")
    p_run.add_argument("spec", help="path to a run spec JSON, or a bundled name (toy_fig4)")
    _add_run_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="execute a hyperparameter sweep")
    p_sweep.add_argument("spec", help="path to a sweep spec JSON")
    _add_run_flags(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the consistency-check suite")
    p_verify.add_argument("--out", default=None, help="report JSON path")
    p_verify.set_defaults(func=cmd_verify)

    p_sched = sub.add_parser("schedules", help="schedule utilities")
    sched_sub = p_sched.add_subparsers(dest="sched_command", required=True)
    p_dump = sched_sub.add_parser("dump", help="dump a spec's schedule to CSV")
    p_dump.add_argument("spec")
    p_dump.add_argument("--out", default=None)
    p_dump.set_defaults(func=cmd_schedules_dump)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SpecError, OSError, SecondMomentError, MemoryError) as exc:
        # a bad spec, flag or variable; the file system; a diverged run; no memory
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2 if isinstance(exc, SpecError) else 1


if __name__ == "__main__":
    sys.exit(main())
