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
from dataclasses import replace
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
    if p.exists():
        return p
    bundled = resources.files("difflab").joinpath("specs", f"{arg}.json")
    if bundled.is_file():
        return Path(str(bundled))
    raise SpecError(f"spec file not found: {arg}")


def _apply_run_overrides(spec: RunSpec, args) -> RunSpec:
    """The spec with each flag, or else its DIFFLAB_ variable, in place of its value."""
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
    return spec.with_overrides(**changes)


def _out_dir(args) -> Path:
    out = args.out_dir if args.out_dir is not None else _env("out_dir")
    return Path(out) if out is not None else Path("runs/latest")


def cmd_run(args) -> int:
    spec = _apply_run_overrides(RunSpec.from_json(_resolve_spec_path(args.spec)), args)
    out = _out_dir(args)
    result = execute_run(spec, out)
    if spec.n_chains == 0:
        print("warning: n_chains=0, outputs are empty", file=sys.stderr)
    print(f"wrote {spec.n_chains} chains to {out}")
    if result.metrics:
        print(json.dumps(result.metrics, indent=2, default=str))
    return 0


def cmd_sweep(args) -> int:
    sweep = SweepSpec.from_json(_resolve_spec_path(args.spec))
    sweep = replace(sweep, base=_apply_run_overrides(sweep.base, args))
    out = _out_dir(args)
    rows = execute_sweep(sweep, out)
    print(f"swept {sweep.axis} over {list(sweep.values)} "
          f"({len(rows)} cells) -> {out / 'sweep.csv'}")
    return 0


def cmd_verify(args) -> int:
    report = run_all_checks()
    out = args.out if args.out is not None else "verify_report.json"
    write_json(out, report)
    for check in report["checks"]:
        status = "PASS" if check["passed"] else "FAIL"
        print(f"{status} {check['name']}: observed {check['observed']} "
              f"(expected {check['expected']})")
    print(f"report written to {out}")
    return 0 if report["passed"] else 1


def cmd_schedules_dump(args) -> int:
    spec = RunSpec.from_json(_resolve_spec_path(args.spec))
    sched = spec.build_schedule()
    out = args.out if args.out is not None else "schedule.csv"
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
    except (SpecError, OSError, SecondMomentError) as exc:
        # a bad spec, flag or variable; the file system; a run that diverged
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, SpecError) else 1


if __name__ == "__main__":
    sys.exit(main())
