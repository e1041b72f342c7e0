"""Mutation checks: each row of MUTANTS is a small fault in difflab that the
tier-1 tests must catch ("kill").

    python tests/mutants.py [--copy-to DIR]

The script copies the working tree (without .git and run outputs) to DIR,
which must not exist, or into a temporary directory that it removes
afterwards. It runs tier-1 on the unmutated copy, which must pass. Then, one
mutation at a time, it replaces the row's old text with its new text, runs
tier-1 against the copy with ``-x -p no:cacheprovider
--hypothesis-profile=no-shrink``, but for test_mutants.py and the golden pins
(test_golden.py), under a timeout of TIMEOUT seconds, and restores the file.
A mutation that survives that run is run again with the pins: if they kill
it, it is ``pin-only``, a fault that only a rewritable digest catches. It
prints one line per mutation: killed, pin-only or survived (or timeout), the
seconds taken and the first failing test, and exits 1 unless every mutation
was killed without the pins.

pytest does not collect this file; test_mutants.py checks that each row's old
text occurs exactly once in its file, so a change that moves the text must
update the table.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

REPO = Path(__file__).resolve().parents[1]
_SKIP = shutil.ignore_patterns(".git", ".hypothesis", ".pytest_cache", "__pycache__", "out",
                               "runs")
TIMEOUT = 300.0     # seconds for one tier-1 run; an unmutated run takes under a minute


class Mutant(NamedTuple):
    name: str
    path: str       # relative to the repository root
    old: str        # occurs exactly once in path
    new: str
    breaks: str     # the invariant or output the mutation breaks


_SAMPLERS, _RUNNER = "src/difflab/samplers.py", "src/difflab/runner.py"
_MODEL, _VERIFICATION = "src/difflab/model.py", "src/difflab/verification.py"

MUTANTS = (
    Mutant("x_prev_by_sqrt_alpha_t_on_momentum_rows", _SAMPLERS,
           "x_next = np.multiply(rows.sqrt_alpha_prev[i], x_bar,",
           "x_next = np.multiply(rows.sqrt_alpha_prev[i] if rows.plain[i] else rows.sa[i], x_bar,",
           "x_{t-1} = sqrt(alpha_{t-1}) x_bar on every row"),
    Mutant("swap_a_and_b", _SAMPLERS,
           "np.multiply(rows.a[i], m, out=m), np.multiply(rows.b[i], dxb, out=tmp)",
           "np.multiply(rows.b[i], m, out=m), np.multiply(rows.a[i], dxb, out=tmp)",
           "the momentum update m <- a m + b d x_bar"),
    Mutant("drop_the_noise_term", _SAMPLERS,
           "np.add(dxb, np.multiply(rows.noise[i], eps_noise, out=tmp), out=dxb)",
           "pass",
           "a noisy step adds sigma / sqrt(alpha_prev) times its noise draw"),
    Mutant("sqrt_alpha_for_sqrt_alpha_prev", _SAMPLERS,
           "np.multiply(rows.sqrt_alpha_prev[i], x_bar,",
           "np.multiply(rows.sa[i], x_bar,",
           "x_{t-1} is scaled by sqrt(alpha_{t-1}), not sqrt(alpha_t)"),
    Mutant("linear_ramp_index_plus_one", _SAMPLERS,
           "b_t = self.b * step_index / (n_steps - 1)",
           "b_t = self.b * (step_index + 1) / (n_steps - 1)",
           "the linear ramp starts at b = 0"),
    Mutant("v_div_one_for_mean_sq", _SAMPLERS,
           'v_div=full(model.D if config.v_norm == "mean_sq" else 1)',
           "v_div=full(1)",
           "v_norm mean_sq divides |d x_bar|^2 by D"),
    Mutant("d1_momentum_shortcut_at_every_d", _SAMPLERS,
           "if dxb.shape[-1] == 1:  # |d x_bar|^2 is one square",
           "if True:  # |d x_bar|^2 is one square",
           "|d x_bar|^2 sums over every coordinate"),
    Mutant("signed_tv_diff_at_d1", _RUNNER,
           "tv += np.abs(diff[..., 0], out=norm)",
           "tv += diff[..., 0]",
           "TV adds the distance |x_{t-1} - x_t|"),
    Mutant("swap_block_starts", _RUNNER,
           "enumerate(zip(stack.seeds, stack.los, stack.plans,",
           "enumerate(zip(stack.seeds, stack.los[::-1], stack.plans,",
           "each slice draws the noise of its own block of chains"),
    Mutant("group_index_plus_one", _RUNNER,
           "_chain_noise(seed, g, group.reshape(rows, _GROUP * D))",
           "_chain_noise(seed, g + 1, group.reshape(rows, _GROUP * D))",
           "chain i's noise is from its group's stream, np.random.default_rng([seed, i // 64])"),
    Mutant("group_stream_read_chain_major", _RUNNER,
           "= group[:, first - g * _GROUP:last - g * _GROUP]",
           "= group.reshape(_GROUP, rows, D)[first - g * _GROUP:last - g * _GROUP]"
           ".transpose(1, 0, 2)",
           "a group's stream is read row-major, (rows, 64, D)"),
    Mutant("heatmap_x_bin_plus_one", "src/difflab/metrics.py",
           "counts[row] += np.bincount(xi, minlength=counts.shape[1])",
           "counts[row] += np.bincount(np.minimum(xi + 1, counts.shape[1] - 1), "
           "minlength=counts.shape[1])",
           "a point is counted in the x bin it lies in"),
    Mutant("h_without_its_half", _MODEL,
           "h = a / (2.0 * s2)",
           "h = a / s2",
           "the log joint's quadratic term is |x - sqrt(alpha) mu_k|^2 / (2 s2_k)"),
    Mutant("c0_without_its_mean_term", _MODEL,
           "self.c0 = (_log_norm(gmm, s2) - h * gmm.mean_sq_norms)[:, :, None]",
           "self.c0 = _log_norm(gmm, s2)[:, :, None]",
           "c0_k holds -alpha |mu_k|^2 / (2 s2_k)"),
    Mutant("quadratic_skipped_where_two_variances_agree", _MODEL,
           "bool(np.all(var == var[0]))",
           "bool(np.all(var[:2] == var[0]))",
           "h_k cancels only where every component has one variance"),
    Mutant("x_bar_term_skipped_where_some_are_point_masses", _MODEL,
           "not np.any(var)",
           "not np.all(var)",
           "every q_k is 0 only where every component is a point mass"),
    Mutant("quantile_at_a_jump_takes_the_upper_mode", "src/difflab/metrics.py",
           'idx = np.searchsorted(cum, u, side="left")',
           'idx = np.searchsorted(cum, u, side="right")',
           "Q(u) = inf{x : F(x) >= u} is the lower mode at a cumulative weight"),
    Mutant("uniform_respacing_by_ceiling", "src/difflab/schedule.py",
           "tau = [(k * T) // K for k in range(1, K + 1)]",
           "tau = [-(-k * T // K) for k in range(1, K + 1)]",
           "uniform respacing picks tau_k = floor(k T / K)"),
    Mutant("unknown_spec_field_accepted", "src/difflab/config.py",
           'raise SpecError(f"{path}{key}: unknown field")',
           "pass",
           "a spec field the reader does not know is an error"),
    Mutant("stale_files_kept", "src/difflab/files.py",
           "(out / name).unlink(missing_ok=True)",
           "pass",
           "a command leaves no earlier command's file of its names"),
    Mutant("verify_mixtures_never_mixed", _VERIFICATION,
           '"mixed": np.where(np.arange(k) < 2, 0.0, spread)',
           '"mixed": spread',
           "score-consistency's mixtures hold point masses beside smooth components"),
    Mutant("verify_variances_from_a_half", _VERIFICATION,
           "rng.uniform(0.0, 2.0, k)",
           "rng.uniform(0.5, 2.0, k)",
           "score-consistency's mixtures reach near-point masses"),
    Mutant("verify_degeneracy_tolerance_1e_3", _VERIFICATION,
           "def check_degeneracy(tol: float = 1e-12,",
           "def check_degeneracy(tol: float = 1e-3,",
           "degeneracy-equivalence holds adaptive to vanilla within 1e-12"),
)


def _tier1(root: Path, pins: bool = True) -> tuple[str, float, str]:
    """(outcome, seconds, first failing test) of one tier-1 run in root, with
    or without the golden pins."""
    shutil.rmtree(root / ".hypothesis", ignore_errors=True)   # no replayed examples
    env = {key: value for key, value in os.environ.items() if not key.startswith("DIFFLAB_")}
    env["PYTHONPATH"] = str(root / "src")
    # test_mutants.py fails on any mutated copy, since the old text is gone
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "--hypothesis-profile=no-shrink", "--continue-on-collection-errors",
           "--ignore=tests/test_mutants.py", *(() if pins else ("--ignore=tests/test_golden.py",))]
    start = time.perf_counter()
    try:
        done = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return "timeout", time.perf_counter() - start, ""
    seconds = time.perf_counter() - start
    first = next((line.split(" ", 1)[1].split(" - ")[0] for line in done.stdout.splitlines()
                  if line.startswith(("FAILED ", "ERROR "))), "")
    return ("survived" if done.returncode == 0 else "killed"), seconds, first


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--copy-to", type=Path, help="directory for the tree's copy")
    args = parser.parse_args(argv)

    root = args.copy_to or Path(tempfile.mkdtemp(prefix="difflab-mutants-")) / "tree"
    shutil.copytree(REPO, root, ignore=_SKIP)      # fails if DIR exists
    total, survivors = time.perf_counter(), []
    try:
        outcome, seconds, first = _tier1(root)
        print(f"{'passes' if outcome == 'survived' else outcome:8} {seconds:6.1f} s  "
              f"(no mutation)  {first}", flush=True)
        if outcome != "survived":
            raise SystemExit("tier-1 does not pass on the unmutated copy")
        for mutant in MUTANTS:
            path = root / mutant.path
            text = path.read_text()
            if text.count(mutant.old) != 1:
                raise SystemExit(f"{mutant.name}: old text occurs {text.count(mutant.old)} "
                                 f"times in {mutant.path}")
            path.write_text(text.replace(mutant.old, mutant.new))
            try:
                outcome, seconds, first = _tier1(root, pins=False)
                if outcome != "killed":
                    pinned, more, first = _tier1(root)
                    seconds += more
                    if pinned == "killed":
                        outcome = "pin-only"
            finally:
                path.write_text(text)
            print(f"{outcome:8} {seconds:6.1f} s  {mutant.name}  {first}", flush=True)
            if outcome != "killed":
                survivors.append(mutant.name)
    finally:
        if args.copy_to is None:
            shutil.rmtree(root.parent, ignore_errors=True)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} killed in "
          f"{time.perf_counter() - total:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
