"""Summarize benchmark result files across seeds and check them against BENCHMARK.json.

    python3 benchmarks/summarize.py --seeds 1-10
    python3 benchmarks/summarize.py --seeds 1-10 --against 11-20
    python3 benchmarks/summarize.py --seeds 1-10 --write benchmarks/baseline/BENCH_baseline.json

For each workload and end-to-end metric it prints the median of the per-run
values over the selected seeds and their spread: the distance between the
first and third quartile (statistics.quantiles, n=4) as a share of the median.
A spread above the metric's bound is flagged (setup_s excepted, as its bound
is judged on medians only). `--against` also compares medians between two
seed ranges; `--write` stores the summary, the per-layer medians of any
traced runs and the environment as a baseline file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
OUT = BENCH_DIR / "out"


def _seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def load(seeds: list[int], trace: int) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    for path in sorted(OUT.glob(f"*-seed*-trace{trace}.json")):
        with open(path) as fh:
            record = json.load(fh)
        if record["seed"] in seeds:
            runs.setdefault(record["workload"], []).append(record)
    return runs


def stats(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"n_runs": len(values), "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def summarize(runs: dict[str, list[dict]]) -> dict:
    out = {}
    for workload, records in runs.items():
        metrics = {}
        for group in ("metrics", "ungated"):
            for key, entry in records[0].get(group, {}).items():
                values = [r[group][key]["value"] for r in records
                          if r[group].get(key, {}).get("value") is not None]
                if values:
                    metrics[key] = {"unit": entry["unit"], **stats(values)}
        out[workload] = {
            "metrics": metrics,
            "commands_per_run": [r["attempted"] for r in records],
            "failed": sum(r["failed"] for r in records),
            "all_correct": all(r["correct"] for r in records),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="seed range, e.g. 1-10")
    parser.add_argument("--against", help="second seed range to compare medians with")
    parser.add_argument("--write", help="write a baseline file to this path")
    args = parser.parse_args(argv)

    with open(BENCH_DIR.parent / "BENCHMARK.json") as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    runs = load(_seed_range(args.seeds), 0)
    first = summarize(runs)
    second = summarize(load(_seed_range(args.against), 0)) if args.against else {}
    ok = True
    for workload, summary in first.items():
        print(f"{workload}: {len(summary['commands_per_run'])} runs, commands per run "
              f"{summary['commands_per_run']}, failed {summary['failed']}")
        ok &= summary["all_correct"]
        for key, s in summary["metrics"].items():
            bound = bounds.get(key)
            flag = ""
            if bound is not None and key != "setup_s" and s["spread"] > bound:
                flag, ok = "  SPREAD ABOVE BOUND", False
            line = (f"  {key:12s} median {s['median']:.5g} {s['unit']}  q1 {s['q1']:.5g}  "
                    f"q3 {s['q3']:.5g}  spread {s['spread']:.4f} (bound {bound}){flag}")
            other = second.get(workload, {}).get("metrics", {}).get(key)
            if other is not None:
                drift = other["median"] / s["median"] - 1.0
                if bound is not None and abs(drift) > bound:
                    line, ok = line + "  MEDIANS DIFFER BY MORE THAN BOUND", False
                line += f"  vs {args.against}: median {other['median']:.5g} ({drift:+.4f})"
            print(line)

    if args.write:
        traced = load(_seed_range(args.seeds), 1)
        baseline = {
            "seeds": args.seeds,
            "end_to_end": first,
            "per_layer": {w: {"seed": r[0]["seed"], "metrics": r[0]["metrics"],
                              "layer_self_s": r[0].get("layer_self_s"),
                              "problems": r[0]["problems"]}
                          for w, r in traced.items()},
            "layer_map": next(iter(runs.values()))[0]["layer_map"],
            "env": next(iter(runs.values()))[0]["env"],
        }
        Path(args.write).parent.mkdir(parents=True, exist_ok=True)
        with open(args.write, "w") as fh:
            json.dump(baseline, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
