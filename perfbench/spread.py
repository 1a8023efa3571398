"""Run a workload once per seed and report each metric's spread.

Usage, from the root of a pairq checkout:

    python3 perfbench/spread.py --workload train-scalar --seeds 1-10 --out runs.json

For every metric it prints the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the interquartile distance as a
share of the median, next to the metric's bound from BENCHMARK.json. Runs
are made one after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def spread(values) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(q2) if q2 else float("inf")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="a-b or a,b,c")
    parser.add_argument("--out", help="write every run's result here as JSON")
    args = parser.parse_args(argv)

    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    runs = []
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [*bench["command"], "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            return 1
        result = json.loads(lines[-1])
        detail = json.loads(lines[-2].removeprefix("detail: "))
        runs.append({"seed": seed, "result": result, "detail": detail})
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}", flush=True)

    if len({json.dumps(r["detail"]["environment"], sort_keys=True) for r in runs}) > 1:
        print("warning: the runs' environments differ; their numbers do not compare")
    summary = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        summary[name] = spread(values) if len(values) > 1 else {"median": values[0]}
        summary[name]["unit"] = runs[0]["result"]["metrics"][name]["unit"]
        row = summary[name]
        bound = bounds.get(name)
        print(f"{name:40s} median {row['median']:<14.6g} {row['unit']:6s}"
              + (f" spread {row['spread']:.4f}" if "spread" in row else "")
              + (f" bound {bound}" if bound is not None else ""))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"workload": args.workload, "runs": runs, "summary": summary},
                      fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
