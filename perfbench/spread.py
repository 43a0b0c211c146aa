"""Run one workload on several seeds; print each metric's median and spread.

    python3 perfbench/spread.py --workload sweep --seeds 1-10 [--seconds 25] [--trace 0]

Run from the repository root. The spread is the distance between the first
and third quartiles (``statistics.quantiles(values, n=4)``) as a share of the
median. The last line of output is one JSON object with every run's values
and each metric's median and spread, the form ``baseline.json`` keeps.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", default="25")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()
    runs = []
    for seed in args.seeds:
        proc = subprocess.run([sys.executable, RUN, "--workload", args.workload, "--seed",
                               str(seed), "--seconds", args.seconds, "--trace", args.trace],
                              capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} calls failed",
                  file=sys.stderr)
            return 1
        values = {name: m["value"] for name, m in result["metrics"].items()}
        runs.append({"seed": seed, **values})
        print(seed, " ".join(f"{k}={v:.6g}" for k, v in values.items()), flush=True)
    summary = {}
    for name in runs[0]:
        if name == "seed":
            continue
        values = [run[name] for run in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary[name] = {"median": median, "spread": (q3 - q1) / median if median else None}
        print(f"{name:28s} median {median:.6g}  spread {summary[name]['spread']}")
    print(json.dumps({"workload": args.workload, "seconds": float(args.seconds),
                      "metrics": summary, "runs": runs}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
