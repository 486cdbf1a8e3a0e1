"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload audit --seeds 1-10 --seconds 20

Runs run.py once per seed, one run at a time, and prints for every metric
the median, the quartiles (statistics.quantiles, n=4) and the spread
(Q3 - Q1) / median next to the metric's bound in BENCHMARK.json. With
--record the table is also stored under "spread" in perfbench/BASELINE.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_from(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-", 1))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    values, runs = {}, []
    for seed in seeds_from(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=600)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}: {proc.stderr.strip()}")
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        line = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} attempted="
              f"{result['attempted']} failed={result['failed']} {line}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    table = {}
    for metric in bench["end_to_end"]:
        vals = values[metric["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        table[metric["name"]] = {"median": med, "q1": q1, "q3": q3,
                                 "spread": (q3 - q1) / med,
                                 "bound": metric["bound"], "values": vals}
        print(f"{metric['name']:12s} median {med:.5g}  Q1 {q1:.5g}  Q3 {q3:.5g}"
              f"  spread {(q3 - q1) / med:.4f}  bound {metric['bound']}"
              f"  (a third: {metric['bound'] / 3:.4f})")
    if args.record:
        path = os.path.join(HERE, "BASELINE.json")
        with open(path, encoding="utf-8") as fh:
            baseline = json.load(fh)
        baseline.setdefault("spread", {})[args.workload] = {
            "seconds": seconds, "metrics": table, "runs": runs}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(baseline, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
