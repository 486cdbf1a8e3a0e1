"""Smoke test of the benchmark itself: ``python3 perfbench/smoke.py``.

Runs every workload for the shortest run, one deck, untraced and traced, and
checks that each run prints the contract line with every end-to-end or
per-layer metric named in BENCHMARK.json, that every output passed its
oracle, and that the only failures are the recorded order-6 defect on
audit: one estimate per audit deck. Exits 1 on the first mismatch.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

DEFECTS_PER_DECK = {
    "audit": sum(cmd == "estimate" and order >= 6
                 for cmd, order, _ in workloads.AUDIT_DECK),
}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = {0: {m["name"] for m in bench["end_to_end"]},
             1: {m["name"] for m in bench["per_layer"]}}
    errors = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                   workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=180)
            label = f"{workload} trace={trace}"
            if proc.returncode != 0:
                errors.append(f"{label}: exit {proc.returncode}: {proc.stderr.strip()}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{label}: keys {sorted(result)}")
            missing = names[trace] - set(result["metrics"])
            extra = set(result["metrics"]) - names[trace]
            if missing or extra:
                errors.append(f"{label}: missing {sorted(missing)}, extra {sorted(extra)}")
            if not result["correct"]:
                errors.append(f"{label}: an oracle failed: {proc.stderr.strip()}")
            decks = result["attempted"] // len(workloads.DECKS[workload])
            expected = DEFECTS_PER_DECK.get(workload, 0) * decks
            if result["failed"] != expected:
                errors.append(f"{label}: {result['failed']} failed, expected {expected}")
            print(f"{label}: attempted {result['attempted']}, failed "
                  f"{result['failed']}, {len(result['metrics'])} metrics", flush=True)
    for error in errors:
        print("FAIL", error)
    print("smoke: ok" if not errors else f"smoke: {len(errors)} problem(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
