"""Benchmark of the noonfringe package, measured from outside.

One workload, as the contract in BENCHMARK.json names it:

    python3 perfbench/run.py --workload lab-estimate --seed 1 --seconds 20 --trace 0

prints, as its last stdout line, {"correct", "attempted", "failed",
"metrics"}: the end-to-end metrics with --trace 0, the per-layer metrics of
a traced run with --trace 1. All four workloads, untraced and traced:

    python3 perfbench/run.py --workload all --seed 1 --seconds 20

prints every metric, the tracing overhead and the failure fractions, and
writes them with their provenance to perfbench/BASELINE.json.

The load is a closed loop with one client: one operation at a time, the
next starting when the previous has ended. CLI workloads start a fresh
interpreter per operation (child.py) and call noonfringe.cli.main, so each
operation pays import and any lazily built state, as a user of the command
does. Library workloads run in one worker process per run (worker.py) after
one untimed warm-up operation; three more processes are started only to
measure set-up. A run deals whole decks (see workloads.py) and stops at the
deck boundary nearest --seconds. Operations are checked against oracle.py
after their timer stops. Thread pools are capped at the number of usable
CPUs.
"""

import os

NPROC = len(os.sched_getaffinity(0))
THREAD_CAPS = {name: str(NPROC) for name in
               ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(THREAD_CAPS)     # before numpy loads, here and in children

import argparse  # noqa: E402
import collections  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
BASELINE = os.path.join(HERE, "BASELINE.json")

END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_s", "s"),
              ("peak_rss_mb", "MB"))
SETUP_PROBES = 3
OP_TIMEOUT_S = 120
WORKER_TIMEOUT_S = 150
MARK = "@perfbench "


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=SRC, **THREAD_CAPS)
    env.pop("NOONFRINGE_CONFIG", None)   # the CLI would read it
    return env


# --------------------------------------------------------------------------
# CLI workloads: one fresh interpreter per operation
# --------------------------------------------------------------------------

def run_cli(workload, seed, seconds, trace) -> dict:
    rng = workloads.deck_rng(seed, workload)
    os.makedirs(OUT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="scans-", dir=OUT)
    ops, all_spans = [], []
    try:
        for op in workloads.dealt(seconds, lambda: workloads.cli_deck(workload, rng)):
            ops.append(_cli_op(op, len(ops), scratch, trace, all_spans))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return {"ops": ops, "spans": all_spans,
            "setups": [o["setup"] for o in ops if o["setup"] is not None],
            "rss_kb": [o["rss_kb"] for o in ops if o["rss_kb"] is not None],
            "startup_total": sum(o["setup"] or 0.0 for o in ops),
            "problems": []}


def _cli_op(op, index, scratch, trace, all_spans) -> dict:
    argv = list(op.argv)
    if op.scan is not None:
        path = os.path.join(scratch, "scan.csv")
        workloads.write_scan(path, op.scan)
        argv = [path if a == "{csv}" else a for a in argv]
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "1" if trace else "0",
           str(index), *argv]
    spawned = time.time()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"kind": argv[0], "latency": time.perf_counter() - t0,
                "status": "fail", "reason": "timed out", "setup": None,
                "rss_kb": None}
    latency = time.perf_counter() - t0
    marks, rest = {}, []
    for line in err.splitlines():
        if line.startswith(MARK):
            marks.update(json.loads(line[len(MARK):]))
        else:
            rest.append(line)
    if "error" in marks:
        raise BenchError(marks["error"])
    status, reason = workloads.check_cli(op, proc.returncode, out, "\n".join(rest))
    child_spans = marks.get("spans", [])
    offset = len(all_spans)
    for span in child_spans:
        if span[4] >= 0:
            span[4] += offset
    all_spans.extend(child_spans)
    ready = marks.get("ready")
    return {"kind": argv[0], "latency": latency, "status": status,
            "reason": reason, "setup": None if ready is None else ready - spawned,
            "rss_kb": marks.get("rss_kb")}


# --------------------------------------------------------------------------
# library workloads: one worker process per run
# --------------------------------------------------------------------------

def run_library(workload, seed, seconds, trace) -> dict:
    probes = [] if trace else [_worker(workload, seed, seconds, trace, "probe")
                               for _ in range(SETUP_PROBES)]
    run = _worker(workload, seed, seconds, trace, "run")
    every = probes + [run]
    return {"ops": run["ops"], "spans": run["spans"],
            "setups": [w["setup"] for w in every],
            "rss_kb": [w["rss_kb"] for w in every], "startup_total": 0.0,
            "problems": [p for w in every for p in w["warmup_problems"]]}


def _worker(workload, seed, seconds, trace, role) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload,
           str(seed), str(seconds), "1" if trace else "0", role]
    spawned = time.time()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload} worker timed out")
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited {proc.returncode}: "
                         + " | ".join(err.strip().splitlines()[-3:]))
    result = json.loads(out.strip().splitlines()[-1])
    result["setup"] = result["setup_done"] - spawned
    return result


# --------------------------------------------------------------------------
# metrics
# --------------------------------------------------------------------------

def run_workload(workload, seed, seconds, trace) -> dict:
    runner = run_cli if workload in workloads.CLI_WORKLOADS else run_library
    raw = runner(workload, seed, seconds, trace)
    ops = raw["ops"]
    ok = [o["latency"] for o in ops if o["status"] == "ok"]
    if not ok:
        raise BenchError(f"{workload}: no operation succeeded: "
                         + "; ".join(o["reason"] for o in ops[:3]))
    busy = sum(o["latency"] for o in ops)
    ops_per_s = len(ok) / busy
    failures = [o for o in ops if o["status"] != "ok"]
    unexpected = [f"{o['kind']}: {o['reason']}" for o in ops if o["status"] == "fail"]
    result = {
        "workload": workload, "seed": seed, "trace": trace,
        "correct": not unexpected and not raw["problems"],
        "attempted": len(ops), "failed": len(failures),
        "known_defects": sum(o["status"] == "defect" for o in ops),
        "problems": raw["problems"] + unexpected,
        "ops_by_kind": dict(collections.Counter(o["kind"] for o in ops)),
    }
    if trace:
        os.makedirs(OUT, exist_ok=True)
        with open(os.path.join(OUT, f"spans-{workload}-seed{seed}.json"), "w") as fh:
            json.dump(raw["spans"], fh)
        result["metrics"] = spans.layer_metrics(
            raw["spans"], len(ops), busy, raw["startup_total"], ops_per_s)
    else:
        values = {"setup_s": statistics.median(raw["setups"]),
                  "ops_per_s": ops_per_s, "op_p50_s": statistics.median(ok),
                  "peak_rss_mb": max(raw["rss_kb"]) / 1024.0}
        result["metrics"] = {name: {"value": values[name], "unit": unit}
                             for name, unit in END_TO_END}
    return result


def contract_line(result) -> str:
    return json.dumps({key: result[key] for key in
                       ("correct", "attempted", "failed", "metrics")})


# --------------------------------------------------------------------------
# all workloads, untraced and traced
# --------------------------------------------------------------------------

def run_all(seed, seconds) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        why = {w["name"]: w["why"] for w in json.load(fh)["workloads"]}
    record = {"provenance": provenance(seed, seconds), "workloads": {}}
    for workload in workloads.WORKLOADS:
        plain = run_workload(workload, seed, seconds, trace=False)
        traced = run_workload(workload, seed, seconds, trace=True)
        end = {k: v["value"] for k, v in plain["metrics"].items()}
        layer = {k: v["value"] for k, v in traced["metrics"].items()}
        end["fail_frac"] = plain["failed"] / plain["attempted"]
        overhead = 1.0 - layer["traced.ops_per_s"] / end["ops_per_s"]
        attributed = sum(layer[f"{name}.self_s"] for name in spans.LAYERS)
        record["workloads"][workload] = {
            "why": why[workload], "sizes": workloads.SIZES[workload],
            "end_to_end": end, "per_layer": layer,
            "tracing_overhead_ops_per_s": overhead,
            "self_s_share_of_op_wall": (attributed + layer["process.startup_s"])
            / layer["traced.op_wall_s"],
            "untraced": {k: plain[k] for k in ("correct", "attempted", "failed",
                                                "known_defects", "problems",
                                                "ops_by_kind")},
            "traced": {k: traced[k] for k in ("correct", "attempted", "failed",
                                               "known_defects", "problems")},
        }
        _print_workload(workload, record["workloads"][workload])
    return record


def _print_workload(workload, entry) -> None:
    units = dict(END_TO_END, fail_frac="ratio")
    units.update(spans.PER_LAYER)
    print(f"== {workload}: {entry['untraced']['attempted']} operations, "
          f"{entry['untraced']['failed']} failed "
          f"({entry['untraced']['known_defects']} known defect)")
    for name, value in entry["end_to_end"].items():
        print(f"   {name:40s} {value:14.6g} {units[name]}")
    for name, value in entry["per_layer"].items():
        print(f"   {name:40s} {value:14.6g} {units[name]}")
    print(f"   {'tracing overhead (ops_per_s)':40s} "
          f"{entry['tracing_overhead_ops_per_s']:14.3%}")
    print(f"   {'self_s + start-up over op wall':40s} "
          f"{entry['self_s_share_of_op_wall']:14.3%}")
    for problem in entry["untraced"]["problems"] + entry["traced"]["problems"]:
        print(f"   PROBLEM {problem}")


def provenance(seed, seconds) -> dict:
    from importlib import metadata
    import platform
    import numpy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        sha = ""
    return {"cpu": cpu, "nproc": NPROC, "thread_caps": THREAD_CAPS,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": metadata.version("scipy"), "git_sha": sha or "unknown",
            "seed": seed, "seconds": seconds,
            "known_defect": {
                "workload": "audit",
                "operation": "estimate --visibility at filter order 6",
                "effect": "exits 1 with a traceback: ValueError: support "
                          "violation: q vanishes where p does not",
                "cause": "kl_divergence is called unguarded in "
                         "cli._validation_block; cli._validate_rows catches "
                         "the same error",
                "counted": "as a failed operation, in failed and fail_frac"}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "noonfringe", "cli.py")):
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            record = run_all(args.seed, args.seconds)
            with open(BASELINE, "w", encoding="utf-8") as fh:
                json.dump(record, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"wrote {os.path.relpath(BASELINE, ROOT)}")
            return 0
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"{args.workload}: {result['attempted']} operations, "
          f"{result['failed']} failed ({result['known_defects']} known "
          f"defect); fail_frac {result['failed'] / result['attempted']:.4f}",
          file=sys.stderr)
    for problem in result["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print(contract_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
