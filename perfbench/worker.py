"""Library workload process: ``worker.py <workload> <seed> <seconds> <trace> <role>``.

Imports the package, runs one untimed warm-up operation, and reports the
wall-clock time at which that set-up finished. With role "probe" it stops
there; with role "run" it then deals whole decks for about ``seconds``,
timing each operation and checking it against its oracle after the
timer stops. Prints one JSON object on stdout.
"""

import json
import os
import resource
import sys
import time
import traceback

import workloads


def main() -> int:
    workload, seed, seconds, trace, role = sys.argv[1:6]
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    import noonfringe
    if not os.path.abspath(noonfringe.__file__).startswith(src + os.sep):
        print(f"noonfringe imported from {noonfringe.__file__}, not {src}",
              file=sys.stderr)
        return 2

    rng = workloads.deck_rng(seed, workload)
    runner = workloads.LibraryRunner()
    warm = workloads.warmup_op(workload, rng)
    prepared = runner.prepare(warm)
    problems = runner.check(warm, prepared, runner.run(warm, prepared))
    setup_done = time.time()
    out = {"setup_done": setup_done, "warmup_problems": problems, "ops": [],
           "spans": []}
    if role == "run":
        tracer = None
        if trace:
            from spans import Tracer
            tracer = Tracer()
            tracer.install()
        for op in workloads.dealt(seconds, lambda: workloads.library_deck(workload, rng)):
            if tracer:
                tracer.op = len(out["ops"])
            out["ops"].append(_one(runner, op))
        out["spans"] = tracer.spans if tracer else []
    out["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(out))
    return 0


def _one(runner, op) -> dict:
    prepared = runner.prepare(op)
    t0 = time.perf_counter()
    try:
        result = runner.run(op, prepared)
    except Exception:
        latency = time.perf_counter() - t0
        return {"kind": op.kind, "latency": latency, "status": "fail",
                "reason": traceback.format_exc(limit=2).strip().splitlines()[-1]}
    latency = time.perf_counter() - t0
    problems = runner.check(op, prepared, result)
    return {"kind": op.kind, "latency": latency,
            "status": "fail" if problems else "ok", "reason": "; ".join(problems)}


if __name__ == "__main__":
    sys.exit(main())
