"""One CLI operation in a fresh interpreter: ``child.py <trace 0|1> <op> <argv...>``.

Writes "@perfbench {json}" lines to stderr: the wall-clock time at which
``noonfringe.cli.main`` was imported and ready, and at exit the process's
peak RSS and, when traced, its spans. Everything else (report, exit code,
traceback) is the command's own.
"""

import json
import os
import resource
import sys
import time

from noonfringe import cli

READY = time.time()
MARK = "@perfbench "


def _report(**fields) -> None:
    sys.stderr.write(MARK + json.dumps(fields) + "\n")
    sys.stderr.flush()


def _run() -> int:
    trace, op, argv = sys.argv[1] == "1", int(sys.argv[2]), sys.argv[3:]
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        _report(error=f"noonfringe imported from {cli.__file__}, not {src}")
        return 2
    _report(ready=READY)
    tracer = None
    if trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.op = op
        tracer.install()
    try:
        return cli.main(argv)
    finally:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        _report(rss_kb=rss_kb, spans=tracer.spans if tracer else [])


if __name__ == "__main__":
    sys.exit(_run())
