"""One fresh interpreter that runs one job through ``jordconf.cli.main``.

Every job gets its own worker, so no job sees the module-level caches
(``uea._ALGEBRAS``, ``hopf._HOPF``) another job filled, just as when a user
runs each command on its own.  Protocol, over stdin/stdout:

1. The worker imports ``jordconf.cli`` from the repository's ``src``, builds
   the argument parser and prints ``ready``.  Spawn to ``ready`` is the
   set-up time.
2. It reads one JSON line, the job's CLI arguments.  End of input instead
   means set-up only: the worker exits.
3. It runs the job, capturing its output, and prints one JSON line with the
   exit code, output, wall and CPU time of the job, the peak RSS and, with
   ``--trace 1``, the tracer's spans and counts.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def run_job(main, argv):
    out, err = io.StringIO(), io.StringIO()
    error = None
    cpu_start = time.process_time()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    except SystemExit as exc:       # argparse rejects the arguments
        code = exc.code
    except Exception as exc:        # a traceback is a wrong verdict, not a crash
        code, error = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    return {
        "code": code,
        "seconds": seconds,
        "cpu_s": time.process_time() - cpu_start,
        "stdout": out.getvalue(),
        "error": error,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import jordconf.cli as cli
    if SRC not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"jordconf was imported from {cli.__file__}, not from {SRC}")
    cli.build_parser()
    print("ready", flush=True)

    line = sys.stdin.readline()
    if not line:
        return 0
    argv = json.loads(line)
    run = cli.main
    tracer = None
    if args.trace:
        from tracer import JOB_SPAN, Tracer
        tracer = Tracer()
        tracer.install()
        run = tracer.wrap(JOB_SPAN, cli.main)
    result = run_job(run, argv)
    if tracer is not None:
        result["trace"] = tracer.to_dict()
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
