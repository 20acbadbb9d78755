"""Run one dynid CLI command with the benchmark's tracing wrappers installed.

Usage: python launch.py SPANS_JSON -- ARGS...

Equivalent to ``python -m dynid ARGS...`` except that the package import
and every traced call are recorded as spans, written to SPANS_JSON when the
command returns.  Exits with the command's exit code.
"""
import os
import sys
import time

if __name__ == "__main__":
    out, sep, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    if sep != "--":
        sys.exit("usage: launch.py SPANS_JSON -- ARGS...")
    t0 = time.perf_counter()
    import dynid.cli
    t1 = time.perf_counter()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import spans

    tracer = spans.Tracer()
    tracer.spans.append(["import.dynid", "import", t0, t1, -1, {}])
    with spans.installed(tracer):
        rc = dynid.cli.main(argv)
    tracer.dump(out)
    sys.exit(rc)
