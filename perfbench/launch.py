"""Traced stand-in for ``python -m hooktrees``: wraps the layer functions,
then calls ``hooktrees.cli.main``.

Usage: launch.py SPAWN_TIME ARGS...  where SPAWN_TIME is the parent's
``time.monotonic()`` just before it started this process.  After the
command ends, one line ``PERFBENCH-TRACE {json}`` on stderr carries the
interpreter start, import and main times and the span summary.
"""

import time

STARTED = time.monotonic()

import sys  # noqa: E402

import spans  # noqa: E402

# Only modules the interpreter has loaded anyway come before the timed
# import, so that cli.import_s is the whole cost of importing hooktrees.


def main() -> int:
    spawned, argv = float(sys.argv[1]), sys.argv[2:]
    t0 = time.monotonic()
    import hooktrees
    import hooktrees.cli

    t1 = time.monotonic()
    tracer = spans.Tracer()
    tracer.install(hooktrees)
    t2 = time.monotonic()
    try:
        code = hooktrees.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    t3 = time.monotonic()
    sys.stdout.flush()
    import json

    record = {"interp_s": STARTED - spawned, "import_s": t1 - t0, "main_s": t3 - t2,
              "summary": tracer.summary()}
    print(spans.TRACE_MARKER + json.dumps(record), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
