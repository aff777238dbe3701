"""Run one gbtc CLI command in this fresh process with spans recorded.

Usage: cli_traced.py SPAWN_NS ARGV...  where SPAWN_NS is the caller's
``time.perf_counter_ns()`` just before it started this process (the clock
is system-wide on Linux).  Stdout is the command's own; the spans and
counters go to stderr as one JSON line, after anything the command wrote.
"""

import time

T_ENTER = time.perf_counter_ns()

import json  # noqa: E402
import sys  # noqa: E402

t_import = time.perf_counter_ns()
import gbtc.cli  # noqa: E402

t_imported = time.perf_counter_ns()

from tracing import Tracer  # noqa: E402


def main() -> int:
    tracer = Tracer()
    tracer.install()
    tracer.spans.append(["cli.interpreter", int(sys.argv[1]), T_ENTER, None, None])
    tracer.spans.append(["cli.import", t_import, t_imported, None, None])
    tracer.active = True
    try:
        code = gbtc.cli.main(sys.argv[2:])
    finally:
        tracer.active = False
        sys.stdout.flush()
        sys.stderr.write("\n" + json.dumps({"spans": tracer.spans, "counts": tracer.counts}) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
