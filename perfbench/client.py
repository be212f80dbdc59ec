"""In-process fibfield client: one closed-loop caller of `fibfield.cli.main`.

Reads a JSON list of argv lists on stdin and calls `fibfield.cli.main(argv)`
for each in turn, in this process.  After each call it writes what the call
printed to stdout, so the parent sees the first result as soon as it exists.
The last line is `#perfbench ` followed by a JSON summary: the time of each
call, the exit codes and, with --trace, the tracer's spans and counters.

    python3 perfbench/client.py --root CHECKOUT [--trace] < argvs.json
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
from time import perf_counter

SUMMARY_PREFIX = "#perfbench "


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    if sys.flags.optimize:
        print("client: refusing to run under python -O", file=sys.stderr)
        return 2
    src = os.path.join(os.path.abspath(args.root), "src")
    sys.path.insert(0, src)
    argvs = json.load(sys.stdin)

    import fibfield.cli

    if not os.path.abspath(fibfield.cli.__file__).startswith(src + os.sep):
        print(f"client: imported fibfield from {fibfield.cli.__file__}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    cli_main = fibfield.cli.main
    out = sys.stdout
    latencies = []
    codes = []
    for argv in argvs:
        buf = io.StringIO()
        start = perf_counter()
        with contextlib.redirect_stdout(buf):
            code = cli_main(argv)
        latencies.append(perf_counter() - start)
        codes.append(code)
        out.write(buf.getvalue())
        out.flush()
    summary = {"latencies_s": latencies, "exit_codes": codes}
    if tracer is not None:
        summary["trace"] = tracer.summary()
    out.write(SUMMARY_PREFIX + json.dumps(summary) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
