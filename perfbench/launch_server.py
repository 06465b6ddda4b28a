"""Start ``repro serve``, traced or not: the service workload's server.

Run as ``python3 -m perfbench.launch_server [--spans FILE] -- SERVE_ARGS``.
Without ``--spans`` this is exactly ``repro serve SERVE_ARGS``.  With
it, the benchmark's wrappers are installed first, so the traced and the
untraced server differ only in tracing, and the spans are written to
FILE when the server has shut down.
"""

from __future__ import annotations

import argparse
import json
import sys

from perfbench.spans import Instrumentation, Tracer

#: the modules whose names the traced server wraps
MODULES = (
    "repro.service.scheduler",
    "repro.service.server",
    "repro.service.cache",
    "repro.service.sinks",
    "repro.engine.level_loop",
    "repro.engine.backends",
    "repro.engine.level_store",
    "repro.core.compressed_domain",
)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="launch_server")
    parser.add_argument("--spans", default=None)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = [a for a in args.serve_args if a != "--"]

    from repro.cli import main as repro_main

    if args.spans is None:
        return repro_main(["serve", *serve_args])
    tracer = Tracer()
    instrumentation = Instrumentation(tracer, MODULES)
    instrumentation.install()
    try:
        code = repro_main(["serve", *serve_args])
    finally:
        instrumentation.uninstall()
    with open(args.spans, "w") as fh:
        json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
