"""Start ``repro serve`` for the benchmark, optionally with layer spans.

    python3 perfbench/serve_launcher.py [--trace SPANS --out COUNTERS] -- serve ...

Everything after ``--`` goes to ``repro.cli.main`` unchanged.  With
``--trace`` the launcher installs the same layer wrappers as the traced
benchmark process before the daemon starts (plus the one on
``ServeDaemon.write_snapshot``), and when the daemon stops writes the spans
to ``SPANS`` and the counters to ``COUNTERS``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--" not in argv:
        print("usage: serve_launcher.py [--trace SPANS --out COUNTERS] -- serve ...",
              file=sys.stderr)
        return 2
    split = argv.index("--")
    parser = argparse.ArgumentParser(prog="serve_launcher.py")
    parser.add_argument("--trace", default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv[:split])
    if bool(args.trace) != bool(args.out):
        parser.error("--trace and --out go together")

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.install(tracing.Tracer(role="daemon"))
    from repro.cli import main as repro_main

    try:
        return repro_main(argv[split + 1:])
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracing.write_spans(args.trace, tracer.spans)
            Path(args.out).write_text(json.dumps(
                {"counters": dict(tracer.counters[0])}))


if __name__ == "__main__":
    sys.exit(main())
