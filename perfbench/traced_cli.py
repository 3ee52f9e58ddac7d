"""Run one entbound CLI command with spans recorded around its library calls.

Usage: python3 perfbench/traced_cli.py TRACE_JSON -- <entbound arguments>

Writes {"exit": code, "import_s": ..., "spans": [...], "counts": {...}} to
TRACE_JSON and exits with the CLI's own exit code.
"""

import json
import sys
import time

from spans import Tracer


def main() -> int:
    out_path = sys.argv[1]
    if sys.argv[2] != "--":
        raise SystemExit("usage: traced_cli.py TRACE_JSON -- <entbound arguments>")
    start = time.perf_counter()
    import entbound.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    try:
        code = entbound.cli.main(sys.argv[3:])
    finally:
        tracer.uninstall()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"exit": code, "import_s": import_s, **tracer.record()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
