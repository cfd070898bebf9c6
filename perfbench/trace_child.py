"""Run one lie2alg command-line call under the tracer.

    python3 perfbench/trace_child.py STATS.json CLI_ARGS...

Behaves like ``python -m lie2alg.cli CLI_ARGS...`` (same output and exit
code, an uncaught exception still ends in a traceback), and writes the
call's traced totals to STATS.json and its spans next to it.  The parent
puts ``src`` on PYTHONPATH.
"""

import json
import sys

from tracer import Tracer


def main() -> None:
    stats_path, argv = sys.argv[1], sys.argv[2:]
    import lie2alg.cli

    tracer = Tracer()
    tracer.install()
    code = 1
    try:
        code = lie2alg.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(stats_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.summary(), fh)
        tracer.write_spans(stats_path[: -len(".json")] + ".spans.jsonl", {"argv": argv})
    sys.exit(code)


if __name__ == "__main__":
    main()
