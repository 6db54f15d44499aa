"""One pbrlab CLI call with every layer function wrapped in spans.

    PYTHONPATH=src python3 perfbench/cli_child.py SPANS_PATH SUBCOMMAND [ARGS...]

Behaves like ``python -m pbrlab.cli SUBCOMMAND [ARGS...]`` (same stdout and
exit code) and writes the call's spans to SPANS_PATH as JSON lines.
"""

import sys
from pathlib import Path

import spans
from pbrlab import cli


def main(argv: list[str]) -> int:
    tracer = spans.Tracer()
    tracer.install()
    try:
        return cli.main(argv[1:])
    finally:
        tracer.restore()
        sys.stdout.flush()
        tracer.dump(Path(argv[0]))


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
