"""Run one ``apc`` command in this interpreter with spans recorded.

Usage: python3 perfbench/traced_cli.py SPANS.json OP_ID -- ARGS...

Equivalent to ``apc ARGS...`` (same exit code), except that the calls
listed in ``tracing.SPANS`` are recorded and written to SPANS.json.
"""

import sys

import tracing


def main() -> int:
    spans_path, op = sys.argv[1], sys.argv[2]
    if sys.argv[3] != "--":
        raise SystemExit("usage: traced_cli.py SPANS.json OP_ID -- ARGS...")
    import apc.cli

    recorder = tracing.Recorder(op)
    tracing.install(recorder)
    try:
        return apc.cli.main(sys.argv[4:])
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
