"""Run the ``sgwl`` command line with the benchmark's span tracer installed.

Usage: python -X importtime perfbench/cli_entry.py SPANS.npz <sgwl arguments...>

The whole process is one operation; its spans are written to SPANS.npz when
the command returns, and the exit code is the command's own.
"""

import sys
from pathlib import Path


def main() -> int:
    spans = Path(sys.argv[1])
    import sgwl.cli  # first, so that -X importtime sees the package's own import cost
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.begin_op(0)
    try:
        return sgwl.cli.main(sys.argv[2:])
    finally:
        tracer.end_op()
        tracer.uninstall()
        tracer.dump(spans)


if __name__ == "__main__":
    sys.exit(main())
