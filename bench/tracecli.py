"""Run one squeezelink CLI command with layer tracing and save its spans.

Usage: python3 bench/tracecli.py OUT.npz CLI-ARGS...

The traced benchmark run starts this in place of the plain CLI; the
exit code and standard output are the CLI's own.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    from squeezelink import cli

    tracer = Tracer()
    with tracer.installed():
        code = cli.main(argv)
    tracer.save(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
