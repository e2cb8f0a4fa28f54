"""One traced csicalib CLI command in a fresh interpreter.

    python3 perfbench/child.py SPANS_JSON COMMAND [ARGS...]

Used by traced ``cli_cold`` runs in place of ``python -m csicalib.cli``:
it imports csicalib, patches it with a Tracer, runs the command inside a
``cli.<command>`` span, writes the spans to SPANS_JSON and exits with the
command's exit code.  The parent adopts the spans under its process span.
"""

import sys

from tracer import Tracer

from csicalib import cli


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    with tracer.span("cli." + argv[0]):
        rc = cli.main(argv)
    tracer.dump(out)
    return rc


if __name__ == "__main__":
    sys.exit(main())
