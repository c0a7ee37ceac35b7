"""Run one ``trimmoments`` CLI invocation with layer tracing on.

Usage: python3 bench/traced_cli.py <cli arguments...>

The CLI writes its normal output to stdout; the span summary is written
as one JSON line to stderr after the command finishes.  The exit code
is the CLI's.
"""

import json
import sys

from trimmoments import cli

import spans


def main():
    tracer = spans.Tracer()
    tracer.install()
    code = cli.main(sys.argv[1:])
    sys.stdout.flush()
    print(json.dumps(tracer.summary()), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
