"""Run one ``twotsd`` CLI command with the layer functions traced.

Usage: python bench/launch.py SPANS_OUT <twotsd arguments...>

Installs the wrappers from ``tracing``, then calls the CLI's ``main`` with
the given arguments. The spans are written to SPANS_OUT when the command
returns, including after ``serve`` is stopped with SIGINT.
"""

import sys

import tracing


def main() -> int:
    out, args = sys.argv[1], sys.argv[2:]
    from twotsd import cli

    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        return cli.main(args)
    finally:
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main())
