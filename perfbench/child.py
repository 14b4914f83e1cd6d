"""Traced CLI child for the cli-session workload.

Usage: python3 perfbench/child.py SPANS_JSON [ffpdg arguments...]

Times the import of `ffpdg.cli`, installs the same timing wrappers as the
in-process runs, calls `cli.main` once and writes the spans and probe
values to SPANS_JSON. Exits with `cli.main`'s return code.
"""

import sys

from spans import Tracer


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    with tracer.span("cli.import"):
        from ffpdg import cli
    tracer.install()
    try:
        with tracer.span("cli.main"):
            return cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.write(out, tracer.run_probes())


if __name__ == "__main__":
    sys.exit(main())
