"""Run one `cyclicvdw` CLI command with the layers traced.

    python3 perfbench/cli_boot.py SPANS_JSON CLI_ARGS...

Behaves like `python3 -m cyclicvdw.cli CLI_ARGS...` (same stdout, stderr and
exit code) and writes the spans of the invocation to SPANS_JSON at the end.
"""

import sys

import tracing

import cyclicvdw.cli as cli


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.op("cli"):
            main_fn = getattr(cli, "main", None)
            if main_fn is None:
                raise SystemExit("cyclicvdw.cli has no main")
            return main_fn(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main())
