"""Run one fractalspec CLI command with every layer traced.

    python3 bench/launch.py SPANS <fractalspec arguments...>

Behaves like `python -m fractalspec.cli <arguments>` (same output, same
exit code) and also writes the process's spans to SPANS, in marshal
format: the import of fractalspec.cli, the command, the emit step inside
it and every call into the wrapped library functions.
"""

import sys

from tracer import Tracer, save_rows


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    try:
        with tracer.span("cli.import"):
            import fractalspec.cli as cli
        import fractalspec
        import layers

        tracer.install(layers.targets(fractalspec) + layers.cli_targets(cli))
        with tracer.span("cli.command"):
            return cli.main(argv)
    finally:
        save_rows(tracer.rows(), spans_path)


if __name__ == "__main__":
    raise SystemExit(main())
