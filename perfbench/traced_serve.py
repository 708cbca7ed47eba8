"""Run the `repro` CLI with span wrappers installed; dump the spans at exit.

    PYTHONPATH=src python3 perfbench/traced_serve.py SPANS.json serve --models-dir DIR --port 0

Everything after the spans path is passed to ``repro.cli.main`` unchanged.
The spans are written once the command returns (for ``serve``: after the
SIGTERM drain).
"""

from __future__ import annotations

import sys

from spans import Tracer


def main(argv: list[str]) -> int:
    spans_out, args = argv[0], argv[1:]
    tracer = Tracer().install()
    from repro.cli import main as repro_main

    code = repro_main(args)
    tracer.dump(spans_out)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
