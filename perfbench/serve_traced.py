"""Traced launcher for ``repro serve``.

``python -m perfbench.serve_traced SPANS.json serve [ARGS...]`` installs
the benchmark's server-side wrappers, then runs the same ``repro``
command-line entry point the untraced run launches.  Spans stay in
memory and are written to ``SPANS.json`` when the server exits.
"""

from __future__ import annotations

import json
import sys

from .tracing import Patches, SpanRecorder, install_server_tracing


def main(argv) -> int:
    spans_path, args = argv[0], argv[1:]
    recorder = SpanRecorder()
    install_server_tracing(recorder, Patches())
    from repro import cli

    try:
        return cli.main(args)
    finally:
        with open(spans_path, "w") as handle:
            json.dump({"spans": recorder.spans}, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
