"""Launcher for the traced ``http-mixed`` server.

``python serve_traced.py DUMP SPANS serve <args...>`` installs the
benchmark's span wrappers (see ``layers.py``), then calls the very entry
point ``python -m repro`` calls with the remaining arguments.  Recording
starts off; ``SIGUSR1`` toggles it, so the client can trace exactly the ops
it wants.  On shutdown the per-layer aggregates are written to ``DUMP`` and,
unless ``SPANS`` is ``-``, the raw spans to ``SPANS``.
"""

from __future__ import annotations

import json
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402


def main(argv) -> int:
    dump_path, spans_path, serve_args = Path(argv[0]), argv[1], argv[2:]
    tracer = layers.install(layers.Tracer())

    def toggle(signum, frame) -> None:
        tracer.enabled = not tracer.enabled

    signal.signal(signal.SIGUSR1, toggle)
    from repro.cli import main as repro_main

    try:
        return repro_main(serve_args)
    finally:
        tracer.enabled = False
        dump = tracer.dump()
        cache = getattr(getattr(tracer.service, "backend", None), "distance_cache", None)
        if cache is not None:
            dump["cache_entries"] = len(cache)
        dump_path.write_text(json.dumps(dump))
        if spans_path != "-":
            layers.write_spans(tracer, spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
