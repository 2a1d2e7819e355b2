"""``repro serve`` with the benchmark's span wrappers installed.

Usage: ``python serve_traced.py SPANS.json serve [repro serve options]``
with the checkout's ``src`` on ``PYTHONPATH``.  The server runs exactly as
``python -m repro serve`` does; on SIGINT it shuts down as usual and the
spans it recorded are written to ``SPANS.json``.  Server-side spans carry
the sweep id (the store owner of the sweep that made them).
"""

from __future__ import annotations

import sys

import spans


def main(argv: list[str]) -> int:
    out, serve_args = argv[0], argv[1:]
    tracer = spans.Tracer()
    spans.install(tracer)
    import repro.service.service as service_module
    from repro.experiments.cli import main as repro_main

    tracer.wrap_run_sweep(service_module)
    try:
        return repro_main(serve_args)
    finally:
        tracer.dump(out)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
