"""``repro serve`` with the layer wrappers installed, for the traced serve-zoo run.

Installs :class:`tracing.Tracer` on every layer in :data:`tracing.LAYERS`,
then calls :func:`repro.service.server.serve` exactly as ``repro serve
--port 0 --quiet`` does.  SIGTERM stops the server; the spans are written to
``--spans`` on the way out.
"""

from __future__ import annotations

import argparse
import signal
import sys

import common
from tracing import Tracer


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store", required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args(argv)
    common.use_source()

    tracer = Tracer()
    tracer.install()
    from repro.service.server import serve

    signal.signal(signal.SIGTERM, _interrupt)
    try:
        serve(args.store, host="127.0.0.1", port=0, quiet=True)
    finally:
        tracer.dump(args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
