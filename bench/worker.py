"""Worker launcher: one tlpq worker process on a free 127.0.0.1 port.

    python3 bench/worker.py [--trace]

Prints `ready <host:port> <protocol version>` once the worker listens, serves
until a shutdown message arrives, then prints one JSON line with its peak
resident set and, with --trace, its layer totals (backend and decode time).
"""

from __future__ import annotations

import argparse
import json
import sys

import peak


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    from tlpq.runtime import PROTOCOL_VERSION, serve_worker

    totals = None
    if args.trace:
        import tracing

        totals = tracing.install_worker()

    def announce(line: str) -> None:
        print(f"ready {line.rsplit(' ', 1)[-1]} {PROTOCOL_VERSION}", flush=True)

    serve_worker("127.0.0.1:0", announce=announce)
    report = {"peak_rss_mb": peak.peak_rss_mb()}
    if totals is not None:
        report["layers"] = dict(totals.values)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
