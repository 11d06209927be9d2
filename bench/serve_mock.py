"""Serve sinkseg's mock segmentation service until stdin closes.

Usage::

    python serve_mock.py < control-pipe

Prints the endpoint as the first line of stdout.  Once stdin reaches end of
file it stops the server and prints ``{"cpu_s": ...}``: the CPU seconds the
process spent after it started listening.  sinkseg is imported from
``PYTHONPATH``.
"""

from __future__ import annotations

import json
import sys
import time

from sinkseg.mock_server import MockSegmentServer


def main() -> int:
    server = MockSegmentServer(mode="boxfill").start()
    cpu = time.process_time()
    print(server.endpoint, flush=True)
    sys.stdin.read()
    server.stop()
    print(json.dumps({"cpu_s": time.process_time() - cpu}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
