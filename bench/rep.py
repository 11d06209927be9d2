"""One sinkseg pass in a fresh interpreter; prints its record as JSON.

Usage::

    python rep.py {setup,run,fill} [--trace] KEY=VALUE ...

``setup`` imports sinkseg, builds the config from the ``KEY=VALUE``
overrides and constructs the shared backend, then exits: its wall time, taken
by the caller, is the set-up cost.  ``run`` times ``cmd_run`` and ``fill``
times ``cmd_fill``.  With ``--trace`` every layer is wrapped first (see
``tracer.py``) and the record carries the per-layer metrics.  The last line
of stdout is the record: ``wall_s``, ``peak_rss_mb``, the evaluation
``report`` (run) and ``layers`` (traced).  sinkseg is imported from
``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

import sinkseg  # noqa: F401 - the package import is part of set-up
from sinkseg import pipeline
from sinkseg.config import load_config
from sinkseg.metrics import report_to_json


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run", "fill"))
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("overrides", nargs="*", metavar="KEY=VALUE")
    args = parser.parse_intermixed_args(argv)

    cfg = load_config(None, args.overrides)
    if args.mode == "setup":
        pipeline._build_shared_backend(cfg)
        print(json.dumps({}))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)

    start = time.perf_counter()
    report = pipeline.cmd_run(cfg) if args.mode == "run" else pipeline.cmd_fill(cfg)
    record = {"wall_s": time.perf_counter() - start}
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if report is not None:
        record["report"] = json.loads(report_to_json(report))
    if tracer is not None:
        from tracer import summarize

        record["layers"] = summarize(tracer, cfg.workers)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
