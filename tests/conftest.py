"""Shared helpers for the test suite."""

from __future__ import annotations

import contextlib
import hashlib
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from unittest import mock

import numpy as np
import pytest
from hypothesis import settings

from sinkseg.labeling import read_prompts
from sinkseg.pipeline import cmd_segment
from sinkseg.raster import Raster
from sinkseg.segmenter import HttpBackend

# test_reference.py takes its example count from the loaded profile: the
# default's 100 in tier-1, this one's under ``--hypothesis-profile=reference``
settings.register_profile("reference", max_examples=1000)


def make_random_dem(
    rng: np.random.Generator,
    height: int,
    width: int,
    nodata_frac: float = 0.0,
    quantize: float | None = None,
) -> Raster:
    """Random terrain-ish raster; optional nodata holes and flat steps."""
    values = rng.normal(loc=50.0, scale=10.0, size=(height, width))
    # a few smooth bumps so depressions have structure, not just speckle
    for _ in range(3):
        cy, cx = rng.uniform(0, height), rng.uniform(0, width)
        amp = rng.uniform(-15.0, 15.0)
        sigma = rng.uniform(2.0, max(2.5, height / 2, width / 2))
        yy, xx = np.mgrid[0:height, 0:width]
        values += amp * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * sigma**2))
    if quantize:
        values = np.round(values / quantize) * quantize
    nodata = -9999.0
    if nodata_frac > 0:
        holes = rng.random((height, width)) < nodata_frac
        values = np.where(holes, nodata, values)
    return Raster(values, nodata=nodata)


def tree_digests(root: Path) -> dict[str, str]:
    """Relative path -> sha256 of every file under *root*."""
    out = {}
    for path in sorted(Path(root).rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def record_segment(cfg, replay_dir: Path) -> None:
    """Run ``cmd_segment`` on *cfg*, an http run at ``workers=1``, and write
    each reply body the service returned to ``<replay_dir>/<patch_id>.json``.

    One patch at a time, the replies come in plan order, one per patch with
    boxes, so the box file pairs each with its patch.
    """
    assert cfg.backend_kind == "http" and cfg.workers == 1
    replies = []
    post = HttpBackend._post

    def recording(self, body):
        status, reply = post(self, body)
        replies.append(reply)
        return status, reply

    with mock.patch.object(HttpBackend, "_post", recording):
        cmd_segment(cfg)
    ids = [p.patch_id for p in read_prompts(Path(cfg.out_dir) / "boxes.jsonl") if p.boxes]
    assert len(replies) == len(ids)
    replay_dir.mkdir(parents=True, exist_ok=True)
    for pid, reply in zip(ids, replies):
        (replay_dir / f"{pid}.json").write_bytes(reply)


def canned(status, body, seen=None):
    """A handler answering every POST with *status* and JSON *body* (bytes
    are sent as they are); request documents are appended to *seen*."""

    class Canned(BaseHTTPRequestHandler):
        def log_message(self, format, *args):  # noqa: A002
            pass

        def do_POST(self):  # noqa: N802
            doc = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            if seen is not None:
                seen.append(doc)
            data = body if isinstance(body, bytes) else json.dumps(body).encode("ascii")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

    return Canned


@contextlib.contextmanager
def serving(handler):
    """Serve *handler* on a free local port; yields the endpoint URL."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
