"""In-process mock of the box-prompt segmentation service.

Speaks exactly the wire protocol the :class:`~sinkseg.segmenter.HttpBackend`
client expects: ``POST /segment`` with a base64 PPM and box list, JSON reply
with one base64 PGM mask per box plus scores.  A request whose ``accept``
list holds ``"crop"`` gets each mask as ``[row0, col0, pgm_b64]`` under
``masks_crop``, the PGM holding the tight rectangle of the mask's nonzero
pixels (a 1x1 zero PGM at [0, 0] for an all-zero mask); any other request
gets patch-sized PGMs under ``masks_pgm_b64``, as a service that predates
crops would send.  Mask content is configurable (``constant`` paints every
pixel the same value, ``boxfill`` paints only the prompted boxes), and a
``fault`` can be injected to produce each of the protocol violations a
robust client must reject, in either reply form.  Malformed requests,
including boxes that are not four integers inside the image, get a 400
reply with an ``{"error": ...}`` body.

Runs on a background thread bound to 127.0.0.1; intended for tests and for
manual experiments via ``python -m sinkseg.mock_server``.
"""

from __future__ import annotations

import argparse
import base64
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

from .image import image_from_ppm_bytes, pgm_bytes

FAULTS = ("count_mismatch", "bad_dims", "bad_maxval", "bad_score", "http_500")

# How often the serving thread checks for shutdown; stop() waits up to this
# long.  The socketserver default of 0.5 s would make every stop() that long.
_POLL_INTERVAL_S = 0.01


class _Handler(BaseHTTPRequestHandler):
    def log_message(self, format, *args):  # noqa: A002 - BaseHTTPRequestHandler API
        pass

    def _reply(self, status: int, doc: dict) -> None:
        body = json.dumps(doc).encode("ascii")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        owner: MockSegmentServer = self.server.owner  # type: ignore[attr-defined]
        if self.path != "/segment":
            self._reply(404, {"error": f"no such route: {self.path}"})
            return
        with owner._lock:
            owner.request_count += 1
        if owner.fault == "http_500":
            self._reply(500, {"error": "induced server failure"})
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
            doc = json.loads(self.rfile.read(length))
            image = image_from_ppm_bytes(base64.b64decode(doc["image_ppm_b64"]))
            boxes = doc["boxes"]
            _check_boxes(boxes, image.width, image.height)
            accept = doc.get("accept")
        except Exception as exc:  # noqa: BLE001 - report malformed requests
            self._reply(400, {"error": f"bad request: {exc}"})
            return

        h, w = image.height, image.width
        crops = [_mask_crop(owner.mode, owner.value, box, h, w) for box in boxes]
        scores = [1.0] * len(boxes)

        maxval = 255
        if owner.fault == "count_mismatch" and crops:
            crops = crops[:-1]
        elif owner.fault == "bad_maxval":
            maxval = 200
        elif owner.fault == "bad_score" and scores:
            scores[0] = 1.5

        def b64(values: np.ndarray) -> str:
            return base64.b64encode(pgm_bytes(values, maxval)).decode("ascii")

        if isinstance(accept, list) and "crop" in accept:
            if owner.fault == "bad_dims":  # shift each crop one row past the bottom edge
                crops = [(h - c.shape[0] + 1, col0, c) for _, col0, c in crops]
            masks = [[row0, col0, b64(c)] for row0, col0, c in crops]
            self._reply(200, {"masks_crop": masks, "scores": scores})
            return
        full = []
        for row0, col0, c in crops:
            mask = np.zeros((h, w), dtype=np.uint8)
            mask[row0 : row0 + c.shape[0], col0 : col0 + c.shape[1]] = c
            if owner.fault == "bad_dims":
                mask = mask[: max(1, h - 1), :]
            full.append(b64(mask))
        self._reply(200, {"masks_pgm_b64": full, "scores": scores})


def _check_boxes(boxes, width: int, height: int) -> None:
    """Raise ValueError unless *boxes* is a list of [x0, y0, x1, y1] inside the image."""
    if not isinstance(boxes, list):
        raise ValueError("'boxes' must be a list")
    for i, box in enumerate(boxes):
        if not (
            isinstance(box, list)
            and len(box) == 4
            and all(isinstance(v, int) and not isinstance(v, bool) for v in box)
        ):
            raise ValueError(f"box {i} must be four integers [x0, y0, x1, y1], got {box!r}")
        x0, y0, x1, y1 = box
        if not (0 <= x0 < x1 <= width and 0 <= y0 < y1 <= height):
            raise ValueError(
                f"box {i} {box} is not a non-empty box inside the {width}x{height} image"
            )


def _mask_crop(mode: str, value: int, box: list[int], h: int, w: int):
    """The mask for *box* as ``(row0, col0, uint8 crop)``, its tight nonzero rectangle."""
    if value == 0:
        return 0, 0, np.zeros((1, 1), dtype=np.uint8)
    if mode == "constant":
        return 0, 0, np.full((h, w), value, dtype=np.uint8)
    x0, y0, x1, y1 = box
    return y0, x0, np.full((y1 - y0, x1 - x0), value, dtype=np.uint8)


class MockSegmentServer:
    """Tiny threaded HTTP server implementing the segmentation protocol.

    Parameters
    ----------
    mode : {"constant", "boxfill"}
        Mask content: the whole patch, or only the prompted box.
    value : int
        Pixel value (0..255) painted by the chosen mode.
    fault : str or None
        One of :data:`FAULTS` to violate the protocol on purpose.
        ``bad_dims`` cuts a row off each whole-patch mask, or moves each
        crop so that it overhangs the bottom edge of the patch.
    port : int
        TCP port; 0 picks a free one.
    """

    def __init__(self, mode: str = "boxfill", value: int = 255, fault: str | None = None, port: int = 0):
        if mode not in ("constant", "boxfill"):
            raise ValueError(f"unknown mode {mode!r}")
        if fault is not None and fault not in FAULTS:
            raise ValueError(f"unknown fault {fault!r} (expected one of {FAULTS})")
        if not 0 <= value <= 255:
            raise ValueError(f"value must be 0..255, got {value}")
        self.mode = mode
        self.value = value
        self.fault = fault
        self.request_count = 0
        self._lock = threading.Lock()
        self._server = ThreadingHTTPServer(("127.0.0.1", port), _Handler)
        self._server.owner = self  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None

    @property
    def endpoint(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "MockSegmentServer":
        self._thread = threading.Thread(
            target=self._server.serve_forever, args=(_POLL_INTERVAL_S,), daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join()

    def __enter__(self) -> "MockSegmentServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run the mock segmentation service")
    parser.add_argument("--port", type=int, default=8080)
    parser.add_argument("--mode", choices=("constant", "boxfill"), default="boxfill")
    parser.add_argument("--value", type=int, default=255)
    parser.add_argument("--fault", choices=FAULTS, default=None)
    args = parser.parse_args(argv)
    server = MockSegmentServer(args.mode, args.value, args.fault, args.port)
    print(f"mock segmentation service listening on {server.endpoint}", flush=True)
    try:
        server._server.serve_forever()
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
