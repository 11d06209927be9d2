"""Prompt-driven segmentation backends and per-patch mask fusion.

A backend turns one RGB patch plus a list of box prompts into one
probability mask per box (values in [0, 1]).  Every mask travels as a crop:
``(row0, col0, array)``, the rectangle of the patch whose top-left cell is
(``row0``, ``col0``), zero outside it, and a backend returns only the list
of those crops.  :func:`segment_patch` drives any backend and returns one
probability grid per patch (pixelwise max across boxes):
:func:`fuse_probabilities` checks each crop once against the shared output
contract and folds it into that grid in place, so a 15-px mask never costs
a patch-sized array or a copy of itself.  Binarization happens later, once,
on the stitched mosaic.

Three backends ship with the package:

* :class:`EchoBackend` — answers each box with a depression mask
  restricted to that box; needs no model and makes the pipeline
  self-contained for tests and dry runs.
* :class:`HttpBackend` — speaks the JSON-over-HTTP wire protocol to a
  remote model server (base64 PPM in, base64 PGM crops out); it checks the
  confidence score the server sends per box and does not keep it.
* :class:`ReplayBackend` — replays masks recorded on disk, one PGM per
  box, for offline reproduction of a previous run.
"""

from __future__ import annotations

import base64
import binascii
import json
import math
import threading
import time
from pathlib import Path
from urllib.parse import quote, urlsplit

import numpy as np

from .errors import BackendError, BackendUnreachableError, ProtocolError
from .image import ImageFormatError, RGBImage, gray_from_pgm_bytes, ppm_bytes
from .labeling import PromptBox
from .raster import BinaryMask


def _is_int(v) -> bool:
    """Whether *v* is an integer offset (a ``bool`` is not one)."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _gray255(blob: bytes, where: str) -> np.ndarray:
    """Decode a maxval-255 binary PGM; *where* names it in the error."""
    try:
        gray, maxval = gray_from_pgm_bytes(blob)
    except ImageFormatError as exc:
        raise ProtocolError(f"{where}: bad PGM: {exc}") from exc
    if maxval != 255:
        raise ProtocolError(f"{where}: PGM maxval must be 255, got {maxval}")
    return gray


class EchoBackend:
    """Backend that echoes a depression mask inside each box.

    Useful for end-to-end runs without a model: with box prompts derived
    from the same depressions, the fused mask reproduces them.  Each mask is
    the box-sized window of the mask, at the box's corner.
    """

    def __init__(self, mask: BinaryMask):
        self._mask = mask.values

    def masks_for(self, patch: RGBImage, boxes: list[PromptBox], patch_id: str = ""):
        if self._mask.shape != (patch.height, patch.width):
            raise BackendError(
                f"echo mask is {self._mask.shape}, patch is "
                f"{(patch.height, patch.width)}"
            )
        return [
            (box.y0, box.x0, self._mask[box.y0 : box.y1, box.x0 : box.x1].astype(np.float64))
            for box in boxes
        ]


def check_endpoint(endpoint: str) -> None:
    """Raise ``ValueError`` unless *endpoint* is an http(s) URL with a host.

    A port, if given, must be numeric.  A query, a fragment or a
    ``user:password@`` part is refused: ``/segment`` is appended to the
    path, and the client sends no credentials.  The message starts with
    ``endpoint``.
    """
    parts = urlsplit(endpoint)
    if "@" in parts.netloc:  # the message leaves the URL out: it may hold a password
        raise ValueError("endpoint must not hold user info (user:password@)")
    try:
        parts.port  # parsing the port is the check
    except ValueError:
        raise ValueError(f"endpoint has an invalid port: {endpoint!r}") from None
    if parts.scheme not in ("http", "https") or not parts.hostname:
        raise ValueError(
            f"endpoint must be an http:// or https:// URL with a host, got {endpoint!r}"
        )
    if "?" in endpoint or "#" in endpoint:
        raise ValueError(f"endpoint must have no query or fragment, got {endpoint!r}")


def check_http_settings(timeout: float, retries: int, max_inflight: int) -> None:
    """Raise ``ValueError``, its message starting with the setting, unless all are usable."""
    if not (math.isfinite(timeout) and timeout > 0):
        raise ValueError(f"timeout must be finite and > 0, got {timeout}")
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    if max_inflight < 1:
        raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")


class HttpBackend:
    """Client for a remote box-prompt segmentation service.

    The request is ``POST <endpoint>/segment`` with JSON body
    ``{"image_ppm_b64": ..., "boxes": [[x0, y0, x1, y1], ...]}``.  The reply
    carries one ``[row0, col0, pgm_b64]`` per box under ``"masks_crop"``: a
    base64 binary PGM (maxval 255) of any rectangle of the patch outside
    which the mask is zero, and the row and column of its top-left cell (a
    whole-patch mask is ``[0, 0, pgm_b64]``).  It also carries one
    confidence per box under ``"scores"``: each must be a number in [0, 1],
    and none is kept.  Mask pixel values divide by 255 to probabilities.
    Error replies use a non-200 status, with an ``{"error": ...}`` body that
    is surfaced in the raised exception.

    Each attempt opens one connection (``http.client``; no keep-alive, no
    proxy, HTTPS verified against the system CA store) and closes it.
    Connection failures, timeouts and broken replies are retried
    ``retries`` times; at most ``max_inflight`` requests run concurrently
    across threads.  A redirect is a non-200 status and is not followed.
    """

    def __init__(
        self,
        endpoint: str,
        timeout: float = 30.0,
        retries: int = 2,
        max_inflight: int = 4,
    ):
        check_endpoint(endpoint)
        check_http_settings(timeout, retries, max_inflight)
        import http.client  # loaded only by runs that build an http client

        parts = urlsplit(endpoint)
        https = parts.scheme == "https"
        self._connection = http.client.HTTPSConnection if https else http.client.HTTPConnection
        self._host, self._port = parts.hostname, parts.port
        # a space or a non-ASCII character is percent-encoded; delimiters stay as written
        self._path = quote(parts.path.rstrip("/") + "/segment", safe="/%:@!$&'()*+,;=")
        self._url = f"{parts.scheme}://{parts.netloc}{self._path}"
        self._timeout = timeout
        self._retries = retries
        self._sem = threading.BoundedSemaphore(max_inflight)
        self._transient = (OSError, http.client.HTTPException)

    def _post(self, body: bytes) -> tuple[int, bytes]:
        """POST *body* as JSON to the service; the reply's status and body."""
        last_exc: Exception | None = None
        for attempt in range(self._retries + 1):
            if attempt:
                time.sleep(0.1 * attempt)
            with self._sem:
                conn = self._connection(self._host, self._port, timeout=self._timeout)
                try:
                    conn.request("POST", self._path, body, {"Content-Type": "application/json"})
                    response = conn.getresponse()
                    return response.status, response.read()
                except self._transient as exc:
                    last_exc = exc
                finally:
                    conn.close()
        raise BackendUnreachableError(
            f"segmentation service {self._url} unreachable after "
            f"{self._retries + 1} attempts: {last_exc}"
        ) from last_exc

    def masks_for(self, patch: RGBImage, boxes: list[PromptBox], patch_id: str = ""):
        # base64 needs no JSON escaping, so the image is spliced in, not dumped
        body = b"".join((
            b'{"image_ppm_b64": "',
            base64.b64encode(ppm_bytes(patch)),
            b'", "boxes": ',
            json.dumps([b.as_list() for b in boxes]).encode("ascii"),
            b"}",
        ))
        doc = _reply_object(*self._post(body))
        entries, scores = doc.get("masks_crop"), doc.get("scores")
        if not isinstance(entries, list):
            raise ProtocolError("reply field 'masks_crop' missing or not a list")
        if not isinstance(scores, list):
            raise ProtocolError("reply field 'scores' missing or not a list")
        crops = []
        for i, entry in enumerate(entries):
            if not (isinstance(entry, list) and len(entry) == 3):
                raise ProtocolError(f"mask {i}: crop entry must be [row0, col0, pgm_b64]")
            row0, col0, b64 = entry  # offsets are checked by fuse_probabilities
            try:
                blob = base64.b64decode(b64, validate=True)
            except (binascii.Error, TypeError) as exc:
                raise ProtocolError(f"mask {i}: invalid base64: {exc}") from exc
            crops.append((row0, col0, _gray255(blob, f"mask {i}") / 255.0))
        if len(scores) != len(boxes):
            raise ProtocolError(
                f"score count mismatch: {len(boxes)} boxes but {len(scores)} scores"
            )
        for i, score in enumerate(scores):  # checked, not kept
            if not isinstance(score, (int, float)) or isinstance(score, bool):
                raise ProtocolError(f"score {i} is not a number: {score!r}")
            if not 0.0 <= score <= 1.0:  # NaN fails both comparisons
                raise ProtocolError(f"score {i} outside [0, 1]: {score!r}")
        return crops


def _reply_object(status: int, body: bytes) -> dict:
    """The JSON object of a 200 reply; any other status is a BackendError."""
    if status != 200:
        try:
            doc = json.loads(body)
        except ValueError:
            doc = None
        detail = doc.get("error", "") if isinstance(doc, dict) else ""
        raise BackendError(
            f"segmentation service returned HTTP {status}" + (f": {detail}" if detail else "")
        )
    try:
        doc = json.loads(body)
    except ValueError as exc:
        raise ProtocolError(f"service reply is not JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ProtocolError("service reply must be a JSON object")
    return doc


class ReplayBackend:
    """Backend that replays recorded masks from ``<dir>/<patch_id>/<i>.pgm``.

    Each recording is a patch-sized PGM (maxval 255), replayed as a crop at
    [0, 0].
    """

    def __init__(self, directory: str | Path):
        self._dir = Path(directory)

    def masks_for(self, patch: RGBImage, boxes: list[PromptBox], patch_id: str = ""):
        if not patch_id:
            raise BackendError("replay backend needs a patch_id to locate masks")
        shape = (patch.height, patch.width)
        crops = []
        for i in range(len(boxes)):
            path = self._dir / patch_id / f"{i}.pgm"
            if not path.exists():
                raise BackendError(f"replay mask missing: {path}")
            gray = _gray255(path.read_bytes(), str(path))
            if gray.shape != shape:
                raise ProtocolError(f"mask {i} has shape {gray.shape}, expected patch shape {shape}")
            crops.append((0, 0, gray / 255.0))
        return crops


def fuse_probabilities(probs: np.ndarray, i: int, entry) -> None:
    """Check backend entry *i*, ``(row0, col0, crop)``, and max it into *probs*.

    The crop is read in place, never copied or written; any contract breach
    (entry form, integer offsets, a numeric 2-D grid, placement inside the
    patch, finite values in [0, 1]) raises :class:`ProtocolError`.
    """
    if not (isinstance(entry, (tuple, list)) and len(entry) == 3):
        raise ProtocolError(f"mask {i}: crop entry must be (row0, col0, crop)")
    row0, col0, crop = entry
    if not (_is_int(row0) and _is_int(col0)):
        raise ProtocolError(f"mask {i} has offsets [{row0!r}, {col0!r}]; they must be integers")
    try:
        crop = np.asarray(crop, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"mask {i} is not a numeric grid: {exc}") from exc
    if crop.ndim != 2:
        raise ProtocolError(f"mask {i} has shape {crop.shape}, expected a 2-D probability grid")
    h, w = crop.shape
    if not (0 <= row0 <= probs.shape[0] - h and 0 <= col0 <= probs.shape[1] - w):
        raise ProtocolError(
            f"mask {i} has shape {crop.shape} at [{row0}, {col0}], "
            f"outside the patch shape {probs.shape}"
        )
    if crop.size and (not np.isfinite(crop).all() or crop.min() < 0.0 or crop.max() > 1.0):
        raise ProtocolError(f"mask {i} has probabilities outside [0, 1]")
    view = probs[row0 : row0 + h, col0 : col0 + w]
    np.maximum(view, crop, out=view)


def segment_patch(
    backend,
    patch: RGBImage,
    boxes: list[PromptBox],
    patch_id: str = "",
) -> np.ndarray:
    """Run *backend* on one patch; return its float64 probability grid.

    The grid is the pixelwise maximum over all boxes' masks; with no boxes
    the backend is not called and the grid is all zeros.  The backend
    returns one crop per box, and each is checked and folded into the grid
    once, by :func:`fuse_probabilities`.

    Raises
    ------
    ProtocolError
        If the backend output violates the contract (mask count, crop entry
        form, integer offsets, a numeric 2-D grid, placement inside the
        patch, or range), regardless of which backend produced it.
    """
    for box in boxes:
        if box.x1 > patch.width or box.y1 > patch.height:
            raise ValueError(f"box {box} exceeds patch {patch.width}x{patch.height}")
    probs = np.zeros((patch.height, patch.width), dtype=np.float64)
    if boxes:
        crops = list(backend.masks_for(patch, boxes, patch_id))
        if len(crops) != len(boxes):
            raise ProtocolError(
                f"mask count mismatch: {len(boxes)} boxes but {len(crops)} masks"
            )
        for i in range(len(crops)):
            entry = crops[i]
            crops[i] = None  # drop the backend's copy: one extra crop alive, not all
            fuse_probabilities(probs, i, entry)
    return probs
