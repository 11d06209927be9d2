"""Prompt-driven segmentation backends and per-patch mask fusion.

A backend turns one RGB patch plus a list of box prompts into one
probability mask per box (values in [0, 1]) and a confidence score per box.
Every mask travels as a crop: ``(row0, col0, array)``, the rectangle of the
patch whose top-left cell is (``row0``, ``col0``), zero outside it.
:func:`segment_patch` drives any backend, enforces the shared output
contract, and returns one probability grid per patch (pixelwise max across
boxes).  Each crop is checked once and folded into that grid in place, so a
15-px mask never costs a patch-sized array or a copy of itself; the scores
are checked and dropped.  Binarization happens later, once, on the stitched
mosaic.

Three backends ship with the package:

* :class:`EchoBackend` — answers each box with the depression mask
  restricted to that box; needs no model and makes the pipeline
  self-contained for tests and dry runs.
* :class:`HttpBackend` — speaks the JSON-over-HTTP wire protocol to a
  remote model server (base64 PPM in, base64 PGM crops out).
* :class:`ReplayBackend` — replays masks recorded on disk, one PGM per
  box, for offline reproduction of a previous run.
"""

from __future__ import annotations

import base64
import binascii
import math
import threading
import time
from pathlib import Path

import numpy as np

from .errors import BackendError, BackendUnreachableError, ProtocolError
from .image import ImageFormatError, RGBImage, gray_from_pgm_bytes, ppm_bytes
from .labeling import PromptBox
from .raster import Raster


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
    """Backend that echoes the (binarized) depression raster inside each box.

    Useful for end-to-end runs without a model: with box prompts derived
    from the same depth raster, the fused mask reproduces the depressions.
    Each mask is the box-sized window of the raster, at the box's corner.
    """

    def __init__(self, depth: Raster):
        self._positive = depth.valid_mask() & (depth.values > 0)

    def masks_for(self, patch: RGBImage, boxes: list[PromptBox], patch_id: str = ""):
        if self._positive.shape != (patch.height, patch.width):
            raise BackendError(
                f"echo depth raster is {self._positive.shape}, patch is "
                f"{(patch.height, patch.width)}"
            )
        crops = [
            (box.y0, box.x0, self._positive[box.y0 : box.y1, box.x0 : box.x1].astype(np.float64))
            for box in boxes
        ]
        return crops, [1.0] * len(boxes)


class HttpBackend:
    """Client for a remote box-prompt segmentation service.

    The request is ``POST <endpoint>/segment`` with JSON body
    ``{"image_ppm_b64": ..., "boxes": [[x0, y0, x1, y1], ...]}``.  The reply
    carries one ``[row0, col0, pgm_b64]`` per box under ``"masks_crop"``: a
    base64 binary PGM (maxval 255) of any rectangle of the patch outside
    which the mask is zero, and the row and column of its top-left cell (a
    whole-patch mask is ``[0, 0, pgm_b64]``).  It also carries one
    confidence per box under ``"scores"``.  Mask pixel values divide by 255
    to probabilities.  Error replies use a non-200 status, with an
    ``{"error": ...}`` body that is surfaced in the raised exception.

    Connection failures and timeouts are retried ``retries`` times; at most
    ``max_inflight`` requests run concurrently across threads.
    """

    def __init__(
        self,
        endpoint: str,
        timeout: float = 30.0,
        retries: int = 2,
        max_inflight: int = 4,
    ):
        import requests  # loaded only by runs that build an http client

        if not (math.isfinite(timeout) and timeout > 0):
            raise ValueError(f"timeout must be finite and > 0, got {timeout}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        self._url = endpoint.rstrip("/") + "/segment"
        self._timeout = timeout
        self._retries = retries
        self._sem = threading.BoundedSemaphore(max_inflight)
        self._session = requests.Session()
        self._transient = (requests.ConnectionError, requests.Timeout)

    def _post(self, payload: dict):
        last_exc: Exception | None = None
        for attempt in range(self._retries + 1):
            if attempt:
                time.sleep(0.1 * attempt)
            try:
                with self._sem:
                    return self._session.post(
                        self._url, json=payload, timeout=self._timeout
                    )
            except self._transient as exc:
                last_exc = exc
        raise BackendUnreachableError(
            f"segmentation service unreachable after {self._retries + 1} attempts: {last_exc}"
        ) from last_exc

    def masks_for(self, patch: RGBImage, boxes: list[PromptBox], patch_id: str = ""):
        payload = {
            "image_ppm_b64": base64.b64encode(ppm_bytes(patch)).decode("ascii"),
            "boxes": [b.as_list() for b in boxes],
        }
        doc = _reply_object(self._post(payload))
        entries, scores = doc.get("masks_crop"), doc.get("scores")
        if not isinstance(entries, list):
            raise ProtocolError("reply field 'masks_crop' missing or not a list")
        if not isinstance(scores, list):
            raise ProtocolError("reply field 'scores' missing or not a list")
        crops = []
        for i, entry in enumerate(entries):
            if not (isinstance(entry, list) and len(entry) == 3):
                raise ProtocolError(f"mask {i}: crop entry must be [row0, col0, pgm_b64]")
            row0, col0, b64 = entry  # offsets are checked by segment_patch
            try:
                blob = base64.b64decode(b64, validate=True)
            except (binascii.Error, TypeError) as exc:
                raise ProtocolError(f"mask {i}: invalid base64: {exc}") from exc
            crops.append((row0, col0, _gray255(blob, f"mask {i}") / 255.0))
        return crops, scores


def _reply_object(response) -> dict:
    """The JSON object of a 200 reply; any other status is a BackendError."""
    if response.status_code != 200:
        try:
            body = response.json()
        except ValueError:
            body = None
        detail = body.get("error", "") if isinstance(body, dict) else ""
        raise BackendError(
            f"segmentation service returned HTTP {response.status_code}"
            + (f": {detail}" if detail else "")
        )
    try:
        doc = response.json()
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
        return crops, [1.0] * len(boxes)


def _validate_outcome(crops, scores, boxes) -> None:
    if len(crops) != len(boxes):
        raise ProtocolError(
            f"mask count mismatch: {len(boxes)} boxes but {len(crops)} masks"
        )
    if len(scores) != len(boxes):
        raise ProtocolError(
            f"score count mismatch: {len(boxes)} boxes but {len(scores)} scores"
        )
    for i, s in enumerate(scores):
        if not isinstance(s, (int, float, np.integer, np.floating)) or isinstance(s, bool):
            raise ProtocolError(f"score {i} is not a number: {s!r}")
        if not np.isfinite(s) or s < 0.0 or s > 1.0:
            raise ProtocolError(f"score {i} outside [0, 1]: {s!r}")


def fuse_probabilities(masks, shape: tuple[int, int]) -> np.ndarray:
    """Pixelwise maximum over whole-patch probability grids (zeros if empty).

    :func:`segment_patch` computes the same maximum crop by crop; this
    whole-grid form is the reference its fold is tested against, and the
    benchmark tracer wraps it by name, so it keeps its name and signature.
    """
    if not masks:
        return np.zeros(shape, dtype=np.float64)
    out = masks[0].astype(np.float64, copy=True)
    for m in masks[1:]:
        np.maximum(out, m, out=out)
    return out


def _fold_crop(probs: np.ndarray, i: int, entry) -> None:
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
    the backend is not called and the grid is all zeros.  Each crop is
    checked and folded into the grid once, as soon as it is read, and the
    scores are checked but not kept.

    Raises
    ------
    ProtocolError
        If the backend output violates the contract (counts, numeric scores,
        crop entry form, integer offsets, placement inside the patch, or
        range), regardless of which backend produced it.
    """
    for box in boxes:
        if box.x1 > patch.width or box.y1 > patch.height:
            raise ValueError(f"box {box} exceeds patch {patch.width}x{patch.height}")
    probs = np.zeros((patch.height, patch.width), dtype=np.float64)
    if boxes:
        crops, scores = backend.masks_for(patch, boxes, patch_id)
        _validate_outcome(crops, scores, boxes)
        crops = list(crops)
        for i in range(len(crops)):
            entry = crops[i]
            crops[i] = None  # drop the backend's copy: one extra crop alive, not all
            _fold_crop(probs, i, entry)
    return probs
