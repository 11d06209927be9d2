"""Prompt-driven segmentation backends and per-patch mask fusion.

A backend turns one RGB patch plus a list of box prompts into one
probability mask per box (values in [0, 1]) and a confidence score per box.
Every mask travels as a crop: ``(row0, col0, array)``, the rectangle of the
patch whose top-left cell is (``row0``, ``col0``), zero outside it.
:func:`segment_patch` drives any backend, enforces the shared output
contract, and folds each crop into one probability grid per patch (pixelwise
max across boxes) as soon as the crop is checked, so a 15-px mask never
costs a patch-sized array.  Binarization happens later, once, on the
stitched mosaic.

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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import BackendError, BackendUnreachableError, ProtocolError
from .image import ImageFormatError, RGBImage, gray_from_pgm_bytes, ppm_bytes
from .labeling import PromptBox
from .raster import Raster


def _is_int(v) -> bool:
    """Whether *v* is an integer offset (a ``bool`` is not one)."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


@dataclass(frozen=True)
class ProbabilityMask:
    """Per-pixel foreground probability for one box prompt, held as a crop.

    ``crop`` holds the probabilities of the rectangle whose top-left cell is
    (``row0``, ``col0``) in a patch of ``shape`` (the crop's own shape when
    ``None``); the mask is zero outside it.  :attr:`probs` builds the whole
    patch on access, so a held mask costs only its crop.  This is where a
    mask's form, placement and range are checked; each ``ValueError``
    message reads on after ``"mask {i} "``.
    """

    crop: np.ndarray
    row0: int = 0
    col0: int = 0
    shape: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if not (_is_int(self.row0) and _is_int(self.col0)):
            raise ValueError(
                f"has offsets [{self.row0!r}, {self.col0!r}]; they must be integers"
            )
        try:
            arr = np.array(self.crop, dtype=np.float64, copy=True)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"is not a numeric grid: {exc}") from exc
        if arr.ndim != 2:
            raise ValueError(f"has shape {arr.shape}, expected a 2-D probability grid")
        shape = arr.shape if self.shape is None else tuple(self.shape)
        if not (
            0 <= self.row0 <= shape[0] - arr.shape[0]
            and 0 <= self.col0 <= shape[1] - arr.shape[1]
        ):
            raise ValueError(
                f"has shape {arr.shape} at [{self.row0}, {self.col0}], "
                f"outside the patch shape {shape}"
            )
        if arr.size and (not np.isfinite(arr).all() or arr.min() < 0.0 or arr.max() > 1.0):
            raise ValueError("has probabilities outside [0, 1]")
        arr.setflags(write=False)
        object.__setattr__(self, "crop", arr)
        object.__setattr__(self, "row0", int(self.row0))
        object.__setattr__(self, "col0", int(self.col0))
        object.__setattr__(self, "shape", shape)

    @property
    def probs(self) -> np.ndarray:
        """The probabilities over the whole patch (read-only), built on access."""
        if self.crop.shape == self.shape:
            return self.crop
        grid = np.zeros(self.shape, dtype=np.float64)
        h, w = self.crop.shape
        grid[self.row0 : self.row0 + h, self.col0 : self.col0 + w] = self.crop
        grid.setflags(write=False)
        return grid


@dataclass(frozen=True)
class SegmentationOutcome:
    """Everything a backend produced for one patch, plus their fusion."""

    masks: tuple[ProbabilityMask, ...]
    scores: tuple[float, ...]
    probs: np.ndarray  # float64 pixelwise max over ``masks``; zeros if none


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
        self._depth = depth
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
            crops.append((row0, col0, _gray255(blob, f"mask {i}").astype(np.float64) / 255.0))
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
            crops.append((0, 0, gray.astype(np.float64) / 255.0))
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
    """Pixelwise maximum over per-box probability grids (zeros if empty).

    :func:`segment_patch` computes the same maximum crop by crop; this
    whole-grid form is its reference.
    """
    if not masks:
        return np.zeros(shape, dtype=np.float64)
    out = masks[0].astype(np.float64, copy=True)
    for m in masks[1:]:
        np.maximum(out, m, out=out)
    return out


def segment_patch(
    backend,
    patch: RGBImage,
    boxes: list[PromptBox],
    patch_id: str = "",
) -> SegmentationOutcome:
    """Run *backend* on one patch and fuse the per-box masks.

    ``probs`` of the outcome is the pixelwise maximum probability over all
    boxes; with no boxes the backend is not called and ``probs`` is all zeros.
    Each crop is checked and folded into ``probs`` as soon as it is read.

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
    shape = (patch.height, patch.width)
    probs = np.zeros(shape, dtype=np.float64)
    masks: list[ProbabilityMask] = []
    scores = []
    if boxes:
        crops, scores = backend.masks_for(patch, boxes, patch_id)
        _validate_outcome(crops, scores, boxes)
        crops = list(crops)
        for i in range(len(crops)):
            entry = crops[i]
            crops[i] = None  # drop the backend's copy: one extra crop alive, not all
            if not (isinstance(entry, (tuple, list)) and len(entry) == 3):
                raise ProtocolError(f"mask {i}: crop entry must be (row0, col0, crop)")
            try:
                mask = ProbabilityMask(entry[2], entry[0], entry[1], shape)
            except ValueError as exc:
                raise ProtocolError(f"mask {i} {exc}") from exc
            h, w = mask.crop.shape
            view = probs[mask.row0 : mask.row0 + h, mask.col0 : mask.col0 + w]
            np.maximum(view, mask.crop, out=view)
            masks.append(mask)
    return SegmentationOutcome(
        masks=tuple(masks),
        scores=tuple(float(s) for s in scores),
        probs=probs,
    )
