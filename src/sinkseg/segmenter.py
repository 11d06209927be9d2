"""Prompt-driven segmentation backends and per-patch mask fusion.

A backend turns one RGB patch plus a list of box prompts into one
probability mask per box (values in [0, 1]) and a confidence score per box.
:func:`segment_patch` drives any backend, enforces the shared output
contract, and fuses the per-box masks into one probability grid per patch
(pixelwise max across boxes).  Binarization happens later, once, on the
stitched mosaic.

Three backends ship with the package:

* :class:`EchoBackend` — answers each box with the depression mask
  restricted to that box; needs no model and makes the pipeline
  self-contained for tests and dry runs.
* :class:`HttpBackend` — speaks the JSON-over-HTTP wire protocol to a
  remote model server (base64 PPM in, base64 PGM masks out).
* :class:`ReplayBackend` — replays masks recorded on disk, one PGM per
  box, for offline reproduction of a previous run.
"""

from __future__ import annotations

import base64
import binascii
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import requests

from .errors import BackendError, BackendUnreachableError, ProtocolError
from .image import (
    ImageFormatError,
    RGBImage,
    gray_from_pgm_bytes,
    ppm_bytes,
    read_pgm,
)
from .labeling import PromptBox
from .raster import Raster


@dataclass(frozen=True)
class ProbabilityMask:
    """Per-pixel foreground probability for one box prompt."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.probs, dtype=np.float64, copy=True)
        if arr.ndim != 2:
            raise ValueError(f"expected a 2-D probability grid, got shape {arr.shape}")
        if arr.size and (not np.isfinite(arr).all() or arr.min() < 0.0 or arr.max() > 1.0):
            raise ValueError("probabilities must lie in [0, 1]")
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)


@dataclass(frozen=True)
class SegmentationOutcome:
    """Everything a backend produced for one patch, plus their fusion."""

    masks: tuple[ProbabilityMask, ...]
    scores: tuple[float, ...]
    probs: np.ndarray  # float64 pixelwise max over ``masks``; zeros if none


class EchoBackend:
    """Backend that echoes the (binarized) depression raster inside each box.

    Useful for end-to-end runs without a model: with box prompts derived
    from the same depth raster, the fused mask reproduces the depressions.
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
        masks = []
        for box in boxes:
            m = np.zeros(self._positive.shape, dtype=np.float64)
            window = self._positive[box.y0 : box.y1, box.x0 : box.x1]
            m[box.y0 : box.y1, box.x0 : box.x1] = window.astype(np.float64)
            masks.append(m)
        return masks, [1.0] * len(boxes)


class HttpBackend:
    """Client for a remote box-prompt segmentation service.

    The request is ``POST <endpoint>/segment`` with JSON body
    ``{"image_ppm_b64": ..., "boxes": [[x0, y0, x1, y1], ...]}``; the reply
    carries one base64 binary PGM (maxval 255, patch-sized) per box under
    ``"masks_pgm_b64"`` and one confidence per box under ``"scores"``.
    Mask pixel values divide by 255 to probabilities.  Error replies use a
    non-200 status with an ``{"error": ...}`` body, which is surfaced in the
    raised exception.

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
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        self._url = endpoint.rstrip("/") + "/segment"
        self._timeout = timeout
        self._retries = retries
        self._sem = threading.BoundedSemaphore(max_inflight)
        self._session = requests.Session()

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
            except (requests.ConnectionError, requests.Timeout) as exc:
                last_exc = exc
        raise BackendUnreachableError(
            f"segmentation service unreachable after {self._retries + 1} attempts: {last_exc}"
        ) from last_exc

    def masks_for(self, patch: RGBImage, boxes: list[PromptBox], patch_id: str = ""):
        payload = {
            "image_ppm_b64": base64.b64encode(ppm_bytes(patch)).decode("ascii"),
            "boxes": [b.as_list() for b in boxes],
        }
        response = self._post(payload)
        if response.status_code != 200:
            detail = ""
            try:
                detail = response.json().get("error", "")
            except ValueError:
                pass
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
        raw_masks = doc.get("masks_pgm_b64")
        scores = doc.get("scores")
        if not isinstance(raw_masks, list):
            raise ProtocolError("reply field 'masks_pgm_b64' missing or not a list")
        if not isinstance(scores, list):
            raise ProtocolError("reply field 'scores' missing or not a list")
        masks = []
        for i, b64 in enumerate(raw_masks):
            try:
                blob = base64.b64decode(b64, validate=True)
            except (binascii.Error, TypeError) as exc:
                raise ProtocolError(f"mask {i}: invalid base64: {exc}") from exc
            try:
                gray, maxval = gray_from_pgm_bytes(blob)
            except ImageFormatError as exc:
                raise ProtocolError(f"mask {i}: bad PGM: {exc}") from exc
            if maxval != 255:
                raise ProtocolError(f"mask {i}: PGM maxval must be 255, got {maxval}")
            masks.append(gray.astype(np.float64) / 255.0)
        out_scores = []
        for i, s in enumerate(scores):
            if not isinstance(s, (int, float)) or isinstance(s, bool):
                raise ProtocolError(f"score {i} is not a number: {s!r}")
            out_scores.append(float(s))
        return masks, out_scores


class ReplayBackend:
    """Backend that replays recorded masks from ``<dir>/<patch_id>/<i>.pgm``."""

    def __init__(self, directory: str | Path):
        self._dir = Path(directory)

    def masks_for(self, patch: RGBImage, boxes: list[PromptBox], patch_id: str = ""):
        if not patch_id:
            raise BackendError("replay backend needs a patch_id to locate masks")
        masks = []
        for i in range(len(boxes)):
            path = self._dir / patch_id / f"{i}.pgm"
            if not path.exists():
                raise BackendError(f"replay mask missing: {path}")
            try:
                gray, maxval = read_pgm(path)
            except ImageFormatError as exc:
                raise ProtocolError(f"{path}: bad PGM: {exc}") from exc
            if maxval != 255:
                raise ProtocolError(f"{path}: PGM maxval must be 255, got {maxval}")
            masks.append(gray.astype(np.float64) / 255.0)
        return masks, [1.0] * len(boxes)


def _validate_outcome(masks, scores, boxes, patch: RGBImage) -> None:
    if len(masks) != len(boxes):
        raise ProtocolError(
            f"mask count mismatch: {len(boxes)} boxes but {len(masks)} masks"
        )
    if len(scores) != len(boxes):
        raise ProtocolError(
            f"score count mismatch: {len(boxes)} boxes but {len(scores)} scores"
        )
    shape = (patch.height, patch.width)
    for i, m in enumerate(masks):
        if np.shape(m) != shape:
            raise ProtocolError(
                f"mask {i} has shape {np.shape(m)}, expected patch shape {shape}"
            )
    for i, s in enumerate(scores):
        if not np.isfinite(s) or s < 0.0 or s > 1.0:
            raise ProtocolError(f"score {i} outside [0, 1]: {s!r}")


def fuse_probabilities(masks, shape: tuple[int, int]) -> np.ndarray:
    """Pixelwise maximum over per-box probability grids (zeros if empty)."""
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

    Raises
    ------
    ProtocolError
        If the backend output violates the contract (count, shape, or
        range), regardless of which backend produced it.
    """
    for box in boxes:
        if box.x1 > patch.width or box.y1 > patch.height:
            raise ValueError(f"box {box} exceeds patch {patch.width}x{patch.height}")
    masks: list[ProbabilityMask] = []
    scores = []
    if boxes:
        raw, scores = backend.masks_for(patch, boxes, patch_id)
        _validate_outcome(raw, scores, boxes, patch)
        raw = list(raw)
        for i in range(len(raw)):
            try:
                masks.append(ProbabilityMask(raw[i]))
            except ValueError as exc:
                raise ProtocolError(f"mask {i} has probabilities outside [0, 1]") from exc
            raw[i] = None  # drop the backend's copy: one extra mask alive, not all
    return SegmentationOutcome(
        masks=tuple(masks),
        scores=tuple(float(s) for s in scores),
        probs=fuse_probabilities([m.probs for m in masks], (patch.height, patch.width)),
    )
