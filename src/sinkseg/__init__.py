"""sinkseg: closed-depression extraction and prompt-driven sinkhole mapping.

The package turns an elevation (or monocular-depth) raster into a sinkhole
mask in four stages: depression filling, depth thresholding into box
prompts, prompt-based segmentation through a pluggable backend, and
pixel/object evaluation.  Large mosaics are processed as overlapping tiles
and stitched back.  See the README for the CLI and config reference.
"""

from .errors import (
    BackendError,
    BackendUnreachableError,
    ConfigError,
    GridFormatError,
    InputError,
    NoOutletError,
    ProtocolError,
    SinksegError,
)
from .hydro import FilledResult, fill_depressions
from .labeling import (
    FilterThresholds,
    PromptBox,
    PromptSet,
    boxes_from_components,
    components_from_mask,
    filter_components,
    label_components,
)
from .metrics import (
    LossValue,
    MetricsReport,
    PixelConfusion,
    bce_loss,
    combined_loss,
    detection_curve,
    dice_loss,
    evaluate_masks,
    metrics_from_confusion,
    object_match,
    pixel_confusion,
)
from .raster import (
    BinaryMask,
    Raster,
    binarize,
    invert_depth,
    read_ascii_grid,
    read_ascii_mask,
    write_ascii_grid,
    write_ascii_mask,
)
from .segmenter import (
    EchoBackend,
    HttpBackend,
    ReplayBackend,
    segment_patch,
)
from .synth import DepressionComponent, SynthScene, brute_force_fill, gen_terrain
from .tiling import MergeRule, TileSpec, TileWindow, extract_tile, plan_tiles, stitch

__version__ = "0.1.0"

__all__ = [
    "BackendError",
    "BackendUnreachableError",
    "BinaryMask",
    "ConfigError",
    "DepressionComponent",
    "EchoBackend",
    "FilledResult",
    "FilterThresholds",
    "GridFormatError",
    "HttpBackend",
    "InputError",
    "LossValue",
    "MergeRule",
    "MetricsReport",
    "NoOutletError",
    "PixelConfusion",
    "PromptBox",
    "PromptSet",
    "ProtocolError",
    "Raster",
    "ReplayBackend",
    "SinksegError",
    "SynthScene",
    "TileSpec",
    "TileWindow",
    "bce_loss",
    "binarize",
    "boxes_from_components",
    "brute_force_fill",
    "combined_loss",
    "components_from_mask",
    "detection_curve",
    "dice_loss",
    "evaluate_masks",
    "extract_tile",
    "fill_depressions",
    "filter_components",
    "gen_terrain",
    "invert_depth",
    "label_components",
    "metrics_from_confusion",
    "object_match",
    "pixel_confusion",
    "plan_tiles",
    "read_ascii_grid",
    "read_ascii_mask",
    "segment_patch",
    "stitch",
    "write_ascii_grid",
    "write_ascii_mask",
]
