"""Pipeline configuration: flat key-value files plus command-line overrides.

The config format is plain text, one ``key = value`` assignment per line;
``#`` starts a comment and blank lines are ignored.  Nested settings use
dotted keys (``tile.patch = 512``).  Overrides given on the command line as
``key=value`` strings are applied after the file, last one wins.

Recognized keys (defaults in parentheses):

=======================  ====================================================
``depth_raster``         input elevation/depth ASCII grid (fill input)
``rgb_mosaic``           input RGB mosaic, binary PPM (segment input)
``out_dir``              output directory, created if absent
``invert_depth``         flip depth so deep = low before filling (false)
``fill.mode``            "patch" fills per tile, "mosaic" whole grid then
                         cuts the tiles; both write each tile's depressions
                         (patch)
``tile.patch``           tile side in pixels (512)
``tile.stride``          tile origin spacing in pixels (256)
``filter.min_depth``     depression depth cutoff (2.0)
``filter.min_area_px``   depression area cutoff in pixels (50)
``pad_px``               prompt box padding in pixels (0)
``binarize_threshold``   probability > threshold becomes foreground (0.5)
``merge``                tile fold overlap rule: max | mean | first (max)
``workers``              bounded worker pool size (1)
``backend.kind``         echo | http | replay (echo)
``backend.endpoint``     http backend URL
``backend.timeout``      http timeout in seconds (30.0)
``backend.retries``      http retry count (2)
``backend.max_inflight`` max concurrent http requests (4)
``backend.replay_dir``   replay backend's ``<patch_id>.json`` replies
``eval.gt_mask``         ground-truth 0/1 ASCII grid (eval input)
``eval.ignore_mask``     optional 0/1 ASCII grid of pixels to skip
``eval.thresholds``      comma-separated IoU thresholds (0.1,...,0.9)
``eval.label``           row label in the CSV report ("run")
=======================  ====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

from .errors import ConfigError
from .labeling import FilterThresholds
from .metrics import DEFAULT_THRESHOLDS, check_label
from .segmenter import check_endpoint, check_http_settings
from .tiling import MergeRule, TileSpec

BACKEND_KINDS = ("echo", "http", "replay")
FILL_MODES = ("patch", "mosaic")

_TRUE = {"true", "1", "yes", "on"}
_FALSE = {"false", "0", "no", "off"}


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in _TRUE:
        return True
    if lowered in _FALSE:
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_thresholds(text: str) -> tuple[float, ...]:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("expected at least one threshold")
    return tuple(float(p) for p in parts)


@dataclass(frozen=True)
class PipelineConfig:
    """Everything the pipeline commands need, with usable defaults."""

    depth_raster: Path | None = None
    rgb_mosaic: Path | None = None
    out_dir: Path | None = None
    invert_depth: bool = False
    fill_mode: str = "patch"
    tile: TileSpec = TileSpec()
    filter: FilterThresholds = FilterThresholds()
    pad_px: int = 0
    binarize_threshold: float = 0.5
    merge: MergeRule = MergeRule.MAX
    workers: int = 1
    backend_kind: str = "echo"
    backend_endpoint: str | None = None
    backend_timeout: float = 30.0
    backend_retries: int = 2
    backend_max_inflight: int = 4
    backend_replay_dir: Path | None = None
    eval_gt_mask: Path | None = None
    eval_ignore_mask: Path | None = None
    eval_thresholds: tuple[float, ...] = DEFAULT_THRESHOLDS
    eval_label: str = "run"

    def __post_init__(self) -> None:
        if self.fill_mode not in FILL_MODES:
            raise ValueError(f"fill.mode must be one of {FILL_MODES}, got {self.fill_mode!r}")
        if self.backend_kind not in BACKEND_KINDS:
            raise ValueError(
                f"backend.kind must be one of {BACKEND_KINDS}, got {self.backend_kind!r}"
            )
        if self.pad_px < 0:
            raise ValueError(f"pad_px must be >= 0, got {self.pad_px}")
        if not 0.0 <= self.binarize_threshold <= 1.0:
            raise ValueError(
                f"binarize_threshold must be in [0, 1], got {self.binarize_threshold}"
            )
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        try:
            check_http_settings(self.backend_timeout, self.backend_retries,
                                self.backend_max_inflight)
        except ValueError as exc:
            raise ValueError(f"backend.{exc}") from None
        check_label(self.eval_label, "eval.label")


# key -> (config field, parser); nested dataclass fields use "<field>:<sub>"
_KEY_TABLE = {
    "depth_raster": ("depth_raster", Path),
    "rgb_mosaic": ("rgb_mosaic", Path),
    "out_dir": ("out_dir", Path),
    "invert_depth": ("invert_depth", _parse_bool),
    "fill.mode": ("fill_mode", str),
    "tile.patch": ("tile:patch", int),
    "tile.stride": ("tile:stride", int),
    "filter.min_depth": ("filter:min_depth", float),
    "filter.min_area_px": ("filter:min_area_px", int),
    "pad_px": ("pad_px", int),
    "binarize_threshold": ("binarize_threshold", float),
    "merge": ("merge", MergeRule.parse),
    "workers": ("workers", int),
    "backend.kind": ("backend_kind", str),
    "backend.endpoint": ("backend_endpoint", str),
    "backend.timeout": ("backend_timeout", float),
    "backend.retries": ("backend_retries", int),
    "backend.max_inflight": ("backend_max_inflight", int),
    "backend.replay_dir": ("backend_replay_dir", Path),
    "eval.gt_mask": ("eval_gt_mask", Path),
    "eval.ignore_mask": ("eval_ignore_mask", Path),
    "eval.thresholds": ("eval_thresholds", _parse_thresholds),
    "eval.label": ("eval_label", str),
}


def parse_config_text(text: str, source: str = "<config>") -> list[tuple[str, str]]:
    """Split config text into (key, value) pairs, preserving order."""
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}: line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"{source}: line {lineno}: empty key")
        pairs.append((key, value))
    return pairs


def build_config(pairs: list[tuple[str, str]]) -> PipelineConfig:
    """Apply (key, value) assignments on top of the defaults."""
    flat: dict[str, object] = {}
    nested: dict[str, dict[str, object]] = {"tile": {}, "filter": {}}
    for key, value in pairs:
        if key not in _KEY_TABLE:
            raise ConfigError(
                f"unknown config key {key!r} (known keys: {', '.join(sorted(_KEY_TABLE))})"
            )
        target, parser = _KEY_TABLE[key]
        try:
            parsed = parser(value)
        except ValueError as exc:
            raise ConfigError(f"config key {key!r}: {exc}") from exc
        if ":" in target:
            group, sub = target.split(":")
            nested[group][sub] = parsed
        else:
            flat[target] = parsed
    for group, values in nested.items():
        if values:
            try:
                flat[group] = replace(getattr(PipelineConfig(), group), **values)
            except ValueError as exc:  # the group's own message names the sub-key
                raise ConfigError(f"{group}.{exc}") from exc
    try:
        return PipelineConfig(**flat)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str | Path | None, overrides: list[str] | None = None) -> PipelineConfig:
    """Read *path* (optional) and apply ``key=value`` overrides in order."""
    pairs: list[tuple[str, str]] = []
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file not found: {p}")
        try:
            text = p.read_text(encoding="utf-8-sig")  # a BOM, as Notepad writes, is no key
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {p} is not text: {exc}") from exc
        except OSError as exc:  # a directory, say
            raise ConfigError(f"config file {p}: {exc.strerror or exc}") from exc
        pairs.extend(parse_config_text(text, source=str(p)))
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override must look like key=value, got {item!r}")
        key, value = item.split("=", 1)
        pairs.append((key.strip(), value.strip()))
    return build_config(pairs)


def _require(cfg: PipelineConfig, field_name: str, key: str) -> Path:
    value = getattr(cfg, field_name)
    if value is None:
        raise ConfigError(f"config key {key!r} is required for this command")
    return value


def _require_file(cfg: PipelineConfig, field_name: str, key: str) -> Path:
    path = _require(cfg, field_name, key)
    if not Path(path).exists():
        raise ConfigError(f"config key {key!r}: path does not exist: {path}")
    if not Path(path).is_file():
        raise ConfigError(f"config key {key!r}: not a file: {path}")
    return path


def check_out_dir(out: str | Path, name: str) -> None:
    """Raise :class:`ConfigError` unless *out* is, or can be made, a directory.

    The nearest of *out* and its ancestors that exists must be a directory;
    the message, prefixed by *name*, names the path that is not one.
    """
    out = Path(out)
    for path in (out, *out.parents):
        if path.exists():
            if not path.is_dir():
                raise ConfigError(f"{name}: not a directory: {path}")
            return


def validate_for(cfg: PipelineConfig, command: str) -> None:
    """Check that every input the given command touches is configured.

    Raises :class:`ConfigError` on the first missing key, absent path or
    path of the wrong kind.
    """
    if command not in ("fill", "prompts", "segment", "eval", "run"):
        raise ValueError(f"unknown command {command!r}")
    check_out_dir(_require(cfg, "out_dir", "out_dir"), "config key 'out_dir'")
    if command in ("fill", "run"):
        _require_file(cfg, "depth_raster", "depth_raster")
    if command in ("segment", "run"):
        _require_file(cfg, "rgb_mosaic", "rgb_mosaic")
        if cfg.backend_kind == "http":
            if not cfg.backend_endpoint:
                raise ConfigError("backend.endpoint is required when backend.kind = http")
            try:
                check_endpoint(cfg.backend_endpoint)
            except ValueError as exc:
                raise ConfigError(f"backend.{exc}") from None
        if cfg.backend_kind == "replay":
            if cfg.backend_replay_dir is None:
                raise ConfigError("backend.replay_dir is required when backend.kind = replay")
            if not Path(cfg.backend_replay_dir).is_dir():
                raise ConfigError(
                    f"backend.replay_dir does not exist: {cfg.backend_replay_dir}"
                )
    if command in ("eval", "run"):
        _require_file(cfg, "eval_gt_mask", "eval.gt_mask")
        if cfg.eval_ignore_mask is not None:
            _require_file(cfg, "eval_ignore_mask", "eval.ignore_mask")
        if list(cfg.eval_thresholds) != sorted(cfg.eval_thresholds) or any(
            not 0.0 < t < 1.0 for t in cfg.eval_thresholds
        ):
            raise ConfigError("eval.thresholds must be ascending values in (0, 1)")
