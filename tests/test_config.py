"""Config file parsing, overrides, and per-command validation."""

from pathlib import Path

import pytest

from sinkseg.config import PipelineConfig, build_config, load_config, validate_for
from sinkseg.errors import ConfigError
from sinkseg.labeling import FilterThresholds
from sinkseg.metrics import DEFAULT_THRESHOLDS
from sinkseg.segmenter import HttpBackend
from sinkseg.tiling import MergeRule, TileSpec


class TestDefaults:
    def test_documented_defaults(self):
        cfg = PipelineConfig()
        assert cfg.tile == TileSpec(patch=512, stride=256)
        assert cfg.filter == FilterThresholds(min_depth=2.0, min_area_px=50)
        assert cfg.fill_mode == "patch"
        assert cfg.invert_depth is False
        assert cfg.pad_px == 0
        assert cfg.binarize_threshold == 0.5
        assert cfg.merge is MergeRule.MAX
        assert cfg.workers == 1
        assert cfg.backend_kind == "echo"
        assert cfg.backend_timeout == 30.0
        assert cfg.backend_retries == 2
        assert cfg.backend_max_inflight == 4
        assert cfg.eval_thresholds == DEFAULT_THRESHOLDS
        assert cfg.eval_label == "run"

    def test_no_file_no_overrides_is_default(self):
        assert load_config(None) == PipelineConfig()


class TestFileParsing:
    def test_full_file(self, tmp_path):
        text = """
        # pipeline settings
        depth_raster = scene/dem.asc
        out_dir = out   # trailing comment
        tile.patch = 128
        tile.stride = 64
        filter.min_depth = 1.5
        filter.min_area_px = 10
        invert_depth = yes
        merge = mean
        workers = 4
        backend.kind = http
        backend.endpoint = http://127.0.0.1:9000
        eval.thresholds = 0.25, 0.5, 0.75
        eval.label = trial-a
        """
        path = tmp_path / "run.cfg"
        path.write_text(text)
        cfg = load_config(path)
        assert cfg.depth_raster == Path("scene/dem.asc")
        assert cfg.out_dir == Path("out")
        assert cfg.tile == TileSpec(patch=128, stride=64)
        assert cfg.filter == FilterThresholds(1.5, 10)
        assert cfg.invert_depth is True
        assert cfg.merge is MergeRule.MEAN
        assert cfg.workers == 4
        assert cfg.backend_kind == "http"
        assert cfg.backend_endpoint == "http://127.0.0.1:9000"
        assert cfg.eval_thresholds == (0.25, 0.5, 0.75)
        assert cfg.eval_label == "trial-a"

    def test_byte_order_mark_is_not_part_of_the_first_key(self, tmp_path):
        """A config saved with a UTF-8 BOM, as Notepad saves it, reads as the same config."""
        text = "depth_raster = scene/dem.asc\nout_dir = out\ntile.patch = 1024\n"
        plain, bom = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
        plain.write_text(text, encoding="utf-8")
        bom.write_text(text, encoding="utf-8-sig")
        assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
        assert load_config(bom) == load_config(plain)
        assert load_config(bom).depth_raster == Path("scene/dem.asc")

    def test_bool_spellings(self):
        for text, value in [("true", True), ("1", True), ("on", True),
                            ("FALSE", False), ("0", False), ("off", False)]:
            assert build_config([("invert_depth", text)]).invert_depth is value

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="config file not found"):
            load_config(tmp_path / "nope.cfg")

    def test_line_without_assignment(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("workers = 2\njust some words\n")
        with pytest.raises(ConfigError, match=r"line 2: expected 'key = value'"):
            load_config(path)

    def test_empty_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("= 3\n")
        with pytest.raises(ConfigError, match="line 1: empty key"):
            load_config(path)

    def test_unknown_key_is_named(self):
        with pytest.raises(ConfigError, match="unknown config key 'tile.size'"):
            build_config([("tile.size", "512")])

    def test_unknown_key_lists_known_keys(self):
        with pytest.raises(ConfigError, match="tile.patch"):
            build_config([("bogus", "1")])

    def test_unparseable_value_names_key(self):
        with pytest.raises(ConfigError, match="'tile.patch'"):
            build_config([("tile.patch", "large")])
        with pytest.raises(ConfigError, match="'merge'"):
            build_config([("merge", "average")])
        with pytest.raises(ConfigError, match="'invert_depth'"):
            build_config([("invert_depth", "maybe")])

    def test_empty_thresholds_rejected(self):
        with pytest.raises(ConfigError, match="'eval.thresholds'"):
            build_config([("eval.thresholds", " , ")])


class TestOverrides:
    def test_overrides_apply_after_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("workers = 2\ntile.patch = 128\ntile.stride = 64\n")
        cfg = load_config(path, overrides=["workers=8"])
        assert cfg.workers == 8
        assert cfg.tile == TileSpec(patch=128, stride=64)

    def test_last_override_wins(self):
        cfg = load_config(None, overrides=["workers=2", "workers=5"])
        assert cfg.workers == 5

    def test_override_shape_checked(self):
        with pytest.raises(ConfigError, match="key=value"):
            load_config(None, overrides=["workers"])

    def test_override_whitespace_tolerated(self):
        cfg = load_config(None, overrides=[" workers = 3 "])
        assert cfg.workers == 3


class TestConstraints:
    @pytest.mark.parametrize(
        "key, value, pattern",
        [
            ("fill.mode", "global", "fill.mode"),
            ("backend.kind", "sam", "backend.kind"),
            ("pad_px", "-1", "pad_px"),
            ("binarize_threshold", "1.5", "binarize_threshold"),
            ("workers", "0", "workers"),
            ("backend.retries", "-2", "backend.retries"),
            ("backend.max_inflight", "0", "backend.max_inflight"),
            ("backend.timeout", "0", "backend.timeout"),
            ("tile.patch", "0", "patch"),
            ("tile.stride", "0", "stride"),
            ("filter.min_depth", "-1", "min_depth"),
        ],
    )
    def test_out_of_range_values(self, key, value, pattern):
        with pytest.raises(ConfigError, match=pattern):
            build_config([(key, value)])

    @pytest.mark.parametrize(
        "setting, value, text",
        [
            ("timeout", 0.0, "timeout must be finite and > 0, got 0.0"),
            ("timeout", float("nan"), "timeout must be finite and > 0, got nan"),
            ("retries", -2, "retries must be >= 0, got -2"),
            ("max_inflight", 0, "max_inflight must be >= 1, got 0"),
        ],
        ids=["zero-timeout", "nan-timeout", "negative-retries", "zero-max-inflight"],
    )
    def test_http_settings_follow_the_client_rules(self, setting, value, text):
        with pytest.raises(ValueError) as client:
            HttpBackend("http://127.0.0.1:9", **{setting: value})
        with pytest.raises(ValueError) as config:
            PipelineConfig(**{f"backend_{setting}": value})
        assert str(client.value) == text
        assert str(config.value) == f"backend.{text}"

    def test_stride_may_not_exceed_patch(self):
        with pytest.raises(ConfigError, match="stride"):
            build_config([("tile.patch", "64"), ("tile.stride", "65")])


class TestValidateFor:
    def make_inputs(self, tmp_path):
        dem = tmp_path / "dem.asc"
        rgb = tmp_path / "rgb.ppm"
        gt = tmp_path / "gt.asc"
        for p in (dem, rgb, gt):
            p.write_text("placeholder")
        return dem, rgb, gt

    def full_config(self, tmp_path):
        dem, rgb, gt = self.make_inputs(tmp_path)
        return PipelineConfig(
            depth_raster=dem,
            rgb_mosaic=rgb,
            eval_gt_mask=gt,
            out_dir=tmp_path / "out",
        )

    def test_complete_config_passes_every_command(self, tmp_path):
        cfg = self.full_config(tmp_path)
        for command in ("fill", "prompts", "segment", "eval", "run"):
            validate_for(cfg, command)

    def test_out_dir_always_required(self):
        with pytest.raises(ConfigError, match="'out_dir' is required"):
            validate_for(PipelineConfig(), "prompts")

    def test_fill_needs_existing_depth_raster(self, tmp_path):
        with pytest.raises(ConfigError, match="'depth_raster' is required"):
            validate_for(PipelineConfig(out_dir=tmp_path), "fill")
        cfg = PipelineConfig(out_dir=tmp_path, depth_raster=tmp_path / "missing.asc")
        with pytest.raises(ConfigError, match="path does not exist"):
            validate_for(cfg, "fill")

    def test_segment_needs_rgb(self, tmp_path):
        with pytest.raises(ConfigError, match="'rgb_mosaic' is required"):
            validate_for(PipelineConfig(out_dir=tmp_path), "segment")

    def test_http_backend_needs_endpoint(self, tmp_path):
        cfg = self.full_config(tmp_path)
        cfg = PipelineConfig(
            **{**cfg.__dict__, "backend_kind": "http", "backend_endpoint": None}
        )
        with pytest.raises(ConfigError, match="backend.endpoint is required"):
            validate_for(cfg, "segment")

    def test_replay_backend_needs_directory(self, tmp_path):
        base = self.full_config(tmp_path)
        cfg = PipelineConfig(**{**base.__dict__, "backend_kind": "replay"})
        with pytest.raises(ConfigError, match="backend.replay_dir is required"):
            validate_for(cfg, "segment")
        cfg = PipelineConfig(
            **{
                **base.__dict__,
                "backend_kind": "replay",
                "backend_replay_dir": tmp_path / "absent",
            }
        )
        with pytest.raises(ConfigError, match="replay_dir does not exist"):
            validate_for(cfg, "segment")

    def test_eval_needs_existing_gt(self, tmp_path):
        with pytest.raises(ConfigError, match="'eval.gt_mask' is required"):
            validate_for(PipelineConfig(out_dir=tmp_path), "eval")

    def test_eval_ignore_mask_checked_when_set(self, tmp_path):
        base = self.full_config(tmp_path)
        cfg = PipelineConfig(
            **{**base.__dict__, "eval_ignore_mask": tmp_path / "absent.asc"}
        )
        with pytest.raises(ConfigError, match="eval.ignore_mask"):
            validate_for(cfg, "eval")

    def test_eval_thresholds_must_ascend_in_unit_interval(self, tmp_path):
        base = self.full_config(tmp_path)
        for bad in [(0.5, 0.3), (0.0, 0.5), (0.5, 1.0)]:
            cfg = PipelineConfig(**{**base.__dict__, "eval_thresholds": bad})
            with pytest.raises(ConfigError, match="eval.thresholds"):
                validate_for(cfg, "eval")

    def test_unknown_command(self, tmp_path):
        with pytest.raises(ValueError, match="unknown command"):
            validate_for(self.full_config(tmp_path), "deploy")
