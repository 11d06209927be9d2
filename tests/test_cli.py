"""Command-line interface: exit codes, stdout/stderr discipline."""

import json
import shutil
import subprocess
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest

from conftest import canned, serving
from sinkseg.cli import main
from sinkseg.raster import Raster, read_ascii_grid, write_ascii_grid
from sinkseg.synth import export_scene, gen_terrain


@pytest.fixture()
def scene_dir(tmp_path):
    d = tmp_path / "scene"
    export_scene(
        gen_terrain(seed=13, width=96, height=96, n_sinkholes=3,
                    radius_range=(6.0, 9.0)),
        d,
    )
    return d


def manifest_text(**overrides):
    """A well-formed 128x128 patch-mode manifest, with *overrides* applied."""
    doc = {"width": 128, "height": 128, "patch": 64, "stride": 32,
           "origin_x": 0.0, "origin_y": 0.0, "cellsize": 1.0, "nodata": -9999.0,
           "fill_mode": "patch", "invert_depth": False}
    return json.dumps({**doc, **overrides})


def load_depth(path):
    with np.load(path) as archive:
        return archive["depth"]


def negate_first_cell(path):
    depth = load_depth(path)
    depth[0, 0] = -1.0
    np.savez_compressed(path, depth=depth)


def cut_to(side):
    def cut(path):
        np.savez_compressed(path, depth=load_depth(path)[:side, :side])

    return cut


def truncate(path):
    path.write_bytes(path.read_bytes()[:100])


def ascii_grid(path):
    write_ascii_grid(Raster(load_depth(path)), path)


def bare_npy(path):
    depth = load_depth(path)
    with open(path, "wb") as fh:
        np.save(fh, depth)


def as_float32(path):
    np.savez_compressed(path, depth=load_depth(path).astype(np.float32))


def add_axis(path):
    np.savez_compressed(path, depth=load_depth(path)[np.newaxis])


def extra_member(path):
    np.savez_compressed(path, depth=load_depth(path), filled=load_depth(path))


def rename_member(path):
    np.savez_compressed(path, values=load_depth(path))


def object_array(path):
    np.savez_compressed(path, depth=np.full((48, 48), None, dtype=object))


def huge_header(path):
    """An archive whose ``depth.npy`` header claims 10^6 x 10^6 float64 over 16 bytes."""
    header = {"descr": "<f8", "fortran_order": False, "shape": (10**6, 10**6)}
    with open(path, "wb") as fh, zipfile.ZipFile(fh, "w") as archive, \
            archive.open("depth.npy", "w") as member:
        np.lib.format.write_array_header_1_0(member, header)
        member.write(bytes(16))


def raw_member(path):
    """An archive whose one member ``depth`` holds bytes that are not an ``.npy`` array."""
    with zipfile.ZipFile(path, "w") as archive:
        archive.writestr("depth", b"not an npy member")


def oversized_box(path):
    path.write_text('{"boxes":[[40,40,60,60]],"patch_id":"r00000_c00000"}\n')


def string_area(path):
    path.write_text('{"areas":["x"],"boxes":[[0,0,2,2]],"patch_id":"r00000_c00000"}\n')


def bool_coordinate(path):
    path.write_text('{"boxes":[[true,0,2,2]],"patch_id":"r00000_c00000"}\n')


def foreign_boxes(path):
    shutil.copyfile(path.with_name("r00000_c00024.boxes.json"), path)


def halve(path):
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def replace_line(index, text):
    """Corrupt an ASCII grid by replacing its line *index* (0-based) with *text*."""

    def edit(path):
        lines = path.read_bytes().split(b"\n")
        lines[index] = text
        path.write_bytes(b"\n".join(lines))

    return edit


def first_cell(token):
    """Corrupt an ASCII grid by replacing its first data cell with *token*."""

    def edit(path):
        lines = path.read_bytes().split(b"\n")
        lines[6] = b" ".join([token, *lines[6].split()[1:]])
        path.write_bytes(b"\n".join(lines))

    return edit


def claim_size(ncols, nrows):
    """Corrupt an ASCII grid by making its header claim *ncols* x *nrows* cells."""

    def edit(path):
        replace_line(0, f"ncols {ncols}".encode())(path)
        replace_line(1, f"nrows {nrows}".encode())(path)

    return edit


def run_args(scene_dir, out_dir, *extra):
    return [
        "run",
        "--set", f"depth_raster={scene_dir / 'dem.asc'}",
        "--set", f"rgb_mosaic={scene_dir / 'rgb.ppm'}",
        "--set", f"eval.gt_mask={scene_dir / 'gt_mask.asc'}",
        "--set", f"out_dir={out_dir}",
        "--set", "tile.patch=48",
        "--set", "tile.stride=24",
        *extra,
    ]


class TestRunCommand:
    def test_full_run_exits_zero_and_prints_report(self, scene_dir, tmp_path, capsys):
        code = main(run_args(scene_dir, tmp_path / "out"))
        captured = capsys.readouterr()
        assert code == 0
        doc = json.loads(captured.out)
        assert doc["iou"] > 0.9
        assert (tmp_path / "out" / "report.csv").exists()

    def test_logs_go_to_stderr_not_stdout(self, scene_dir, tmp_path, capsys):
        code = main(["fill",
                     "--set", f"depth_raster={scene_dir / 'dem.asc'}",
                     "--set", f"out_dir={tmp_path / 'out'}",
                     "--set", "tile.patch=48", "--set", "tile.stride=24"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == ""
        assert "filled" in captured.err

    def test_quiet_suppresses_info(self, scene_dir, tmp_path, capsys):
        code = main(["-q", "fill",
                     "--set", f"depth_raster={scene_dir / 'dem.asc'}",
                     "--set", f"out_dir={tmp_path / 'out'}",
                     "--set", "tile.patch=48", "--set", "tile.stride=24"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""

    def test_eval_command_prints_same_report_as_file(self, scene_dir, tmp_path, capsys):
        main(run_args(scene_dir, tmp_path / "out"))
        capsys.readouterr()
        code = main([
            "eval",
            "--set", f"eval.gt_mask={scene_dir / 'gt_mask.asc'}",
            "--set", f"out_dir={tmp_path / 'out'}",
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == (tmp_path / "out" / "report.json").read_text()


class TestExitCodes:
    def test_missing_input_path_is_a_usage_error(self, tmp_path, capsys):
        code = main(["fill",
                     "--set", "depth_raster=/no/such/file.asc",
                     "--set", f"out_dir={tmp_path / 'out'}"])
        captured = capsys.readouterr()
        assert code == 2
        assert "path does not exist" in captured.err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("filter.min_depth", "nan"),
            ("backend.timeout", "nan"),
            ("backend.timeout", "inf"),
            ("eval.label", "a,b"),
            ("backend.endpoint", "notaurl"),
            ("backend.endpoint", "ftp://127.0.0.1:9"),
            ("backend.endpoint", "http://"),
            ("backend.endpoint", "http://127.0.0.1:notaport"),
            ("depth_raster", "a directory"),
            ("rgb_mosaic", "a directory"),
            ("eval.gt_mask", "a directory"),
            ("eval.ignore_mask", "a directory"),
            ("out_dir", "a file"),
            ("tile.patch", "512"),
        ],
        ids=["nan-min-depth", "nan-timeout", "inf-timeout", "comma-label",
             "schemeless-endpoint", "ftp-endpoint", "hostless-endpoint",
             "bad-port-endpoint", "dir-depth-raster", "dir-rgb-mosaic", "dir-gt-mask",
             "dir-ignore-mask", "file-out-dir", "mosaic-patch-over-extent"],
    )
    def test_unusable_config_value_fails_before_any_stage(
        self, scene_dir, tmp_path, capsys, key, value
    ):
        out = tmp_path / "out"
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        value = {"a directory": str(scene_dir), "a file": str(taken)}.get(value, value)
        http = ["--set", "backend.kind=http", "--set", "backend.endpoint=http://127.0.0.1:9"]
        mosaic = ["--set", "fill.mode=mosaic"]  # a tiling the mosaic cannot hold
        extra = {"backend": http, "tile": mosaic}.get(key.split(".")[0], [])
        code = main(run_args(scene_dir, out, *extra, "--set", f"{key}={value}"))
        err = capsys.readouterr().err
        assert code == 2
        assert key in err
        assert "internal error" not in err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize(
        "command, under",
        [("fill", True), ("run", True), ("synth", False), ("synth", True)],
        ids=["fill-under-file", "run-under-file", "synth-file", "synth-under-file"],
    )
    def test_out_dir_on_a_file_is_a_usage_error(self, scene_dir, tmp_path, capsys, command, under):
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        out = taken / "sub" if under else taken
        if command == "synth":
            args = ["synth", "--seed", "1", "--width", "32", "--height", "32", "--n", "0",
                    "--out-dir", str(out)]
            named = "--out-dir"
        else:
            args = [command, *run_args(scene_dir, out)[1:]]
            named = "config key 'out_dir'"
        before = sorted(tmp_path.rglob("*"))
        code = main(args)
        err = capsys.readouterr().err
        assert code == 2
        assert f"{named}: not a directory: {taken}" in err
        assert "internal error" not in err
        assert sorted(tmp_path.rglob("*")) == before
        assert taken.read_text() == "not a directory\n"

    def test_unknown_config_key_is_a_usage_error(self, tmp_path, capsys):
        code = main(["fill", "--set", "tile.size=512"])
        captured = capsys.readouterr()
        assert code == 2
        assert "unknown config key" in captured.err

    def test_malformed_config_file_is_a_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("workers: 4\n")
        code = main(["fill", "--config", str(bad)])
        assert code == 2
        assert "line 1" in capsys.readouterr().err

    def test_missing_stage_artifact_is_a_usage_error(self, scene_dir, tmp_path, capsys):
        out = tmp_path / "out"
        for stage in ("prompts", "segment", "prompts"):
            code = main([stage, "--set", f"out_dir={out}",
                         "--set", f"rgb_mosaic={scene_dir / 'rgb.ppm'}"])
            captured = capsys.readouterr()
            assert code == 2
            assert "run the fill stage first" in captured.err
            # the failed stage leaves the out_dir as it found it: absent, then empty
            assert not out.exists() or list(out.iterdir()) == []
            out.mkdir(exist_ok=True)

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"width": 4, "hei', "not valid JSON"),
            ("[4, 4]\n", "expected a JSON object"),
            ('{"width": 4}\n', "missing height"),
            (manifest_text(width="1024"), "width must be an integer"),
            (manifest_text(patch=0), "patch must be >= 1"),
            (manifest_text(fill_mode="bogus"), "fill_mode must be one of"),
            (manifest_text(cellsize=None), "cellsize must be a finite number"),
        ],
        ids=["truncated", "not-an-object", "missing-keys", "string-width",
             "zero-patch", "unknown-fill-mode", "null-cellsize"],
    )
    def test_malformed_manifest_is_a_usage_error(self, tmp_path, capsys, text, message):
        out = tmp_path / "out"
        out.mkdir()
        (out / "manifest.json").write_text(text)
        code = main(["prompts", "--set", f"out_dir={out}"])
        captured = capsys.readouterr()
        assert code == 2
        assert message in captured.err
        assert "internal error" not in captured.err

    @pytest.mark.parametrize(
        "fill_mode, stage, message",
        [
            ("patch", "prompts", "r03984_c03984.depth.npz not found — run the fill stage first"),
            ("mosaic", "prompts", "depth.npz: depth is 96x96, expected 4000x4000"),
            ("patch", "segment", "rgb mosaic is 96x96 but the fill manifest says 4000x4000"),
        ],
        ids=["patch-prompts", "mosaic-prompts", "segment"],
    )
    def test_oversized_manifest_claim_is_refused_before_planning(
        self, scene_dir, tmp_path, capsys, fill_mode, stage, message
    ):
        """A claim larger than fill wrote is compared with a real file first:
        no window is planned and no mosaic allocated for it."""
        import tracemalloc

        out = tmp_path / "out"
        common = ["--set", f"out_dir={out}", "--set", f"fill.mode={fill_mode}",
                  "--set", "tile.patch=16", "--set", "tile.stride=16"]
        assert main(["fill", "--set", f"depth_raster={scene_dir / 'dem.asc'}", *common]) == 0
        manifest = out / "manifest.json"
        doc = json.loads(manifest.read_text())
        manifest.write_text(json.dumps({**doc, "width": 4000, "height": 4000}))
        capsys.readouterr()
        tracemalloc.start()
        try:
            code = main([stage, "--set", f"rgb_mosaic={scene_dir / 'rgb.ppm'}", *common])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert code == 2
        assert peak < 2_000_000, f"peak {peak / 1e6:.1f} MB"
        assert message in err

    @pytest.mark.parametrize(
        "fill_mode, stage, artifact, corrupt, message",
        [
            ("patch", "prompts", "patches/r00000_c00000.depth.npz", negate_first_cell,
             "depth raster contains negative values"),
            ("patch", "prompts", "patches/r00000_c00000.depth.npz", cut_to(20),
             "is 20x20, expected 48x48"),
            ("mosaic", "prompts", "depth.npz", cut_to(60), "is 60x60, expected 96x96"),
            ("patch", "prompts", "patches/r00000_c00000.depth.npz", truncate,
             "unreadable depth archive"),
            ("mosaic", "prompts", "depth.npz", ascii_grid, "unreadable depth archive"),
            ("patch", "prompts", "patches/r00000_c00000.depth.npz", bare_npy,
             "not an .npz archive"),
            ("mosaic", "prompts", "depth.npz", as_float32,
             "depth has dtype float32, expected float64"),
            ("patch", "prompts", "patches/r00000_c00000.depth.npz", add_axis,
             "depth has 3 dimensions, expected 2"),
            ("patch", "prompts", "patches/r00000_c00000.depth.npz", rename_member,
             "expected exactly one array 'depth', found ['values']"),
            ("mosaic", "prompts", "depth.npz", extra_member,
             "expected exactly one array 'depth', found ['depth', 'filled']"),
            ("patch", "prompts", "patches/r00000_c00000.depth.npz", object_array,
             "Object arrays cannot be loaded when allow_pickle=False"),
            ("patch", "prompts", "patches/r00000_c00000.depth.npz", huge_header,
             "r00000_c00000.depth.npz: depth is 1000000x1000000, expected 48x48"),
            ("patch", "prompts", "patches/r00000_c00000.depth.npz", raw_member,
             "unreadable depth archive (the magic string is not correct"),
            ("mosaic", "segment", "depth_filtered.npz", cut_to(60),
             "depth_filtered.npz: depth is 60x60, expected 96x96 — rerun the prompts stage"),
            ("patch", "segment", "depth_filtered.npz", huge_header,
             "depth_filtered.npz: depth is 1000000x1000000, expected 96x96"
             " — rerun the prompts stage"),
            ("patch", "segment", "patches/r00000_c00000.boxes.json", oversized_box,
             "exceeds patch 48x48"),
            ("patch", "segment", "patches/r00000_c00000.boxes.json", string_area,
             "'areas' entry 0 must be an integer"),
            ("patch", "segment", "patches/r00000_c00000.boxes.json", bool_coordinate,
             "box coordinate x0 must be an integer, got True"),
            ("patch", "segment", "patches/r00000_c00000.boxes.json", foreign_boxes,
             "patch_id 'r00000_c00024' does not match window 'r00000_c00000'"),
        ],
        ids=["negative-depth", "short-patch-depth", "short-mosaic-depth",
             "truncated-depth", "ascii-depth", "npy-depth", "float32-depth", "3d-depth",
             "no-depth-member", "extra-member", "object-depth", "huge-header-depth",
             "raw-member-depth", "short-filtered-depth", "huge-header-filtered-depth",
             "box-outside-patch", "string-area", "bool-coordinate", "foreign-boxes"],
    )
    def test_malformed_stage_artifact_is_a_usage_error(
        self, scene_dir, tmp_path, capsys, fill_mode, stage, artifact, corrupt, message
    ):
        out = tmp_path / "out"
        common = ["--set", f"out_dir={out}", "--set", f"fill.mode={fill_mode}",
                  "--set", "tile.patch=48", "--set", "tile.stride=24"]
        assert main(["fill", "--set", f"depth_raster={scene_dir / 'dem.asc'}", *common]) == 0
        if stage == "segment":
            assert main(["prompts", *common]) == 0
        corrupt(out / artifact)
        capsys.readouterr()
        code = main([stage, "--set", f"rgb_mosaic={scene_dir / 'rgb.ppm'}", *common])
        captured = capsys.readouterr()
        assert code == 2
        assert message in captured.err
        assert "internal error" not in captured.err

    @pytest.mark.parametrize(
        "artifact, reader, writer",
        [
            ("manifest.json", "prompts", "fill"),
            ("patches/r00000_c00000.depth.npz", "prompts", "fill"),
            ("patches/r00000_c00000.boxes.json", "segment", "prompts"),
            ("depth_filtered.npz", "segment", "prompts"),
            ("fused_mask.asc", "eval", "segment"),
        ],
        ids=["manifest", "depth", "boxes", "filtered-depth", "fused-mask"],
    )
    @pytest.mark.parametrize("damage", ["deleted", "truncated"])
    def test_upstream_artifact_gate(
        self, scene_dir, tmp_path, capsys, artifact, reader, writer, damage
    ):
        """Every stage reports a missing or broken upstream file the same way."""
        out = tmp_path / "out"
        args = run_args(scene_dir, out)
        assert main(args) == 0
        path = out / artifact
        if damage == "deleted":
            path.unlink()
        else:
            halve(path)
        capsys.readouterr()
        code = main([reader, *args[1:]])
        err = capsys.readouterr().err
        assert code == 2
        assert "internal error" not in err
        assert err.count(str(path)) == 1
        if damage == "deleted":
            assert f"{path} not found — run the {writer} stage first" in err
        else:
            assert f"{path}: " in err
            assert f" — rerun the {writer} stage" in err

    @pytest.mark.parametrize(
        "artifact, reader, writer",
        [
            ("manifest.json", "prompts", "fill"),
            ("patches/r00000_c00000.depth.npz", "prompts", "fill"),
            ("patches/r00000_c00000.boxes.json", "segment", "prompts"),
            ("depth_filtered.npz", "segment", "prompts"),
            ("fused_mask.asc", "eval", "segment"),
        ],
        ids=["manifest", "depth", "boxes", "filtered-depth", "fused-mask"],
    )
    def test_directory_in_place_of_an_artifact_is_a_usage_error(
        self, scene_dir, tmp_path, capsys, artifact, reader, writer
    ):
        out = tmp_path / "out"
        args = run_args(scene_dir, out)
        assert main(args) == 0
        path = out / artifact
        path.unlink()
        path.mkdir()
        capsys.readouterr()
        code = main([reader, *args[1:]])
        err = capsys.readouterr().err
        assert code == 2
        assert "internal error" not in err
        assert err.count(str(path)) == 1
        assert f"{path}: Is a directory — rerun the {writer} stage" in err

    @pytest.mark.parametrize(
        "target, corrupt, message",
        [
            ("dem", first_cell(b"\xff"), "not a text grid"),
            ("dem", first_cell(b"nan"), "data row 1, column 1: non-finite value nan"),
            ("dem", first_cell(b"-inf"), "data row 1, column 1: non-finite value -inf"),
            ("dem", replace_line(5, b"NODATA_value nan"),
             "header nodata_value must be finite, got nan"),
            ("dem", replace_line(2, b"xllcorner nan"), "header xllcorner must be finite, got nan"),
            ("dem", replace_line(4, b"cellsize inf"), "header cellsize must be finite, got inf"),
            ("gt", first_cell(b"\xff"), "not a text grid"),
            ("fused", first_cell(b"\xff"), "not a text grid"),
            ("dem", claim_size(10**6, 10**6),
             "line 7: cell count mismatch (expected 1000000 values, got 96)"),
        ],
        ids=["dem-not-utf8", "dem-nan-cell", "dem-inf-cell", "dem-nan-nodata",
             "dem-nan-xllcorner", "dem-inf-cellsize", "gt-not-utf8", "fused-not-utf8",
             "dem-oversized-header"],
    )
    def test_bad_grid_is_a_usage_error(self, scene_dir, tmp_path, capsys, target, corrupt, message):
        grids = tmp_path / "grids"
        shutil.copytree(scene_dir, grids)
        out = tmp_path / "out"
        args = run_args(grids, out)
        if target != "dem":
            assert main(args) == 0
        path = {"dem": grids / "dem.asc", "gt": grids / "gt_mask.asc",
                "fused": out / "fused_mask.asc"}[target]
        corrupt(path)
        capsys.readouterr()
        code = main(["fill" if target == "dem" else "eval", *args[1:]])
        err = capsys.readouterr().err
        assert code == 2
        assert f"{path}: " in err
        assert message in err
        assert "internal error" not in err

    def test_truncated_rgb_mosaic_is_a_usage_error(self, scene_dir, tmp_path, capsys):
        scene = tmp_path / "inputs"
        shutil.copytree(scene_dir, scene)
        rgb = scene / "rgb.ppm"
        rgb.write_bytes(b"P6\n96 96\n255\n")
        code = main(run_args(scene, tmp_path / "out"))
        err = capsys.readouterr().err
        assert code == 2
        assert f"{rgb}: truncated pixel data: expected 27648 bytes, got 0" in err
        assert "internal error" not in err

    @pytest.mark.parametrize("mode", ["patch", "mosaic"])
    def test_all_nodata_dem_is_a_usage_error(self, tmp_path, capsys, mode):
        write_ascii_grid(Raster(np.full((64, 64), -9999.0)), tmp_path / "void.asc")
        out = tmp_path / "out"
        code = main(["fill",
                     "--set", f"depth_raster={tmp_path / 'void.asc'}",
                     "--set", f"out_dir={out}",
                     "--set", f"fill.mode={mode}",
                     "--set", "tile.patch=32", "--set", "tile.stride=16"])
        err = capsys.readouterr().err
        assert code == 2
        assert "no drainage outlet" in err
        assert "internal error" not in err
        assert list(out.rglob("*.npz")) == [] and not (out / "manifest.json").exists()

    def test_unreachable_backend_is_an_operational_error(self, scene_dir, tmp_path, capsys):
        import socket

        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            free_port = s.getsockname()[1]
        out = tmp_path / "out"
        assert main([
            "fill",
            "--set", f"depth_raster={scene_dir / 'dem.asc'}",
            "--set", f"out_dir={out}",
            "--set", "tile.patch=48", "--set", "tile.stride=24",
        ]) == 0
        assert main(["prompts", "--set", f"out_dir={out}"]) == 0
        capsys.readouterr()
        code = main([
            "segment",
            "--set", f"rgb_mosaic={scene_dir / 'rgb.ppm'}",
            "--set", f"out_dir={out}",
            "--set", "backend.kind=http",
            "--set", f"backend.endpoint=http://127.0.0.1:{free_port}",
            "--set", "backend.retries=0",
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert "unreachable" in captured.err

    def test_whole_patch_reply_is_an_operational_error(self, scene_dir, tmp_path, capsys):
        out = tmp_path / "out"
        assert main([
            "fill",
            "--set", f"depth_raster={scene_dir / 'dem.asc'}",
            "--set", f"out_dir={out}",
            "--set", "tile.patch=48", "--set", "tile.stride=24",
        ]) == 0
        assert main(["prompts", "--set", f"out_dir={out}"]) == 0
        capsys.readouterr()
        with serving(canned(200, {"masks_pgm_b64": [], "scores": []})) as endpoint:
            code = main([
                "segment",
                "--set", f"rgb_mosaic={scene_dir / 'rgb.ppm'}",
                "--set", f"out_dir={out}",
                "--set", "backend.kind=http",
                "--set", f"backend.endpoint={endpoint}",
            ])
        captured = capsys.readouterr()
        assert code == 1
        assert "reply field 'masks_crop' missing or not a list" in captured.err
        assert not (out / "fused_mask.asc").exists()


class TestImportTime:
    def test_import_leaves_scipy_unloaded(self):
        """The CLI and the library load scipy only when a stage first needs it."""
        src = Path(__file__).resolve().parents[1] / "src"
        code = (
            "import sys; sys.path.insert(0, sys.argv[1]); "
            "import sinkseg, sinkseg.pipeline, sinkseg.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code, str(src)], capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"


    def test_import_leaves_requests_unloaded(self):
        """The http client library loads only when an http backend is built."""
        src = Path(__file__).resolve().parents[1] / "src"
        code = (
            "import sys; sys.path.insert(0, sys.argv[1]); "
            "import sinkseg, sinkseg.pipeline, sinkseg.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'requests'))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code, str(src)], capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"


class TestSynthCommand:
    def test_writes_scene_files(self, tmp_path, capsys):
        out = tmp_path / "scene"
        code = main(["synth", "--seed", "5", "--width", "80", "--height", "64",
                     "--n", "2", "--out-dir", str(out)])
        assert code == 0
        assert (out / "dem.asc").exists()
        assert (out / "rgb.ppm").exists()
        assert (out / "gt_mask.asc").exists()
        doc = json.loads((out / "truths.json").read_text())
        assert len(doc["sinkholes"]) == 2

    def test_flat_slope_option(self, tmp_path):
        out = tmp_path / "scene"
        code = main(["synth", "--seed", "5", "--width", "40", "--height", "40",
                     "--n", "0", "--out-dir", str(out), "--slope", "0"])
        assert code == 0
        dem = read_ascii_grid(out / "dem.asc")
        assert np.all(dem.values == 100.0)

    def test_impossible_packing_is_a_usage_error(self, tmp_path, capsys):
        code = main(["synth", "--seed", "1", "--width", "64", "--height", "64",
                     "--n", "20", "--out-dir", str(tmp_path / "s"),
                     "--radius-range", "10,10"])
        captured = capsys.readouterr()
        assert code == 2
        assert "could not place" in captured.err

    @pytest.mark.parametrize("arg, value, named", [
        ("--width", "0", "at least 1x1"),
        ("--height", "0", "at least 1x1"),
        ("--n", "-1", "n_sinkholes"),
        ("--depth-range", "5,1", "depth_range"),
        ("--radius-range", "0,0", "radius_range"),
        ("--noise-amp", "-1", "noise_amp"),
        ("--noise-amp", "inf", "noise_amp"),
        ("--noise-amp", "nan", "noise_amp"),
        ("--slope", "nan", "slope"),
        ("--slope", "inf", "slope"),
    ])
    def test_bad_argument_is_a_usage_error(self, tmp_path, capsys, arg, value, named):
        out = tmp_path / "s"
        code = main(["synth", "--seed", "1", "--width", "64", "--height", "64",
                     "--n", "1", "--out-dir", str(out), arg, value])
        err = capsys.readouterr().err
        assert code == 2
        assert named in err and "internal error" not in err
        assert not out.exists()

    def test_bad_range_syntax_is_an_argparse_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["synth", "--seed", "1", "--width", "64", "--height", "64",
                  "--n", "1", "--out-dir", str(tmp_path / "s"),
                  "--depth-range", "5"])
        assert "low,high" in capsys.readouterr().err
