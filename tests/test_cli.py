"""Command-line interface: exit codes, stdout/stderr discipline."""

import io
import json
import shutil
import subprocess
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest

from conftest import canned, serving, tree_digests
from sinkseg.cli import main
from sinkseg.raster import Raster, read_ascii_grid, write_ascii_grid, write_ascii_mask
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
           "origin_x": 0.0, "origin_y": 0.0, "cellsize": 1.0,
           "fill_mode": "patch", "invert_depth": False}
    return json.dumps({**doc, **overrides})


def first_array(path):
    """The array of the first member of the archive *path*."""
    with np.load(path) as archive:
        return archive[archive.files[0]]


def rewrite_first(write, at=0):
    """Corrupt an archive by storing ``write(archive, name, data)`` in place
    of its first member (or its member *at*), named *name* (``.npy``
    dropped) and holding the bytes *data*; the other members are copied as
    they are."""

    def rewrite(path):
        with zipfile.ZipFile(path) as archive:
            infos = archive.infolist()
            members = [(info.filename, archive.read(info)) for info in infos]
        with zipfile.ZipFile(path, "w") as archive:
            for k, (name, data) in enumerate(members):
                if k == at:
                    write(archive, name.removesuffix(".npy"), data)
                else:
                    archive.writestr(name, data)

    return rewrite


def edit_first(edit, at=0):
    """Corrupt an archive by storing ``edit(array)`` as its first member's
    array (or its member *at*'s)."""

    def write(archive, name, data):
        with archive.open(f"{name}.npy", "w") as member:
            np.lib.format.write_array(member, edit(np.load(io.BytesIO(data))))

    return rewrite_first(write, at)


def edit_max_depth(edit):
    """Corrupt a depressions archive by storing ``edit(vector)`` as the first
    window's maximum depths."""
    return edit_first(edit, at=1)


def with_first_value(value):
    """A vector edit that sets the first value of a copy to *value*."""

    def edit(vector):
        vector = vector.copy()
        vector[0] = value
        return vector

    return edit


def cut_to(side):
    return edit_first(lambda array: array[:side, :side])


def renamed(new_name):
    return rewrite_first(lambda archive, name, data: archive.writestr(f"{new_name}.npy", data))


def extra_member(path):
    def write(archive, name, data):
        archive.writestr(f"{name}.npy", data)
        archive.writestr("filled.npy", data)

    rewrite_first(write)(path)


def huge_header(descr):
    """An archive whose first member's header claims 10^6 x 10^6 *descr* over 16 bytes."""

    def write(archive, name, data):
        header = {"descr": descr, "fortran_order": False, "shape": (10**6, 10**6)}
        with archive.open(f"{name}.npy", "w") as member:
            np.lib.format.write_array_header_1_0(member, header)
            member.write(bytes(16))

    return rewrite_first(write)


def raw_member(path):
    """An archive whose first member, stored without ``.npy``, holds bytes
    that are not an ``.npy`` array."""
    rewrite_first(lambda archive, name, data: archive.writestr(name, b"not an npy member"))(path)


def npy_version_2(path):
    """An archive whose first member holds its array as a version 2.0 ``.npy``."""

    def write(archive, name, data):
        with archive.open(f"{name}.npy", "w") as member:
            np.lib.format.write_array(member, np.load(io.BytesIO(data)), version=(2, 0))

    rewrite_first(write)(path)


def raw_header(text):
    """An archive whose first member is the version 1.0 ``.npy`` header *text*
    and no data."""
    body = text.encode("latin1")
    member = b"\x93NUMPY\x01\x00" + len(body).to_bytes(2, "little") + body
    return rewrite_first(lambda archive, name, data: archive.writestr(f"{name}.npy", member))


def central_entry(offset, value):
    """Corrupt a one-member archive by setting the 2-byte field at *offset*
    of its central directory entry: 8 holds the flags, 10 the method."""

    def edit(path):
        data = bytearray(path.read_bytes())
        at = data.rindex(b"PK\x01\x02") + offset
        data[at : at + 2] = value.to_bytes(2, "little")
        path.write_bytes(bytes(data))

    return edit


def truncate(path):
    path.write_bytes(path.read_bytes()[:100])


def ascii_grid(path):
    write_ascii_grid(Raster(first_array(path)), path)


def bare_npy(path):
    array = first_array(path)
    with open(path, "wb") as fh:
        np.save(fh, array)


def box_line(number, text):
    """Corrupt a box file by replacing its line *number* (from 1) with *text*."""

    def edit(path):
        lines = path.read_text().splitlines(keepends=True)
        lines[number - 1] = text + "\n"
        path.write_text("".join(lines))

    return edit


def box_stats(areas="10", max_depths="2.5"):
    """Corrupt a box file by replacing its line 1 with one box whose area and
    max depth are the JSON literals *areas* and *max_depths*."""
    return box_line(1, f'{{"areas":[{areas}],"boxes":[[0,0,2,2]],"max_depths":[{max_depths}],'
                       f'"patch_id":"r00000_c00000"}}')


def box_lines(edit):
    """Corrupt a box file by writing ``edit(lines)`` in place of its lines."""

    def corrupt(path):
        path.write_text("".join(edit(path.read_text().splitlines(keepends=True))))

    return corrupt


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

    def test_config_file_with_a_byte_order_mark_runs(self, scene_dir, tmp_path):
        config = tmp_path / "bom.cfg"
        config.write_text(f"depth_raster = {scene_dir / 'dem.asc'}\n", encoding="utf-8-sig")
        assert main(["-q", *run_args(scene_dir, tmp_path / "out"), "--config", str(config)]) == 0

    def test_dem_without_its_nodata_line_gives_the_same_tree(self, scene_dir, tmp_path):
        """The ``NODATA_value`` line is optional; no cell holds its default."""
        lines = (scene_dir / "dem.asc").read_text().splitlines(keepends=True)
        assert lines[5] == "NODATA_value -9999.0\n"
        (scene_dir / "dem5.asc").write_text("".join(lines[:5] + lines[6:]))
        assert main(["-q", *run_args(scene_dir, tmp_path / "six")]) == 0
        assert main(["-q", *run_args(scene_dir, tmp_path / "five"),
                     "--set", f"depth_raster={scene_dir / 'dem5.asc'}"]) == 0
        assert tree_digests(tmp_path / "five") == tree_digests(tmp_path / "six")

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
            ("eval.label", "a\rb"),
            ("eval.label", '"a'),
            ("backend.endpoint", "notaurl"),
            ("backend.endpoint", "ftp://127.0.0.1:9"),
            ("backend.endpoint", "http://"),
            ("backend.endpoint", "http://127.0.0.1:notaport"),
            ("backend.endpoint", "http://127.0.0.1:9/api?k=v"),
            ("backend.endpoint", "http://127.0.0.1:9/api#frag"),
            ("backend.endpoint", "http://user:pw@127.0.0.1:9"),
            ("depth_raster", "a directory"),
            ("rgb_mosaic", "a directory"),
            ("eval.gt_mask", "a directory"),
            ("eval.ignore_mask", "a directory"),
            ("out_dir", "a file"),
            ("tile.patch", "512"),
        ],
        ids=["nan-min-depth", "nan-timeout", "inf-timeout", "comma-label", "cr-label",
             "quote-label",
             "schemeless-endpoint", "ftp-endpoint", "hostless-endpoint",
             "bad-port-endpoint", "query-endpoint", "fragment-endpoint", "userinfo-endpoint",
             "dir-depth-raster", "dir-rgb-mosaic", "dir-gt-mask",
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

    @pytest.mark.parametrize("kind", ["directory", "binary"])
    def test_unreadable_config_file_is_a_usage_error(self, tmp_path, capsys, kind):
        bad = tmp_path / "bad.cfg"
        if kind == "directory":
            bad.mkdir()
        else:
            bad.write_bytes(b"\xff")
        code = main(["fill", "--config", str(bad)])
        err = capsys.readouterr().err
        assert code == 2
        assert f"config file {bad}" in err
        assert "internal error" not in err

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
            (manifest_text(cellsize=0.0), "cellsize must be > 0, got 0.0"),
            (manifest_text(invert_depth="yes"), "invert_depth must be true or false, got 'yes'"),
            (manifest_text(origin_x=10**400), "origin_x must be a finite number"),
            ("[" * 100_000 + "]" * 100_000, "not valid JSON"),
        ],
        ids=["truncated", "not-an-object", "missing-keys", "string-width",
             "zero-patch", "unknown-fill-mode", "null-cellsize", "zero-cellsize",
             "string-invert-depth", "int-too-large-for-a-float", "nested-too-deep"],
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
            ("patch", "prompts", "depressions.npz: ends with ['r00080_c00080_max_depth'], but"
                                 " the manifest's last window is 'r03984_c03984' — rerun the"
                                 " fill stage"),
            ("mosaic", "prompts", "depressions.npz: ends with ['r00080_c00080_max_depth'], but"
                                  " the manifest's last window is 'r03984_c03984'"),
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
        "stage, side, artifact, message",
        [
            ("prompts", 10_000, "depressions.npz", "member r00000_c00000 does not hold the"
                                                   " 100000000 data bytes its header claims"
                                                   " — rerun the fill stage"),
            ("prompts", 60_000, "depressions.npz", "member r00000_c00000 does not hold the"
                                                   " 3600000000 data bytes its header claims"
                                                   " — rerun the fill stage"),
            ("eval", 100_000, "fused_mask.npz", "member mask does not hold the 10000000000 data"
                                                " bytes its header claims — rerun the segment stage"),
        ],
        ids=["depth-10000", "depth-60000", "fused-mask-100000"],
    )
    def test_forged_member_claim_reads_no_more_than_the_member_holds(
        self, scene_dir, tmp_path, capsys, stage, side, artifact, message
    ):
        """A manifest and a member header that agree on a huge array, over a
        member with no data, are refused having read only what is there.
        For prompts the manifest plans one window over the whole extent."""
        import tracemalloc

        out = tmp_path / "out"
        out.mkdir()
        if stage == "prompts":
            tiling = {"patch": side, "stride": side}
            names = ["r00000_c00000", "r00000_c00000_max_depth"]
        else:
            tiling, names = {}, ["mask"]
        (out / "manifest.json").write_text(
            manifest_text(width=side, height=side, fill_mode="mosaic", **tiling))
        header = io.BytesIO()
        np.lib.format.write_array_header_1_0(
            header, {"descr": "|b1", "fortran_order": False, "shape": (side, side)})
        with zipfile.ZipFile(out / artifact, "w", zipfile.ZIP_DEFLATED) as archive:
            archive.writestr(f"{names[0]}.npy", header.getvalue())
            for name in names[1:]:
                archive.writestr(f"{name}.npy", b"")
        capsys.readouterr()
        tracemalloc.start()
        try:
            code = main([stage, "--set", f"out_dir={out}",
                         "--set", f"eval.gt_mask={scene_dir / 'gt_mask.asc'}"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert code == 2
        assert peak < 5_000_000, f"peak {peak / 1e6:.1f} MB"
        assert message in err
        assert "internal error" not in err

    def test_forged_directory_size_allocates_nothing(self, tmp_path, capsys):
        """A member with no data whose header and archive directory entry
        both claim a 10000² bool array is refused before the array is
        allocated: no archive this small can inflate to that."""
        import tracemalloc

        out = tmp_path / "out"
        out.mkdir()
        (out / "manifest.json").write_text(
            manifest_text(width=10_000, height=10_000, patch=10_000, stride=10_000))
        header = io.BytesIO()
        np.lib.format.write_array_header_1_0(
            header, {"descr": "|b1", "fortran_order": False, "shape": (10_000, 10_000)})
        path = out / "depressions.npz"
        with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as archive:
            archive.writestr("r00000_c00000.npy", header.getvalue())
            archive.writestr("r00000_c00000_max_depth.npy", b"")
        data = bytearray(path.read_bytes())
        at = data.index(b"PK\x01\x02") + 24  # the first entry's uncompressed size
        data[at : at + 4] = (len(header.getvalue()) + 100_000_000).to_bytes(4, "little")
        path.write_bytes(bytes(data))
        capsys.readouterr()
        tracemalloc.start()
        try:
            code = main(["prompts", "--set", f"out_dir={out}"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert code == 2
        assert peak < 5_000_000, f"peak {peak / 1e6:.1f} MB"
        assert ("member r00000_c00000 does not hold the 100000000 data bytes"
                " its header claims") in err

    @pytest.mark.parametrize("fill_mode", ["patch", "mosaic"])
    def test_huge_max_depth_claim_allocates_nothing(self, scene_dir, tmp_path, capsys, fill_mode):
        """A window's maximum-depth vector whose header claims 10^12 values
        over no data is refused from its header, which must claim one value
        per component labelled in the window's cells."""
        import tracemalloc

        out = tmp_path / "out"
        common = ["--set", f"out_dir={out}", "--set", f"fill.mode={fill_mode}",
                  "--set", "tile.patch=48", "--set", "tile.stride=24"]
        assert main(["fill", "--set", f"depth_raster={scene_dir / 'dem.asc'}", *common]) == 0

        def claim(archive, name, data):
            with archive.open(f"{name}.npy", "w") as member:
                np.lib.format.write_array_header_1_0(
                    member, {"descr": "<f8", "fortran_order": False, "shape": (10**12,)})

        rewrite_first(claim, at=1)(out / "depressions.npz")
        capsys.readouterr()
        tracemalloc.start()
        try:
            code = main(["prompts", *common])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert code == 2
        assert peak < 5_000_000, f"peak {peak / 1e6:.1f} MB"
        assert (f"{out / 'depressions.npz'}: r00000_c00000_max_depth holds 1000000000000 values,"
                f" expected 1 — rerun the fill stage") in err
        assert "internal error" not in err

    @pytest.mark.parametrize(
        "fill_mode, claim, message",
        [
            ("patch", {"width": 48, "height": 48},
             "depressions.npz: ends with ['r00048_c00048_max_depth'], but the manifest's last"
             " window is 'r00032_c00032' — rerun the fill stage"),
            ("patch", {"stride": 8},
             "depressions.npz: array 3 is 'r00000_c00016', expected 'r00000_c00008'"
             " — rerun the fill stage"),
            ("mosaic", {"width": 48, "height": 48},
             "depressions.npz: ends with ['r00048_c00048_max_depth'], but the manifest's last"
             " window is 'r00032_c00032' — rerun the fill stage"),
        ],
        ids=["patch-smaller-extent", "patch-other-stride", "mosaic-smaller-extent"],
    )
    def test_manifest_that_fill_did_not_write_is_refused(self, tmp_path, capsys, fill_mode,
                                                         claim, message):
        """A manifest edited after the fill, to a smaller extent or to another
        tiling of the same extent, does not match the depressions archive."""
        scene = tmp_path / "scene"
        export_scene(gen_terrain(seed=3, width=64, height=64, n_sinkholes=2,
                                 radius_range=(4.0, 6.0)), scene)
        out = tmp_path / "out"
        common = ["--set", f"out_dir={out}", "--set", f"fill.mode={fill_mode}",
                  "--set", "tile.patch=16", "--set", "tile.stride=16"]
        assert main(["fill", "--set", f"depth_raster={scene / 'dem.asc'}", *common]) == 0
        manifest = out / "manifest.json"
        manifest.write_text(json.dumps({**json.loads(manifest.read_text()), **claim}))
        capsys.readouterr()
        code = main(["prompts", "--set", f"out_dir={out}"])
        err = capsys.readouterr().err
        assert code == 2
        assert message in err
        assert not (out / "boxes.jsonl").exists()

    @pytest.mark.parametrize(
        "fill_mode, stage, artifact, corrupt, message",
        [
            ("patch", "prompts", "depressions.npz", edit_max_depth(with_first_value(-1.0)),
             "depressions.npz: member r00000_c00000_max_depth: component 1's max depth is -1.0,"
             " expected a finite value > 0 — rerun the fill stage"),
            ("patch", "prompts", "depressions.npz", edit_max_depth(with_first_value(np.nan)),
             "depressions.npz: member r00000_c00000_max_depth: component 1's max depth is nan"),
            ("mosaic", "prompts", "depressions.npz", edit_max_depth(with_first_value(np.inf)),
             "depressions.npz: member r00000_c00000_max_depth: component 1's max depth is inf"),
            ("patch", "prompts", "depressions.npz", edit_max_depth(with_first_value(0.0)),
             "depressions.npz: member r00000_c00000_max_depth: component 1's max depth is 0.0"),
            ("patch", "prompts", "depressions.npz", edit_max_depth(lambda v: np.append(v, 1.0)),
             "depressions.npz: r00000_c00000_max_depth holds 2 values, expected 1"
             " — rerun the fill stage"),
            ("mosaic", "prompts", "depressions.npz", edit_max_depth(lambda v: v[:0]),
             "depressions.npz: r00000_c00000_max_depth holds 0 values, expected 1"),
            ("patch", "prompts", "depressions.npz", edit_max_depth(lambda v: v[np.newaxis]),
             "depressions.npz: r00000_c00000_max_depth has 2 dimensions, expected 1"),
            ("patch", "prompts", "depressions.npz", cut_to(20),
             "depressions.npz: r00000_c00000 is 20x20, expected 48x48"),
            ("mosaic", "prompts", "depressions.npz", cut_to(30),
             "r00000_c00000 is 30x30, expected 48x48"),
            ("patch", "prompts", "depressions.npz", truncate,
             "depressions.npz: unreadable archive"),
            ("mosaic", "prompts", "depressions.npz", ascii_grid,
             "unreadable archive (File is not a zip file)"),
            ("patch", "prompts", "depressions.npz", bare_npy,
             "unreadable archive (File is not a zip file)"),
            ("mosaic", "prompts", "depressions.npz", edit_max_depth(lambda v: v.astype(np.float32)),
             "r00000_c00000_max_depth has dtype float32, expected float64"),
            ("patch", "prompts", "depressions.npz", edit_first(lambda a: a[np.newaxis]),
             "r00000_c00000 has 3 dimensions, expected 2"),
            ("patch", "prompts", "depressions.npz", renamed("values"),
             "array 1 is 'values', expected 'r00000_c00000'"),
            ("mosaic", "prompts", "depressions.npz", extra_member,
             "array 2 is 'filled', expected 'r00000_c00000_max_depth'"),
            ("patch", "prompts", "depressions.npz",
             edit_first(lambda a: np.full(a.shape, None, dtype=object)),
             "r00000_c00000 has dtype object, expected bool"),
            ("patch", "prompts", "depressions.npz", huge_header("|b1"),
             "depressions.npz: r00000_c00000 is 1000000x1000000, expected 48x48"),
            ("patch", "prompts", "depressions.npz", raw_member,
             "unreadable member r00000_c00000 (the magic string is not correct"),
            # numpy reads Python 2's longs only through a repair that may raise
            # tokenize.TokenError or warn
            ("mosaic", "prompts", "depressions.npz",
             raw_header("{'descr': '|b1', 'fortran_order': False, 'shape': (48L, 48L), }\n"),
             "depressions.npz: member r00000_c00000 has a header that is no Python literal"),
            ("mosaic", "segment", "kept_mask.npz", cut_to(60),
             "kept_mask.npz: mask is 60x60, expected 96x96 — rerun the prompts stage"),
            ("patch", "segment", "kept_mask.npz", huge_header("|b1"),
             "kept_mask.npz: mask is 1000000x1000000, expected 96x96"
             " — rerun the prompts stage"),
            ("patch", "segment", "kept_mask.npz", central_entry(8, 0x01),
             "kept_mask.npz: member mask is not a plain stored or deflated member"
             " (method 8, flags 0x1) — rerun the prompts stage"),
            ("patch", "segment", "kept_mask.npz", edit_first(lambda a: a.astype(np.uint8)),
             "kept_mask.npz: mask has dtype uint8, expected bool — rerun the prompts stage"),
            ("mosaic", "segment", "kept_mask.npz", renamed("depth"),
             "kept_mask.npz: array 1 is 'depth', expected 'mask' — rerun the prompts stage"),
            ("patch", "segment", "boxes.jsonl",
             box_line(1, '{"boxes":[[40,40,60,60]],"patch_id":"r00000_c00000"}'),
             "boxes.jsonl: line 1: box [40, 40, 60, 60] exceeds patch 48x48"),
            ("patch", "segment", "boxes.jsonl",
             box_line(2, '{"areas":["x"],"boxes":[[0,0,2,2]],"patch_id":"r00000_c00024"}'),
             "boxes.jsonl: line 2: 'areas' entry 0 must be an integer"),
            ("patch", "segment", "boxes.jsonl",
             box_line(2, '{"boxes":[[true,0,2,2]],"patch_id":"r00000_c00024"}'),
             "boxes.jsonl: line 2: box 0 invalid: box coordinate x0 must be an integer, got True"),
            ("patch", "segment", "boxes.jsonl", box_stats(max_depths="1" + "0" * 400),
             "boxes.jsonl: line 1: 'max_depths' entry 0 is too large for a float"
             " — rerun the prompts stage"),
            ("patch", "segment", "boxes.jsonl", box_stats(max_depths="NaN"),
             "boxes.jsonl: line 1: 'max_depths' entry 0 must be finite, got nan"),
            ("patch", "segment", "boxes.jsonl", box_stats(max_depths="-Infinity"),
             "boxes.jsonl: line 1: 'max_depths' entry 0 must be finite, got -inf"),
            ("patch", "segment", "boxes.jsonl", box_stats(max_depths="1e999"),
             "boxes.jsonl: line 1: 'max_depths' entry 0 must be finite, got inf"),
            ("patch", "segment", "boxes.jsonl", box_stats(max_depths="-2.5"),
             "boxes.jsonl: line 1: 'max_depths' entry 0 must be >= 0, got -2.5"),
            ("patch", "segment", "boxes.jsonl", box_stats(areas="-3"),
             "boxes.jsonl: line 1: 'areas' entry 0 must be >= 0, got -3"),
            ("patch", "segment", "boxes.jsonl", box_line(2, "[" * 100_000 + "]" * 100_000),
             "boxes.jsonl: line 2: prompts file is not valid JSON"),
            ("patch", "segment", "boxes.jsonl",
             box_lines(lambda lines: [lines[1], lines[0], *lines[2:]]),
             "boxes.jsonl: line 1 is 'r00000_c00024', expected 'r00000_c00000'"),
            ("mosaic", "segment", "boxes.jsonl", box_lines(lambda lines: lines[:-1]),
             "boxes.jsonl: holds 8 lines, expected 9"),
            ("patch", "segment", "boxes.jsonl", box_lines(lambda lines: [*lines, lines[-1]]),
             "boxes.jsonl: holds 10 lines, expected 9"),
            ("patch", "eval", "fused_mask.npz", edit_first(lambda a: a.astype(np.uint8)),
             "fused_mask.npz: mask has dtype uint8, expected bool — rerun the segment stage"),
            ("mosaic", "eval", "fused_mask.npz", renamed("depth"),
             "fused_mask.npz: array 1 is 'depth', expected 'mask' — rerun the segment stage"),
            ("patch", "eval", "fused_mask.npz", cut_to(60),
             "fused_mask.npz: mask is 60x60, expected 96x96 — rerun the segment stage"),
            ("mosaic", "eval", "fused_mask.npz", huge_header("|b1"),
             "fused_mask.npz: mask is 1000000x1000000, expected 96x96"
             " — rerun the segment stage"),
            ("patch", "eval", "fused_mask.npz", central_entry(10, 99),
             "fused_mask.npz: member mask is not a plain stored or deflated member"
             " (method 99, flags 0x0) — rerun the segment stage"),
            # too deep for the parser: a RecursionError on Python 3.11
            ("patch", "eval", "fused_mask.npz", raw_header("1+" * 4990 + "1"), "member mask"),
            ("mosaic", "prompts", "depressions.npz", npy_version_2,
             "depressions.npz: member r00000_c00000 is not a version 1.0 .npy array"
             " — rerun the fill stage"),
        ],
        ids=["negative-depth", "nan-depth", "inf-depth", "zero-depth", "long-max-depth",
             "short-max-depth", "2d-max-depth", "short-patch-depth", "short-mosaic-depth",
             "truncated-depth", "ascii-depth", "npy-depth", "float32-depth", "3d-depth",
             "no-depth-member", "extra-member", "object-depth", "huge-header-depth",
             "raw-member-depth", "python2-header-depth", "short-kept-mask",
             "huge-header-kept-mask", "encrypted-kept-mask", "uint8-kept-mask",
             "depth-member-kept-mask",
             "box-outside-patch", "string-area", "bool-coordinate", "huge-int-max-depth",
             "nan-max-depth", "infinite-max-depth", "overflowing-max-depth",
             "negative-max-depth", "negative-area", "nested-too-deep-boxes",
             "swapped-boxes",
             "missing-boxes", "extra-boxes", "uint8-fused-mask", "depth-member-fused-mask",
             "short-fused-mask", "huge-header-fused-mask", "aes-fused-mask", "deep-header",
             "npy-version-2-depth"],
    )
    def test_malformed_stage_artifact_is_a_usage_error(
        self, scene_dir, tmp_path, capsys, fill_mode, stage, artifact, corrupt, message
    ):
        out = tmp_path / "out"
        common = ["--set", f"out_dir={out}", "--set", f"fill.mode={fill_mode}",
                  "--set", "tile.patch=48", "--set", "tile.stride=24"]
        inputs = ["--set", f"rgb_mosaic={scene_dir / 'rgb.ppm'}",
                  "--set", f"eval.gt_mask={scene_dir / 'gt_mask.asc'}"]
        assert main(["fill", "--set", f"depth_raster={scene_dir / 'dem.asc'}", *common]) == 0
        upstream = {"prompts": [], "segment": ["prompts"], "eval": ["prompts", "segment"]}
        for before in upstream[stage]:
            assert main([before, *inputs, *common]) == 0
        corrupt(out / artifact)
        capsys.readouterr()
        code = main([stage, *inputs, *common])
        captured = capsys.readouterr()
        assert code == 2
        assert message in captured.err
        assert "internal error" not in captured.err

    @pytest.mark.parametrize(
        "artifact, reader, writer",
        [
            ("manifest.json", "prompts", "fill"),
            ("depressions.npz", "prompts", "fill"),
            ("boxes.jsonl", "segment", "prompts"),
            ("kept_mask.npz", "segment", "prompts"),
            ("fused_mask.npz", "eval", "segment"),
        ],
        ids=["manifest", "depth", "boxes", "kept-mask", "fused-mask"],
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
            ("depressions.npz", "prompts", "fill"),
            ("boxes.jsonl", "segment", "prompts"),
            ("kept_mask.npz", "segment", "prompts"),
            ("fused_mask.npz", "eval", "segment"),
        ],
        ids=["manifest", "depth", "boxes", "kept-mask", "fused-mask"],
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

    @pytest.mark.parametrize("artifact, stage, stride", [
        ("depressions.npz", "prompts", 29),
        ("kept_mask.npz", "segment", 1),
        ("fused_mask.npz", "eval", 1),
    ])
    def test_flipped_archive_byte_is_read_or_refused(self, tmp_path, capsys, artifact, stage,
                                                     stride):
        """Each byte of *artifact* at a multiple of *stride*, XORed with 0x01,
        0x80 or 0xFF by turns: the stage that reads it exits 0 or 2, never 1."""
        scene = tmp_path / "scene"
        export_scene(gen_terrain(3, 64, 64, 2, radius_range=(4.0, 8.0)), scene)
        out = tmp_path / "out"
        args = ["--set", f"out_dir={out}", "--set", "tile.patch=32", "--set", "tile.stride=16",
                "--set", f"depth_raster={scene / 'dem.asc'}",
                "--set", f"rgb_mosaic={scene / 'rgb.ppm'}",
                "--set", f"eval.gt_mask={scene / 'gt_mask.asc'}"]
        assert main(["--quiet", "run", *args]) == 0
        path = out / artifact
        good = path.read_bytes()
        codes = {}
        for count, at in enumerate(range(0, len(good), stride)):
            bits = (0x01, 0x80, 0xFF)[count % 3]
            path.write_bytes(good[:at] + bytes([good[at] ^ bits]) + good[at + 1 :])
            codes[at, bits] = main(["--quiet", stage, *args])
        capsys.readouterr()
        assert {flip: code for flip, code in codes.items() if code not in (0, 2)} == {}
        assert 2 in codes.values()

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
            ("dem", claim_size(10**6, 10**6),
             "line 7: cell count mismatch (expected 1000000 values, got 96)"),
        ],
        ids=["dem-not-utf8", "dem-nan-cell", "dem-inf-cell", "dem-nan-nodata",
             "dem-nan-xllcorner", "dem-inf-cellsize", "gt-not-utf8", "dem-oversized-header"],
    )
    def test_bad_grid_is_a_usage_error(self, scene_dir, tmp_path, capsys, target, corrupt, message):
        grids = tmp_path / "grids"
        shutil.copytree(scene_dir, grids)
        out = tmp_path / "out"
        args = run_args(grids, out)
        if target != "dem":
            assert main(args) == 0
        path = {"dem": grids / "dem.asc", "gt": grids / "gt_mask.asc"}[target]
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

    def test_rgb_mosaic_with_a_byte_after_its_pixels_is_a_usage_error(self, scene_dir, tmp_path,
                                                                       capsys):
        scene = tmp_path / "inputs"
        shutil.copytree(scene_dir, scene)
        rgb = scene / "rgb.ppm"
        rgb.write_bytes(rgb.read_bytes() + b"\0")
        code = main(run_args(scene, tmp_path / "out"))
        err = capsys.readouterr().err
        assert code == 2
        assert f"{rgb}: trailing bytes after pixel data: expected 27648 bytes, got 27649" in err
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

    def test_inverting_an_all_nodata_dem_is_a_usage_error(self, tmp_path, capsys):
        write_ascii_grid(Raster(np.full((64, 64), -9999.0)), tmp_path / "void.asc")
        out = tmp_path / "out"
        code = main(["fill",
                     "--set", f"depth_raster={tmp_path / 'void.asc'}",
                     "--set", f"out_dir={out}",
                     "--set", "invert_depth=true",
                     "--set", "tile.patch=32", "--set", "tile.stride=16"])
        err = capsys.readouterr().err
        assert code == 2
        assert "invert_depth: all cells are nodata" in err
        assert "internal error" not in err
        assert not out.exists()

    def test_ignore_mask_of_another_shape_is_a_usage_error(self, scene_dir, tmp_path, capsys):
        write_ascii_mask(np.zeros((96, 95), dtype=bool), tmp_path / "ignore.asc",
                         (0.0, 0.0, 1.0))
        out = tmp_path / "out"
        ignore = f"eval.ignore_mask={tmp_path / 'ignore.asc'}"
        code = main(run_args(scene_dir, out, "--set", ignore))
        err = capsys.readouterr().err
        assert code == 2
        assert "ignore mask dimensions do not match ground truth" in err
        assert "internal error" not in err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("key", ["depth_raster", "rgb_mosaic", "eval.gt_mask",
                                     "eval.ignore_mask", "out_dir"])
    def test_input_the_process_cannot_read_is_a_usage_error(
        self, scene_dir, tmp_path, capsys, monkeypatch, key
    ):
        """An input (or the out_dir) that ``open`` refuses with a
        PermissionError exits 2 naming its path.  The tests may run as root,
        which chmod does not stop, so ``open`` is patched."""
        import builtins
        import errno

        out = tmp_path / "out"
        out.mkdir()
        ignore = tmp_path / "ignore.asc"
        write_ascii_mask(np.zeros((96, 96), dtype=bool), ignore, (0.0, 0.0, 1.0))
        paths = {"depth_raster": scene_dir / "dem.asc", "rgb_mosaic": scene_dir / "rgb.ppm",
                 "eval.gt_mask": scene_dir / "gt_mask.asc", "eval.ignore_mask": ignore,
                 "out_dir": out}
        refused = str(paths[key])
        real_open = io.open

        def refusing(file, *args, **kwargs):
            if str(file).startswith(refused):
                raise PermissionError(errno.EACCES, "Permission denied", str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", refusing)
        monkeypatch.setattr(io, "open", refusing)
        code = main(run_args(scene_dir, out, "--set", f"eval.ignore_mask={ignore}"))
        err = capsys.readouterr().err
        assert code == 2
        named = str(out / "depressions.npz") if key == "out_dir" else refused  # the first write
        assert f"Permission denied: '{named}'" in err
        assert ".tmp" not in err
        assert "internal error" not in err

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
        assert not (out / "fused_mask.npz").exists()


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

    def test_import_loads_no_submodule(self):
        """The package re-exports nothing: ``import sinkseg`` loads none of
        its modules, and no numpy."""
        src = Path(__file__).resolve().parents[1] / "src"
        code = (
            "import sys; sys.path.insert(0, sys.argv[1]); import sinkseg; "
            "print(sorted(m for m in sys.modules "
            "if m.startswith('sinkseg.') or m.split('.')[0] == 'numpy'))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code, str(src)], capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"


    @pytest.fixture()
    def run_128(self, tmp_path):
        """The arguments of an echo run over a 128x128 scene, by out dir."""
        scene = tmp_path / "scene"
        export_scene(gen_terrain(seed=5, width=128, height=128, n_sinkholes=4,
                                 radius_range=(6.0, 10.0)), scene)
        return lambda out: ["-q", *run_args(scene, tmp_path / out, "--set", "tile.patch=64",
                                            "--set", "tile.stride=32")]

    @staticmethod
    def run_fresh(
        prelude: str, args: list[str], package: str = "scipy"
    ) -> subprocess.CompletedProcess:
        """``sinkseg`` *args* in a fresh interpreter, after *prelude*; the
        modules of *package* loaded by the end are printed on stderr."""
        src = Path(__file__).resolve().parents[1] / "src"
        code = (
            f"import sys; sys.path.insert(0, sys.argv[1]); {prelude}; "
            "from sinkseg.cli import main; code = main(sys.argv[2:]); "
            f"print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}), "
            "file=sys.stderr); "
            "sys.exit(code)"
        )
        return subprocess.run([sys.executable, "-c", code, str(src), *args],
                              capture_output=True, text=True)

    def test_a_run_loads_no_scipy(self, run_128):
        out = self.run_fresh("pass", run_128("out"))
        assert out.returncode == 0, out.stderr
        assert out.stderr.strip() == "[]"
        assert json.loads(out.stdout)["iou"] > 0.9

    def test_a_run_needs_no_scipy(self, run_128, capsys):
        """With scipy unimportable, a run exits 0 and prints the same report."""
        out = self.run_fresh("sys.modules['scipy'] = None", run_128("blocked"))
        assert out.returncode == 0, out.stderr
        assert main(run_128("out")) == 0
        assert out.stdout == capsys.readouterr().out

    def test_an_http_run_loads_no_requests(self, run_128):
        """An http run posts through the standard library: against a mock
        service in the same interpreter it exits 0 with no ``requests``
        module loaded, and importing the package loads no http client."""
        prelude = (
            "import sinkseg, sinkseg.pipeline, sinkseg.cli; "
            "assert 'http.client' not in sys.modules, 'the import loaded http.client'; "
            "from sinkseg.mock_server import MockSegmentServer; "
            "server = MockSegmentServer(mode='boxfill').start(); "
            "sys.argv += ['--set', 'backend.kind=http', "
            "'--set', 'backend.endpoint=' + server.endpoint]"
        )
        out = self.run_fresh(prelude, run_128("out"), package="requests")
        assert out.returncode == 0, out.stderr
        assert out.stderr.strip() == "[]"
        assert json.loads(out.stdout)["f1"] > 0.5


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

    def test_default_options_are_the_library_defaults(self, tmp_path):
        args = ["synth", "--seed", "5", "--width", "96", "--height", "80", "--n", "2"]
        assert main([*args, "--out-dir", str(tmp_path / "default")]) == 0
        assert main([*args, "--out-dir", str(tmp_path / "spelled"), "--depth-range", "3,8",
                     "--radius-range", "8,24", "--slope", "0.0002"]) == 0
        for name in ("dem.asc", "rgb.ppm", "gt_mask.asc", "truths.json"):
            assert (tmp_path / "default" / name).read_bytes() == (
                tmp_path / "spelled" / name).read_bytes()
        dem, gt = ((tmp_path / "default" / name).read_text().splitlines()[:5]
                   for name in ("dem.asc", "gt_mask.asc"))
        assert gt == dem  # the ground truth is placed on the DEM's grid

    def test_flat_slope_option(self, tmp_path):
        out = tmp_path / "scene"
        code = main(["synth", "--seed", "5", "--width", "40", "--height", "40",
                     "--n", "0", "--out-dir", str(out), "--slope", "0"])
        assert code == 0
        dem = read_ascii_grid(out / "dem.asc")
        assert np.all(dem.values == 100.0)

    def test_one_column_scene(self, tmp_path):
        out = tmp_path / "scene"
        assert main(["synth", "--seed", "1", "--width", "1", "--height", "5",
                     "--n", "0", "--out-dir", str(out)]) == 0
        assert (out / "rgb.ppm").read_bytes().startswith(b"P6\n1 5\n255\n")

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
