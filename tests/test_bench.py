"""The benchmark harness's view of a run: ``bench/rep.py run --trace``.

The tracer wraps sinkseg's public layer functions by name, so it counts only
what the pipeline really calls through them.  Each traced run goes in a
subprocess, because installing the tracer patches sinkseg and ``requests``
for the whole interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import tree_digests
from sinkseg.config import load_config
from sinkseg.pipeline import cmd_run
from sinkseg.synth import export_scene, gen_terrain

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("scene")
    export_scene(gen_terrain(seed=5, width=64, height=64, n_sinkholes=2,
                             radius_range=(6.0, 9.0)), d)
    return d


@pytest.mark.parametrize("mode", ["patch", "mosaic"])
def test_traced_run_counts_labelling_and_matching(scene_dir, tmp_path, mode):
    settings = [
        f"depth_raster={scene_dir / 'dem.asc'}",
        f"rgb_mosaic={scene_dir / 'rgb.ppm'}",
        f"eval.gt_mask={scene_dir / 'gt_mask.asc'}",
        f"fill.mode={mode}",
        "tile.patch=32",
        "tile.stride=16",
    ]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "rep.py"), "run", "--trace",
         *settings, f"out_dir={tmp_path / 'traced'}"],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    layers = json.loads(proc.stdout.strip().splitlines()[-1])["layers"]
    for key in ("labeling.components", "labeling.kept", "labeling.boxes",
                "metrics.detection_curve_s", "segmenter.segment_patch_s",
                "segmenter.boxes_sent"):
        assert layers[key] > 0, key

    cmd_run(load_config(None, [*settings, f"out_dir={tmp_path / 'plain'}"]))
    assert tree_digests(tmp_path / "traced") == tree_digests(tmp_path / "plain")
