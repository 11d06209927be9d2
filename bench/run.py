"""sinkseg benchmark: seeded workloads run end to end through the pipeline API.

Usage::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Run it from the root of a sinkseg checkout: sinkseg is imported from ``src/``
there and scratch files go to ``.bench_work/``, which is removed on exit.
Workloads, metrics and their bounds are declared in ``BENCHMARK.json``; the
README next to this file says why each workload exists.

Set-up, not timed: the workload's scene is generated with ``gen_terrain``,
turned by the symmetry of the square that ``--seed`` picks, and written with
``export_scene``, so the pipeline sees only the exported files.  ``setup_s``
is the median wall time of fresh interpreters that import sinkseg, build the
config and construct the backend; half of them run before the repetitions and
half after, so that the median spans the whole run.

Measurement: repetitions of ``cmd_run``, one at a time, each in a fresh
interpreter on a fresh ``out_dir``, until ``--seconds`` have passed and at
least two were made.  For ``backend.kind=http`` a mock segmentation server
runs in a child process of its own, started and answering before the
repetition starts.  A repetition fails if it raises, exits non-zero, or its
output differs: every out tree of a run must be byte-identical, and the report
must equal the pinned pixel F1 and IoU-0.5 object counts.  The first failed
repetition ends the run.  With ``--trace 0`` the result carries
the end-to-end metrics.  With ``--trace 1`` it makes one untraced and one
traced repetition, plus one traced fill pass at the other worker count, and
carries the per-layer metrics.

The last line of stdout is the result, ``{"correct", "attempted", "failed",
"metrics"}``; the line before it records the environment and every
repetition.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, replace
from importlib import metadata, util
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_SPAWNS = 8  # before the repetitions, and as many again after them
MIN_REPETITIONS = 2  # so that the out-tree comparison always has a pair
DEADLINE_S = 170.0  # a run must end within 180 s
SERVER_START_S = 20.0


@dataclass(frozen=True)
class Workload:
    """A synthetic scene plus pipeline settings, and the report it must give."""

    scene_seed: int
    n_pits: int
    noise_amp: float
    settings: tuple[str, ...]
    expected_f1: float  # pixel F1 to 4 decimals, under every orientation
    expected_objects: tuple[int, int, int]  # (tp, fp, fn) at IoU 0.5, ditto
    radius_range: tuple[float, float] = (8.0, 24.0)

    @property
    def http(self) -> bool:
        return "backend.kind=http" in self.settings

    @property
    def workers(self) -> int:
        return int(next(s for s in self.settings if s.startswith("workers=")).split("=")[1])


# All 1024x1024 with the default tile (512/256) and filter (depth 2.0, 50 px).
WORKLOADS = {
    # Single-thread baseline: per-window fill and per-patch ASCII I/O dominate,
    # and the noise makes hundreds of shallow components to label and filter.
    "noisy-patch": Workload(42, 12, 0.5, ("fill.mode=patch", "workers=1"), 0.1546, (5, 7, 7)),
    # The README quick-start scene; the only workload whose per-patch pool
    # fills in parallel, so thread or process scaling shows here.
    "flat-patch-w2": Workload(42, 12, 0.0, ("fill.mode=patch", "workers=2"), 0.9823, (12, 0, 0)),
    # One fill over the whole mosaic, 779 boxes over the http client to a mock
    # server process, and 355 predicted x 600 true components to match.
    "crowded-http": Workload(
        7,
        600,
        0.0,
        ("fill.mode=mosaic", "workers=2", "backend.kind=http", "backend.max_inflight=2"),
        0.7736,
        (355, 0, 245),
        radius_range=(3.0, 6.0),
    ),
}


class Failure(Exception):
    """A repetition that raised, exited non-zero, timed out or gave wrong output."""


def orient(scene, k: int):
    """The square *scene* under the k-th of the 8 symmetries of the square.

    Bit 2 of *k* transposes, bits 0-1 count quarter turns.  The default tiling
    of a 1024-pixel side is symmetric too, so the pipeline's report is the same
    under every orientation while the input bytes differ.
    """
    import numpy as np
    from sinkseg.image import RGBImage
    from sinkseg.labeling import PromptBox
    from sinkseg.raster import BinaryMask

    def turn(a):
        if k & 4:
            a = np.swapaxes(a, 0, 1)
        return np.ascontiguousarray(np.rot90(a, k & 3))

    side = scene.dem.width
    if scene.dem.height != side:
        raise ValueError("only square scenes can be turned")
    moved_to = np.empty(side * side, dtype=np.int64)
    moved_to[turn(np.arange(side * side).reshape(side, side)).ravel()] = np.arange(side * side)

    def move(r: int, c: int) -> tuple[int, int]:
        return divmod(int(moved_to[r * side + c]), side)

    truths = []
    for truth in scene.truths:
        pixels = frozenset(move(r, c) for r, c in truth.pixels)
        rows = [r for r, _ in pixels]
        cols = [c for _, c in pixels]
        bbox = PromptBox(min(cols), min(rows), max(cols) + 1, max(rows) + 1)
        truths.append(replace(truth, pixels=pixels, bbox=bbox))
    pits = []
    for pit in scene.pits:
        row, col = move(pit.center_row, pit.center_col)
        pits.append(replace(pit, center_row=row, center_col=col))
    return replace(
        scene,
        dem=scene.dem.with_values(turn(scene.dem.values)),
        rgb=RGBImage(turn(scene.rgb.pixels)),
        gt_mask=BinaryMask(turn(scene.gt_mask.values)),
        truths=truths,
        pits=tuple(pits),
    )


def child_env() -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def remaining(deadline: float) -> float:
    left = deadline - time.perf_counter()
    if left <= 0:
        raise Failure("out of time for this run")
    return left


def spawn(args: list[str], deadline: float) -> dict:
    """Run a bench script in a fresh interpreter; return its last stdout line as JSON."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / args[0]), *args[1:]],
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            text=True,
            timeout=remaining(deadline),
        )
    except subprocess.TimeoutExpired as exc:
        raise Failure(f"{args[0]} {args[1]} timed out") from exc
    if proc.returncode != 0:
        raise Failure(f"{args[0]} {args[1]} exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise Failure(f"{args[0]} {args[1]} printed no record")
    return json.loads(lines[-1])


class MockServer:
    """The mock segmentation service in a child process (see serve_mock.py).

    Entering starts it and waits until it answers a request; leaving stops it
    and sets ``cpu_s``, the CPU time it spent serving.
    """

    def __init__(self, deadline: float):
        self.deadline = min(deadline, time.perf_counter() + SERVER_START_S)
        self.endpoint = ""
        self.cpu_s = 0.0
        self._proc: subprocess.Popen | None = None

    def __enter__(self) -> "MockServer":
        import requests

        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / "serve_mock.py")],
            cwd=ROOT,
            env=child_env(),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            ready, _, _ = select.select([self._proc.stdout], [], [], remaining(self.deadline))
            self.endpoint = self._proc.stdout.readline().strip() if ready else ""
            if not self.endpoint.startswith("http://"):
                raise Failure("mock server did not report an endpoint")
            while True:
                try:
                    requests.post(self.endpoint + "/ready", json={}, timeout=remaining(self.deadline))
                    return self
                except requests.RequestException:
                    time.sleep(0.05)
        except BaseException:
            self._stop()
            raise

    def __exit__(self, *exc_info) -> None:
        self.cpu_s = self._stop()

    def _stop(self) -> float:
        try:
            out, _ = self._proc.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.communicate()
            raise Failure("mock server did not stop") from None
        lines = out.strip().splitlines()
        if self._proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
            raise Failure(f"mock server exited with code {self._proc.returncode}")
        return float(json.loads(lines[-1])["cpu_s"])


def tree_files(out: Path) -> dict[str, str]:
    """sha256 of every file under *out*, keyed by its relative path."""
    return {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


def tree_digest(files: dict[str, str]) -> str:
    return hashlib.sha256(json.dumps(files, sort_keys=True).encode()).hexdigest()


def objects_at(report: dict, iou: float) -> tuple[int, int, int]:
    row = next(r for r in report["detection"] if r["iou_threshold"] == iou)
    return row["tp"], row["fp"], row["fn"]


def repetition(mode: str, settings: list[str], out: Path, trace: bool, deadline: float, http: bool) -> dict:
    """One pass in a fresh interpreter on a fresh *out*; its record plus tree facts."""
    shutil.rmtree(out, ignore_errors=True)
    flags = ["--trace"] if trace else []
    with MockServer(deadline) if http else nullcontext() as server:
        endpoint = [f"backend.endpoint={server.endpoint}"] if http else []
        record = spawn(["rep.py", mode, *flags, *settings, f"out_dir={out}", *endpoint], deadline)
    record["server_cpu_s"] = server.cpu_s if http else 0.0
    record["files"] = tree_files(out)
    record["out_tree_bytes"] = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    shutil.rmtree(out)
    return record


def check(workload: Workload, record: dict, reference: dict | None) -> None:
    """Raise Failure unless the repetition's outputs are the expected ones."""
    if reference is not None:
        if record["mode"] == "run" and record["files"] != reference["files"]:
            raise Failure("out tree differs from the first repetition of this run")
        if record["mode"] == "fill" and any(
            reference["files"].get(path) != digest for path, digest in record["files"].items()
        ):
            raise Failure("fill pass at the other worker count wrote different files")
    if record["mode"] != "run":
        return
    report = record["report"]
    got = (round(report["f1"], 4), objects_at(report, 0.5))
    want = (workload.expected_f1, workload.expected_objects)
    if got != want:
        raise Failure(f"report gives F1 and IoU-0.5 objects {got}, expected {want}")


def measure_setup(settings: list[str], out: Path, deadline: float) -> list[float]:
    """Wall times of fresh interpreters doing only the set-up work."""
    # HttpBackend only stores its endpoint, so set-up needs no server
    args = ["rep.py", "setup", *settings, f"out_dir={out}", "backend.endpoint=http://127.0.0.1:9"]
    times = []
    for _ in range(SETUP_SPAWNS):
        start = time.perf_counter()
        spawn(args, deadline)
        times.append(time.perf_counter() - start)
    return times


def environment() -> dict:
    def version(dist: str) -> str | None:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    cpu_model = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), None)
    except OSError:
        pass
    git_sha = git_dirty = None
    if (ROOT / ".git").exists():
        try:
            git = ["git", "-C", str(ROOT)]
            git_sha = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True, check=True).stdout.strip()
            status = subprocess.run(git + ["status", "--porcelain"], capture_output=True, text=True, check=True)
            git_dirty = bool(status.stdout.strip())
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "requests": version("requests"),
        "numba_importable": util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "git_sha": git_sha,
        "git_dirty": git_dirty,
    }


def f1_of(objects: tuple[int, int, int]) -> float:
    tp, fp, fn = objects
    return 2 * tp / (2 * tp + fp + fn) if tp + fp + fn else 1.0


def run(args: argparse.Namespace, declared: dict[str, str], work: Path) -> tuple[dict, dict]:
    """Set up, measure and check one workload; returns (result, record)."""
    from sinkseg.synth import export_scene, gen_terrain

    start = time.perf_counter()
    deadline = start + DEADLINE_S
    workload = WORKLOADS[args.workload]
    orientation = args.seed % 8
    scene = gen_terrain(
        workload.scene_seed, 1024, 1024, workload.n_pits,
        radius_range=workload.radius_range, noise_amp=workload.noise_amp,
    )
    scene_dir = work / "scene"
    export_scene(orient(scene, orientation), scene_dir)
    mpix = scene.dem.width * scene.dem.height / 1e6
    settings = [
        f"depth_raster={scene_dir / 'dem.asc'}",
        f"rgb_mosaic={scene_dir / 'rgb.ppm'}",
        f"eval.gt_mask={scene_dir / 'gt_mask.asc'}",
        *workload.settings,
    ]

    setup_times = [] if args.trace else measure_setup(settings, work / "setup", deadline)

    if args.trace:
        other_workers = 1 if workload.workers == 2 else 2
        plan = [("run", False, []), ("run", True, []), ("fill", True, [f"workers={other_workers}"])]
    else:
        plan = itertools.repeat(("run", False, []))
    records: list[dict] = []
    reference = None
    measure_start = time.perf_counter()
    for mode, traced, extra in plan:
        entry = {"mode": mode, "traced": traced, "settings": extra}
        try:
            entry.update(repetition(mode, settings + extra, work / "out", traced, deadline, workload.http))
            check(workload, entry, reference)
            if mode == "run" and reference is None:
                reference = entry
        except Failure as exc:
            entry["error"] = str(exc)
        records.append(entry)
        if "error" in entry:
            break  # a failed repetition already fails the run
        if (
            not args.trace
            and len(records) >= MIN_REPETITIONS
            and time.perf_counter() - measure_start >= args.seconds
        ):
            break
    if not args.trace and "error" not in records[-1]:
        setup_times += measure_setup(settings, work / "setup", deadline)

    attempted = len(records)
    ok = [r for r in records if "error" not in r]
    values: dict[str, float] = {}
    runs = [r for r in ok if r["mode"] == "run"]
    if args.trace and len(ok) == attempted:
        plain, traced_run, fill = records
        main_fill, other_fill = traced_run["layers"]["pipeline.fill_s"], fill["layers"]["pipeline.fill_s"]
        w1, w2 = (main_fill, other_fill) if workload.workers == 1 else (other_fill, main_fill)
        values.update(traced_run["layers"])
        values["pipeline.fill_speedup_w2"] = w1 / w2
        values["mock.server_cpu_s"] = traced_run["server_cpu_s"]
        values["trace.untraced_mpix_per_s"] = mpix / plain["wall_s"]
        values["trace.traced_mpix_per_s"] = mpix / traced_run["wall_s"]
        values["trace.overhead_mpix_per_s"] = mpix / plain["wall_s"] - mpix / traced_run["wall_s"]
    elif not args.trace and runs:
        report = runs[0]["report"]
        values.update(
            mpix_per_s=statistics.median(mpix / r["wall_s"] for r in runs),
            setup_s=statistics.median(setup_times),
            peak_rss_mb=statistics.median(r["peak_rss_mb"] for r in runs),
            out_tree_mb=statistics.median(r["out_tree_bytes"] for r in runs) / 1e6,
            success_rate=len(ok) / attempted,
            pixel_f1=report["f1"],
            object_f1_050=f1_of(objects_at(report, 0.5)),
        )
    missing, extra = set(declared) - set(values), set(values) - set(declared)
    if extra or (missing and len(ok) == attempted):
        raise RuntimeError(f"metrics do not match BENCHMARK.json: {sorted(missing | extra)}")
    values.update(dict.fromkeys(missing, 0.0))  # only after a failed repetition

    result = {
        "correct": len(ok) == attempted,
        "attempted": attempted,
        "failed": attempted - len(ok),
        "metrics": {name: {"value": float(values[name]), "unit": unit} for name, unit in declared.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "scene_seed": workload.scene_seed,
        "orientation": orientation,
        "environment": environment(),
        "setup_samples_s": setup_times,
        "repetitions": [
            {
                "mode": r["mode"],
                "traced": r["traced"],
                "settings": r["settings"],
                "error": r.get("error"),
                "wall_s": r.get("wall_s"),
                "peak_rss_mb": r.get("peak_rss_mb"),
                "out_tree_digest": tree_digest(r["files"]) if "files" in r else None,
            }
            for r in records
        ],
        "elapsed_s": time.perf_counter() - start,
    }
    return result, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one sinkseg benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="picks the scene orientation")
    parser.add_argument("--seconds", type=float, required=True, help="measure at least this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sinkseg" / "__init__.py").is_file():
        print(f"error: no sinkseg sources under {SRC}; run from a sinkseg checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    sys.path.insert(0, str(SRC))
    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        result, record = run(args, declared, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
