"""Command-line entry point.

Subcommands mirror the pipeline stages::

    sinkseg fill     --config run.cfg
    sinkseg prompts  --config run.cfg
    sinkseg segment  --config run.cfg
    sinkseg eval     --config run.cfg
    sinkseg run      --config run.cfg --set workers=8
    sinkseg synth    --seed 7 --width 1024 --height 1024 --n 12 --out-dir scene/

Config keys are documented in :mod:`sinkseg.config`; every ``--set key=value``
overrides the file.  Logs go to stderr (``-v`` for debug, ``-q`` for errors
only); machine-readable output goes to stdout and files.  Exit codes:
0 success, 1 internal error, 2 bad input or configuration.
"""

from __future__ import annotations

import argparse
import logging
import sys

from .config import check_out_dir, load_config
from .errors import InputError, SinksegError
from .metrics import report_to_json
from .pipeline import cmd_eval, cmd_fill, cmd_prompts, cmd_run, cmd_segment
from .synth import DEFAULT_DEPTH_RANGE, DEFAULT_RADIUS_RANGE, DEFAULT_SLOPE, export_scene, gen_terrain

logger = logging.getLogger("sinkseg")


def _add_config_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", metavar="PATH", help="config file (key = value lines)")
    sub.add_argument(
        "--set",
        metavar="KEY=VALUE",
        action="append",
        default=[],
        dest="overrides",
        help="override a config key (repeatable)",
    )


def _parse_range(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 'low,high', got {text!r}")
    return float(parts[0]), float(parts[1])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sinkseg",
        description="Sinkhole mapping pipeline: fill, prompt, segment, evaluate.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    parser.add_argument("-q", "--quiet", action="store_true", help="errors only")
    commands = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("fill", "fill depressions, write the depth archive and the manifest"),
        ("prompts", "label depressions and write per-patch box prompts"),
        ("segment", "run the segmentation backend and fold the fused mask"),
        ("eval", "score the fused mask against ground truth"),
        ("run", "all four stages in sequence"),
    ):
        sub = commands.add_parser(name, help=help_text)
        _add_config_args(sub)

    synth = commands.add_parser("synth", help="generate a synthetic test scene")
    synth.add_argument("--seed", type=int, required=True)
    synth.add_argument("--width", type=int, required=True)
    synth.add_argument("--height", type=int, required=True)
    synth.add_argument("--n", type=int, required=True, help="number of sinkholes")
    synth.add_argument("--out-dir", required=True)
    synth.add_argument("--depth-range", type=_parse_range, default=DEFAULT_DEPTH_RANGE)
    synth.add_argument("--radius-range", type=_parse_range, default=DEFAULT_RADIUS_RANGE)
    synth.add_argument("--noise-amp", type=float, default=0.0)
    synth.add_argument("--slope", type=float, default=DEFAULT_SLOPE)
    return parser


def _run_command(args: argparse.Namespace) -> int:
    if args.command == "synth":
        check_out_dir(args.out_dir, "--out-dir")
        try:
            scene = gen_terrain(
                args.seed,
                args.width,
                args.height,
                args.n,
                depth_range=args.depth_range,
                radius_range=args.radius_range,
                noise_amp=args.noise_amp,
                slope=args.slope,
            )
        except ValueError as exc:  # an argument out of range
            raise InputError(str(exc)) from exc
        export_scene(scene, args.out_dir)
        logger.info("scene with %d sinkholes written to %s", args.n, args.out_dir)
        return 0

    cfg = load_config(args.config, args.overrides)
    if args.command == "fill":
        cmd_fill(cfg)
    elif args.command == "prompts":
        cmd_prompts(cfg)
    elif args.command == "segment":
        cmd_segment(cfg)
    elif args.command == "eval":
        sys.stdout.write(report_to_json(cmd_eval(cfg)))
    else:
        sys.stdout.write(report_to_json(cmd_run(cfg)))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    level = logging.INFO
    if args.verbose:
        level = logging.DEBUG
    elif args.quiet:
        level = logging.ERROR
    logging.basicConfig(
        stream=sys.stderr, level=level, format="%(levelname)s %(message)s", force=True
    )
    try:
        return _run_command(args)
    except (InputError, FileNotFoundError, PermissionError) as exc:
        logger.error("%s", exc)
        return 2
    except SinksegError as exc:
        logger.error("%s", exc)
        return 1
    except Exception:  # noqa: BLE001 - last-resort diagnostic
        logger.exception("internal error")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
