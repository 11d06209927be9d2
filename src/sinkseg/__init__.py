"""sinkseg: closed-depression extraction and prompt-driven sinkhole mapping.

The package turns an elevation (or monocular-depth) raster into a sinkhole
mask in four stages: depression filling, depth thresholding into box
prompts, prompt-based segmentation through a pluggable backend, and
pixel/object evaluation.  Large mosaics are processed as overlapping tiles
and stitched back.  See the README for the CLI and config reference.

Each name is imported from its module (``from sinkseg.hydro import
fill_depressions``), so ``import sinkseg`` loads no submodule.
"""
