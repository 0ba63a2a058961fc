#!/usr/bin/env python3
"""Generate a synthetic PGM sequence with known frame-to-frame geometry.

One band-limited texture (optionally stamped with square markers and, per
frame, bright specular blobs) is warped by randomly sampled homographies into
a sequence the pipeline commands can consume directly.  Everything needed to
score the pipeline against ground truth is written next to the frames:

    <output>/frames/frame_000000.pgm ...   16-bit grayscale frames
    <output>/homographies.json             base->frame homographies + markers
    <output>/run.cfg                       ready-to-edit pipeline config
"""

import argparse
import json
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from endofeat import data
from endofeat.config import ConfigError, config_text
from endofeat.homography import HomographyConfig
from endofeat.ioutil import atomic_write_text
from endofeat.synthetic import (
    add_corner_markers,
    add_specular_blobs,
    band_limited_texture,
    warped_sequence,
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--output", required=True, metavar="DIR", help="dataset directory to create")
    p.add_argument("--frames", type=int, default=20, help="number of frames (default 20)")
    p.add_argument("--size", type=int, default=128, help="square frame size in pixels (default 128)")
    p.add_argument("--seed", type=int, default=0, help="texture/warp/marker seed (default 0)")
    p.add_argument("--markers", type=int, default=12,
                   help="square markers stamped on the base texture, 0 to disable (default 12)")
    p.add_argument("--specular", action="store_true",
                   help="add independent bright blobs to every frame")
    p.add_argument("--coverage", type=float, default=0.075,
                   help="target highlight coverage fraction with --specular (default 0.075)")
    p.add_argument("--perspective", type=float, default=0.01)
    p.add_argument("--scale-min", type=float, default=0.95)
    p.add_argument("--scale-max", type=float, default=1.05)
    p.add_argument("--rotation-deg", type=float, default=4.0)
    p.add_argument("--translation", type=float, default=0.05)
    return p.parse_args(argv)


def main(argv=None) -> int:
    """Write the dataset; exit code 2, before anything is written, when
    run.cfg could not hold the output paths."""
    args = parse_args(argv)
    frames_dir = os.path.join(args.output, "frames")
    try:
        cfg_text = config_text({
            "frames_dir": frames_dir,
            "output_dir": os.path.join(args.output, "out"),
            "weights_path": "",
            "seed": args.seed,
            "steps": 1,
            "models": "H",
        })
    except ConfigError as exc:
        print(f"error: run.cfg: {exc}", file=sys.stderr)
        return 2
    size = args.size
    base = band_limited_texture(size, size, seed=args.seed, cutoff=0.2)
    centers = np.empty((0, 2), dtype=np.int64)
    if args.markers > 0:
        base, centers = add_corner_markers(base, seed=args.seed, count=args.markers,
                                           margin=max(12, size // 10))

    warp_cfg = HomographyConfig(
        perspective=args.perspective,
        scale_min=args.scale_min,
        scale_max=args.scale_max,
        rotation_deg=args.rotation_deg,
        translation=args.translation,
    )
    frames, homs = warped_sequence(base, args.frames, seed=args.seed, config=warp_cfg)
    if args.specular:
        frames = [add_specular_blobs(f, seed=args.seed * 10_000 + i, coverage=args.coverage)
                  for i, f in enumerate(frames)]

    os.makedirs(frames_dir, exist_ok=True)
    for fid, frame in enumerate(frames):
        data.write_pgm(os.path.join(frames_dir, data.frame_name(fid)), frame, maxval=65535)

    truth = {
        "frames": args.frames,
        "size": [size, size],
        "seed": args.seed,
        "specular": bool(args.specular),
        "marker_centers_xy": centers.tolist(),
        "base_to_frame": [h.tolist() for h in homs],
    }
    atomic_write_text(os.path.join(args.output, "homographies.json"),
                      json.dumps(truth, indent=2) + "\n")

    atomic_write_text(os.path.join(args.output, "run.cfg"), cfg_text)

    print(f"wrote {args.frames} frames ({size}x{size}, {len(centers)} markers"
          f"{', specular' if args.specular else ''}) -> {frames_dir}")
    print(f"ground truth -> {os.path.join(args.output, 'homographies.json')}")
    print(f"config stub  -> {os.path.join(args.output, 'run.cfg')} (fill in weights_path)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
