#!/usr/bin/env python3
"""End-to-end demo on a fully synthetic sequence with known ground truth.

The script builds a short sequence by warping one textured image that carries
nine distinct nested-square markers, teaches a small network to fire on those
markers (labels for every frame come from warping the planted marker
positions), then drives the regular pipeline commands — detect, then eval —
on the written PGM frames and prints the recovered per-pair inlier counts and
grid coverage next to the planted truth.

Everything lands under --output so the intermediate files (frames, weights,
features, report.json, report.csv, rotation_histogram.csv) can be inspected
afterwards.

Acceptance criterion 6 (tests/test_acceptance.py) runs this script's `run`
with `--frames 20 --size 80 --iterations 2500 --seed 0`, checks the rows
against the planted truth and re-runs detect and eval for byte-identical
reports.
"""

import argparse
import json
import os
import sys
import time
from typing import NamedTuple

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from endofeat import cli, data, network
from endofeat.config import ConfigError, config_text
from endofeat.data import warp_label
from endofeat.homography import HomographyConfig, warp_points
from endofeat.ioutil import atomic_write_text
from endofeat.losses import LossConfig
from endofeat.network import Architecture, init_params
from endofeat.synthetic import band_limited_texture, planted_label, stamp_marker, warped_sequence
from endofeat.train import TrainConfig, TrainingSample, finetune

# footprint, outer shade, inner shade — distinct so descriptors can tell
# markers apart from appearance alone
MARKER_STYLES = [
    (3, 0.02, 0.62), (5, 0.62, 0.02), (7, 0.02, 0.55),
    (5, 0.55, 0.06), (3, 0.62, 0.10), (7, 0.60, 0.02),
    (5, 0.06, 0.50), (3, 0.50, 0.02), (7, 0.10, 0.62),
]


def planted_scene(size: int, n_frames: int, seed: int):
    base = band_limited_texture(size, size, seed=21 + seed, cutoff=0.25)
    r = np.random.default_rng(np.random.SeedSequence((77, seed)))
    step = size // 5
    centers = []
    for k, (gy, gx) in enumerate((gy, gx) for gy in (step, size // 2, size - step)
                                 for gx in (step, size // 2, size - step)):
        x = gx + int(r.integers(-3, 4))
        y = gy + int(r.integers(-3, 4))
        stamp_marker(base, x, y, *MARKER_STYLES[k % len(MARKER_STYLES)])
        centers.append((x, y))
    seq_cfg = HomographyConfig(perspective=0.005, scale_min=0.97, scale_max=1.03,
                               rotation_deg=3.0, translation=0.03)
    frames, homs = warped_sequence(base, n_frames, seed=23 + seed, config=seq_cfg)
    return frames, homs, np.asarray(centers, np.int64)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--output", default="demo_out", metavar="DIR")
    p.add_argument("--frames", type=int, default=12, help="sequence length (default 12)")
    p.add_argument("--size", type=int, default=80, help="frame side in pixels (default 80)")
    p.add_argument("--iterations", type=int, default=2000, help="training iterations (default 2000)")
    p.add_argument("--seed", type=int, default=0)
    return p.parse_args(argv)


class PairRow(NamedTuple):
    frame_a: int
    frame_b: int
    inliers: int  # H inliers
    planted: int
    grid_pct: float  # H-inlier grid coverage
    truth_pct: float  # grid coverage of the planted markers in frame_a


def run(args) -> list:
    """Train, write the inputs, run detect and eval; one `PairRow` per step-1 pair.

    Exits with code 2 before training when run.cfg could not hold the output
    paths, and with the command's code when detect or eval fails.
    """
    frames_dir = os.path.join(args.output, "frames")
    weights = os.path.join(args.output, "trained.weights")
    try:
        cfg_text = config_text({
            "frames_dir": frames_dir,
            "weights_path": weights,
            "output_dir": args.output,
            "seed": 9 + args.seed,
            "detection_threshold": 0.2,
            "detection_nms_window": 3,
            "max_features": 100,
            "steps": 1,
            "models": "H",
        })
    except ConfigError as exc:
        print(f"error: run.cfg: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
    frames, homs, centers = planted_scene(args.size, args.frames, args.seed)
    size = args.size

    print(f"scene: {args.frames} frames, {len(centers)} planted markers")
    label0 = planted_label(centers)
    samples = [TrainingSample(img, warp_label(label0, h, size, size))
               for img, h in zip(frames, homs)]
    arch = Architecture(encoder_stages=((4, 4), (4, 4), (4, 4), (4, 4)),
                        head_width=16, descriptor_dim=24)
    # training warps are deliberately wider than the sequence warps so the
    # descriptors learn marker appearance rather than screen position
    train_cfg = TrainConfig(
        iterations=args.iterations, learning_rate=3e-3, batch_size=2,
        seed=32 + args.seed,
        homography=HomographyConfig(perspective=0.015, scale_min=0.9, scale_max=1.1,
                                    rotation_deg=8.0, translation=0.08),
    )
    start = time.monotonic()
    tuned, history = finetune(
        init_params(arch, seed=31 + args.seed), samples, train_cfg,
        loss_config=LossConfig(descriptor_weight=1.0, specularity_weight=0.0),
    )
    print(f"trained {args.iterations} iterations in {time.monotonic() - start:.0f}s, "
          f"final loss {history[-1].total:.4f}")

    os.makedirs(frames_dir, exist_ok=True)
    for fid, img in enumerate(frames):
        data.write_pgm(os.path.join(frames_dir, data.frame_name(fid)), img, maxval=65535)
    network.save_weights(tuned, weights)
    cfg_path = os.path.join(args.output, "run.cfg")
    atomic_write_text(cfg_path, cfg_text)

    for command in ("detect", "eval"):
        code = cli.main([command, "--config", cfg_path])
        if code != 0:
            print(f"{command} failed with exit code {code}")
            raise SystemExit(code)

    with open(os.path.join(args.output, "report.json"), encoding="utf-8") as f:
        doc = json.load(f)
    cell = max(1, size // 16)
    rows = []
    for e in doc["methods"]["learned"]["1"]:
        if "H" not in e["inliers"]:
            continue
        truth = {(min(int(x // cell), 15), min(int(y // cell), 15))
                 for x, y in warp_points(centers.astype(float), homs[e["frame_a"]])}
        rows.append(PairRow(e["frame_a"], e["frame_b"], e["inliers"]["H"], len(centers),
                            e["grid_pct"]["H"], 100.0 * len(truth) / 256))
    return rows


def main(argv=None) -> int:
    args = parse_args(argv)
    rows = run(args)
    print(f"\n{'pair':>7s} {'inliers':>8s} {'planted':>8s} {'grid %':>7s} {'truth %':>8s}")
    for row in rows:
        print(f"{row.frame_a:>3d}-{row.frame_b:<3d} {row.inliers:>8d} "
              f"{row.planted:>8d} {row.grid_pct:>7.2f} {row.truth_pct:>8.2f}")
    mean_inl = float(np.mean([row.inliers for row in rows]))
    print(f"\nmean H-inliers {mean_inl:.2f} vs {rows[0].planted} planted; "
          f"report -> {os.path.join(args.output, 'report.json')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
