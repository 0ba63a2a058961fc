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
"""

import argparse
import json
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from endofeat import cli, data, network
from endofeat.data import warp_label
from endofeat.homography import HomographyConfig, warp_points
from endofeat.ioutil import atomic_write_text
from endofeat.losses import LossConfig
from endofeat.network import Architecture, init_params
from endofeat.synthetic import band_limited_texture, planted_label, warped_sequence
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
        s, lo_v, hi_v = MARKER_STYLES[k % len(MARKER_STYLES)]
        half = s // 2
        base[y - half : y + half + 1, x - half : x + half + 1] = lo_v
        inner = max(1, half - 1)
        base[y - inner : y + inner + 1, x - inner : x + inner + 1] = hi_v
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


def main(argv=None) -> int:
    args = parse_args(argv)
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

    frames_dir = os.path.join(args.output, "frames")
    os.makedirs(frames_dir, exist_ok=True)
    for fid, img in enumerate(frames):
        data.write_pgm(os.path.join(frames_dir, data.frame_name(fid)), img, maxval=65535)
    weights = os.path.join(args.output, "trained.weights")
    network.save_weights(tuned, weights)
    cfg_path = os.path.join(args.output, "run.cfg")
    atomic_write_text(cfg_path, "\n".join([
        f"frames_dir = {frames_dir}",
        f"weights_path = {weights}",
        f"output_dir = {args.output}",
        f"seed = {9 + args.seed}",
        "detection_threshold = 0.2",
        "detection_nms_window = 3",
        "max_features = 100",
        "steps = 1",
        "models = H",
    ]) + "\n")

    for command in ("detect", "eval"):
        code = cli.main([command, "--config", cfg_path])
        if code != 0:
            print(f"{command} failed with exit code {code}")
            return code

    with open(os.path.join(args.output, "report.json"), encoding="utf-8") as f:
        doc = json.load(f)
    evals = [e for e in doc["methods"]["learned"]["1"] if "H" in e["inliers"]]
    cell = max(1, size // 16)
    print(f"\n{'pair':>7s} {'inliers':>8s} {'planted':>8s} {'grid %':>7s} {'truth %':>8s}")
    for e in evals:
        truth_pct = 100.0 * len(
            {(min(int(p[0] // cell), 15), min(int(p[1] // cell), 15))
             for p in warp_points(centers.astype(float), homs[e["frame_a"]])}
        ) / 256
        print(f"{e['frame_a']:>3d}-{e['frame_b']:<3d} {e['inliers']['H']:>8d} "
              f"{len(centers):>8d} {e['grid_pct']['H']:>7.2f} {truth_pct:>8.2f}")
    mean_inl = float(np.mean([e["inliers"]["H"] for e in evals]))
    print(f"\nmean H-inliers {mean_inl:.2f} vs {len(centers)} planted; "
          f"report -> {os.path.join(args.output, 'report.json')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
