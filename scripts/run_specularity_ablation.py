#!/usr/bin/env python3
"""Measure how the specularity loss changes where keypoints land.

Two identical networks are fine-tuned on the same highlight-contaminated
synthetic set — labels deliberately include points inside bright blobs, the
way a teacher misfires on highlights.  One run keeps the specularity loss on,
the other turns it off.  For each arm the script reports what fraction of
detected keypoints lies outside the highlight mask: the suppression arm
should keep nearly all detections off the highlights while the control keeps
firing on them.

Acceptance criterion 5 (tests/test_acceptance.py) runs this script's `run`
with `--iterations 800` and checks the two arms' off-highlight percentages.
"""

import argparse
import os
import sys
import time
from typing import NamedTuple

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from endofeat.data import generate_pseudolabels
from endofeat.homography import HomographyConfig
from endofeat.losses import LossConfig
from endofeat.network import Architecture, init_params, save_weights
from endofeat.synthetic import specular_training_set
from endofeat.train import TrainConfig, TrainingSample, finetune


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--images", type=int, default=6, help="training images (default 6)")
    p.add_argument("--size", type=int, default=64, help="image side in pixels (default 64)")
    p.add_argument("--iterations", type=int, default=800, help="training iterations per arm (default 800)")
    p.add_argument("--learning-rate", type=float, default=2e-3)
    p.add_argument("--batch-size", type=int, default=2)
    p.add_argument("--data-seed", type=int, default=7, help="synthetic-set seed (default 7)")
    p.add_argument("--train-seed", type=int, default=2, help="training seed (default 2)")
    p.add_argument("--specularity-weight", type=float, default=100.0,
                   help="weight used by the suppression arm (default 100)")
    p.add_argument("--threshold", type=float, default=0.015, help="detection threshold (default 0.015)")
    p.add_argument("--nms", type=int, default=3, help="detection NMS window (default 3)")
    p.add_argument("--max-features", type=int, default=200)
    p.add_argument("--save-weights", metavar="DIR",
                   help="also write <DIR>/suppressed.weights and <DIR>/control.weights")
    return p.parse_args(argv)


def off_highlight_fraction(params, images, masks, args):
    """(percent of keypoints outside the mask, total keypoints) over all images."""
    off = total = 0
    for image, mask in zip(images, masks):
        xs, ys = generate_pseudolabels(params, image, None, args.threshold, args.nms,
                                       args.max_features).points.T
        total += len(ys)
        off += int((~mask[ys, xs]).sum())
    return (100.0 * off / total if total else float("nan")), total


class Arm(NamedTuple):
    name: str
    specularity_weight: float
    off_highlight_pct: float
    keypoints: int
    final_loss: float
    seconds: float


def run(args) -> list:
    """Train the suppression and control arms; one `Arm` each, in that order."""
    triples = specular_training_set(args.images, size=args.size, seed=args.data_seed)
    samples = [TrainingSample(img, label) for img, label, _ in triples]
    images = [img for img, _, _ in triples]
    masks = [mask for _, _, mask in triples]
    coverage = 100.0 * float(np.mean([m.mean() for m in masks]))
    print(f"dataset: {args.images} images at {args.size}x{args.size}, "
          f"{coverage:.1f}% highlight coverage")

    cfg = TrainConfig(
        iterations=args.iterations,
        learning_rate=args.learning_rate,
        batch_size=args.batch_size,
        seed=args.train_seed,
        homography=HomographyConfig(perspective=0.01, scale_min=0.95, scale_max=1.05,
                                    rotation_deg=5.0, translation=0.02),
    )
    arch = Architecture(encoder_stages=((2, 2), (2, 2), (2, 2), (2, 2)),
                        head_width=3, descriptor_dim=2)

    arms = []
    for name, weight in (("suppressed", args.specularity_weight), ("control", 0.0)):
        start = time.monotonic()
        params = init_params(arch, seed=1)
        tuned, history = finetune(params, samples, cfg,
                                  loss_config=LossConfig(specularity_weight=weight))
        pct, n_kp = off_highlight_fraction(tuned, images, masks, args)
        arms.append(Arm(name, weight, pct, n_kp, history[-1].total, time.monotonic() - start))
        if args.save_weights:
            os.makedirs(args.save_weights, exist_ok=True)
            save_weights(tuned, os.path.join(args.save_weights, f"{name}.weights"))
    return arms


def main(argv=None) -> int:
    for arm in run(parse_args(argv)):
        print(f"{arm.name:10s} (specularity_weight={arm.specularity_weight:g}): "
              f"{arm.off_highlight_pct:.2f}% of {arm.keypoints} keypoints off-highlight, "
              f"final loss {arm.final_loss:.4f}, {arm.seconds:.0f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
