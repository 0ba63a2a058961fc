"""Seeded inputs, stage arguments and output checks for each workload.

Every workload writes, from one seed, exactly the files its CLI stage
reads (frames, labels, weights, features, poses, intrinsics and a config
file) into its own input directory, and names the stage's argument list.
The output checks read what the stage wrote and return how many of the
stage's items failed them.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from endofeat import data, geometry, matching, network, synthetic
from endofeat.config import RunConfig
from endofeat.geometry import Intrinsics, RelativePose
from endofeat.network import Architecture

DEFAULTS = RunConfig()

TOY_ARCHITECTURE = Architecture(((8,), (8,), (16,), (16,)), head_width=32, descriptor_dim=32)

# train_toy: many short calls, so the median is taken over many samples.
TOY_FRAMES, TOY_SIZE, TOY_ITERATIONS = 8, 64, 20
# train_full: each call trains FULL_ITERATIONS steps and writes one checkpoint.
FULL_FRAMES, FULL_SHAPE, FULL_ITERATIONS = 4, (120, 160), 2
# detect_qvga: frames per call at 240x320.
DETECT_FRAMES, QVGA_SHAPE = 2, (240, 320)
# eval_seq: frames per sequence; steps 1 and 3 give (n-1) + (n-3) pairs.
EVAL_FRAMES, EVAL_STEPS = 4, (1, 3)
EVAL_INLIERS, EVAL_OUTLIERS, EVAL_SCENE_POINTS, EVAL_DIM = 600, 400, 700, 256

TRAIN_LOSS_RTOL = 1e-3  # final-loss tolerance against the reference
MAX_ROTATION_ERROR_DEG = 10.0  # a third of the report's 30-degree failure threshold


@dataclass(frozen=True)
class Prepared:
    """One generated input set: its config file and the items one call processes."""

    directory: str
    command: str
    config: str
    items: int
    checkpoints: int = 0  # checkpoints one call must write

    @property
    def argv(self) -> list:
        return [self.command, "--config", self.config, "--jobs", "1", "--force"]


@dataclass(frozen=True)
class Workload:
    name: str
    rate_name: str  # user-facing name of the throughput
    item: str  # what one counted item is
    generate: Callable[[str, int], Prepared]
    check: Callable[[Prepared], int]  # number of failed items
    digest: Callable[[Prepared], str]  # output fingerprint, compared across calls
    reference_value: Callable[[Prepared], object]  # compared with reference.json


# ---------------------------------------------------------------------------
# shared generators
# ---------------------------------------------------------------------------


def _rng(*key) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(key))


def specular_frame(height: int, width: int, seed: int) -> np.ndarray:
    """Band-limited texture with planted highlights (values above 0.7)."""
    base = synthetic.band_limited_texture(height, width, seed=seed)
    return synthetic.add_specular_blobs(base, seed=seed)


def planted_label(image: np.ndarray, seed: int, count: int = 40,
                  on_blob_fraction: float = 0.3) -> data.PseudoLabel:
    """Label points, a fraction of them on highlights, like a teacher that fires there."""
    rng = _rng(seed, 3)
    flat_mask = (image > data.SPECULAR_THRESHOLD).ravel()
    spec_idx, clean_idx = np.flatnonzero(flat_mask), np.flatnonzero(~flat_mask)
    n_on = min(int(round(count * on_blob_fraction)), spec_idx.size)
    chosen = np.concatenate([
        rng.choice(spec_idx, size=n_on, replace=False),
        rng.choice(clean_idx, size=count - n_on, replace=False),
    ])
    ys, xs = np.divmod(chosen, image.shape[1])
    scores = rng.uniform(0.5, 1.0, size=chosen.size)
    order = np.argsort(-scores, kind="stable")
    return data.PseudoLabel(np.stack([xs[order], ys[order]], axis=1), scores[order])


def _write_frames(frames_dir: str, images) -> None:
    os.makedirs(frames_dir, exist_ok=True)
    for fid, img in enumerate(images):
        data.write_pgm(os.path.join(frames_dir, data.frame_name(fid)), img, maxval=65535)


def _write_config(directory: str, values: dict) -> str:
    path = os.path.join(directory, "run.cfg")
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(f"{k} = {v}\n" for k, v in values.items())
    return path


def _digest_files(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# train_toy / train_full
# ---------------------------------------------------------------------------


def _generate_train(directory, seed, samples, arch, iterations, checkpoint_every) -> Prepared:
    frames_dir = os.path.join(directory, "frames")
    labels_dir = os.path.join(directory, "labels")
    _write_frames(frames_dir, [img for img, _ in samples])
    os.makedirs(labels_dir, exist_ok=True)
    for fid, (_, label) in enumerate(samples):
        data.save_label(data.label_path(labels_dir, fid), label)
    weights = os.path.join(directory, "initial.weights")
    network.save_weights(network.init_params(arch, seed=seed, dtype=np.float32), weights)
    cfg = _write_config(directory, {
        "frames_dir": frames_dir,
        "labels_dir": labels_dir,
        "weights_path": weights,
        "output_dir": os.path.join(directory, "out"),
        "iterations": iterations,
        "batch_size": 2,
        "checkpoint_every": checkpoint_every,
        "seed": seed,
    })
    checkpoints = iterations // checkpoint_every if checkpoint_every else 0
    return Prepared(directory, "train", cfg, iterations, checkpoints)


def generate_train_toy(directory: str, seed: int) -> Prepared:
    samples = [(img, label) for img, label, _ in
               synthetic.specular_training_set(TOY_FRAMES, size=TOY_SIZE, seed=seed)]
    return _generate_train(directory, seed, samples, TOY_ARCHITECTURE, TOY_ITERATIONS, 0)


def generate_train_full(directory: str, seed: int) -> Prepared:
    h, w = FULL_SHAPE
    samples = []
    for i in range(FULL_FRAMES):
        img = specular_frame(h, w, seed * 1000 + i)
        samples.append((img, planted_label(img, seed * 1000 + i)))
    return _generate_train(directory, seed, samples, Architecture(), FULL_ITERATIONS,
                           FULL_ITERATIONS)


def _train_history(prepared: Prepared):
    path = os.path.join(prepared.directory, "out", "train_history.csv")
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def check_train(prepared: Prepared) -> int:
    """Every loss is finite, one row per iteration, weights (and checkpoint) written."""
    rows = _train_history(prepared)
    ok = len(rows) == prepared.items and all(
        math.isfinite(float(v)) for row in rows for k, v in row.items() if k != "iteration"
    )
    out = os.path.join(prepared.directory, "out")
    ok = ok and os.path.getsize(os.path.join(out, "trained.weights")) > 0
    if prepared.checkpoints:
        ckpt = os.path.join(out, "checkpoints")
        ok = ok and len(os.listdir(ckpt)) == 2 * prepared.checkpoints  # weights + optimizer
    return 0 if ok else prepared.items


def digest_train(prepared: Prepared) -> str:
    out = os.path.join(prepared.directory, "out")
    return _digest_files([os.path.join(out, "train_history.csv"),
                          os.path.join(out, "trained.weights")])


def final_train_loss(prepared: Prepared) -> float:
    return float(_train_history(prepared)[-1]["total"])


# ---------------------------------------------------------------------------
# detect_qvga
# ---------------------------------------------------------------------------


def generate_detect_qvga(directory: str, seed: int) -> Prepared:
    h, w = QVGA_SHAPE
    frames_dir = os.path.join(directory, "frames")
    _write_frames(frames_dir, [specular_frame(h, w, seed * 1000 + i) for i in range(DETECT_FRAMES)])
    weights = os.path.join(directory, "initial.weights")
    network.save_weights(network.init_params(Architecture(), seed=seed, dtype=np.float32), weights)
    cfg = _write_config(directory, {
        "frames_dir": frames_dir,
        "weights_path": weights,
        "output_dir": os.path.join(directory, "out"),
        "seed": seed,
    })
    return Prepared(directory, "detect", cfg, DETECT_FRAMES)


def _feature_files(prepared: Prepared):
    feat_dir = os.path.join(prepared.directory, "out", "features", "learned")
    return [matching.feature_path(feat_dir, fid) for fid in range(prepared.items)]


def _nms_spaced(xs: np.ndarray, ys: np.ndarray, shape, window: int) -> bool:
    """Integer in-frame points, no two within one window x window neighbourhood."""
    h, w = shape
    r = (window - 1) // 2
    if not (np.all((xs >= 0) & (xs < w) & (ys >= 0) & (ys < h))):
        return False
    occupied = np.zeros((h + 2 * r, w + 2 * r), dtype=np.int64)
    np.add.at(occupied, (ys + r, xs + r), 1)
    around = sum(occupied[r + dy: h + r + dy, r + dx: w + r + dx]
                 for dy in range(-r, r + 1) for dx in range(-r, r + 1))
    return bool(np.all(around[ys, xs] == 1))


def check_detect(prepared: Prepared) -> int:
    """Per frame: threshold, cap, score order, NMS spacing and unit descriptors hold."""
    failed = 0
    for path in _feature_files(prepared):
        kp, desc = matching.load_features(path)
        xs, ys = kp.points[:, 0].astype(np.int64), kp.points[:, 1].astype(np.int64)
        norms = np.linalg.norm(desc.vectors.astype(np.float64), axis=1)
        ok = (
            0 < len(kp) <= DEFAULTS.max_features
            and np.array_equal(kp.points, np.stack([xs, ys], axis=1))
            and _nms_spaced(xs, ys, QVGA_SHAPE, DEFAULTS.detection_nms_window)
            and np.all(kp.scores >= DEFAULTS.detection_threshold)
            and np.all(np.diff(kp.scores) <= 0)
            and len(desc) == len(kp)
            and np.all(np.abs(norms - 1.0) < 1e-3)
        )
        failed += 0 if ok else 1
    return failed


def digest_detect(prepared: Prepared) -> str:
    return _digest_files([p for f in _feature_files(prepared) for p in (f, f + ".desc")])


# ---------------------------------------------------------------------------
# eval_seq
# ---------------------------------------------------------------------------

EVAL_INTRINSICS = Intrinsics(280.0, 280.0, 159.5, 119.5)


def _camera(i: int, axis: np.ndarray):
    """World-to-camera (R, t) of frame i on a slow turn-and-drift trajectory."""
    r = _rotation(axis, 1.2 * i)
    centre = np.array([0.25, 0.08, 0.1]) * i
    return r, -r @ centre


def _rotation(axis: np.ndarray, angle_deg: float) -> np.ndarray:
    k = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]])
    a = np.deg2rad(angle_deg)
    return np.eye(3) + np.sin(a) * k + (1 - np.cos(a)) * (k @ k)


def generate_eval_seq(directory: str, seed: int) -> Prepared:
    """Features projected from a seeded 3-D scene, ~40% outliers, with poses and intrinsics."""
    h, w = QVGA_SHAPE
    rng = _rng(seed, 6)
    k = EVAL_INTRINSICS.matrix
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    cams = [_camera(i, axis) for i in range(EVAL_FRAMES)]

    # scene points that project inside every frame, with one descriptor each
    world = []
    while len(world) < EVAL_SCENE_POINTS:
        x = np.array([rng.uniform(-2.5, 2.5), rng.uniform(-1.8, 1.8), rng.uniform(5.0, 12.0)])
        uv = [(k @ (r @ x + t))[:2] / (r @ x + t)[2] for r, t in cams]
        if all(4 <= u <= w - 5 and 4 <= v <= h - 5 for u, v in uv):
            world.append(x)
    world = np.asarray(world)
    base_desc = rng.standard_normal((EVAL_SCENE_POINTS, EVAL_DIM))
    base_desc /= np.linalg.norm(base_desc, axis=1, keepdims=True)

    feat_dir = os.path.join(directory, "features", "learned")
    os.makedirs(feat_dir, exist_ok=True)
    for fid, (r, t) in enumerate(cams):
        frng = _rng(seed, fid, 7)
        seen = np.sort(frng.choice(EVAL_SCENE_POINTS, size=EVAL_INLIERS, replace=False))
        cam_pts = world[seen] @ r.T + t
        uv = (cam_pts @ k.T)[:, :2] / cam_pts[:, 2:3]
        uv = np.rint(uv + frng.normal(0, 0.5, uv.shape))
        vec = base_desc[seen] + frng.normal(0, 0.04, (EVAL_INLIERS, EVAL_DIM))
        out_uv = np.stack([frng.integers(0, w, EVAL_OUTLIERS), frng.integers(0, h, EVAL_OUTLIERS)], 1)
        out_vec = frng.standard_normal((EVAL_OUTLIERS, EVAL_DIM))
        pts = np.concatenate([uv, out_uv]).astype(np.float64)
        vec = np.concatenate([vec, out_vec])
        vec /= np.linalg.norm(vec, axis=1, keepdims=True)
        order = frng.permutation(pts.shape[0])
        scores = np.sort(frng.uniform(0.015, 1.0, pts.shape[0]))[::-1]
        matching.save_features(
            matching.feature_path(feat_dir, fid),
            matching.KeypointSet(pts[order], scores, fid),
            matching.DescriptorSet(vec[order].astype(np.float32)),
        )

    frames_dir = os.path.join(directory, "frames")
    _write_frames(frames_dir, [specular_frame(h, w, seed * 1000 + i) for i in range(EVAL_FRAMES)])

    entries = []
    for step in EVAL_STEPS:
        for fa in range(EVAL_FRAMES - step):
            (ra, ta), (rb, tb) = cams[fa], cams[fa + step]
            r_ab = rb @ ra.T
            entries.append((fa, fa + step, RelativePose(geometry.rotation_to_quat(r_ab), tb - r_ab @ ta)))
    pose_path = os.path.join(directory, "poses.txt")
    geometry.save_pose_file(pose_path, entries)
    intrinsics_path = os.path.join(directory, "intrinsics.txt")
    geometry.save_intrinsics(intrinsics_path, EVAL_INTRINSICS)

    cfg = _write_config(directory, {
        "frames_dir": frames_dir,
        "features_dir": os.path.join(directory, "features"),
        "output_dir": os.path.join(directory, "out"),
        "pose_path": pose_path,
        "intrinsics_path": intrinsics_path,
        "steps": ",".join(str(s) for s in EVAL_STEPS),
        "models": "auto",
        "seed": seed,
    })
    pairs = sum(EVAL_FRAMES - s for s in EVAL_STEPS)
    return Prepared(directory, "eval", cfg, pairs)


def _report_path(prepared: Prepared) -> str:
    return os.path.join(prepared.directory, "out", "report.json")


def check_eval(prepared: Prepared) -> int:
    """Per pair: the step's models were fit, and E recovers the planted rotation."""
    with open(_report_path(prepared), encoding="utf-8") as f:
        by_step = json.load(f)["methods"]["learned"]
    failed = 0
    for step in EVAL_STEPS:
        evaluations = by_step.get(str(step), [])
        failed += max(0, (EVAL_FRAMES - step) - len(evaluations))
        for e in evaluations:
            need = ("H",) if step == 1 else ("E", "F")
            ok = all(e["inliers"].get(tag, 0) >= 8 for tag in need + ("pGT",))
            if step != 1:
                ok = ok and not e["pose_failure"] and e["rotation_error_deg"] is not None \
                    and e["rotation_error_deg"] < MAX_ROTATION_ERROR_DEG
            failed += 0 if ok else 1
    return failed


def digest_eval(prepared: Prepared) -> str:
    return _digest_files([_report_path(prepared)])


WORKLOADS = {
    w.name: w
    for w in (
        Workload("train_toy", "train_iters_per_s", "iteration",
                 generate_train_toy, check_train, digest_train, final_train_loss),
        Workload("train_full", "train_iters_per_s", "iteration",
                 generate_train_full, check_train, digest_train, final_train_loss),
        Workload("detect_qvga", "detect_frames_per_s", "frame",
                 generate_detect_qvga, check_detect, digest_detect, digest_detect),
        Workload("eval_seq", "eval_pairs_per_s", "pair",
                 generate_eval_seq, check_eval, digest_eval, digest_eval),
    )
}
