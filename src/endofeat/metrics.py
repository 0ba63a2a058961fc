"""Matching-quality metrics and per-method evaluation reports.

A sequence is evaluated over frame pairs (t, t + step). Each pair gets
mutual matches, robust-model inlier counts (homography for adjacent
frames, essential/fundamental for wide baselines, plus reference-pose
inliers when a pose file is available), grid coverage of the inliers,
a rotation error against the reference pose, and a specularity ablation
that counts how many features and inliers survive once
saturated-highlight pixels are excluded. Every pair carries its
ablation, so every report does too. Grid coverage is always computed on
the first image of the pair. Reports aggregate the pairs into per-method
mean columns, rotation statistics with a failure rate at 30 degrees, and
the ablation totals. The config that drives eval (config.RunConfig and
config.model_tags) rejects, with exit code 2 before any frame is read, an
empty steps list or a step below 1, and an explicit E model without
intrinsics.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from . import geometry
from .geometry import Intrinsics, PoseRecoveryError, RelativePose
from .ioutil import atomic_write_text, fmt
from .matching import KeypointSet, MatchSet, match_mutual

GRID = 16
FAILURE_DEGREES = 30.0
HISTOGRAM_EDGES = (5.0, 10.0, 30.0)  # buckets: <5, 5-10, 10-30, >30


def grid_coverage(points, height: int, width: int) -> float:
    """Percent of the 16x16 grid cells holding at least one point.

    Cells are height//16 by width//16 pixels; the last row/column of
    cells absorbs any remainder. Raises ValueError for a point outside
    [0, width) x [0, height).
    """
    points = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    _require_in_frame(points, height, width, "point")
    if points.shape[0] == 0:
        return 0.0
    cell_h = max(1, height // GRID)
    cell_w = max(1, width // GRID)
    cols = np.minimum((points[:, 0] // cell_w).astype(np.int64), GRID - 1)
    rows = np.minimum((points[:, 1] // cell_h).astype(np.int64), GRID - 1)
    occupied = np.unique(rows * GRID + cols).size
    return 100.0 * occupied / (GRID * GRID)


def rotation_error(est: RelativePose, gt: RelativePose) -> float:
    """Geodesic angle between the two rotations, in degrees."""
    rel = geometry.quat_multiply(est.quaternion, geometry.quat_conjugate(gt.quaternion))
    return geometry.quat_rotation_angle_deg(rel)


@dataclass(frozen=True)
class AblationCounts:
    total: int
    without_specular: int

    @property
    def percentage(self) -> float:
        if self.total == 0:
            return 100.0
        return 100.0 * self.without_specular / self.total


@dataclass(frozen=True)
class AblationResult:
    features: AblationCounts
    matches: AblationCounts
    inliers: AblationCounts


def specularity_ablation(
    kp_a: KeypointSet,
    kp_b: KeypointSet,
    matches: MatchSet,
    inlier_flags,
    mask_a: np.ndarray,
    mask_b: np.ndarray,
) -> AblationResult:
    """Counts with and without features on saturated highlights.

    A feature falls into a specularity when the mask at its pixel is set
    (features of both images count); a match or inlier is discarded when
    either endpoint falls in. inlier_flags holds one flag per match.
    """

    def on_mask(kp: KeypointSet, mask: np.ndarray) -> np.ndarray:
        xs = kp.points[:, 0].astype(np.int64)
        ys = kp.points[:, 1].astype(np.int64)
        return np.asarray(mask, dtype=bool)[ys, xs]

    spec_a = on_mask(kp_a, mask_a)
    spec_b = on_mask(kp_b, mask_b)
    feats = AblationCounts(
        len(kp_a) + len(kp_b), int((~spec_a).sum() + (~spec_b).sum())
    )
    bad = spec_a[matches.pairs[:, 0]] | spec_b[matches.pairs[:, 1]]
    match_counts = AblationCounts(len(matches), int((~bad).sum()))
    flags = np.asarray(inlier_flags, dtype=bool)
    inl = AblationCounts(int(flags.sum()), int((flags & ~bad).sum()))
    return AblationResult(feats, match_counts, inl)


@dataclass
class PairEvaluation:
    frame_a: int
    frame_b: int
    step: int
    features_a: int
    features_b: int
    matches: int
    inliers: dict  # model tag -> count
    grid_pct: dict  # model tag -> %Gr on image A
    rotation_error_deg: float | None
    pose_failure: str
    ablation: AblationResult


# Robust models: tag -> (RANSAC seed slot, estimator). An estimator takes
# (matches, kp_a, kp_b, intrinsics, confidence, threshold_px, seed) and
# looks its geometry function up when called, so a patched module
# attribute (the benchmark tracer's) is the one that runs.
MODELS = {
    "H": (0, lambda m, a, b, k, *ransac: geometry.estimate_homography_ransac(m, a, b, *ransac)),
    "F": (1, lambda m, a, b, k, *ransac: geometry.estimate_fundamental_ransac(m, a, b, *ransac)),
    "E": (2, lambda m, a, b, k, *ransac: geometry.estimate_essential_ransac(m, a, b, k, *ransac)),
}


def evaluate_pairs(
    features,
    step: int,
    specular_masks: dict,
    poses: dict | None = None,
    intrinsics: Intrinsics | None = None,
    models="auto",
    confidence: float = geometry.RANSAC_CONFIDENCE,
    threshold_px: float = geometry.RANSAC_THRESHOLD_PX,
    seed: int = 0,
):
    """Evaluate all (t, t + step) pairs of a sequence.

    features: {frame_id: (KeypointSet, DescriptorSet)}; specular_masks:
    {frame_id: bool mask} for every frame, whose shape is the frame's
    height and width. Returns (evaluations, skipped) where skipped lists
    (frame_a, frame_b, reason) for pairs missing a frame. models is a
    tuple of MODELS tags, or "auto": H for step 1, else E (with
    intrinsics only) and F. pGT is added whenever the pose of a pair and
    the intrinsics are known. Raises ValueError, before any matching,
    when a keypoint of any frame lies outside [0, width) x [0, height), or
    when a frame's descriptor metric or dim differs from the first frame's.
    """
    frame_ids = sorted(features)
    for fid in frame_ids:
        kp, desc = features[fid]
        _require_in_frame(kp.points, *specular_masks[fid].shape, f"frame {fid}: keypoint")
        first = features[frame_ids[0]][1]
        if (desc.metric, desc.dim) != (first.metric, first.dim):
            raise ValueError(
                f"frame {fid}: {desc.metric} descriptors of dim {desc.dim}, but frame "
                f"{frame_ids[0]} has {first.metric} descriptors of dim {first.dim}"
            )
    if models == "auto":
        models = ("H",) if step <= 1 else ("E", "F") if intrinsics is not None else ("F",)
    evaluations = []
    skipped = []
    for fa in frame_ids:
        fb = fa + step
        if fb not in features:
            skipped.append((fa, fb, "missing frame"))
            continue
        kp_a, desc_a = features[fa]
        kp_b, desc_b = features[fb]
        shape_a = specular_masks[fa].shape
        matches = match_mutual(desc_a, desc_b)
        pose_gt = poses.get((fa, fb)) if poses else None
        inliers, grid_pct = {}, {}
        rotation_deg, pose_failure = None, ""

        primary_flags = np.zeros(len(matches), bool)
        for tag in models:
            slot, estimate = MODELS[tag]
            run_seed = int(np.random.SeedSequence((seed, fa, fb, slot)).generate_state(1)[0])
            result = estimate(matches, kp_a, kp_b, intrinsics, confidence, threshold_px, run_seed)
            flags = result.inliers
            inliers[tag] = int(flags.sum())
            grid_pct[tag] = _inlier_coverage(kp_a, matches, flags, *shape_a)
            if flags.sum() > primary_flags.sum():
                primary_flags = flags
            if tag == "E" and result.success and pose_gt is not None:
                try:
                    est = geometry.recover_pose(
                        result.model, matches, kp_a, kp_b, intrinsics, flags
                    )
                    rotation_deg = rotation_error(est, pose_gt)
                except PoseRecoveryError as exc:
                    pose_failure = str(exc)

        if pose_gt is not None and intrinsics is not None:
            flags = geometry.pgt_inliers(matches, kp_a, kp_b, pose_gt, intrinsics, threshold_px)
            inliers["pGT"] = int(flags.sum())
            grid_pct["pGT"] = _inlier_coverage(kp_a, matches, flags, *shape_a)

        ablation = specularity_ablation(
            kp_a, kp_b, matches, primary_flags, specular_masks[fa], specular_masks[fb]
        )
        evaluations.append(
            PairEvaluation(
                fa, fb, step, len(kp_a), len(kp_b), len(matches),
                inliers, grid_pct, rotation_deg, pose_failure, ablation,
            )
        )
    return evaluations, skipped


def _inlier_coverage(kp_a: KeypointSet, matches: MatchSet, flags, height: int, width: int) -> float:
    """Grid coverage of the flagged matches' keypoints in the first image."""
    return grid_coverage(kp_a.points[matches.pairs[flags, 0]], height, width)


def _require_in_frame(points: np.ndarray, height: int, width: int, what: str) -> None:
    """ValueError naming the first of the (N, 2) points outside [0, width) x [0, height)."""
    x, y = points[:, 0], points[:, 1]
    inside = (x >= 0) & (x < width) & (y >= 0) & (y < height)
    if not inside.all():
        bx, by = points[int(np.argmin(inside))]
        raise ValueError(f"{what} ({fmt(bx)}, {fmt(by)}) lies outside the {width}x{height} image")


@dataclass
class MethodReport:
    method: str
    step: int
    pairs: int
    feat_per_image: float
    mean_matches: float
    mean_inliers: dict
    mean_grid_pct: dict
    rotation_mean_deg: float | None
    rotation_median_deg: float | None
    failure_rate: float | None
    histogram: list  # 4 bucket counts: <5, 5-10, 10-30, >30 degrees
    ablation_features: AblationCounts
    ablation_inliers: AblationCounts


def rotation_histogram(errors) -> list:
    buckets = [0, 0, 0, 0]
    for e in errors:
        if e < HISTOGRAM_EDGES[0]:
            buckets[0] += 1
        elif e < HISTOGRAM_EDGES[1]:
            buckets[1] += 1
        elif e <= HISTOGRAM_EDGES[2]:
            buckets[2] += 1
        else:
            buckets[3] += 1
    return buckets


def aggregate(evaluations, method: str = "method") -> MethodReport:
    """Fold pair evaluations into one report row."""
    evaluations = list(evaluations)
    if not evaluations:
        raise ValueError("aggregate needs at least one evaluation")
    step = evaluations[0].step
    feat = float(np.mean([(e.features_a + e.features_b) / 2.0 for e in evaluations]))
    matches = float(np.mean([e.matches for e in evaluations]))
    tags = sorted({t for e in evaluations for t in e.inliers})
    mean_inliers = {
        t: float(np.mean([e.inliers[t] for e in evaluations if t in e.inliers])) for t in tags
    }
    mean_grid = {
        t: float(np.mean([e.grid_pct[t] for e in evaluations if t in e.grid_pct])) for t in tags
    }
    errors = [e.rotation_error_deg for e in evaluations if e.rotation_error_deg is not None]
    if errors:
        rot_mean = float(np.mean(errors))
        rot_median = float(np.median(errors))
        failure = float(np.mean([e > FAILURE_DEGREES for e in errors]))
    else:
        rot_mean = rot_median = failure = None
    hist = rotation_histogram(errors)

    ab_feat = AblationCounts(
        sum(e.ablation.features.total for e in evaluations),
        sum(e.ablation.features.without_specular for e in evaluations),
    )
    ab_inl = AblationCounts(
        sum(e.ablation.inliers.total for e in evaluations),
        sum(e.ablation.inliers.without_specular for e in evaluations),
    )
    return MethodReport(
        method=method,
        step=step,
        pairs=len(evaluations),
        feat_per_image=feat,
        mean_matches=matches,
        mean_inliers=mean_inliers,
        mean_grid_pct=mean_grid,
        rotation_mean_deg=rot_mean,
        rotation_median_deg=rot_median,
        failure_rate=failure,
        histogram=hist,
        ablation_features=ab_feat,
        ablation_inliers=ab_inl,
    )


# ---------------------------------------------------------------------------
# report files
# ---------------------------------------------------------------------------

_CSV_MODELS = ("H", "E", "F", "pGT")


def report_csv(reports) -> str:
    cols = ["method", "step", "pairs", "feat_per_image", "matches"]
    for tag in _CSV_MODELS:
        cols.append(f"inliers_{tag}")
    for tag in _CSV_MODELS:
        cols.append(f"grid_pct_{tag}")
    cols += [
        "rotation_mean_deg",
        "rotation_median_deg",
        "failure_rate",
        "feat_all",
        "feat_without_specular",
        "feat_retention_pct",
        "inlier_all",
        "inlier_without_specular",
        "inlier_retention_pct",
    ]
    lines = [",".join(cols)]

    def cell(v):
        if v is None:
            return ""
        if isinstance(v, float):
            return fmt(v)
        return str(v)

    for r in reports:
        row = [r.method, r.step, r.pairs, fmt(r.feat_per_image), fmt(r.mean_matches)]
        for tag in _CSV_MODELS:
            row.append(cell(r.mean_inliers.get(tag)))
        for tag in _CSV_MODELS:
            row.append(cell(r.mean_grid_pct.get(tag)))
        row += [cell(r.rotation_mean_deg), cell(r.rotation_median_deg), cell(r.failure_rate)]
        for counts in (r.ablation_features, r.ablation_inliers):
            row += [counts.total, counts.without_specular, fmt(counts.percentage)]
        lines.append(",".join(str(c) for c in row))
    return "".join(l + "\n" for l in lines)


def histogram_csv(reports) -> str:
    lines = ["method,step,bucket,count"]
    labels = ("0-5", "5-10", "10-30", ">30")
    for r in reports:
        for label, count in zip(labels, r.histogram):
            lines.append(f"{r.method},{r.step},{label},{count}")
    return "".join(l + "\n" for l in lines)


def _evaluation_dict(e: PairEvaluation) -> dict:
    doc = asdict(e)
    doc["ablation"] = {
        name: [counts["total"], counts["without_specular"]]
        for name, counts in doc["ablation"].items()
    }
    return doc


def write_report_json(path, method_evaluations: dict, metadata: dict) -> None:
    """Full per-pair detail: {method: {step: [evaluations]}} plus metadata."""
    doc = {"metadata": metadata, "methods": {}}
    for method, by_step in sorted(method_evaluations.items()):
        doc["methods"][method] = {
            str(step): [_evaluation_dict(e) for e in evs] for step, evs in sorted(by_step.items())
        }
    atomic_write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")
