"""Grid coverage, rotation statistics, ablation, report rendering."""

import json

import numpy as np
import pytest

from endofeat import geometry, metrics
from endofeat.geometry import Intrinsics, RelativePose, rotation_to_quat
from endofeat.homography import warp_points
from endofeat.matching import DescriptorSet, KeypointSet, MatchSet
from endofeat.metrics import (
    AblationCounts,
    AblationResult,
    PairEvaluation,
    aggregate,
    evaluate_pairs,
    grid_coverage,
    histogram_csv,
    report_csv,
    rotation_error,
    rotation_histogram,
    specularity_ablation,
    write_report_json,
    _evaluation_dict,
)
from helpers import random_rotation, random_two_view_scene, rng


# --- grid coverage ---------------------------------------------------------


def test_grid_coverage_counts_cells():
    assert grid_coverage(np.empty((0, 2)), 64, 64) == 0.0
    # one cell
    assert grid_coverage([[0.0, 0.0]], 64, 64) == 100.0 / 256
    # same cell twice, plus the far corner
    pts = [[1.0, 2.0], [3.0, 3.0], [63.0, 63.0]]
    assert grid_coverage(pts, 64, 64) == 200.0 / 256
    # every cell occupied
    ys, xs = np.mgrid[0:64:4, 0:64:4]
    full = np.stack([xs.ravel(), ys.ravel()], axis=1).astype(float)
    assert grid_coverage(full, 64, 64) == 100.0


def test_grid_coverage_absorbs_remainder():
    # 70 px / 16 -> 4 px cells; pixels past 16*4 fall into the last cell
    assert grid_coverage([[69.0, 69.0]], 70, 70) == grid_coverage([[63.0, 63.0]], 70, 70)


# --- rotation error --------------------------------------------------------


@pytest.mark.parametrize("seed", range(8))
def test_rotation_error_matches_trace_oracle(seed):
    ra = random_rotation(rng((90, seed)), 170.0)
    rb = random_rotation(rng((91, seed)), 170.0)
    t = np.array([0.0, 0.0, 1.0])
    got = rotation_error(
        RelativePose(rotation_to_quat(ra), t), RelativePose(rotation_to_quat(rb), t)
    )
    cos = (np.trace(ra @ rb.T) - 1.0) / 2.0
    want = np.degrees(np.arccos(np.clip(cos, -1.0, 1.0)))
    assert abs(got - want) < 1e-9


def test_rotation_error_identity_is_zero():
    pose = RelativePose(np.array([1.0, 0, 0, 0]), np.array([0, 0, 1.0]))
    assert rotation_error(pose, pose) == 0.0


def test_rotation_histogram_buckets():
    # buckets: <5, [5,10), [10,30], >30
    errors = [0.0, 4.999, 5.0, 9.999, 10.0, 29.9, 30.0, 30.001, 90.0]
    assert rotation_histogram(errors) == [2, 2, 3, 2]


# --- ablation --------------------------------------------------------------


def test_ablation_counts_percentage():
    assert AblationCounts(0, 0).percentage == 100.0
    assert AblationCounts(4, 3).percentage == 75.0


def test_specularity_ablation_by_hand():
    kp_a = KeypointSet([[0, 0], [5, 5], [9, 9]], np.zeros(3))
    kp_b = KeypointSet([[1, 1], [6, 6]], np.zeros(2))
    mask_a = np.zeros((10, 10), dtype=bool)
    mask_a[5, 5] = True  # second A-feature is specular
    mask_b = np.zeros((10, 10), dtype=bool)
    mask_b[1, 1] = True  # first B-feature is specular
    matches = MatchSet(np.array([[0, 0], [1, 1], [2, 1]]), np.zeros(3))
    flags = np.array([True, True, False])
    res = specularity_ablation(kp_a, kp_b, matches, flags, mask_a, mask_b)
    assert (res.features.total, res.features.without_specular) == (5, 3)
    # match 0 touches specular b0; match 1 touches specular a1; match 2 clean
    assert (res.matches.total, res.matches.without_specular) == (3, 1)
    assert (res.inliers.total, res.inliers.without_specular) == (2, 0)


# --- evaluate_pairs --------------------------------------------------------


def _planar_features(n=60, seed=100, size=64.0):
    r = rng(seed)
    pts_a = r.uniform(4, size - 4, (n, 2))
    h = np.array([[1.0, 0.02, 1.5], [-0.01, 1.0, -0.8], [0, 0, 1.0]])
    pts_b = warp_points(pts_a, h)
    desc = r.normal(size=(n, 16))
    desc /= np.linalg.norm(desc, axis=1, keepdims=True)
    mk = lambda pts, fid: (
        KeypointSet(pts, np.linspace(1, 0.5, n), fid),
        DescriptorSet(desc.astype(np.float32)),
    )
    return {0: mk(pts_a, 0), 1: mk(pts_b, 1)}, h


def _masks(features, shape=(64, 64)):
    """No specular pixel in any frame of the given shape."""
    return {fid: np.zeros(shape, bool) for fid in features}


def test_evaluate_pairs_homography_auto():
    features, h = _planar_features()
    evals, skipped = evaluate_pairs(features, 1, _masks(features), seed=7)
    assert skipped == [(1, 2, "missing frame")]  # tail frame has no successor
    assert len(evals) == 1
    ev = evals[0]
    assert (ev.frame_a, ev.frame_b, ev.step) == (0, 1, 1)
    assert ev.matches == 60  # identical descriptor sets pair one-to-one
    assert set(ev.inliers) == {"H"}  # auto models for step 1
    assert ev.inliers["H"] == 60
    assert 0 < ev.grid_pct["H"] <= 100.0


def test_evaluate_pairs_skips_missing_frames():
    features, _ = _planar_features()
    features[3] = features[1]
    evals, skipped = evaluate_pairs(features, 1, _masks(features))
    assert len(evals) == 1
    assert skipped == [(1, 2, "missing frame"), (3, 4, "missing frame")]


def test_evaluate_pairs_is_deterministic():
    features, _ = _planar_features()
    e1, _ = evaluate_pairs(features, 1, _masks(features), seed=3)
    e2, _ = evaluate_pairs(features, 1, _masks(features), seed=3)
    assert e1[0].inliers == e2[0].inliers
    assert e1[0].grid_pct == e2[0].grid_pct


def test_evaluate_pairs_essential_with_pose():
    pts_a, pts_b, pose, k = random_two_view_scene(n_points=70, seed=101, rotation_deg=12.0)
    r = rng(102)
    desc = r.normal(size=(70, 16)).astype(np.float32)
    features = {
        0: (KeypointSet(pts_a, np.zeros(70), 0), DescriptorSet(desc)),
        1: (KeypointSet(pts_b, np.zeros(70), 1), DescriptorSet(desc)),
    }
    evals, _ = evaluate_pairs(
        features, 1, _masks(features, (480, 640)), poses={(0, 1): pose}, intrinsics=k,
        models=("E",), seed=11,
    )
    ev = evals[0]
    assert ev.inliers["E"] == 70
    assert "pGT" in ev.inliers and ev.inliers["pGT"] == 70
    assert ev.rotation_error_deg is not None and ev.rotation_error_deg < 1e-4
    assert ev.pose_failure == ""


def test_evaluate_pairs_ablation_uses_primary_flags():
    features, _ = _planar_features()
    masks = _masks(features)
    kp_a = features[0][0]
    x, y = kp_a.points[0].astype(int)
    masks[0][y, x] = True  # exactly one specular feature in image A
    evals, _ = evaluate_pairs(features, 1, masks)
    ab = evals[0].ablation
    assert ab.features.total == 120 and ab.features.without_specular == 119
    assert ab.inliers.total == evals[0].inliers["H"]
    assert ab.inliers.without_specular == ab.inliers.total - 1


@pytest.mark.parametrize("x, y", [(-1.0, 10.0), (64.0, 10.0), (10.0, 64.0)])
def test_evaluate_pairs_rejects_out_of_frame_points(monkeypatch, x, y):
    features, _ = _planar_features()
    kp_b, desc_b = features[1]
    pts = kp_b.points.copy()
    pts[7] = (x, y)
    features[1] = (KeypointSet(pts, kp_b.scores, 1), desc_b)

    def no_matching(*args):
        raise AssertionError("matched before checking keypoint bounds")

    monkeypatch.setattr(metrics, "match_mutual", no_matching)
    with pytest.raises(ValueError, match=rf"frame 1: keypoint \({x!r}, {y!r}\) lies outside"):
        evaluate_pairs(features, 1, _masks(features))


def test_evaluate_pairs_frame_size_comes_from_its_own_mask():
    features, _ = _planar_features()
    masks = _masks(features)
    masks[1] = np.zeros((64, 48), bool)
    far = features[1][0].points[:, 0].max()
    assert far >= 48
    with pytest.raises(ValueError, match=r"frame 1: keypoint .* lies outside the 48x64 image"):
        evaluate_pairs(features, 1, masks)
    masks[0] = np.zeros((128, 128), bool)  # grid cells of image A are now 8x8 px
    masks[1] = np.zeros((64, 64), bool)
    wide, _ = evaluate_pairs(features, 1, masks, seed=7)
    narrow, _ = evaluate_pairs(features, 1, _masks(features), seed=7)
    assert wide[0].inliers == narrow[0].inliers
    kp_a = features[0][0]
    assert wide[0].grid_pct["H"] == grid_coverage(kp_a.points, 128, 128)
    assert narrow[0].grid_pct["H"] == grid_coverage(kp_a.points, 64, 64)


@pytest.mark.parametrize(
    "step, with_intrinsics, tags",
    [(1, False, {"H"}), (1, True, {"H"}), (2, True, {"E", "F"}), (2, False, {"F"})],
)
def test_evaluate_pairs_auto_models(step, with_intrinsics, tags):
    features, _ = _planar_features()
    features[2] = features[1]
    k = Intrinsics(60.0, 60.0, 32.0, 32.0) if with_intrinsics else None
    evals, _ = evaluate_pairs(features, step, _masks(features), intrinsics=k)
    assert set(evals[0].inliers) == tags


def test_evaluate_pairs_calls_the_patched_estimator(monkeypatch):
    # the benchmark tracer patches geometry's estimators; the model table
    # must call whatever the module attribute is when evaluate_pairs runs
    real = geometry.estimate_homography_ransac
    calls = []

    def spy(*args):
        calls.append(len(args))
        return real(*args)

    monkeypatch.setattr(geometry, "estimate_homography_ransac", spy)
    features, _ = _planar_features()
    evals, _ = evaluate_pairs(features, 1, _masks(features), models=("H",), seed=7)
    assert calls == [6]
    assert evals[0].inliers["H"] == 60


# --- aggregation and reports -----------------------------------------------


def _toy_evaluations():
    ab1 = AblationResult(AblationCounts(220, 200), AblationCounts(50, 45), AblationCounts(30, 27))
    ab2 = AblationResult(AblationCounts(200, 190), AblationCounts(40, 40), AblationCounts(20, 18))
    e1 = PairEvaluation(0, 1, 1, 100, 120, 50, {"H": 30}, {"H": 12.5}, 4.0, "", ab1)
    e2 = PairEvaluation(1, 2, 1, 110, 90, 40, {"H": 20}, {"H": 25.0}, 40.0, "", ab2)
    return [e1, e2]


def test_aggregate_means_and_failures():
    rep = aggregate(_toy_evaluations(), "learned")
    assert rep.method == "learned" and rep.pairs == 2 and rep.step == 1
    assert rep.feat_per_image == pytest.approx((110 + 100) / 2.0)
    assert rep.mean_matches == 45.0
    assert rep.mean_inliers == {"H": 25.0}
    assert rep.mean_grid_pct == {"H": 18.75}
    assert rep.rotation_mean_deg == 22.0
    assert rep.rotation_median_deg == 22.0
    assert rep.failure_rate == 0.5  # 40 deg > 30 deg
    assert rep.histogram == [1, 0, 0, 1]
    assert rep.ablation_features == AblationCounts(420, 390)
    assert rep.ablation_inliers == AblationCounts(50, 45)
    with pytest.raises(ValueError):
        aggregate([])


def test_report_csv_layout():
    rep = aggregate(_toy_evaluations(), "learned")
    text = report_csv([rep])
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    assert header[:5] == ["method", "step", "pairs", "feat_per_image", "matches"]
    assert "inliers_H" in header and "grid_pct_pGT" in header
    assert "feat_retention_pct" in header and "inlier_retention_pct" in header
    row = lines[1].split(",")
    assert row[0] == "learned" and row[1] == "1" and row[2] == "2"
    assert len(row) == len(header)
    cells = dict(zip(header, row))
    assert (cells["feat_all"], cells["feat_without_specular"]) == ("420", "390")
    assert cells["feat_retention_pct"] == repr(100.0 * 390 / 420)
    assert (cells["inlier_all"], cells["inlier_without_specular"]) == ("50", "45")
    assert cells["inlier_retention_pct"] == "90.0"


def test_histogram_csv_layout():
    rep = aggregate(_toy_evaluations(), "learned")
    lines = histogram_csv([rep]).strip().split("\n")
    assert lines[0] == "method,step,bucket,count"
    assert lines[1] == "learned,1,0-5,1"
    assert lines[4] == "learned,1,>30,1"
    assert len(lines) == 5


def test_report_json_round_trip(tmp_path):
    features, _ = _planar_features()
    evals, _ = evaluate_pairs(features, 1, _masks(features))
    path = tmp_path / "report.json"
    write_report_json(path, {"learned": {1: evals}}, {"seed": 0})
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    assert doc == {
        "metadata": {"seed": 0},
        "methods": {"learned": {"1": [_evaluation_dict(e) for e in evals]}},
    }
    assert len(evals) > 0 and "ablation" in doc["methods"]["learned"]["1"][0]
