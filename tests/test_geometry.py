"""Quaternions, model fitting, RANSAC, pose recovery, pose files."""

import re
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from endofeat import geometry
from endofeat.geometry import (
    RANSAC_MAX_ITERATIONS,
    Intrinsics,
    PoseRecoveryError,
    RelativePose,
    decompose_essential,
    essential_from_pose,
    estimate_essential_ransac,
    estimate_fundamental_ransac,
    estimate_homography_ransac,
    load_intrinsics,
    load_pose_file,
    pgt_inliers,
    quat_conjugate,
    quat_multiply,
    quat_rotation_angle_deg,
    quat_to_rotation,
    recover_pose,
    rotation_to_quat,
    save_intrinsics,
    save_pose_file,
    triangulate_points,
)
from endofeat.homography import HomographyConfig, sample_homography, to_pixel_frame, warp_points
from endofeat.matching import KeypointSet, MatchSet
from helpers import (
    oracle_epipolar_distances,
    oracle_estimate,
    oracle_fit_fundamental,
    oracle_fit_homography,
    oracle_homography_distances,
    oracle_ransac,
    random_rotation,
    random_two_view_scene,
    rng,
    text_file_bytes,
)


# --- quaternions -----------------------------------------------------------


@pytest.mark.parametrize("seed", range(10))
def test_quaternion_rotation_round_trip(seed):
    r = random_rotation(rng((60, seed)), 170.0)
    q = rotation_to_quat(r)
    assert abs(np.linalg.norm(q) - 1.0) < 1e-12 and q[0] >= 0
    np.testing.assert_allclose(quat_to_rotation(q), r, atol=1e-12)


def test_quat_multiply_matches_matrix_product():
    ra = random_rotation(rng(61), 90.0)
    rb = random_rotation(rng(62), 90.0)
    q = quat_multiply(rotation_to_quat(ra), rotation_to_quat(rb))
    np.testing.assert_allclose(quat_to_rotation(q), ra @ rb, atol=1e-12)


def test_quat_conjugate_inverts():
    q = rotation_to_quat(random_rotation(rng(63), 120.0))
    prod = quat_multiply(q, quat_conjugate(q))
    np.testing.assert_allclose(prod, [1, 0, 0, 0], atol=1e-12)


def test_rotation_angle_degrees():
    assert quat_rotation_angle_deg(np.array([1.0, 0, 0, 0])) == 0.0
    half = np.radians(40.0) / 2
    q = np.array([np.cos(half), np.sin(half), 0, 0])
    assert abs(quat_rotation_angle_deg(q) - 40.0) < 1e-12
    assert abs(quat_rotation_angle_deg(-q) - 40.0) < 1e-12  # sign-invariant


def test_relative_pose_normalizes():
    pose = RelativePose(np.array([-2.0, 0, 0, 0]), np.array([0, 0, 3.0]))
    np.testing.assert_allclose(pose.quaternion, [1, 0, 0, 0])
    np.testing.assert_allclose(pose.translation, [0, 0, 1.0])
    with pytest.raises(ValueError):
        RelativePose(np.zeros(4), np.array([1.0, 0, 0]))


# --- fitting ---------------------------------------------------------------


def test_hartley_normalization_properties():
    pts = rng(64).uniform(-5, 20, (30, 2))
    t, norm, ok = geometry._hartley_stack(np.stack([pts, np.zeros((30, 2))]))
    np.testing.assert_array_equal(ok, [True, False])
    np.testing.assert_allclose(norm[0].mean(axis=0), 0, atol=1e-12)
    assert abs(np.linalg.norm(norm[0], axis=1).mean() - np.sqrt(2)) < 1e-12
    ones = np.ones((30, 1))
    np.testing.assert_allclose((np.hstack([pts, ones]) @ t[0].T)[:, :2], norm[0], atol=1e-12)
    # a degenerate member gets the identity and zero points, never NaN
    np.testing.assert_array_equal(t[1], np.eye(3))
    np.testing.assert_array_equal(norm[1], 0.0)


def _random_pixel_homography(seed, size=64):
    h_unit = sample_homography(rng(seed), HomographyConfig())
    return to_pixel_frame(h_unit, size, size)


@pytest.mark.parametrize("seed", range(5))
def test_fit_homography_exact(seed):
    h_true = _random_pixel_homography((65, seed))
    pts_a = rng((66, seed)).uniform(5, 59, (12, 2))
    pts_b = warp_points(pts_a, h_true)
    h = geometry._fit_one(geometry._fit_homography_stack, pts_a, pts_b)
    np.testing.assert_allclose(h / h[2, 2], h_true / h_true[2, 2], atol=1e-9)
    assert geometry._homography_distances_stack(h[None], pts_a, pts_b).max() < 1e-8


def test_fit_homography_degenerate_sample():
    pts = np.stack([np.arange(4.0), np.arange(4.0) * 2], axis=1)  # collinear
    assert geometry._fit_one(geometry._fit_homography_stack, pts, pts + 1.0) is None


@pytest.mark.parametrize("seed", range(5))
def test_fit_fundamental_exact_epipolar(seed):
    pts_a, pts_b, pose, k = random_two_view_scene(n_points=40, seed=(67, seed))
    f = geometry._fit_one(geometry._fit_fundamental_stack, pts_a, pts_b)
    assert f is not None
    assert geometry._epipolar_distances_stack(f[None], pts_a, pts_b).max() < 1e-6
    assert np.linalg.svd(f, compute_uv=False)[2] < 1e-9  # rank 2


def test_fit_fundamental_essential_manifold():
    pts_a, pts_b, pose, k = random_two_view_scene(n_points=40, seed=68)
    na, nb = k.normalize(pts_a), k.normalize(pts_b)
    e = geometry._fit_one(partial(geometry._fit_fundamental_stack, essential=True), na, nb)
    sv = np.linalg.svd(e, compute_uv=False)
    np.testing.assert_allclose(sv, [1.0, 1.0, 0.0], atol=1e-9)
    e_true = essential_from_pose(pose)
    # same matrix up to global sign and the sqrt(2) norm convention
    cand = e / np.linalg.norm(e) * np.sqrt(2.0)
    err = min(np.abs(cand - e_true).max(), np.abs(cand + e_true).max())
    assert err < 1e-6


def test_essential_from_pose_annihilates_correspondences():
    pts_a, pts_b, pose, k = random_two_view_scene(n_points=25, seed=69)
    e = essential_from_pose(pose)
    assert abs(np.linalg.norm(e) - np.sqrt(2)) < 1e-12
    na = np.hstack([k.normalize(pts_a), np.ones((25, 1))])
    nb = np.hstack([k.normalize(pts_b), np.ones((25, 1))])
    assert np.abs((nb * (na @ e.T)).sum(axis=1)).max() < 1e-12


# --- RANSAC ----------------------------------------------------------------


def _identity_matches(pts_a, pts_b, n_outliers=0, seed=0, size=64.0):
    """KeypointSets + identity MatchSet, optionally with planted bad rows."""
    r = rng((70, seed))
    n = pts_a.shape[0]
    if n_outliers:
        bad_a = r.uniform(0, size, (n_outliers, 2))
        bad_b = r.uniform(0, size, (n_outliers, 2))
        pts_a = np.vstack([pts_a, bad_a])
        pts_b = np.vstack([pts_b, bad_b])
    total = pts_a.shape[0]
    kp_a = KeypointSet(pts_a, np.zeros(total))
    kp_b = KeypointSet(pts_b, np.zeros(total))
    pairs = np.stack([np.arange(total)] * 2, axis=1)
    return kp_a, kp_b, MatchSet(pairs, np.zeros(total)), n


def test_homography_ransac_identifies_planted_inliers():
    h_true = _random_pixel_homography(71)
    pts_a = rng(72).uniform(5, 59, (60, 2))
    pts_b = warp_points(pts_a, h_true)
    kp_a, kp_b, matches, n_in = _identity_matches(pts_a, pts_b, n_outliers=40, seed=1)
    res = estimate_homography_ransac(matches, kp_a, kp_b, seed=3)
    assert res.success
    assert res.inliers[:n_in].all()
    # an outlier can only survive by landing within threshold by chance
    assert res.inliers[n_in:].sum() <= 2
    corners = np.array([[0, 0], [63, 0], [63, 63], [0, 63]], dtype=np.float64)
    err = np.linalg.norm(warp_points(corners, res.model) - warp_points(corners, h_true), axis=1)
    assert err.max() < 1e-6


def test_homography_ransac_is_deterministic_and_order_independent():
    h_true = _random_pixel_homography(73)
    pts_a = rng(74).uniform(5, 59, (40, 2))
    pts_b = warp_points(pts_a, h_true)
    kp_a, kp_b, matches, _ = _identity_matches(pts_a, pts_b, n_outliers=20, seed=2)
    r1 = estimate_homography_ransac(matches, kp_a, kp_b, seed=9)
    r2 = estimate_homography_ransac(matches, kp_a, kp_b, seed=9)
    np.testing.assert_array_equal(r1.model, r2.model)
    np.testing.assert_array_equal(r1.inliers, r2.inliers)

    perm = rng(75).permutation(len(matches))
    shuffled = MatchSet(matches.pairs[perm], matches.distances[perm])
    r3 = estimate_homography_ransac(shuffled, kp_a, kp_b, seed=9)
    assert r3.success
    got = {tuple(p) for p in shuffled.pairs[r3.inliers]}
    want = {tuple(p) for p in matches.pairs[r1.inliers]}
    assert got == want


def test_ransac_too_few_matches():
    kp = KeypointSet(np.zeros((3, 2)), np.zeros(3))
    ms = MatchSet(np.stack([np.arange(3)] * 2, 1), np.zeros(3))
    k = Intrinsics(100.0, 100.0, 50.0, 50.0)
    for res, need in (
        (estimate_homography_ransac(ms, kp, kp), 4),
        (estimate_fundamental_ransac(ms, kp, kp), 8),
        (estimate_essential_ransac(ms, kp, kp, k), 8),
    ):
        assert not res.success and res.model is None and res.iterations == 0
        assert res.reason == f"need at least {need} matches"
        np.testing.assert_array_equal(res.inliers, np.zeros(3, bool))


def test_fundamental_ransac_with_outliers():
    pts_a, pts_b, pose, k = random_two_view_scene(n_points=80, seed=76)
    kp_a, kp_b, matches, n_in = _identity_matches(pts_a, pts_b, n_outliers=40, seed=3, size=500.0)
    res = estimate_fundamental_ransac(matches, kp_a, kp_b, seed=4)
    assert res.success
    assert res.inliers[:n_in].all()
    assert geometry._epipolar_distances_stack(res.model[None], pts_a, pts_b).max() < 3.0


def test_essential_ransac_and_pose_recovery_noise_free():
    pts_a, pts_b, pose, k = random_two_view_scene(n_points=80, seed=77, rotation_deg=15.0)
    kp_a, kp_b, matches, n_in = _identity_matches(pts_a, pts_b)
    res = estimate_essential_ransac(matches, kp_a, kp_b, k, seed=5)
    assert res.success and res.inliers.all()

    est = recover_pose(res.model, matches, kp_a, kp_b, k, res.inliers)
    rel = quat_multiply(est.quaternion, quat_conjugate(pose.quaternion))
    assert quat_rotation_angle_deg(rel) < 1e-4
    assert float(est.translation @ pose.translation) > 1.0 - 1e-8


def test_essential_ransac_survives_outliers():
    pts_a, pts_b, pose, k = random_two_view_scene(n_points=80, seed=77, rotation_deg=15.0)
    kp_a, kp_b, matches, n_in = _identity_matches(pts_a, pts_b, n_outliers=40, seed=4, size=500.0)
    res = estimate_essential_ransac(matches, kp_a, kp_b, k, seed=5)
    assert res.success and res.inliers[:n_in].all()

    # chance-consistent outliers may join the refit; the pose stays close
    est = recover_pose(res.model, matches, kp_a, kp_b, k, res.inliers)
    rel = quat_multiply(est.quaternion, quat_conjugate(pose.quaternion))
    assert quat_rotation_angle_deg(rel) < 0.5
    assert float(est.translation @ pose.translation) > 0.999


def test_ransac_all_hypotheses_degenerate_on_collinear_points():
    xs = np.arange(12.0)
    pts_a = np.stack([xs * 5, xs * 10 + 1], axis=1)  # every sample is collinear
    pts_b = rng(80).uniform(0, 64, (12, 2))
    kp_a, kp_b, matches, _ = _identity_matches(pts_a, pts_b)
    res = estimate_homography_ransac(matches, kp_a, kp_b, seed=1)
    assert not res.success and res.model is None
    assert res.iterations == RANSAC_MAX_ITERATIONS
    assert res.reason == "all hypotheses degenerate"
    np.testing.assert_array_equal(res.inliers, np.zeros(12, bool))


def test_ransac_insufficient_inlier_support():
    # 9 unrelated matches: the rank-2 projection of an 8-point fit keeps
    # fewer than 8 of them within 3 px; a low confidence stops after one draw
    r = np.random.default_rng(0)
    pts_a = r.uniform(0, 64, (9, 2)).round()
    pts_b = r.uniform(0, 64, (9, 2)).round()
    kp_a, kp_b, matches, _ = _identity_matches(pts_a, pts_b)
    res = estimate_fundamental_ransac(matches, kp_a, kp_b, confidence=1e-6, seed=0)
    assert not res.success and res.model is None
    assert res.iterations == 1
    assert res.reason == "insufficient inlier support"
    np.testing.assert_array_equal(res.inliers, np.zeros(9, bool))


def test_ransac_refit_collapse_keeps_sampled_model():
    r = rng((90, 3))
    pts_a = r.uniform(0, 64, (20, 2))
    pts_b = r.uniform(0, 64, (20, 2))
    kp_a, kp_b, matches, _ = _identity_matches(pts_a, pts_b)
    res = estimate_homography_ransac(matches, kp_a, kp_b, threshold_px=20.0, seed=3)
    assert res.success and res.reason == "" and res.iterations == 220
    # the winner is hypothesis 123, returned as sampled with its own flags
    pick = geometry._hypothesis_rng(3, 123).choice(20, size=4, replace=False)
    sampled = geometry._fit_one(geometry._fit_homography_stack, pts_a[pick], pts_b[pick])
    assert res.model.tobytes() == sampled.tobytes()
    flags = geometry._homography_distances_stack(sampled[None], pts_a, pts_b)[0] <= 20.0
    np.testing.assert_array_equal(res.inliers, flags)
    assert flags.sum() == 9
    # because the least-squares refit on those 9 keeps only 1 of them
    refit = geometry._fit_one(geometry._fit_homography_stack, pts_a[flags], pts_b[flags])
    assert (geometry._homography_distances_stack(refit[None], pts_a, pts_b) <= 20.0).sum() == 1


# --- stacked RANSAC against the serial oracle ------------------------------


def _estimate(tag, matches, kp_a, kp_b, k, confidence, seed):
    if tag == "H":
        return estimate_homography_ransac(matches, kp_a, kp_b, confidence, seed=seed)
    if tag == "F":
        return estimate_fundamental_ransac(matches, kp_a, kp_b, confidence, seed=seed)
    return estimate_essential_ransac(matches, kp_a, kp_b, k, confidence, seed=seed)


def _assert_same_result(got, want):
    assert (got.success, got.iterations, got.reason) == (want.success, want.iterations, want.reason)
    assert got.inliers.tobytes() == want.inliers.tobytes()
    if want.model is None:
        assert got.model is None
    else:
        assert got.model.tobytes() == want.model.tobytes()


def _oracle_scene(index):
    """0-59 matches of a two-view scene, some planar, collinear or duplicated,
    with 0-60% of the B points replaced by uniform outliers."""
    r = rng((95, index))
    n = int(r.integers(0, 60))
    pts_a, pts_b, _, k = random_two_view_scene(max(n, 1), seed=(96, index), noise_px=r.uniform(0, 0.5))
    pts_a, pts_b = pts_a[:n], pts_b[:n]
    kind = index % 6
    if kind == 1:  # near-homography
        h = np.eye(3) + r.normal(0, 1e-3, (3, 3))
        h[:2, 2] += r.normal(0, 5, 2)
        pts_b = warp_points(pts_a, h) + r.normal(0, 0.3, pts_a.shape)
    elif kind == 2:  # image-A points on one line
        pts_a[:, 1] = 0.5 * pts_a[:, 0] + 3.0
    elif kind == 3:  # duplicated points: about n/3 distinct positions
        src = r.integers(0, max(1, n // 3), n)
        pts_a, pts_b = pts_a[src], pts_b[src]
    outliers = r.random(n) < r.uniform(0, 0.6)
    pts_b[outliers] = r.uniform(0, 640, (int(outliers.sum()), 2))
    return pts_a, pts_b, k, (0.9999, 0.99, 0.9)[index % 3]


def test_block_ransac_matches_serial_oracle(monkeypatch):
    # A 100-iteration cap keeps the oracle affordable on all-degenerate and
    # outlier-heavy scenes, and ends those runs 4 hypotheses into a block.
    monkeypatch.setattr(geometry, "RANSAC_MAX_ITERATIONS", 100)
    reasons = set()
    for index in range(150):
        pts_a, pts_b, k, confidence = _oracle_scene(index)
        kp_a, kp_b, matches, _ = _identity_matches(pts_a, pts_b)
        for tag in "HFE":
            want = oracle_estimate(tag, matches, kp_a, kp_b, k, confidence=confidence, seed=index)
            got = _estimate(tag, matches, kp_a, kp_b, k, confidence, index)
            _assert_same_result(got, want)
            reasons.add(want.reason)
    assert reasons == {
        "",
        "all hypotheses degenerate",
        "insufficient inlier support",
        "degenerate final support",
        "need at least 4 matches",
        "need at least 8 matches",
    }


@pytest.mark.parametrize("tag", ["H", "F", "E"])
@pytest.mark.parametrize("stop", [31, 32, 33])
def test_block_ransac_stops_at_block_edges(tag, stop):
    # Noise-free inliers plus far outliers: the best hypothesis holds exactly
    # the inliers, so a confidence solved from the inlier ratio pins the bound.
    pts_a, pts_b, _, k = random_two_view_scene(45, seed=(97, stop))
    if tag == "H":
        pts_b = warp_points(pts_a, _random_pixel_homography((98, stop), size=640))
    pts_b = pts_b.copy()
    pts_b[40:] += 300.0
    kp_a, kp_b, matches, _ = _identity_matches(pts_a, pts_b)
    p_good = (40 / 45) ** (4 if tag == "H" else 8)
    confidence = 1.0 - (1.0 - p_good) ** (stop - 0.5)
    want = oracle_estimate(tag, matches, kp_a, kp_b, k, confidence=confidence, seed=stop)
    assert want.success and want.iterations == stop and want.inliers.sum() == 40
    _assert_same_result(_estimate(tag, matches, kp_a, kp_b, k, confidence, stop), want)


def test_block_ransac_linalg_fallbacks_match_serial_oracle():
    # A LinAlgError from a stacked fit refits the block one sample at a time;
    # a sample whose own fit raises is skipped, as the serial loop skipped it.
    pts_a = rng(101).uniform(0, 640, (50, 2))
    pts_b = warp_points(pts_a, _random_pixel_homography(102, size=640))
    pts_b[30:] = rng(103).uniform(0, 640, (20, 2))
    kp_a, kp_b, matches, _ = _identity_matches(pts_a, pts_b)

    def poisoned(sa):  # a 4-point sample holding match 0
        return len(sa) == 4 and (sa[:, 0] == pts_a[0, 0]).any()

    def fit(sa, sb):
        if len(sa) > 1 or poisoned(sa[0]):
            raise np.linalg.LinAlgError("SVD did not converge")
        return geometry._fit_homography_stack(sa, sb)

    def oracle_fit(sa, sb):
        return None if poisoned(sa) else oracle_fit_homography(sa, sb)

    want = oracle_ransac(
        matches, kp_a, kp_b, 4, oracle_fit, oracle_homography_distances, 3.0, 0.9999, 7
    )
    got = geometry._ransac(
        matches, kp_a, kp_b, 4, fit, geometry._homography_distances_stack, 3.0, 0.9999, 7
    )
    assert want.success and want.iterations > 32
    skipped = [
        it for it in range(want.iterations)
        if 0 in geometry._hypothesis_rng(7, it).choice(50, size=4, replace=False)
    ]
    assert skipped  # the poisoned path was taken
    _assert_same_result(got, want)


@pytest.mark.parametrize("tag", ["H", "F", "E"])
def test_ransac_across_draw_chunks_matches_serial_oracle(tag):
    # 40 inliers among 100 (H) or 65 (F, E) matches need 299-444 hypotheses,
    # so the run draws a second chunk of samples after the first _CHUNK.
    pts_a, pts_b, _, k = random_two_view_scene(40, seed=(105, 1))
    if tag == "H":
        pts_b = warp_points(pts_a, _random_pixel_homography((106, 1), size=640))
    outliers = 60 if tag == "H" else 25
    kp_a, kp_b, matches, _ = _identity_matches(pts_a, pts_b, outliers, seed=1, size=640.0)
    want = oracle_estimate(tag, matches, kp_a, kp_b, k, seed=1)
    assert want.success and want.iterations > geometry._CHUNK
    _assert_same_result(_estimate(tag, matches, kp_a, kp_b, k, geometry.RANSAC_CONFIDENCE, 1), want)


def _numpy_samples(seed, first, count, n, s):
    return [geometry._hypothesis_rng(seed, it).choice(n, size=s, replace=False)
            for it in range(first, first + count)]


@settings(deadline=None, max_examples=300)
@given(
    seed=st.integers(0, 2**32 - 1),
    first=st.integers(0, 10**4),
    count=st.integers(1, 40),
    s=st.sampled_from([4, 5, 8]),
    extra=st.integers(1, 2 * 10**5 - 8),
)
@example(seed=0, first=0, count=40, s=8, extra=1)  # n == s + 1: Floyd often takes j
def test_draw_samples_equal_numpy_choice(seed, first, count, s, extra):
    n = s + extra
    got = geometry._draw_samples(seed, first, count, n, s)
    assert got.dtype == np.int64 and got.shape == (count, s)
    assert got.tolist() == [p.tolist() for p in _numpy_samples(seed, first, count, n, s)]


@pytest.mark.parametrize(
    "seed, first, n, s",
    [
        (7, 0, 2**31 - 1, 8),  # lane model; about half the lanes redraw through numpy
        (7, 0, 2**31, 4),  # n past the lane model
        (2**32, 5, 1000, 4),  # seed of two uint32 words
        (3, 2**32 - 2, 1000, 4),  # iterations cross 2**32
        (3, 0, 4, 4),  # n == s: a permutation
        (3, 0, 20, 9),  # s past the lane model
        (3, 0, 10, 0),  # empty samples
    ],
)
def test_draw_samples_fallbacks_equal_numpy_choice(seed, first, n, s):
    got = geometry._draw_samples(seed, first, 6, n, s)
    want = np.array(_numpy_samples(seed, first, 6, n, s), np.int64).reshape(6, s)
    assert got.dtype == np.int64 and got.tobytes() == want.tobytes()
    if n == 2**31 - 1:
        assert geometry._lane_draws(seed, first, 6, n, s)[1].any()


def test_draw_samples_pass_numpy_errors_through():
    for seed in (-1, 2.5):
        with pytest.raises((ValueError, TypeError)) as want:
            geometry._hypothesis_rng(seed, 0)
        with pytest.raises(want.type, match=re.escape(str(want.value))):
            geometry._draw_samples(seed, 0, 3, 100, 4)
    with pytest.raises(ValueError, match="larger sample than population"):
        geometry._draw_samples(0, 0, 3, 3, 4)


def test_draw_samples_self_check_failure_falls_back_to_numpy(monkeypatch):
    monkeypatch.setattr(geometry, "_lane_draws_ok", None)
    assert geometry._lane_draws_checked()
    lane_draws = geometry._lane_draws

    def off_by_one(seed, first, count, n, s):
        picks, unsure = lane_draws(seed, first, count, n, s)
        return (picks + 1) % n, unsure

    monkeypatch.setattr(geometry, "_lane_draws", off_by_one)
    monkeypatch.setattr(geometry, "_lane_draws_ok", None)
    got = geometry._draw_samples(11, 40, 32, 500, 8)
    assert geometry._lane_draws_ok is False
    assert got.tolist() == [p.tolist() for p in _numpy_samples(11, 40, 32, 500, 8)]


@pytest.mark.parametrize("seed", range(4))
def test_rounding_cloud_homographies_are_invertible(seed):
    # Image-A points up to 16 ulps apart pass the Hartley spread check with a
    # scale near 1e12, and the scaled fit can come out exactly singular.
    # Such a model counts as degenerate: the fit reports it failed and
    # RANSAC skips it, so no inv call meets a singular matrix.
    r = rng((104, seed))
    p = r.uniform(0, 1e4, 2)
    pts_a = p + r.integers(-16, 17, (40, 2)) * np.spacing(p)
    pts_b = r.uniform(0, 640, (40, 2))
    fits = [geometry._fit_one(geometry._fit_homography_stack, pts_a, pts_b)] + [
        geometry._fit_one(geometry._fit_homography_stack, pts_a[pick], pts_b[pick])
        for pick in (r.choice(40, size=4, replace=False) for _ in range(30))
    ]
    assert any(h is not None for h in fits)
    for h in fits:
        if h is not None:
            np.linalg.inv(h)  # LinAlgError on a singular model
    kp_a, kp_b, matches, _ = _identity_matches(pts_a, pts_b)
    res = estimate_homography_ransac(matches, kp_a, kp_b, seed=seed)
    assert res.iterations > 0
    if res.success:
        np.linalg.inv(res.model)


def _same_or_none(got, want):
    return got is None and want is None or (
        got is not None and want is not None and got.tobytes() == want.tobytes()
    )


@pytest.mark.parametrize("n", [4, 8, 9, 37, 200, 640])
def test_single_model_kernels_match_oracle(n):
    r = rng((99, n))
    for trial in range(12):
        pts_a = r.uniform(0, 320, (n, 2))
        pts_b = pts_a + r.normal(0, 5, (n, 2))
        if trial % 4 == 1:
            pts_a[:, 1] = 2 * pts_a[:, 0] + 1
        elif trial % 4 == 2:
            pts_a[:] = pts_a[0]
        h = geometry._fit_one(geometry._fit_homography_stack, pts_a, pts_b)
        assert _same_or_none(h, oracle_fit_homography(pts_a, pts_b))
        for essential in (False, True) if n >= 8 else ():  # F and E take 8 or more
            na, nb = pts_a / 300, pts_b / 300
            fit = partial(geometry._fit_fundamental_stack, essential=essential)
            assert _same_or_none(
                geometry._fit_one(fit, na, nb), oracle_fit_fundamental(na, nb, essential)
            )
        model = r.normal(size=(3, 3))
        assert geometry._homography_distances_stack(model[None], pts_a, pts_b)[0].tobytes() == (
            oracle_homography_distances(model, pts_a, pts_b).tobytes()
        )
        assert geometry._epipolar_distances_stack(model[None], pts_a, pts_b)[0].tobytes() == (
            oracle_epipolar_distances(model, pts_a, pts_b).tobytes()
        )


@pytest.mark.parametrize(
    "size, stack_fit, oracle_fit",
    [
        (4, geometry._fit_homography_stack, oracle_fit_homography),
        (8, geometry._fit_fundamental_stack, oracle_fit_fundamental),
        (
            8,
            lambda a, b: geometry._fit_fundamental_stack(a, b, essential=True),
            lambda a, b: oracle_fit_fundamental(a, b, essential=True),
        ),
    ],
    ids=["H", "F", "E"],
)
def test_stacked_fits_match_oracle_with_degenerate_members(size, stack_fit, oracle_fit):
    r = rng((100, size))
    for trial in range(10):
        sa = r.uniform(0, 2, (32, size, 2))
        sb = sa + r.normal(0, 0.1, (32, size, 2))
        sa[3] = sa[3, 0]  # one point repeated
        sa[5, :, 1] = sa[5, :, 0]  # collinear
        sb[7] = 0.0  # all at the origin
        models, ok = stack_fit(sa, sb)
        for j in range(32):
            assert _same_or_none(models[j] if ok[j] else None, oracle_fit(sa[j], sb[j]))
        assert not ok[[3, 5, 7]].any()
        residual = (
            geometry._homography_distances_stack if size == 4 else geometry._epipolar_distances_stack
        )
        oracle_residual = oracle_homography_distances if size == 4 else oracle_epipolar_distances
        pts_a, pts_b = r.uniform(0, 2, (50, 2)), r.uniform(0, 2, (50, 2))
        stacked = residual(models, pts_a, pts_b)
        for j in range(32):
            assert stacked[j].tobytes() == oracle_residual(models[j], pts_a, pts_b).tobytes()


def test_recover_pose_requires_inliers():
    pts_a, pts_b, pose, k = random_two_view_scene(n_points=10, seed=78)
    kp_a, kp_b, matches, _ = _identity_matches(pts_a, pts_b)
    e = essential_from_pose(pose)
    with pytest.raises(PoseRecoveryError, match="at least one"):
        recover_pose(e, matches, kp_a, kp_b, k, np.zeros(10, dtype=bool))


def test_decompose_essential_contains_truth():
    _, _, pose, _ = random_two_view_scene(n_points=10, seed=79)
    cands = decompose_essential(essential_from_pose(pose))
    best = min(
        min(np.abs(r - pose.rotation).max() + np.abs(t - pose.translation).max(),
            np.abs(r - pose.rotation).max() + np.abs(t + pose.translation).max())
        for r, t in cands
    )
    # the true R appears with t up to sign
    assert min(
        np.abs(r - pose.rotation).max()
        for r, _ in cands
    ) < 1e-9
    assert best < 1e-9 or best < 2.0  # (R, ±t) pairing covered above


def test_triangulation_recovers_depths():
    pts_a, pts_b, pose, k = random_two_view_scene(n_points=30, seed=80)
    na, nb = k.normalize(pts_a), k.normalize(pts_b)
    pts3 = triangulate_points(na, nb, pose.rotation, pose.translation)
    assert (pts3[:, 2] > 0).all()
    # reprojection into view A must reproduce the normalized coordinates
    np.testing.assert_allclose(pts3[:, :2] / pts3[:, 2:3], na, atol=1e-9)


def _triangulate_per_point(norm_a, norm_b, r, t):
    """Reference: one 4x4 DLT system and one SVD per point."""
    p1 = np.hstack([np.eye(3), np.zeros((3, 1))])
    p2 = np.hstack([r, t.reshape(3, 1)])
    out = np.zeros((norm_a.shape[0], 3))
    for i, ((x1, y1), (x2, y2)) in enumerate(zip(norm_a, norm_b)):
        a = np.stack([x1 * p1[2] - p1[0], y1 * p1[2] - p1[1], x2 * p2[2] - p2[0], y2 * p2[2] - p2[1]])
        xh = np.linalg.svd(a)[2][-1]
        w = xh[3] if abs(xh[3]) > 1e-12 else 1e-12
        out[i] = xh[:3] / w
    return out


@pytest.mark.parametrize("seed", range(3))
def test_triangulation_matches_per_point_reference(seed):
    pts_a, pts_b, pose, k = random_two_view_scene(n_points=600, seed=84 + seed, noise_px=1.0)
    na, nb = k.normalize(pts_a), k.normalize(pts_b)
    # rays related by the rotation alone meet at infinity (w ~ 0)
    rays = np.hstack([na[:5], np.ones((5, 1))]) @ pose.rotation.T
    nb[:5] = rays[:, :2] / rays[:, 2:]
    for r, t in decompose_essential(essential_from_pose(pose)):
        want = _triangulate_per_point(na, nb, r, t)
        np.testing.assert_array_equal(triangulate_points(na, nb, r, t), want)
    assert triangulate_points(na[:0], nb[:0], pose.rotation, pose.translation).shape == (0, 3)


def test_pgt_inliers_flags_epipolar_consistency():
    pts_a, pts_b, pose, k = random_two_view_scene(n_points=30, seed=81)
    kp_a, kp_b, matches, n_in = _identity_matches(pts_a, pts_b, n_outliers=15, seed=5, size=500.0)
    flags = pgt_inliers(matches, kp_a, kp_b, pose, k)
    assert flags[:n_in].all()
    assert flags[n_in:].sum() <= 3


# --- files -----------------------------------------------------------------


def test_pose_file_round_trip(tmp_path):
    poses = []
    for i in range(3):
        r = random_rotation(rng((82, i)), 40.0)
        t = rng((83, i)).normal(size=3)
        poses.append((i, i + 1, RelativePose(rotation_to_quat(r), t)))
    path = tmp_path / "poses.txt"
    save_pose_file(path, poses)
    back = load_pose_file(path)
    assert set(back) == {(0, 1), (1, 2), (2, 3)}
    for fa, fb, pose in poses:
        got = back[(fa, fb)]
        # loading re-normalizes, which may shift the last ulp
        np.testing.assert_allclose(got.quaternion, pose.quaternion, rtol=0, atol=1e-15)
        np.testing.assert_allclose(got.translation, pose.translation, rtol=0, atol=1e-15)


def test_pose_file_rejects_malformed(tmp_path):
    path = tmp_path / "poses.txt"
    path.write_text("# comment\n0 1 1 0 0\n")
    with pytest.raises(ValueError, match="poses.txt:2"):
        load_pose_file(path)


def test_intrinsics_round_trip(tmp_path):
    k = Intrinsics(400.5, 399.25, 320.0, 240.125)
    path = tmp_path / "intrinsics.txt"
    save_intrinsics(path, k)
    assert load_intrinsics(path) == k
    path.write_text("# nothing\n")
    with pytest.raises(ValueError, match="no intrinsics"):
        load_intrinsics(path)
    with pytest.raises(ValueError):
        Intrinsics(-1.0, 1.0, 0.0, 0.0)


@pytest.mark.parametrize("extra", ["this is garbage", "400 400 320 240"])
def test_intrinsics_rejects_a_second_record(tmp_path, extra):
    path = tmp_path / "intrinsics.txt"
    path.write_text(f"400 400 320 240\n# note\n{extra}\n")
    with pytest.raises(ValueError, match=r"intrinsics\.txt:3: "):
        load_intrinsics(path)


def test_non_finite_pose_and_intrinsics_rejected(tmp_path):
    path = tmp_path / "poses.txt"
    for line in ("0 1 nan 0 0 0 1 0 0", "0 1 1 0 0 0 inf 0 0", "0 1 1 0 0 0 1 -1e999 0"):
        path.write_text(line + "\n")
        with pytest.raises(ValueError, match="finite"):
            load_pose_file(path)
    path = tmp_path / "intrinsics.txt"
    path.write_text("nan 280 inf 119.5\n")
    with pytest.raises(ValueError, match="finite"):
        load_intrinsics(path)


def test_pose_with_overflowing_norm_is_normalised(tmp_path):
    # Finite components whose plain norm overflows are rescaled by their
    # largest magnitude, with no overflow warning; finite is never "non-finite".
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pose = RelativePose((1e200, 0, 0, 0), (0, 0, 1))
        np.testing.assert_array_equal(pose.quaternion, [1.0, 0, 0, 0])
        pose = RelativePose((-1.7e308, 1.7e308, 0, 0), (1e300, -1e300, 0))
        np.testing.assert_allclose(pose.quaternion, [np.sqrt(0.5), -np.sqrt(0.5), 0, 0], atol=1e-15)
        np.testing.assert_allclose(pose.translation, [np.sqrt(0.5), -np.sqrt(0.5), 0], atol=1e-15)
        path = tmp_path / "poses.txt"
        path.write_text("0 1 1e200 1e200 0 0 1 0 0\n")
        pose = load_pose_file(path)[(0, 1)]
        np.testing.assert_allclose(pose.quaternion, [np.sqrt(0.5), np.sqrt(0.5), 0, 0], atol=1e-15)
    # a norm that does not overflow keeps the plain division
    q = np.array([3e150, -4e150, 1e149, 2.0])
    np.testing.assert_array_equal(RelativePose(q, (1, 0, 0)).quaternion, q / np.linalg.norm(q))


def test_pose_file_names_line_of_bad_value(tmp_path):
    path = tmp_path / "poses.txt"
    good = "0 1 1 0 0 0 1 0 0"
    for bad in ("0 1 x 0 0 0 1 0 0", "0 y 1 0 0 0 1 0 0", "0 1 nan 0 0 0 1 0 0", "0 1 0 0 0 0 1 0 0"):
        path.write_text(f"# poses\n{good}\n\n{bad}\n")
        with pytest.raises(ValueError, match=r"poses\.txt:4: "):
            load_pose_file(path)


def test_intrinsics_names_line_of_bad_value(tmp_path):
    path = tmp_path / "intrinsics.txt"
    for bad in ("400 x 320 240", "400 400 inf 240", "-1 400 320 240", "400 400 320"):
        path.write_text(f"# fx fy cx cy\n\n{bad}\n")
        with pytest.raises(ValueError, match=r"intrinsics\.txt:3: "):
            load_intrinsics(path)


_NUMBER = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["nan", "-inf", "1e999", "-0", "1e-320", "1e160"]),
    st.integers(-3, 3).map(str),
)
_ID = st.integers(-2, 2).map(str)


def _lines(*tokens):
    line = st.tuples(*tokens).map(" ".join)
    return text_file_bytes(st.lists(st.one_of(line, st.text(max_size=40)), min_size=1, max_size=4).map("\n".join))


@settings(deadline=None, max_examples=200)
@given(blob=_lines(_ID, _ID, *[_NUMBER] * 7))
@example(blob=b"0 1 1 0 0 0 1 0 0\n\xff\n")
def test_load_pose_file_fuzz_finite_or_value_error(tmp_path_factory, blob):
    path = tmp_path_factory.getbasetemp() / "fuzz_poses.txt"
    path.write_bytes(blob)
    try:
        poses = load_pose_file(path)
    except ValueError as exc:
        assert str(path) in str(exc)
        return
    for pose in poses.values():
        for v in (pose.quaternion, pose.translation):
            assert np.isfinite(v).all() and abs(np.linalg.norm(v) - 1.0) < 1e-12


@settings(deadline=None, max_examples=200)
@given(blob=_lines(*[_NUMBER] * 4))
@example(blob=b"400 400 320 240\n\xff\n")
def test_load_intrinsics_fuzz_finite_or_value_error(tmp_path_factory, blob):
    path = tmp_path_factory.getbasetemp() / "fuzz_intrinsics.txt"
    path.write_bytes(blob)
    try:
        k = load_intrinsics(path)
    except ValueError as exc:
        assert str(path) in str(exc)
        return
    assert np.isfinite(k.matrix).all() and k.fx > 0 and k.fy > 0
