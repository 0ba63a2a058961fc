"""Synthetic imagery and scene generators used by the harness tests."""

import numpy as np

from endofeat.data import specularity_mask
from endofeat.geometry import essential_from_pose
from endofeat.homography import warp_points
from endofeat.synthetic import (
    add_corner_markers,
    add_specular_blobs,
    band_limited_texture,
    planted_label,
    specular_training_set,
    warped_sequence,
)

from helpers import random_two_view_scene


def test_band_limited_texture_range_and_determinism():
    img = band_limited_texture(48, 64, seed=1)
    assert img.shape == (48, 64)
    assert img.min() >= 0.0 and img.max() <= 1.0
    assert img.std() > 0.01  # actually textured
    np.testing.assert_array_equal(img, band_limited_texture(48, 64, seed=1))
    assert np.abs(img - band_limited_texture(48, 64, seed=2)).max() > 1e-3


def test_add_specular_blobs_reaches_coverage():
    base = band_limited_texture(64, 64, seed=3)
    out = add_specular_blobs(base, seed=4, coverage=0.05)
    mask = specularity_mask(out)
    assert mask.sum() >= 0.05 * 64 * 64
    assert out.max() <= 1.0
    # untouched pixels keep their base values
    assert (out >= base - 1e-12).all()


def test_add_corner_markers_plants_separated_points():
    base = band_limited_texture(96, 96, seed=5)
    img, centers = add_corner_markers(base, seed=6, count=25)
    assert centers.shape == (25, 2) and centers.dtype == np.int64
    assert img.min() >= 0.0 and img.max() <= 1.0
    for i in range(25):
        for j in range(i + 1, 25):
            assert np.abs(centers[i] - centers[j]).max() >= 10
    label = planted_label(centers)
    assert len(label) == 25
    assert np.all(np.diff(label.scores) <= 0)


def test_specular_training_set_structure():
    items = specular_training_set(3, size=64, seed=7)
    assert len(items) == 3
    for img, label, mask in items:
        assert img.shape == (64, 64) and mask.shape == (64, 64)
        assert mask.dtype == bool and mask.any()
        assert len(label) > 0
        np.testing.assert_array_equal(mask, specularity_mask(img))
    # some labels must sit on highlights for the suppression ablation
    on = sum(m[y, x] for _, lbl, m in items for x, y in lbl.points)
    assert on > 0


def test_warped_sequence_first_frame_identity():
    base = band_limited_texture(64, 64, seed=8)
    frames, homs = warped_sequence(base, 4, seed=9)
    assert len(frames) == len(homs) == 4
    np.testing.assert_array_equal(frames[0], base)
    np.testing.assert_array_equal(homs[0], np.eye(3))
    for img, h in zip(frames[1:], homs[1:]):
        assert img.shape == base.shape
        assert abs(h[2, 2] - 1.0) < 1e-12
        assert np.abs(h - np.eye(3)).max() > 1e-6
        # mild warps keep the image center inside the frame
        cx, cy = warp_points(np.array([[32.0, 32.0]]), h)[0]
        assert 0 <= cx < 64 and 0 <= cy < 64


def test_random_two_view_scene_geometry_is_exact():
    pts_a, pts_b, pose, k = random_two_view_scene(n_points=50, seed=10)
    assert pts_a.shape == pts_b.shape == (50, 2)
    e = essential_from_pose(pose)
    na = np.hstack([k.normalize(pts_a), np.ones((50, 1))])
    nb = np.hstack([k.normalize(pts_b), np.ones((50, 1))])
    assert np.abs((nb * (na @ e.T)).sum(axis=1)).max() < 1e-10

    noisy_a, noisy_b, _, _ = random_two_view_scene(n_points=50, seed=10, noise_px=1.0)
    # same scene and pose, noise perturbs both projections
    assert 0.01 < np.abs(noisy_a - pts_a).max() < 6.0
    assert 0.01 < np.abs(noisy_b - pts_b).max() < 6.0
