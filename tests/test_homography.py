"""Warp sampling, image warping, and the cell correspondences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from endofeat.homography import (
    HomographyConfig,
    HomographySamplingError,
    correspondence_tensor,
    sample_homography,
    to_pixel_frame,
    warp_image,
    warp_points,
)

from helpers import rng


def test_config_validation():
    with pytest.raises(ValueError):
        HomographyConfig(perspective=-0.1)
    with pytest.raises(ValueError):
        HomographyConfig(scale_min=1.3, scale_max=1.2)
    with pytest.raises(ValueError):
        HomographyConfig(scale_min=0.0)
    with pytest.raises(ValueError):
        HomographyConfig(rotation_deg=-1)


def test_sampling_is_deterministic_per_seed():
    a = sample_homography(rng(42))
    b = sample_homography(rng(42))
    c = sample_homography(rng(43))
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_identity_config_yields_identity():
    config = HomographyConfig(
        perspective=0.0, scale_min=1.0, scale_max=1.0, rotation_deg=0.0, translation=0.0
    )
    h = sample_homography(rng(0), config)
    np.testing.assert_array_equal(h, np.eye(3))


@given(st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_sampled_corners_stay_in_extended_box(seed):
    h = sample_homography(rng(seed))
    assert h[2, 2] == 1.0
    corners = np.array([[0.0, 0.0], [1, 0], [0, 1], [1, 1]])
    mapped = warp_points(corners, h)
    assert np.all(mapped >= -0.2 - 1e-12) and np.all(mapped <= 1.2 + 1e-12)


def test_sampling_gives_up_after_attempt_budget():
    config = HomographyConfig(translation=50.0)
    with pytest.raises(HomographySamplingError):
        sample_homography(rng(0), config)


def test_warp_points_inverse_round_trip():
    h = sample_homography(rng(7))
    pts = rng(7).uniform(0, 1, (20, 2))
    back = warp_points(warp_points(pts, h), np.linalg.inv(h))
    np.testing.assert_allclose(back, pts, atol=1e-9)


def test_to_pixel_frame_conjugation():
    h = sample_homography(rng(3))
    height, width = 48, 64
    h_px = to_pixel_frame(h, height, width)
    pts_unit = rng(3).uniform(0, 1, (10, 2))
    pts_px = pts_unit * [width, height]
    mapped_unit = warp_points(pts_unit, h) * [width, height]
    mapped_px = warp_points(pts_px, h_px)
    np.testing.assert_allclose(mapped_px, mapped_unit, atol=1e-9)


def test_warp_image_identity_and_translation():
    img = rng(5).uniform(0, 1, (12, 10))
    np.testing.assert_array_equal(warp_image(img, np.eye(3)), img)

    shift = np.array([[1.0, 0, 2], [0, 1, 3], [0, 0, 1]])  # +2 px in x, +3 in y
    out = warp_image(img, shift)
    np.testing.assert_array_equal(out[3:, 2:], img[:-3, :-2])
    assert np.all(out[:3] == 0.0) and np.all(out[:, :2] == 0.0)


def test_warp_image_rejects_singular():
    with pytest.raises(ValueError):
        warp_image(np.ones((8, 8)), np.zeros((3, 3)))


def _correspondence_oracle(h, height, width):
    hc, wc = height // 8, width // 8
    targets = np.full(hc * wc, -1, dtype=np.int64)
    for i in range(hc):
        for j in range(wc):
            m = warp_points(np.array([[j * 8 + 3.5, i * 8 + 3.5]]), h)[0]
            best, best_d = None, None
            for k in range(hc):  # row-major scan: first strict minimum wins ties
                for l in range(wc):
                    d = (m[0] - (l * 8 + 3.5)) ** 2 + (m[1] - (k * 8 + 3.5)) ** 2
                    if best_d is None or d < best_d:
                        best, best_d = k * wc + l, d
            if best_d <= 64.0:
                targets[i * wc + j] = best
    return targets


def test_identity_correspondence_is_diagonal():
    targets = correspondence_tensor(np.eye(3), 32, 24)
    assert targets.dtype == np.int64
    np.testing.assert_array_equal(targets, np.arange(4 * 3))


def test_half_cell_shift_breaks_ties_row_major():
    h = np.array([[1.0, 0, 4.0], [0, 1, 0], [0, 0, 1]])  # exactly between two cells
    targets = correspondence_tensor(h, 16, 32)
    np.testing.assert_array_equal(targets, _correspondence_oracle(h, 16, 32))
    assert targets[0] == 0  # the lower-index cell wins the tie


def test_far_shift_leaves_cells_without_target():
    h = np.array([[1.0, 0, 20.0], [0, 1, 0], [0, 0, 1]])  # 20 px: the right column leaves the frame
    targets = correspondence_tensor(h, 16, 32)
    np.testing.assert_array_equal(targets, _correspondence_oracle(h, 16, 32))
    np.testing.assert_array_equal(targets.reshape(2, 4)[:, 2:], -1)


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_correspondence_matches_brute_force(seed):
    h_unit = sample_homography(rng(seed))
    h = to_pixel_frame(h_unit, 32, 40)
    np.testing.assert_array_equal(
        correspondence_tensor(h, 32, 40), _correspondence_oracle(h, 32, 40)
    )


def test_correspondence_requires_cell_multiple():
    with pytest.raises(ValueError):
        correspondence_tensor(np.eye(3), 30, 40)
