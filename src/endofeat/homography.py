"""Random homography sampling, image warping, and cell correspondences.

Homographies are sampled in normalized coordinates on the unit square and
conjugated into the pixel frame when applied to images, so the sampling
amplitudes are resolution independent. A sampled warp is accepted only if
all four unit-square corners stay inside the extended box [-0.2, 1.2]^2,
which keeps enough overlap between the two views for self-supervision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import CELL

_DET_EPS = 1e-12
_CORNER_LO = -0.2
_CORNER_HI = 1.2
_MAX_ATTEMPTS = 100
# cell (i, j) covers pixels [8i, 8i+8) x [8j, 8j+8); its center in (x, y)
_CELL_CENTER = (CELL - 1) / 2.0
# a mapped cell center corresponds to a target cell if within this distance
_CORRESPONDENCE_RADIUS = 8.0


class HomographySamplingError(Exception):
    """No valid homography found within the attempt budget."""


@dataclass(frozen=True)
class HomographyConfig:
    """Amplitudes for the random warp, in unit-square coordinates.

    translation is a fraction of the image side, so 0.1 means shifts of up
    to 10% of width/height. Setting every amplitude to 0 (and the scale
    range to [1, 1]) yields the identity.
    """

    perspective: float = 0.05
    scale_min: float = 0.8
    scale_max: float = 1.2
    rotation_deg: float = 25.0
    translation: float = 0.1

    def __post_init__(self):
        if self.perspective < 0 or self.rotation_deg < 0 or self.translation < 0:
            raise ValueError("amplitudes must be non-negative")
        if not 0 < self.scale_min <= self.scale_max:
            raise ValueError("need 0 < scale_min <= scale_max")


def _normalize(h: np.ndarray) -> np.ndarray:
    if abs(h[2, 2]) > _DET_EPS:
        h = h / h[2, 2]
    return h


def _corners_ok(h: np.ndarray) -> bool:
    corners = np.array([[0.0, 0.0, 1], [1, 0, 1], [0, 1, 1], [1, 1, 1]]).T
    mapped = h @ corners
    if np.any(np.abs(mapped[2]) < _DET_EPS):
        return False
    pts = mapped[:2] / mapped[2]
    return bool(np.all(pts >= _CORNER_LO) and np.all(pts <= _CORNER_HI))


def sample_homography(
    rng: np.random.Generator, config: HomographyConfig = HomographyConfig()
) -> np.ndarray:
    """Draw a random unit-square homography; 3x3, normalized so h[2,2] = 1.

    All draws come from rng. Degenerate or out-of-box samples are redrawn,
    with an error after 100 attempts.
    """
    center = np.array([[1, 0, 0.5], [0, 1, 0.5], [0, 0, 1.0]])
    uncenter = np.array([[1, 0, -0.5], [0, 1, -0.5], [0, 0, 1.0]])
    for _ in range(_MAX_ATTEMPTS):
        px, py = rng.uniform(-config.perspective, config.perspective, size=2)
        s = rng.uniform(config.scale_min, config.scale_max)
        theta = np.deg2rad(rng.uniform(-config.rotation_deg, config.rotation_deg))
        tx, ty = rng.uniform(-config.translation, config.translation, size=2)

        persp = np.array([[1, 0, 0], [0, 1, 0], [px, py, 1.0]])
        c, sn = np.cos(theta), np.sin(theta)
        rotscale = np.array([[s * c, -s * sn, 0], [s * sn, s * c, 0], [0, 0, 1.0]])
        translate = np.array([[1, 0, tx], [0, 1, ty], [0, 0, 1.0]])

        # perspective and rotation/scale act about the square center,
        # translation in plain unit-square units
        h = translate @ center @ rotscale @ persp @ uncenter
        h = _normalize(h)
        if abs(np.linalg.det(h)) <= _DET_EPS:
            continue
        if _corners_ok(h):
            return h
    raise HomographySamplingError(
        f"no homography satisfying the corner box in {_MAX_ATTEMPTS} attempts"
    )


def to_pixel_frame(h_unit: np.ndarray, height: int, width: int) -> np.ndarray:
    """Conjugate a unit-square homography into pixel coordinates."""
    s = np.diag([float(width), float(height), 1.0])
    s_inv = np.diag([1.0 / width, 1.0 / height, 1.0])
    return _normalize(s @ h_unit @ s_inv)


def warp_points(points: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Apply a homography to an (N, 2) array of (x, y) points."""
    points = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    ones = np.ones((points.shape[0], 1))
    mapped = np.hstack([points, ones]) @ h.T
    return mapped[:, :2] / mapped[:, 2:3]


def warp_image(image: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Inverse-warp an H x W image by a pixel-frame homography.

    Output pixel p gets the bilinear sample of the input at h^-1 p; sample
    positions outside the input raster are set to 0.
    """
    image = np.asarray(image)
    if image.ndim != 2:
        raise ValueError(f"warp_image expects an H x W image, got shape {image.shape}")
    det = np.linalg.det(h)
    if not np.isfinite(det) or abs(det) <= _DET_EPS:
        raise ValueError("homography is not invertible")
    ih, iw = image.shape
    hinv = np.linalg.inv(h)
    ys, xs = np.mgrid[0:ih, 0:iw]
    src = np.stack([xs.ravel(), ys.ravel(), np.ones(ih * iw)])
    src = hinv @ src
    sx = src[0] / src[2]
    sy = src[1] / src[2]

    valid = (sx >= 0) & (sx <= iw - 1) & (sy >= 0) & (sy <= ih - 1)
    x0 = np.clip(np.floor(sx).astype(np.int64), 0, iw - 1)
    y0 = np.clip(np.floor(sy).astype(np.int64), 0, ih - 1)
    x1 = np.minimum(x0 + 1, iw - 1)
    y1 = np.minimum(y0 + 1, ih - 1)
    fx = sx - x0
    fy = sy - y0
    img = image.astype(np.float64, copy=False)
    top = img[y0, x0] * (1 - fx) + img[y0, x1] * fx
    bot = img[y1, x0] * (1 - fx) + img[y1, x1] * fx
    out = (top * (1 - fy) + bot * fy) * valid
    return out.reshape(ih, iw).astype(image.dtype, copy=False)


def correspondence_tensor(h: np.ndarray, height: int, width: int) -> np.ndarray:
    """Target cell of every source cell under a pixel-frame homography.

    Returns an (Hc*Wc,) int64 array, Hc = height/8 and Wc = width/8, over the
    source cells in row-major order. Entry i*Wc + j is the row-major index
    k*Wc + l of the target cell (k, l) nearest to the center of source cell
    (i, j) mapped through h (row-major on exact ties), or -1 when that
    nearest center lies more than 8 pixels away.
    """
    if height % CELL or width % CELL:
        raise ValueError(f"image dims must be divisible by {CELL}, got {height}x{width}")
    hc, wc = height // CELL, width // CELL
    jj, ii = np.meshgrid(np.arange(wc), np.arange(hc))
    centers = np.stack(
        [jj.ravel() * CELL + _CELL_CENTER, ii.ravel() * CELL + _CELL_CENTER], axis=1
    )
    mapped = warp_points(centers, h)

    # nearest grid center separates per axis; ceil(u - 0.5) takes the lower
    # index on exact half ties, matching row-major preference
    lx = np.ceil((mapped[:, 0] - _CELL_CENTER) / CELL - 0.5).astype(np.int64)
    ky = np.ceil((mapped[:, 1] - _CELL_CENTER) / CELL - 0.5).astype(np.int64)
    lx = np.clip(lx, 0, wc - 1)
    ky = np.clip(ky, 0, hc - 1)
    dx = mapped[:, 0] - (lx * CELL + _CELL_CENTER)
    dy = mapped[:, 1] - (ky * CELL + _CELL_CENTER)
    hit = dx * dx + dy * dy <= _CORRESPONDENCE_RADIUS**2
    return np.where(hit, ky * wc + lx, -1)
