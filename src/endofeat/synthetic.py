"""Synthetic imagery for tests, scripts and scaled-down experiments.

Provides band-limited textures, planted specular blobs with a target
coverage fraction, distinctive corner markers with known locations, and
warped frame sequences with known homographies.
"""

from __future__ import annotations

import numpy as np

from .data import SPECULAR_THRESHOLD, PseudoLabel, specularity_mask
from .homography import HomographyConfig, sample_homography, to_pixel_frame, warp_image

_TEXTURE_LO, _TEXTURE_HI = 0.1, 0.55  # texture value range, below the highlight cut
_BLOB_INTENSITY = 0.9  # specular blob peak
_MARKER_SIZE, _MARKER_SEPARATION = 4, 10  # corner marker width; least centre distance on an axis
_LABELS_PER_IMAGE, _LABELS_ON_BLOBS = 40, 12  # specular training labels per image, and on highlights


def band_limited_texture(height: int, width: int, seed: int = 0, cutoff: float = 0.12) -> np.ndarray:
    """Smooth random texture with values in [0.1, 0.55] (below the highlight cut)."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
    noise = rng.standard_normal((height, width))
    fy = np.fft.fftfreq(height)[:, None]
    fx = np.fft.fftfreq(width)[None, :]
    keep = np.sqrt(fy**2 + fx**2) <= cutoff
    img = np.fft.ifft2(np.fft.fft2(noise) * keep).real
    rng_min, rng_max = img.min(), img.max()
    if rng_max - rng_min < 1e-12:
        return np.full((height, width), (_TEXTURE_LO + _TEXTURE_HI) / 2.0)
    return _TEXTURE_LO + (_TEXTURE_HI - _TEXTURE_LO) * (img - rng_min) / (rng_max - rng_min)


def add_specular_blobs(image: np.ndarray, seed: int = 0, coverage: float = 0.075) -> np.ndarray:
    """Plant bright gaussian blobs until ~coverage of pixels is highlight.

    Returns a copy; the blob peaks reach 0.9 so the saturated area
    is well above `data.SPECULAR_THRESHOLD`.
    """
    if not 0 < coverage < 0.5:
        raise ValueError("coverage must be a small fraction of the image")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 1)))
    h, w = image.shape
    out = image.copy()
    ys, xs = np.mgrid[0:h, 0:w]
    target = coverage * h * w
    for _ in range(200):
        if (out > SPECULAR_THRESHOLD).sum() >= target:
            break
        cy = rng.uniform(0.1 * h, 0.9 * h)
        cx = rng.uniform(0.1 * w, 0.9 * w)
        sigma = rng.uniform(0.02, 0.04) * min(h, w)
        blob = _BLOB_INTENSITY * np.exp(-((ys - cy) ** 2 + (xs - cx) ** 2) / (2 * sigma**2))
        out = np.maximum(out, blob)
    return np.clip(out, 0.0, 1.0)


def stamp_marker(image: np.ndarray, x: int, y: int, size: int, outer: float,
                 inner: float) -> None:
    """In place: a nested square centred on (x, y), `size` // 2 pixels each way."""
    half = size // 2
    image[y - half : y + half + 1, x - half : x + half + 1] = outer
    core = max(1, half - 1)
    image[y - core : y + core + 1, x - core : x + core + 1] = inner


def add_corner_markers(image: np.ndarray, seed: int = 0, count: int = 40, margin: int = 12):
    """Stamp small dark/bright squares; returns (image copy, (x, y) centers).

    The marker centers are distinctive keypoint locations, any two at
    least 10 pixels apart in x or y, with known ground-truth coordinates.
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed, 2)))
    h, w = image.shape
    out = image.copy()
    centers = []
    attempts = 0
    while len(centers) < count and attempts < count * 200:
        attempts += 1
        x = int(rng.integers(margin, w - margin))
        y = int(rng.integers(margin, h - margin))
        if any(max(abs(x - cx), abs(y - cy)) < _MARKER_SEPARATION for cx, cy in centers):
            continue
        dark = rng.random() < 0.5
        stamp_marker(out, x, y, _MARKER_SIZE, *((0.02, 0.62) if dark else (0.62, 0.02)))
        centers.append((x, y))
    return out, np.asarray(centers, dtype=np.int64).reshape(-1, 2)


def planted_label(centers: np.ndarray) -> PseudoLabel:
    """Label every center, scores falling linearly from 1.0 to 0.5 in order."""
    centers = np.asarray(centers, dtype=np.int64).reshape(-1, 2)
    return PseudoLabel(centers, np.linspace(1.0, 0.5, centers.shape[0]))


def specular_training_set(n_images: int, size: int = 64, seed: int = 0):
    """Textured images with specular blobs (default coverage) and planted labels.

    40 label points per image, 12 of them placed inside the blobs,
    imitating a teacher that fires on highlights. Returns a list of
    (image, PseudoLabel, specular mask) triples.
    """
    out = []
    for i in range(n_images):
        base = band_limited_texture(size, size, seed=seed * 1000 + i)
        img = add_specular_blobs(base, seed=seed * 1000 + i)
        mask = specularity_mask(img)
        rng = np.random.default_rng(np.random.SeedSequence((seed, i, 3)))
        spec_idx = np.flatnonzero(mask.ravel())
        clean_idx = np.flatnonzero(~mask.ravel())
        n_on = min(_LABELS_ON_BLOBS, spec_idx.size)
        n_off = min(_LABELS_PER_IMAGE - n_on, clean_idx.size)
        chosen = np.concatenate(
            [
                rng.choice(spec_idx, size=n_on, replace=False) if n_on else np.empty(0, np.int64),
                rng.choice(clean_idx, size=n_off, replace=False) if n_off else np.empty(0, np.int64),
            ]
        ).astype(np.int64)
        ys, xs = np.divmod(chosen, size)
        scores = rng.uniform(0.5, 1.0, size=chosen.size)
        order = np.argsort(-scores, kind="stable")
        label = PseudoLabel(np.stack([xs[order], ys[order]], axis=1), scores[order])
        out.append((img, label, mask))
    return out


def warped_sequence(base: np.ndarray, n_frames: int, seed: int = 0,
                    config: HomographyConfig | None = None):
    """Frames warped from one base image by known pixel-frame homographies.

    Frame 0 is the base itself (identity); returns (frames, homographies)
    where homographies[i] maps base pixels to frame-i pixels. The relative
    warp between frames a and b is H_b @ inv(H_a).
    """
    if config is None:
        config = HomographyConfig(
            perspective=0.01, scale_min=0.95, scale_max=1.05,
            rotation_deg=4.0, translation=0.05,
        )
    h_img, w_img = base.shape
    frames = [base.copy()]
    homs = [np.eye(3)]
    for i in range(1, n_frames):
        h_unit = sample_homography(np.random.default_rng(np.random.SeedSequence((seed, i, 4))), config)
        h_px = to_pixel_frame(h_unit, h_img, w_img)
        frames.append(warp_image(base, h_px))
        homs.append(h_px)
    return frames, homs
