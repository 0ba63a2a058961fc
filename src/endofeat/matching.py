"""Keypoint extraction and bi-directional brute-force descriptor matching.

Detection (detect_points) masks and thresholds the dense heatmap,
suppresses non-maxima greedily over a square window and caps the count;
extraction also decodes the coarse descriptor cells at each surviving
pixel (network.densify), so no full-resolution descriptor map is built.
Both take plain arrays. Matching keeps a pair only when each descriptor is
the other's nearest neighbor (ties to the lowest index), with L2 distance for
real descriptors and Hamming distance for packed binary ones; both go
through one exact nearest-neighbour kernel, Hamming on the unpacked bits.

Feature files are a small text + binary-sidecar format shared with
ingested baseline detectors, so every method flows through one pipeline.
Matches live only in memory: evaluation recomputes them from the feature
files, so no match file format exists.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from . import network
from .ioutil import atomic_write_bytes, read_records

DETECTION_THRESHOLD = 0.015
DETECTION_NMS_WINDOW = 3
MAX_FEATURES = 10000

METRIC_L2 = "L2"
METRIC_HAMMING = "HAMMING"

# float64 distances per nearest-neighbour tile: 2^16 keeps each tile's
# scratch near 0.5 MB.
_TILE_ELEMENTS = 1 << 16


def greedy_nms(scores: np.ndarray, threshold: float, window: int, max_points: int):
    """Greedy descending-score non-maximum suppression.

    Candidates are pixels with score >= threshold, visited from highest
    score down (ties by row then column ascending). A candidate is kept
    unless a previously kept point lies within (window-1)//2 pixels in
    Chebyshev distance. At most max_points (>= 1) points are kept.
    Returns (ys, xs, scores) in kept order.
    """
    if window < 1 or window % 2 == 0:
        raise ValueError(f"window must be odd and positive, got {window}")
    if max_points < 1:
        raise ValueError(f"max_points must be at least 1, got {max_points}")
    scores = np.asarray(scores)
    ys, xs = np.nonzero(scores >= threshold)
    vals = scores[ys, xs]
    empty = (np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, np.float64))
    if ys.size == 0:
        return empty
    radius = (window - 1) // 2
    order = np.lexsort((xs, ys, -vals))
    h, w = scores.shape
    blocked = np.zeros((h, w), dtype=bool)
    kept = []
    for idx in order:
        y, x = ys[idx], xs[idx]
        if blocked[y, x]:
            continue
        kept.append(idx)
        if len(kept) >= max_points:
            break
        blocked[max(0, y - radius) : y + radius + 1, max(0, x - radius) : x + radius + 1] = True
    kept = np.asarray(kept, dtype=np.int64)
    return ys[kept], xs[kept], vals[kept].astype(np.float64)


@dataclass(frozen=True)
class KeypointSet:
    points: np.ndarray  # (N, 2) float64, columns x, y (pixel coordinates)
    scores: np.ndarray  # (N,) float64
    frame_id: int = -1

    def __post_init__(self):
        object.__setattr__(self, "points", np.asarray(self.points, np.float64).reshape(-1, 2))
        object.__setattr__(self, "scores", np.asarray(self.scores, np.float64).reshape(-1))
        if self.points.shape[0] != self.scores.shape[0]:
            raise ValueError("points and scores must have equal length")

    def __len__(self):
        return self.points.shape[0]


@dataclass(frozen=True)
class DescriptorSet:
    """Per-keypoint descriptors: float rows (L2) or packed-bit rows (Hamming)."""

    vectors: np.ndarray  # (N, D) floats, or (N, ceil(bits/8)) uint8
    metric: str = METRIC_L2
    bits: int = 0  # Hamming only: descriptor length in bits

    def __post_init__(self):
        if self.metric not in (METRIC_L2, METRIC_HAMMING):
            raise ValueError(f"unknown metric {self.metric!r}")
        v = np.asarray(self.vectors)
        if v.ndim != 2:
            raise ValueError(f"descriptors must be a 2-D array, got shape {v.shape}")
        if self.metric == METRIC_HAMMING:
            if v.dtype != np.uint8:
                raise ValueError("Hamming descriptors must be packed uint8 rows")
            if not 0 < self.bits <= v.shape[1] * 8:
                raise ValueError("bits must match the packed row width")
        elif v.size and not (np.isfinite(v.min()) and np.isfinite(v.max())):
            # min and max propagate NaN and reach +-inf, with no (N, D) temporary
            row = int(np.argmin(np.isfinite(v).all(axis=1)))
            raise ValueError(f"L2 descriptor row {row} holds NaN or inf")
        object.__setattr__(self, "vectors", v)

    def __len__(self):
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.bits if self.metric == METRIC_HAMMING else self.vectors.shape[1]


@dataclass
class MatchSet:
    pairs: np.ndarray  # (M, 2) int64 indices into the two keypoint sets
    distances: np.ndarray  # (M,) float64

    def __post_init__(self):
        self.pairs = np.asarray(self.pairs, np.int64).reshape(-1, 2)
        self.distances = np.asarray(self.distances, np.float64).reshape(-1)

    def __len__(self):
        return self.pairs.shape[0]


def detect_points(heat, mask, threshold: float, window: int, max_points: int):
    """Keypoint pixels of an H x W heatmap: (ys, xs, scores) from greedy_nms.

    The heatmap is cast to float64 and zeroed outside the ROI mask (None
    keeps every pixel) before thresholding, so no keypoint lands on an
    excluded pixel.
    """
    heat = np.asarray(heat, dtype=np.float64)
    if mask is not None:
        heat = heat * np.asarray(mask, dtype=bool)
    return greedy_nms(heat, threshold, window, max_points)


def extract_keypoints(
    heat,
    describe,
    mask=None,
    threshold: float = DETECTION_THRESHOLD,
    nms_window: int = DETECTION_NMS_WINDOW,
    max_features: int = MAX_FEATURES,
    frame_id: int = -1,
):
    """H x W heatmap and Hc x Wc x D descriptor cells to a (KeypointSet, DescriptorSet) pair.

    Points come from detect_points; network.densify decodes the cells to
    each point's unit-norm descriptor.
    """
    ys, xs, vals = detect_points(heat, mask, threshold, nms_window, max_features)
    kp = KeypointSet(np.stack([xs, ys], axis=1).astype(np.float64), vals, frame_id)
    return kp, DescriptorSet(network.densify(np.asarray(describe), ys, xs), METRIC_L2)


def match_mutual(da: DescriptorSet, db: DescriptorSet) -> MatchSet:
    """Mutual nearest-neighbor matching between two descriptor sets.

    Pair (i, j) is kept iff b_j is the nearest neighbor of a_i and a_i is
    the nearest neighbor of b_j; argmin ties go to the lowest index. Pairs
    come out in ascending i order, and an L2 pair's distance is the square
    root of its direct squared distance ``np.sum((a_i - b_j) ** 2)``.

    Each direction is searched in tiles: as many query rows as fit in
    ``_TILE_ELEMENTS`` (2^16) distances, and at least one, against every
    reference row, so a tile's scratch memory stays near 0.5 MB. Tiles
    rank columns by the Gram expansion ``|a|^2 + |b|^2 - 2 a.b`` (one
    matrix product), which rounds differently from the direct formula, so
    every column within twice a rounding-error bound of the row's Gram
    minimum is re-scored with the direct formula and the lowest index
    among the exact minima wins. The result is bit-for-bit that of a full
    matrix of direct distances.

    Hamming rows are unpacked to 0/1 floats, every packed bit including
    the padding, and searched the same way: the direct squared distance
    of two bit rows is their exact Hamming distance, an integer, and the
    re-check bound is far below 1.
    """
    if da.metric != db.metric:
        raise ValueError(f"metric mismatch: {da.metric} vs {db.metric}")
    na, nb = len(da), len(db)
    if na == 0 or nb == 0:
        return MatchSet(np.empty((0, 2), np.int64), np.empty(0))
    if da.vectors.shape[1] != db.vectors.shape[1]:
        raise ValueError("descriptor widths differ")

    if da.metric == METRIC_HAMMING:
        a_rows = np.unpackbits(da.vectors, axis=1).astype(np.float64)
        b_rows = np.unpackbits(db.vectors, axis=1).astype(np.float64)
    else:
        a_rows = da.vectors.astype(np.float64, copy=False)
        b_rows = db.vectors.astype(np.float64, copy=False)
    best_b, dist_b = _nearest_l2(a_rows, b_rows)
    best_a, _ = _nearest_l2(b_rows, a_rows)

    rows = np.flatnonzero(best_a[best_b] == np.arange(na))
    pairs = np.stack([rows, best_b[rows]], axis=1)
    dists = np.sqrt(dist_b[rows]) if da.metric == METRIC_L2 else dist_b[rows]
    return MatchSet(pairs, dists)


def _nearest_l2(q: np.ndarray, ref: np.ndarray):
    """Lowest-index nearest ref row of each float64 q row, and its direct squared distance.

    For one (q, r) pair, the Gram value and the direct value each lie
    within (2D + 4) u s of the exact squared distance, with D the width,
    u the unit roundoff and s = |q|^2 + |r|^2 (the standard summation and
    dot-product bounds, which hold for any order and with FMA). So they
    differ by at most tol = (4D + 16) eps s with eps = 2u, s taken over
    the largest |r|^2; the slack covers second-order terms and ``tiny``
    covers underflow. The column with the least direct value therefore
    has a Gram value within 2 tol of the row's Gram minimum, and re-scoring
    every such column exactly finds it. A row whose Gram values overflow
    gets a NaN or inf bound and re-scores every column.
    """
    nq, width = q.shape
    step = max(1, _TILE_ELEMENTS // ref.shape[0])
    q_sq = np.einsum("ij,ij->i", q, q)
    r_sq = np.einsum("ij,ij->i", ref, ref)
    fi = np.finfo(np.float64)
    tol = (4 * width + 16) * (fi.eps * (q_sq + r_sq.max()) + fi.tiny)
    recheck = max(1, _TILE_ELEMENTS // max(1, width))
    best = np.empty(nq, dtype=np.int64)
    dist = np.empty(nq, dtype=np.float64)
    for lo in range(0, nq, step):
        hi = min(lo + step, nq)
        gram = q[lo:hi] @ ref.T
        gram *= -2.0
        gram += q_sq[lo:hi, None]
        gram += r_sq[None, :]
        bound = gram.min(axis=1) + 2.0 * tol[lo:hi]
        # ~(g > bound) keeps every column of a row whose bound is NaN
        rows, cols = np.nonzero(~(gram > bound[:, None]))
        direct = np.empty(rows.size)
        for c in range(0, rows.size, recheck):
            sel = slice(c, c + recheck)
            direct[sel] = np.sum((q[lo + rows[sel]] - ref[cols[sel]]) ** 2, axis=1)
        # candidates come sorted by row, then column, and every row has one
        starts = np.flatnonzero(np.diff(rows, prepend=-1))
        row_min = np.minimum.reduceat(direct, starts)
        hits = np.flatnonzero(direct == row_min[rows])
        first = hits[np.diff(rows[hits], prepend=-1) != 0]
        best[lo:hi] = cols[first]
        dist[lo:hi] = row_min
    return best, dist


# ---------------------------------------------------------------------------
# feature files: text header + keypoint lines, descriptors in a binary
# sidecar at path + ".desc" (little-endian f32 rows, or packed bits)
# ---------------------------------------------------------------------------


def feature_path(directory, frame_id: int) -> str:
    return os.path.join(os.fspath(directory), f"frame_{frame_id:06d}.feat")


def save_features(path, keypoints: KeypointSet, descriptors: DescriptorSet) -> None:
    if len(keypoints) != len(descriptors):
        raise ValueError("keypoint and descriptor counts differ")
    # repr of a Python float is ioutil.fmt, so each row reads back exactly
    rows = np.column_stack([keypoints.points, keypoints.scores]).tolist()
    text = f"metric {descriptors.metric} dim {descriptors.dim}\n" + "".join(
        f"{x!r} {y!r} {s!r}\n" for x, y, s in rows
    )
    atomic_write_bytes(os.fspath(path), text.encode("ascii"))
    if descriptors.metric == METRIC_HAMMING:
        payload = np.ascontiguousarray(descriptors.vectors).tobytes()
    else:
        payload = np.ascontiguousarray(descriptors.vectors, dtype="<f4").tobytes()
    atomic_write_bytes(os.fspath(path) + ".desc", payload)


def _feature_header(text):
    head = text.split()
    if len(head) != 4 or head[0] != "metric" or head[2] != "dim":
        raise ValueError(f"bad feature header {text!r}")
    metric = head[1]
    if metric not in (METRIC_L2, METRIC_HAMMING):
        raise ValueError(f"unknown metric {metric!r}")
    try:
        dim = int(head[3])
    except ValueError:
        raise ValueError(f"bad feature header {text!r}") from None
    if dim < 1:
        raise ValueError(f"descriptor dim must be at least 1, got {dim}")
    return metric, dim


def _keypoint_record(fields):
    x, y, score = float(fields[0]), float(fields[1]), float(fields[2])
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(score)):
        raise ValueError("x, y and score must be finite")
    return x, y, score


def load_features(path, frame_id: int = -1):
    records = read_records(path, "x y score", _keypoint_record, header=_feature_header)
    metric, dim = next(records, (None, None))
    if metric is None:
        raise ValueError(f"{path}: empty feature file")
    rows = np.array(list(records), np.float64).reshape(-1, 3)
    n = len(rows)
    kp = KeypointSet(np.ascontiguousarray(rows[:, :2]), rows[:, 2].copy(), frame_id)
    with open(os.fspath(path) + ".desc", "rb") as f:
        blob = f.read()
    if metric == METRIC_HAMMING:
        row = (dim + 7) // 8
        if len(blob) != n * row:
            raise ValueError(f"{path}.desc: expected {n * row} bytes, got {len(blob)}")
        vec = np.frombuffer(blob, dtype=np.uint8).reshape(n, row) if n else np.empty((0, row), np.uint8)
        desc = DescriptorSet(np.ascontiguousarray(vec), METRIC_HAMMING, bits=dim)
    else:
        if len(blob) != n * dim * 4:
            raise ValueError(f"{path}.desc: expected {n * dim * 4} bytes, got {len(blob)}")
        vec = np.frombuffer(blob, dtype="<f4").reshape(n, dim) if n else np.empty((0, dim), np.float32)
        try:
            desc = DescriptorSet(np.ascontiguousarray(vec.astype(np.float32)), METRIC_L2)
        except ValueError as exc:
            raise ValueError(f"{path}.desc: {exc}") from exc
    return kp, desc
