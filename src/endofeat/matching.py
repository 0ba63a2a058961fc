"""Keypoint extraction and bi-directional brute-force descriptor matching.

Detection (detect_points) masks and thresholds the dense heatmap,
suppresses non-maxima greedily over a square window and caps the count.
The greedy visit runs in whole-image rounds while they pay for
themselves: each keeps the candidates that rank first in their window
among the undecided ones and drops their neighbours, which keeps exactly
greedy's points, and the serial loop finishes what the rounds leave
(greedy_nms gives the argument). Extraction also decodes the coarse
descriptor cells at each surviving pixel (network.densify), so no
full-resolution descriptor map is built. Both take plain arrays.
Matching keeps a pair only when each descriptor is
the other's nearest neighbor (ties to the lowest index), with L2 distance for
real descriptors and Hamming distance for packed binary ones; both go
through one exact kernel, Hamming on the unpacked bits. The kernel makes
one tiled pass over the Gram matrix and serves both directions from each
tile: rows against the row's Gram minimum, columns against a running
column minimum. The Gram values only select candidates, in float32 for
float32 rows and unpacked bits (float64 otherwise), with a tolerance from
that dtype's rounding bound; every winner is re-scored with the direct
float64 formula, so the result does not depend on the Gram dtype.

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
from .ioutil import atomic_write_bytes, read_float_records, read_records

DETECTION_THRESHOLD = 0.015
DETECTION_NMS_WINDOW = 3
MAX_FEATURES = 10000

METRIC_L2 = "L2"
METRIC_HAMMING = "HAMMING"

# Gram values per matching tile: 2^18 keeps a tile's Gram matrix at 1 MB in
# float32 and 2 MB in float64.
_TILE_ELEMENTS = 1 << 18
# Candidates re-scored and folded per chunk, and float64 values per re-score
# temporary: 2^16 keeps each at 0.5 MB.
_CHUNK_ELEMENTS = 1 << 16


def greedy_nms(scores: np.ndarray, threshold: float, window: int, max_points: int):
    """Greedy descending-score non-maximum suppression.

    Candidates are pixels with score >= threshold (finite), visited from
    highest score down (ties by row then column ascending). A candidate is kept
    unless a previously kept point lies within r = (window-1)//2 pixels in
    Chebyshev distance. At most max_points (>= 1) points are kept.
    Returns (ys, xs, scores) in kept order.

    The visit runs in whole-image rounds over the candidates' ranks in that
    order. A round keeps every undecided candidate whose rank is the least
    of the undecided ranks in its (2r+1)^2 window (separable min filters),
    then drops the undecided candidates within r of a kept one (a separable
    dilation). The serial visit keeps such a window minimum too: each
    better-ranked candidate within r of it was dropped in an earlier round
    for lying within r of a kept point, so the serial visit drops it too,
    and no kept point lies within r of an undecided candidate. So the kept
    set is the serial one. The capped list is a prefix of the full one in
    rank order, so the rounds stop once max_points are kept and every
    undecided rank lies above the max_points-th kept rank.

    A round costs the same on any map, while the serial loop, which skips
    blocked candidates in bulk, pays mostly per point it keeps. So a round
    runs only while it can keep enough points to pay for itself: the first
    is bounded by max_points and the candidate count, each later one by the
    points its predecessor kept. The serial loop then visits the undecided
    rest in rank order, which is exact for the same reason, and its points
    merge with the kept ranks. Sparse maps and small caps (pseudo-labels'
    600 points on a 240x320 map) go straight to the serial loop; a smooth
    map, whose rounds peel only a thin front each, hands over after one.
    """
    if window < 1 or window % 2 == 0:
        raise ValueError(f"window must be odd and positive, got {window}")
    if max_points < 1:
        raise ValueError(f"max_points must be at least 1, got {max_points}")
    if not math.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold}")
    scores = np.asarray(scores)
    if scores.ndim != 2:
        raise ValueError(f"scores must be a 2-D array, got shape {scores.shape}")
    flat = np.flatnonzero(scores >= threshold)
    if flat.size == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, np.float64)
    # flatnonzero is row-major, so ties go by row, then column, when each run
    # of equal scores after an unstable sort is ordered by position: one int64
    # sort of run * n + position, cheaper than a stable argsort of the scores
    negated = -scores.ravel()[flat]
    order = np.argsort(negated)
    negated = negated[order]
    run = np.zeros(flat.size, np.int64)
    np.cumsum(negated[1:] != negated[:-1], out=run[1:])
    flat = flat[np.sort(run * flat.size + order) % flat.size]
    flat = flat[_peel(flat, scores.shape, (window - 1) // 2, max_points)]
    ys, xs = np.divmod(flat, scores.shape[1])
    return ys, xs, scores[ys, xs].astype(np.float64)


# A round over a padded rank image of P pixels costs about what the serial
# loop pays to keep P / _ROUND_COST points: the loop skips blocked
# candidates in bulk, so it pays mostly per kept point. 80 was timed
# against 40 and 160 on trained, seeded and synthetic heatmaps.
_ROUND_COST = 80
# candidates the serial loop checks against its blocked mask at once
_CHUNK = 256


def _peel(flat, shape, radius: int, cap: int) -> np.ndarray:
    """greedy_nms's visit: the kept ranks, ascending, of candidates (flat indices) in rank order."""
    padded_pixels = (shape[0] + 2 * radius) * (shape[1] + 2 * radius)  # what a round filters
    if min(cap, flat.size) * _ROUND_COST >= padded_pixels:
        found, rest = _rounds(flat, shape, radius, cap)
    else:
        found, rest = np.empty(0, np.int64), np.arange(flat.size)
    if rest.size:
        # a serial point makes the capped list while fewer than cap kept ranks lie below it
        room = cap - np.searchsorted(found, rest)
        found = np.concatenate([found, rest[_greedy_serial(flat[rest], room, shape, radius)]])
    return np.sort(found)[:cap]


def _rounds(flat, shape, radius: int, cap: int):
    """greedy_nms's rounds: (kept ranks, undecided ranks that may still be kept), both sorted."""
    h, w = shape
    none = np.iinfo(np.int32).max
    padded = np.full((h + 2 * radius, w + 2 * radius), none, np.int32)
    ranks = padded[radius : radius + h, radius : radius + w]  # undecided ranks, `none` elsewhere
    ranks[np.divmod(flat, w)] = np.arange(flat.size, dtype=np.int32)
    undecided = ranks != none
    marks = np.zeros(padded.shape, bool)
    kept_now = marks[radius : radius + h, radius : radius + w]
    found = np.empty(0, np.int32)
    while True:
        np.equal(ranks, _window_reduce(padded, radius, np.minimum), out=kept_now)
        kept_now &= undecided
        now = ranks[kept_now]
        found = np.sort(np.concatenate([found, now]))
        ranks[_window_reduce(marks, radius, np.logical_or)] = none
        np.not_equal(ranks, none, out=undecided)
        if not undecided.any() or (found.size >= cap and ranks.min() > found[cap - 1]):
            return found, np.empty(0, np.int32)
        if now.size * _ROUND_COST < padded.size:
            return found, np.sort(ranks[undecided])


def _window_reduce(padded, radius: int, op) -> np.ndarray:
    """op over every (2r+1)^2 window of an array padded by r, as shifted slices per axis."""
    h, w = padded.shape[0] - 2 * radius, padded.shape[1] - 2 * radius
    rows = padded[:, :w].copy()
    for d in range(1, 2 * radius + 1):
        op(rows, padded[:, d : d + w], out=rows)
    out = rows[:h].copy()
    for d in range(1, 2 * radius + 1):
        op(out, rows[d : d + h], out=out)
    return out


def _greedy_serial(flat, room, shape, radius: int) -> list:
    """The serial visit of candidates (flat pixel indices) in rank order: the positions it keeps.

    It stops once it has kept room[i] points, candidate i the last. A
    candidate already blocked when its chunk of _CHUNK starts costs no
    Python step.
    """
    ys, xs = np.divmod(flat, shape[1])
    blocked = np.zeros(shape, bool)
    kept = []
    for start in range(0, ys.size, _CHUNK):
        chunk = slice(start, start + _CHUNK)
        part = start + np.flatnonzero(~blocked[ys[chunk], xs[chunk]])
        for i, y, x, r in zip(part.tolist(), ys[part].tolist(), xs[part].tolist(), room[part].tolist()):
            if blocked[y, x]:
                continue
            kept.append(i)
            if len(kept) >= r:
                return kept
            blocked[max(0, y - radius) : y + radius + 1, max(0, x - radius) : x + radius + 1] = True
    return kept


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
            if self.bits < 1 or (self.bits + 7) // 8 != v.shape[1]:
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

    The heatmap is cast to float64 and set to -inf outside the ROI mask
    (None keeps every pixel) before thresholding, so no keypoint lands on
    an excluded pixel at any threshold greedy_nms takes (a finite one),
    zero and negative ones included. A mask must have the heatmap's shape.
    """
    heat = np.asarray(heat, dtype=np.float64)
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != heat.shape:
            raise ValueError(f"mask shape {mask.shape} differs from heatmap shape {heat.shape}")
        heat = np.where(mask, heat, -np.inf)
    return greedy_nms(heat, threshold, window, max_points)


def extract_keypoints(
    heat,
    describe,
    mask=None,
    threshold: float = DETECTION_THRESHOLD,
    nms_window: int = DETECTION_NMS_WINDOW,
    max_features: int = MAX_FEATURES,
):
    """H x W heatmap and Hc x Wc x D descriptor cells to a (KeypointSet, DescriptorSet) pair.

    Points come from detect_points; network.densify decodes the cells to
    each point's unit-norm descriptor.
    """
    ys, xs, vals = detect_points(heat, mask, threshold, nms_window, max_features)
    kp = KeypointSet(np.stack([xs, ys], axis=1).astype(np.float64), vals)
    return kp, DescriptorSet(network.densify(np.asarray(describe), ys, xs), METRIC_L2)


def match_mutual(da: DescriptorSet, db: DescriptorSet) -> MatchSet:
    """Mutual nearest-neighbor matching between two descriptor sets.

    Pair (i, j) is kept iff b_j is the nearest neighbor of a_i and a_i is
    the nearest neighbor of b_j; argmin ties go to the lowest index. Pairs
    come out in ascending i order, and an L2 pair's distance is the square
    root of its direct squared distance ``np.sum((a_i - b_j) ** 2)``.

    Both directions come from one pass over the Gram matrix
    ``|a|^2 + |b|^2 - 2 a.b`` in tiles: as many rows of A as fit in
    ``_TILE_ELEMENTS`` (2^18) Gram values, and at least one, against every
    row of B. The Gram values round differently from the direct formula,
    so they only pick candidates: in each row, every column within twice a
    rounding-error bound of the row's Gram minimum; in each column, every
    entry within twice the bound of the column's running Gram minimum over
    the tiles so far, which only falls, so the winner's own tile records
    it. The candidates are re-scored with the direct formula in float64
    and folded into both directions' running bests in chunks of at most
    ``_CHUNK_ELEMENTS`` (2^16) entries, the lowest index among the exact
    minima wins, and the result is bit-for-bit that of a full matrix of
    direct distances (_mutual_l2 derives the bound). No candidate outlives
    its chunk, so memory grows with neither the number of rows of A nor
    the number of candidates.

    The Gram matrix is float32 when both sides hold float32 rows, as every
    feature file loads, and float64 otherwise; the bound takes that
    dtype's eps and tiny. Hamming rows are unpacked to their first ``bits``
    bits as 0/1 float32 values, which float32 holds exactly: the direct
    squared distance of two bit rows is their exact Hamming distance, an
    integer, and the padding bits of the last byte never count.
    """
    if da.metric != db.metric:
        raise ValueError(f"metric mismatch: {da.metric} vs {db.metric}")
    na, nb = len(da), len(db)
    if na == 0 or nb == 0:
        return MatchSet(np.empty((0, 2), np.int64), np.empty(0))
    if da.dim != db.dim:
        raise ValueError(f"descriptor dims differ: {da.dim} vs {db.dim}")

    if da.metric == METRIC_HAMMING:
        # 0/1 bits are exact in float32, so Hamming takes the float32 Gram
        a_rows = np.unpackbits(da.vectors, axis=1, count=da.bits).astype(np.float32)
        b_rows = np.unpackbits(db.vectors, axis=1, count=db.bits).astype(np.float32)
    else:
        single = da.vectors.dtype == db.vectors.dtype == np.float32
        a_rows = da.vectors.astype(np.float32 if single else np.float64, copy=False)
        b_rows = db.vectors.astype(a_rows.dtype, copy=False)
    best_b, dist_b, best_a = _mutual_l2(a_rows, b_rows)

    rows = np.flatnonzero(best_a[best_b] == np.arange(na))
    pairs = np.stack([rows, best_b[rows]], axis=1)
    dists = np.sqrt(dist_b[rows]) if da.metric == METRIC_L2 else dist_b[rows]
    return MatchSet(pairs, dists)


def _mutual_l2(a: np.ndarray, b: np.ndarray):
    """Lowest-index nearest neighbours in both directions from one tiled Gram pass.

    a (na, D) and b (nb, D) share a dtype, float32 or float64, in which the
    Gram values are computed. Returns (best_b, dist_b, best_a): the nearest
    b row of each a row with its direct squared distance
    ``np.sum((a_i - b_j) ** 2)`` in float64, and the nearest a row of each
    b row.

    Bound. A tile's Gram values come from one matrix product of the
    augmented rows [-2 a_i, |a_i|^2, 1] and [b_j, 1, |b_j|^2]. With u the
    unit roundoff of the dtype and s = |a_i|^2 + |b_j|^2, the computed
    norms are within D u of theirs and the (D + 2)-term product within
    (D + 2) u 2s, so a Gram value lies within (3D + 4) u s of the exact
    squared distance; the float64 direct value lies within (2D + 4) u s,
    float64's u being no larger (the standard summation and dot-product
    bounds, which hold for any order and with FMA). So the two differ by
    at most tol = (4D + 16) eps s with eps = 2u, s taken over the largest
    norm of the other side; the slack covers second-order terms and the
    rounding of the bound, and ``tiny`` covers underflow. The entry with the least direct value of a
    row (or column) therefore has a Gram value within 2 tol of every Gram
    value in that row (or column), and re-scoring every such entry with
    the direct formula finds it.

    Tiles: as many rows of A as fit in _TILE_ELEMENTS Gram values, at
    least one; A's augmented rows are built one tile at a time. Rows: each
    tile takes every column within its row's Gram minimum + 2 tol.
    Columns: a running per-column Gram minimum takes each tile's column
    minima, and each tile takes every entry within that running minimum
    + 2 tol; it only falls, so the winner's entry is taken in its own tile.
    Both bounds are rounded down to the Gram dtype, which keeps exactly the
    same entries and compares within one dtype.

    Candidates: the union of both sides' entries, in row-major order, is
    re-scored with the direct formula and folded in chunks of at most
    _CHUNK_ELEMENTS entries (a tile with fewer is one chunk), each
    re-scored _CHUNK_ELEMENTS float64 values at a time. Both directions
    keep one rule (_fold): per index, the chunk's least (direct distance,
    other index) entry replaces the running best only when strictly
    smaller; chunks come in row-major order, so ties keep the lowest index.
    No candidate outlives its chunk, so memory stays bounded by the tile
    and the chunk even when every entry is a candidate.

    tol is computed as (D + 4) (eps 4s + 4 tiny), which is inf whenever 4s
    overflows. The product's partial sums stay within about 2s, so a row or
    column whose Gram values could overflow gets an inf or NaN bound, and
    ~(gram > bound) re-scores all of its entries.
    """
    na, width = a.shape
    nb = b.shape[0]
    fi = np.finfo(a.dtype)
    step = max(1, min(na, _TILE_ELEMENTS // nb))
    best_b = np.zeros(na, dtype=np.int64)
    dist_b = np.full(na, np.inf)
    best_a = np.zeros(nb, dtype=np.int64)
    dist_a = np.full(nb, np.inf)
    with np.errstate(all="ignore"):
        a_sq = np.einsum("ij,ij->i", a, a)
        b_sq = np.einsum("ij,ij->i", b, b)
        tol_a = (width + 4) * (fi.eps * (4 * (a_sq + b_sq.max())) + 4 * fi.tiny)
        tol_b = (width + 4) * (fi.eps * (4 * (b_sq + a_sq.max())) + 4 * fi.tiny)
        b_aug = np.vstack([b.T, np.ones_like(b_sq), b_sq])  # (D + 2, nb), contiguous
        col_min = np.full(nb, np.inf, dtype=a.dtype)
        # one tile's worth of A's augmented rows, Gram values and masks, reused
        a_aug = np.empty((step, width + 2), dtype=a.dtype)
        a_aug[:, width + 1] = 1
        gram_buf = np.empty((step, nb), dtype=a.dtype)
        far_buf = np.empty((2, step, nb), dtype=bool)
        for lo in range(0, na, step):
            hi = min(lo + step, na)
            aug = a_aug[: hi - lo]
            np.multiply(a[lo:hi], -2, out=aug[:, :width])
            aug[:, width] = a_sq[lo:hi]
            gram = np.matmul(aug, b_aug, out=gram_buf[: hi - lo])
            row_bound = _floor_to(gram.min(axis=1) + 2 * tol_a[lo:hi], a.dtype)
            np.minimum(col_min, gram.min(axis=0), out=col_min)
            col_bound = _floor_to(col_min + 2 * tol_b, a.dtype)
            # ~(g > bound) keeps every entry whose bound is NaN
            far = np.greater(gram, row_bound[:, None], out=far_buf[0, : hi - lo])
            far &= np.greater(gram, col_bound, out=far_buf[1, : hi - lo])
            near = np.logical_not(far, out=far).ravel()
            span = near.size if np.count_nonzero(near) <= _CHUNK_ELEMENTS else _CHUNK_ELEMENTS
            for c0 in range(0, near.size, span):
                # one flat scan: a 2-D np.nonzero is many times slower
                rows, cols = np.divmod(np.flatnonzero(near[c0 : c0 + span]) + c0, nb)
                rows += lo
                direct = _rescore(a, b, rows, cols)
                _fold(rows, cols, direct, best_b, dist_b)
                _fold(cols, rows, direct, best_a, dist_a)
    return best_b, dist_b, best_a


def _floor_to(x, dtype):
    """x rounded down to dtype: for every value g of that dtype, g > result iff g > x."""
    y = x.astype(dtype)
    return np.nextafter(y, -np.inf, out=y, where=y > x)


def _rescore(a, b, rows, cols):
    """Direct squared distances ``np.sum((a_i - b_j) ** 2)`` of the (rows, cols) entries, in float64."""
    direct = np.empty(rows.size)
    chunk = max(1, _CHUNK_ELEMENTS // max(1, a.shape[1]))
    buf = np.empty((min(chunk, rows.size), a.shape[1]))
    for c in range(0, rows.size, chunk):
        r, k = rows[c : c + chunk], cols[c : c + chunk]
        diff = buf[: r.size]
        diff[...] = a[r]
        diff -= b[k]
        diff *= diff
        direct[c : c + chunk] = diff.sum(axis=1)
    return direct


def _fold(key, other, direct, best, dist):
    """Fold one chunk of candidates into the running nearest (best, dist) per key.

    The candidates come in row-major order, so a key's entries of equal
    direct value come lowest ``other`` first, and the stable sort keeps
    that: each key's first entry is its least (direct, other) one. It
    replaces the running best only when strictly smaller, and chunks come
    in row-major order too, so ties keep the lowest index.
    """
    order = np.lexsort((direct, key))
    first = order[np.diff(key[order], prepend=-1) != 0]
    better = first[direct[first] < dist[key[first]]]
    best[key[better]] = other[better]
    dist[key[better]] = direct[better]


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
    # the contiguous array's own buffer is the payload, written without a bytes copy
    if descriptors.metric == METRIC_HAMMING:
        payload = np.ascontiguousarray(descriptors.vectors)
    else:
        payload = np.ascontiguousarray(descriptors.vectors, dtype="<f4")
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
    """(KeypointSet, DescriptorSet) of a feature file and its .desc sidecar.

    A file save_features wrote is parsed in one pass (read_float_records);
    any other goes through read_records line by line, so every error names
    its line. The sidecar's size is checked before it is read straight into
    the descriptor array.
    """
    fast = read_float_records(path, "x y score", _feature_header)
    if fast is None:
        records = read_records(path, "x y score", _keypoint_record, header=_feature_header)
        metric, dim = next(records, (None, None))
        if metric is None:
            raise ValueError(f"{path}: empty feature file")
        rows = np.array(list(records), np.float64).reshape(-1, 3)
    else:
        (metric, dim), rows = fast
    n = len(rows)
    kp = KeypointSet(np.ascontiguousarray(rows[:, :2]), rows[:, 2].copy(), frame_id)
    if metric == METRIC_HAMMING:
        shape, dtype = (n, (dim + 7) // 8), np.dtype(np.uint8)
    else:
        shape, dtype = (n, dim), np.dtype("<f4")
    expected = shape[0] * shape[1] * dtype.itemsize
    with open(os.fspath(path) + ".desc", "rb") as f:
        # sized before the array is made, so a bad header allocates nothing
        size = os.fstat(f.fileno()).st_size
        if size == expected:
            try:
                vec = np.empty(shape, dtype)
            except ValueError as exc:  # no keypoints, and a dim past numpy's array limits
                raise ValueError(f"{path}: descriptor dim {dim} is too large: {exc}") from None
            size = f.readinto(vec)
    if size != expected:
        raise ValueError(f"{path}.desc: expected {expected} bytes, got {size}")
    if metric == METRIC_HAMMING:
        return kp, DescriptorSet(vec, METRIC_HAMMING, bits=dim)
    try:
        return kp, DescriptorSet(vec.astype(np.float32, copy=False), METRIC_L2)
    except ValueError as exc:
        raise ValueError(f"{path}.desc: {exc}") from exc
