"""Frame ingestion, specularity masking, and pseudo-label generation.

Frames are binary PGM (P5) files named ``frame_%06d.pgm``, 8- or 16-bit,
normalized to [0, 1] on load. An optional region-of-interest mask (also
PGM, nonzero = valid; the mask_path setting) excludes pixels — typically
black corners of the endoscope circle — from keypoints. Only the
pseudolabel and detect commands read it; train and eval do not, and the
metrics count every pixel. read_frame is the one frame loader and checks
the mask size against each frame when given one.

Pseudo-labels are keypoints proposed by a teacher network: its
network.heatmap (the detection head decoded over tensor.CELL cells) is
thresholded, non-maximum suppressed over 9x9 windows, and the top 600
survivors are kept. They are cached as text files of ``x y score`` lines.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass

import numpy as np

from . import network
from .homography import warp_points
from .ioutil import atomic_write_bytes, atomic_write_text, fmt, read_records
from .matching import detect_points

SPECULAR_THRESHOLD = 0.7
LABEL_THRESHOLD = 0.015
LABEL_NMS_WINDOW = 9
LABEL_MAX_POINTS = 600


class FrameError(Exception):
    """A frame or mask file could not be used; message names the file."""


# ---------------------------------------------------------------------------
# PGM (P5) codec
# ---------------------------------------------------------------------------


def read_pgm(path) -> np.ndarray:
    """Binary PGM to a float64 image in [0, 1] (value / maxval).

    FrameError names the file for anything else: a bad or truncated
    header or pixel data, or a pixel value above maxval.
    """
    with open(path, "rb") as f:
        blob = f.read()
    pos = 0

    def token():
        nonlocal pos
        while True:
            while pos < len(blob) and blob[pos : pos + 1].isspace():
                pos += 1
            if pos < len(blob) and blob[pos : pos + 1] == b"#":
                while pos < len(blob) and blob[pos : pos + 1] != b"\n":
                    pos += 1
                continue
            break
        start = pos
        while pos < len(blob) and not blob[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise FrameError(f"{path}: truncated PGM header")
        return blob[start:pos]

    def number():
        field = token()
        if not field.isdigit():  # ASCII digits only: int() would take "+16" and "1_6"
            raise FrameError(f"{path}: bad PGM header")
        return int(field)

    if token() != b"P5":
        raise FrameError(f"{path}: not a binary PGM (P5) file")
    width, height, maxval = number(), number(), number()
    if width < 1 or height < 1 or not 0 < maxval < 65536:
        raise FrameError(f"{path}: bad PGM dimensions or maxval")
    pos += 1  # single whitespace after maxval
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    count = width * height
    raw = blob[pos : pos + count * dtype.itemsize]
    if len(raw) != count * dtype.itemsize:
        raise FrameError(f"{path}: pixel data truncated")
    img = np.frombuffer(raw, dtype=dtype).reshape(height, width)
    if img.max() > maxval:
        raise FrameError(f"{path}: pixel value above maxval {maxval}")
    return img.astype(np.float64) / maxval


def write_pgm(path, image: np.ndarray, maxval: int = 255) -> None:
    """Quantize a [0, 1] image to PGM with the given maxval (8- or 16-bit)."""
    image = np.asarray(image)
    if image.ndim != 2:
        raise ValueError(f"write_pgm expects an H x W image, got shape {image.shape}")
    if not 0 < maxval < 65536:
        raise ValueError(f"maxval out of range: {maxval}")
    q = np.clip(np.rint(image * maxval), 0, maxval)
    data = q.astype(">u2" if maxval > 255 else "u1").tobytes()
    header = f"P5\n{image.shape[1]} {image.shape[0]}\n{maxval}\n".encode("ascii")
    atomic_write_bytes(path, header + data)


# ---------------------------------------------------------------------------
# frame ingestion
# ---------------------------------------------------------------------------


def frame_name(frame_id: int) -> str:
    return f"frame_{frame_id:06d}.pgm"


def list_frames(directory):
    """Sorted (frame_id, path) pairs for every frame file in the directory."""
    out = []
    for name in os.listdir(directory):
        m = re.fullmatch(r"frame_([0-9]{6})\.pgm", name)  # ASCII digits, whole name
        if m:
            out.append((int(m.group(1)), os.path.join(directory, name)))
    out.sort()
    return out


def load_roi_mask(path) -> np.ndarray:
    mask = read_pgm(path)
    return mask > 0


def read_frame(path, mask=None) -> np.ndarray:
    """Read one frame; FrameError names the file when it cannot be read or
    when the ROI mask, if given, has a different size."""
    try:
        image = read_pgm(path)
    except OSError as e:
        raise FrameError(f"{path}: unreadable frame: {e}") from e
    if mask is not None and mask.shape != image.shape:
        raise FrameError(f"{path}: mask size {mask.shape} does not match frame size {image.shape}")
    return image


# ---------------------------------------------------------------------------
# specularity mask
# ---------------------------------------------------------------------------


def specularity_mask(image) -> np.ndarray:
    """Boolean mask of saturated highlights: intensity strictly above 0.7."""
    image = np.asarray(image)
    return image > SPECULAR_THRESHOLD


# ---------------------------------------------------------------------------
# pseudo-labels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PseudoLabel:
    """Teacher keypoints: integer (x, y) pixels plus heatmap scores.

    Points are stored in descending-score order. A fresh label from
    generate_pseudolabels has at most 600 points, pairwise at least 5
    pixels apart in Chebyshev distance; labels warped to another view may
    violate the spacing.
    """

    points: np.ndarray  # (N, 2) int64, columns x, y
    scores: np.ndarray  # (N,) float64

    def __post_init__(self):
        object.__setattr__(self, "points", np.asarray(self.points, dtype=np.int64).reshape(-1, 2))
        object.__setattr__(self, "scores", np.asarray(self.scores, dtype=np.float64).reshape(-1))
        if self.points.shape[0] != self.scores.shape[0]:
            raise ValueError("points and scores must have equal length")

    def __len__(self):
        return self.points.shape[0]


def generate_pseudolabels(
    teacher: "network.NetworkParams",
    image: np.ndarray,
    mask=None,
    threshold: float = LABEL_THRESHOLD,
    nms_window: int = LABEL_NMS_WINDOW,
    max_points: int = LABEL_MAX_POINTS,
) -> PseudoLabel:
    """Run the teacher and keep its strongest well-separated detections."""
    heads = network.forward(teacher, image)
    ys, xs, vals = detect_points(network.heatmap(heads.detect), mask, threshold, nms_window, max_points)
    return PseudoLabel(np.stack([xs, ys], axis=1), vals)


def warp_label(label: PseudoLabel, h: np.ndarray, height: int, width: int) -> PseudoLabel:
    """Map label points through a pixel-frame homography.

    Points are rounded to the nearest pixel; out-of-frame points are
    dropped; if two land on one pixel the higher score wins.
    """
    if not len(label):
        return label
    mapped = warp_points(label.points.astype(np.float64), h)
    xs = np.rint(mapped[:, 0]).astype(np.int64)
    ys = np.rint(mapped[:, 1]).astype(np.int64)
    keep = (xs >= 0) & (xs < width) & (ys >= 0) & (ys < height)
    xs, ys, scores = xs[keep], ys[keep], label.scores[keep]
    if xs.size == 0:
        return PseudoLabel(np.empty((0, 2), dtype=np.int64), np.empty(0))
    order = np.lexsort((xs, ys, -scores))
    flat = ys[order] * width + xs[order]
    _, first = np.unique(flat, return_index=True)
    win = order[np.sort(first)]  # per-pixel winners, back in score order
    return PseudoLabel(np.stack([xs[win], ys[win]], axis=1), scores[win])


# ---------------------------------------------------------------------------
# label cache files: one text line per point, "x y score"
# ---------------------------------------------------------------------------


def label_path(directory, frame_id: int) -> str:
    return os.path.join(os.fspath(directory), f"frame_{frame_id:06d}.txt")


def save_label(path, label: PseudoLabel) -> None:
    lines = [
        f"{int(x)} {int(y)} {fmt(s)}"
        for (x, y), s in zip(label.points, label.scores)
    ]
    atomic_write_text(path, "".join(line + "\n" for line in lines))


def _label_record(fields):
    x, y, score = int(fields[0]), int(fields[1]), float(fields[2])
    if max(abs(x), abs(y)) >= 2**63:
        raise ValueError("pixel coordinate out of the int64 range")
    if not math.isfinite(score):
        raise ValueError(f"score must be finite, got {fields[2]}")
    return (x, y), score


def load_label(path) -> PseudoLabel:
    records = list(read_records(path, "x y score", _label_record))
    if not records:
        return PseudoLabel(np.empty((0, 2), dtype=np.int64), np.empty(0))
    points, scores = zip(*records)
    return PseudoLabel(np.asarray(points, dtype=np.int64), np.asarray(scores))
