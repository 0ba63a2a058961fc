"""Training losses for the detector/descriptor network.

Three building blocks and two compositions:

* detection_loss — per-cell (DUSTBIN + 1)-way cross-entropy against
  pseudo-labels, with a dustbin channel for cells holding no keypoint.
* descriptor_loss — dense hinge contrastive loss over all pairs of cells
  of the two views, driven by the homography-induced cell correspondences.
* specularity_loss — mean network.heatmap probability over saturated
  pixels, penalizing keypoints that sit on highlights.
* pair_loss — the two detection losses plus a weighted descriptor loss.
* specular_pair_loss — pair_loss plus the weighted specularity losses of
  both views; with specularity_weight 0 it returns pair_loss unchanged.

All functions return scalar Tensors and record onto the active GradTape.
The cell layout (CELL, DUSTBIN) comes from the tensor module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .data import PseudoLabel, specularity_mask
from .network import heatmap
from .tensor import CELL, DUSTBIN, Tensor

_GUARD_EPS = 1e-10  # keeps the specularity mean finite on a frame without highlights


@dataclass(frozen=True)
class LossConfig:
    """Weights and margins of the combined training loss.

    descriptor_weight balances the descriptor term against the detection
    terms; specularity_weight scales the highlight-suppression terms (0
    disables them); correspondence_weight boosts the corresponding-cell
    hinge term inside the descriptor loss.
    """

    descriptor_weight: float = 0.0001
    specularity_weight: float = 100.0
    margin_positive: float = 1.0
    margin_negative: float = 0.2
    correspondence_weight: float = 250.0

    def __post_init__(self):
        if self.specularity_weight < 0:
            raise ValueError("specularity_weight must be >= 0")


def _cell_targets(label: PseudoLabel, hc: int, wc: int) -> np.ndarray:
    """Per-cell target channel: the in-cell index of the winning label
    point (highest score, ties by row then column), or the dustbin."""
    targets = np.full(hc * wc, DUSTBIN, dtype=np.int64)
    if len(label):
        xs = label.points[:, 0]
        ys = label.points[:, 1]
        if xs.min() < 0 or ys.min() < 0 or xs.max() >= wc * CELL or ys.max() >= hc * CELL:
            raise ValueError("label point outside the detect tensor extent")
        order = np.lexsort((xs, ys, -label.scores))
        cells = (ys[order] // CELL) * wc + xs[order] // CELL
        _, first = np.unique(cells, return_index=True)
        win = order[first]
        targets[cells[first]] = (ys[win] % CELL) * CELL + xs[win] % CELL
    return targets


def detection_loss(detect: Tensor, label: PseudoLabel) -> Tensor:
    """Mean (DUSTBIN + 1)-way cross-entropy over cells of one view."""
    hc, wc, ch = detect.shape
    if ch != DUSTBIN + 1:
        raise ValueError(f"detect tensor must have {DUSTBIN + 1} channels, got {ch}")
    targets = _cell_targets(label, hc, wc)
    logits = T.reshape(detect, (hc * wc, DUSTBIN + 1))
    return T.softmax_cross_entropy(logits, targets)


def descriptor_loss(
    desc_a: Tensor,
    desc_b: Tensor,
    correspondence: np.ndarray,
    config: LossConfig = LossConfig(),
) -> Tensor:
    """Hinge contrastive loss over all cell pairs of the two views.

    Corresponding pairs (correspondence 1) are pulled above the positive
    margin, all others pushed below the negative margin; the result is the
    mean over all Hc*Wc x Hc*Wc pairs.
    """
    if desc_a.shape != desc_b.shape or len(desc_a.shape) != 3:
        raise ValueError(
            f"descriptor grids must share an Hc x Wc x D shape, got {desc_a.shape} vs {desc_b.shape}"
        )
    hc, wc, d = desc_a.shape
    n = hc * wc
    s = np.asarray(correspondence, dtype=desc_a.dtype).reshape(n, n)

    pos_coef = config.correspondence_weight * s
    neg_coef = 1.0 - s
    denom = float(n) * float(n)

    a = T.reshape(desc_a, (n, d))
    b = T.reshape(desc_b, (n, d))
    gram = T.matmul(a, T.transpose2d(b))
    pos = T.relu(T.affine(gram, -1.0, config.margin_positive))
    neg = T.relu(T.affine(gram, 1.0, -config.margin_negative))
    total = T.reduce_sum(
        T.add(T.mul(pos, Tensor(pos_coef)), T.mul(neg, Tensor(neg_coef)))
    )
    return T.affine(total, 1.0 / denom, 0.0)


def specularity_loss(detect: Tensor, image) -> Tensor:
    """Mean heatmap probability over the specular pixels of one view."""
    hc, wc, _ = detect.shape
    image = np.asarray(image if not isinstance(image, Tensor) else image.data)
    if image.shape != (hc * CELL, wc * CELL):
        raise ValueError(
            f"image shape {image.shape} does not match detect grid {(hc * CELL, wc * CELL)}"
        )
    heat = heatmap(detect)
    mask = specularity_mask(image)
    masked = T.mul(heat, Tensor(mask.astype(detect.dtype)))
    return T.affine(T.reduce_sum(masked), 1.0 / (_GUARD_EPS + float(mask.sum())), 0.0)


def pair_loss(
    heads_a,
    label_a: PseudoLabel,
    heads_b,
    label_b: PseudoLabel,
    correspondence: np.ndarray,
    config: LossConfig = LossConfig(),
    terms_out: dict | None = None,
) -> Tensor:
    """Joint detection + description loss of a warped image pair."""
    det = T.add(detection_loss(heads_a.detect, label_a), detection_loss(heads_b.detect, label_b))
    desc = descriptor_loss(heads_a.describe, heads_b.describe, correspondence, config)
    if terms_out is not None:
        terms_out["detection"] = det.item()
        terms_out["descriptor"] = desc.item()
    return T.add(det, T.affine(desc, config.descriptor_weight, 0.0))


def specular_pair_loss(
    image_a,
    heads_a,
    label_a: PseudoLabel,
    image_b,
    heads_b,
    label_b: PseudoLabel,
    correspondence: np.ndarray,
    config: LossConfig = LossConfig(),
    terms_out: dict | None = None,
) -> Tensor:
    """Pair loss plus highlight suppression on both views.

    With specularity_weight == 0 this is exactly pair_loss: same graph,
    same value, bit for bit.
    """
    sp = pair_loss(heads_a, label_a, heads_b, label_b, correspondence, config, terms_out)
    if config.specularity_weight == 0:
        if terms_out is not None:
            terms_out["specularity"] = 0.0
        return sp
    spec = T.add(
        specularity_loss(heads_a.detect, image_a),
        specularity_loss(heads_b.detect, image_b),
    )
    if terms_out is not None:
        terms_out["specularity"] = spec.item()
    return T.add(sp, T.affine(spec, config.specularity_weight, 0.0))
