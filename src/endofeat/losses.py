"""Training losses for the detector/descriptor network.

Three building blocks and two compositions:

* detection_loss — per-cell (DUSTBIN + 1)-way cross-entropy against
  pseudo-labels, with a dustbin channel for cells holding no keypoint.
* descriptor_loss — tensor.hinge_gram's hinge contrastive loss over all
  pairs of cells of the two views, driven by the homography-induced cell
  correspondences: one target cell (or none, -1) per source cell, with
  SuperPoint's fixed margins and weight (m_p = 1, m_n = 0.2, lambda_d = 250).
* specularity_loss — mean heatmap probability over saturated pixels,
  penalizing keypoints that sit on highlights. It works on cells: the
  pixel mask is laid out like the detect head's channels, with a zero
  dustbin, and tensor.masked_mean takes it over the per-cell softmax.
* pair_loss — the two detection losses plus a weighted descriptor loss.
* specular_pair_loss — pair_loss plus the weighted specularity losses of
  both views; with specularity_weight 0 it returns pair_loss unchanged.

Weights and means are arguments of the op that sums (add's w, hinge_gram's
and masked_mean's scale), not tape records: specular_pair_loss records 11.

The building blocks return scalar Tensors; the two compositions return
(loss, terms), the scalar loss Tensor and a tuple of its unweighted terms
as floats (detection, descriptor[, specularity]), which training reports
per iteration. Everything records onto the active GradTape.
Frames, masks and loss coefficients are plain arrays: constants the tape
does not differentiate. The cell layout (CELL, DUSTBIN) comes from the
tensor module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .data import PseudoLabel, specularity_mask
from .tensor import CELL, DUSTBIN, Tensor

_GUARD_EPS = 1e-10  # keeps the specularity mean finite on a frame without highlights
# SuperPoint's descriptor hinge (DeTone et al., 2018): its margins and corresponding-pair weight
_MARGIN_POSITIVE = 1.0
_MARGIN_NEGATIVE = 0.2
_CORRESPONDENCE_WEIGHT = 250.0


@dataclass(frozen=True)
class LossConfig:
    """Weights of the combined training loss: descriptor_weight balances the
    descriptor term against the detection terms; specularity_weight scales
    the highlight-suppression terms (0 disables them)."""

    descriptor_weight: float = 0.0001
    specularity_weight: float = 100.0

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
    return T.softmax_cross_entropy(detect, _cell_targets(label, hc, wc).reshape(hc, wc))


def descriptor_loss(desc_a: Tensor, desc_b: Tensor, correspondence: np.ndarray) -> Tensor:
    """Hinge contrastive loss over all cell pairs of the two views.

    correspondence is the (Hc*Wc,) int array of homography.correspondence_tensor:
    the row-major target cell of each source cell of view a in view b, or
    -1 for none. Each corresponding pair is pulled above the positive margin
    1 with weight 250, every other pair pushed below the negative margin
    0.2; the result is the mean over all Hc*Wc x Hc*Wc pairs
    (tensor.hinge_gram with scale 1 / (Hc*Wc)^2). Raises ValueError for a
    target array of another length or with a value outside [-1, Hc*Wc).
    """
    n = int(np.prod(desc_a.shape[:-1]))
    target = np.asarray(correspondence)
    if target.shape != (n,) or target.dtype.kind not in "iu":
        raise ValueError(
            f"correspondence must be {n} integer target cells, got {target.dtype} {target.shape}"
        )
    if np.any((target < -1) | (target >= n)):
        raise ValueError(f"correspondence target outside [-1, {n})")
    return T.hinge_gram(desc_a, desc_b, target, _MARGIN_POSITIVE, _MARGIN_NEGATIVE,
                        _CORRESPONDENCE_WEIGHT, 1.0 / (float(n) * float(n)))


def specularity_loss(detect: Tensor, image: np.ndarray) -> Tensor:
    """Mean heatmap probability over the specular pixels of one view.

    The frame is cast to the detect head's dtype before masking. Pixel
    (CELL*i + c // CELL, CELL*j + c % CELL) of the mask is channel c of cell
    (i, j), as in network.heatmap; the dustbin channel is zero.
    """
    hc, wc, _ = detect.shape
    image = np.asarray(image).astype(detect.dtype, copy=False)
    if image.shape != (hc * CELL, wc * CELL):
        raise ValueError(
            f"image shape {image.shape} does not match detect grid {(hc * CELL, wc * CELL)}"
        )
    mask = specularity_mask(image)
    cells = np.zeros((hc, wc, DUSTBIN + 1), dtype=detect.dtype)
    cells[..., :DUSTBIN] = mask.reshape(hc, CELL, wc, CELL).transpose(0, 2, 1, 3).reshape(hc, wc, DUSTBIN)
    return T.masked_mean(T.channel_softmax(detect), cells, 1.0 / (_GUARD_EPS + float(mask.sum())))


def pair_loss(
    heads_a,
    label_a: PseudoLabel,
    heads_b,
    label_b: PseudoLabel,
    correspondence: np.ndarray,
    config: LossConfig = LossConfig(),
) -> tuple[Tensor, tuple[float, float]]:
    """Joint detection + description loss of a warped image pair.

    correspondence is the (Hc*Wc,) target-cell array of
    homography.correspondence_tensor for the warp from view a to view b.
    Returns (loss, (detection, descriptor)): the loss Tensor and the values
    of its two unweighted terms, the summed detection losses of both views
    and the descriptor loss.
    """
    det = T.add(detection_loss(heads_a.detect, label_a), detection_loss(heads_b.detect, label_b))
    desc = descriptor_loss(heads_a.describe, heads_b.describe, correspondence)
    return T.add(det, desc, config.descriptor_weight), (det.item(), desc.item())


def specular_pair_loss(
    image_a,
    heads_a,
    label_a: PseudoLabel,
    image_b,
    heads_b,
    label_b: PseudoLabel,
    correspondence: np.ndarray,
    config: LossConfig = LossConfig(),
) -> tuple[Tensor, tuple[float, float, float]]:
    """Pair loss plus highlight suppression on both views.

    correspondence is pair_loss's target-cell array. Returns (loss,
    (detection, descriptor, specularity)): pair_loss's terms and the summed
    unweighted specularity losses of both views. With specularity_weight
    == 0 the loss is exactly pair_loss's (same graph, same value, bit for
    bit) and the specularity term is 0.0.
    """
    loss, terms = pair_loss(heads_a, label_a, heads_b, label_b, correspondence, config)
    if config.specularity_weight == 0:
        return loss, (*terms, 0.0)
    spec = T.add(
        specularity_loss(heads_a.detect, image_a),
        specularity_loss(heads_b.detect, image_b),
    )
    return T.add(loss, spec, config.specularity_weight), (*terms, spec.item())
