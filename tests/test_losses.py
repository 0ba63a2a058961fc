"""Detection, descriptor, and specularity losses against brute-force oracles."""

import tracemalloc

import numpy as np
import pytest

from endofeat.data import PseudoLabel
from endofeat.homography import correspondence_tensor, sample_homography, to_pixel_frame
from endofeat.losses import (
    CELL,
    DUSTBIN,
    LossConfig,
    _cell_targets,
    descriptor_loss,
    detection_loss,
    pair_loss,
    specular_pair_loss,
    specularity_loss,
)
from endofeat.network import forward, init_params
from endofeat.tensor import GradTape, Tensor, affine, backward

from helpers import dense_descriptor_loss, rng, toy_architecture


def empty_label():
    return PseudoLabel(np.empty((0, 2), dtype=np.int64), np.empty(0))


# --- detection -------------------------------------------------------------


def test_uniform_logits_cost_ln65():
    detect = Tensor(np.zeros((2, 3, 65)))
    loss = detection_loss(detect, empty_label())
    assert abs(loss.item() - np.log(65)) < 1e-12


def test_cell_targets_winners_and_dustbin():
    # cell (0,0): two points, higher score wins; cell (1,1) untouched -> dustbin
    label = PseudoLabel(
        np.array([[1, 2], [6, 7], [9, 10]]), np.array([0.4, 0.9, 0.5])
    )
    targets = _cell_targets(label, 2, 2)
    assert targets[0] == (7 % CELL) * CELL + 6 % CELL
    assert targets[3] == (10 % CELL) * CELL + 9 % CELL
    assert targets[1] == DUSTBIN and targets[2] == DUSTBIN


def test_cell_targets_score_tie_breaks_row_then_column():
    label = PseudoLabel(np.array([[5, 3], [2, 3], [4, 1]]), np.array([0.5, 0.5, 0.5]))
    targets = _cell_targets(label, 1, 1)
    assert targets[0] == 1 * CELL + 4  # smallest y wins, then smallest x


def test_cell_targets_out_of_extent():
    label = PseudoLabel(np.array([[8, 0]]), np.array([1.0]))
    with pytest.raises(ValueError, match="extent"):
        _cell_targets(label, 1, 1)


def test_detection_loss_matches_cross_entropy_oracle():
    r = rng(11)
    logits = r.normal(size=(2, 2, 65))
    pts = np.array([[3, 4], [12, 9]])
    label = PseudoLabel(pts, np.array([0.9, 0.8]))
    loss = detection_loss(Tensor(logits), label).item()

    targets = _cell_targets(label, 2, 2)
    flat = logits.reshape(4, 65)
    lse = np.log(np.exp(flat - flat.max(axis=1, keepdims=True)).sum(axis=1)) + flat.max(axis=1)
    expected = float(np.mean(lse - flat[np.arange(4), targets]))
    assert abs(loss - expected) < 1e-12


def test_detection_loss_rejects_wrong_channel_count():
    with pytest.raises(ValueError, match="65"):
        detection_loss(Tensor(np.zeros((2, 2, 64))), empty_label())


# --- descriptor ------------------------------------------------------------


def _descriptor_oracle(da, db, targets, cfg):
    hc, wc, d = da.shape
    n = hc * wc
    a = da.reshape(n, d)
    b = db.reshape(n, d)
    total = 0.0
    for i in range(n):
        for j in range(n):
            g = float(a[i] @ b[j])
            if targets[i] == j:
                total += cfg.correspondence_weight * max(0.0, cfg.margin_positive - g)
            else:
                total += max(0.0, g - cfg.margin_negative)
    return total / (n * n)


@pytest.mark.parametrize("seed", range(8))
def test_descriptor_loss_matches_pair_oracle(seed):
    r = rng((20, seed))
    hc, wc, d = 2, 3, 4
    da = r.normal(size=(hc, wc, d))
    db = r.normal(size=(hc, wc, d))
    n = hc * wc
    targets = r.integers(-1, n, size=n)
    cfg = LossConfig()
    got = descriptor_loss(Tensor(da), Tensor(db), targets, cfg).item()
    want = _descriptor_oracle(da, db, targets, cfg)
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def _loss_and_grads(loss_fn, da, db, targets, cfg):
    a, b = Tensor(da), Tensor(db)
    with GradTape() as tape:
        loss = loss_fn(a, b, targets, cfg)
    ga, gb = backward(tape, loss, [a, b])
    return loss.data.tobytes(), ga.tobytes(), gb.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("height, width", [(16, 16), (64, 64), (120, 160), (240, 320)])
def test_descriptor_loss_equals_dense_oracle_bit_for_bit(dtype, height, width):
    # The targets against the dense 0/1 tensor they scatter into: the loss
    # and both gradients keep every byte, at the default weights and at a
    # correspondence weight float32 does not hold exactly.
    for seed in range(4):
        r = rng((24, seed))
        h_px = to_pixel_frame(sample_homography(r), height, width)
        targets = correspondence_tensor(h_px, height, width)
        shape = (height // CELL, width // CELL, 32)
        da = (r.normal(size=shape) * 0.3).astype(dtype)
        db = (r.normal(size=shape) * 0.3).astype(dtype)
        for cfg in (LossConfig(), LossConfig(correspondence_weight=0.1)):
            assert _loss_and_grads(descriptor_loss, da, db, targets, cfg) == _loss_and_grads(
                dense_descriptor_loss, da, db, targets, cfg
            )


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_descriptor_loss_equals_dense_oracle_under_negative_upstream_gradient(dtype):
    # A negative gradient into the loss flips the sign of hinge_gram's
    # coefficients: the loss and both gradients still keep every byte.
    r = rng(26)
    targets = correspondence_tensor(to_pixel_frame(sample_homography(r), 64, 64), 64, 64)
    da = (r.normal(size=(8, 8, 32)) * 0.3).astype(dtype)
    db = (r.normal(size=(8, 8, 32)) * 0.3).astype(dtype)

    def negated(loss_fn):
        return lambda a, b, t, cfg: affine(loss_fn(a, b, t, cfg), -3.0, 0.0)

    cfg = LossConfig()
    assert _loss_and_grads(negated(descriptor_loss), da, db, targets, cfg) == _loss_and_grads(
        negated(dense_descriptor_loss), da, db, targets, cfg
    )


@pytest.mark.parametrize(
    "targets",
    [np.zeros(5, np.int64), np.zeros(7, np.int64), np.full((2, 3), -1), np.zeros(6),
     np.array([0, 1, 2, 3, 4, 6]), np.array([0, 1, -2, 3, 4, 5])],
    ids=["short", "long", "grid", "float", "past_n", "below_minus_one"],
)
def test_descriptor_loss_rejects_bad_targets(targets):
    grid = Tensor(np.zeros((2, 3, 4)))
    with pytest.raises(ValueError, match="correspondence"):
        descriptor_loss(grid, grid, targets)


def test_descriptor_loss_records_two_ops():
    grid = Tensor(np.zeros((2, 3, 4)))
    with GradTape() as tape:
        descriptor_loss(grid, grid, np.full(6, -1))
    assert len(tape._records) == 2  # hinge_gram and the mean's affine


def _descriptor_loss_peak(height, width):
    """tracemalloc peak of correspondence_tensor plus the loss's forward and
    backward, f32, D = 256."""
    r = rng(25)
    h_px = to_pixel_frame(sample_homography(r), height, width)
    shape = (height // CELL, width // CELL, 256)
    da = Tensor(r.normal(size=shape).astype(np.float32))
    db = Tensor(r.normal(size=shape).astype(np.float32))
    tracemalloc.start()
    try:
        targets = correspondence_tensor(h_px, height, width)
        with GradTape() as tape:
            loss = descriptor_loss(da, db, targets)
        grads = backward(tape, loss, [da, db])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grads[0].any() and grads[1].any()
    return peak


# One n x n float array and one n x n bool mask at a time, and only the mask
# held by the tape past the call: 38.7 and 604 MB with the Gram Tensor and
# its two n x n hinge-weight grids.


def test_descriptor_loss_memory_at_240x320():
    peak = _descriptor_loss_peak(240, 320)
    assert peak < 16e6, f"peak {peak / 1e6:.1f} MB"


def test_descriptor_loss_memory_at_480x640():
    peak = _descriptor_loss_peak(480, 640)
    assert peak < 160e6, f"peak {peak / 1e6:.1f} MB"


def test_descriptor_loss_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        descriptor_loss(Tensor(np.zeros((1, 2, 3))), Tensor(np.zeros((2, 1, 3))), np.full(2, -1))


# --- specularity -----------------------------------------------------------


def _heat_oracle(detect):
    e = np.exp(detect - detect.max(axis=2, keepdims=True))
    p = e / e.sum(axis=2, keepdims=True)
    hc, wc, _ = p.shape
    heat = np.zeros((hc * CELL, wc * CELL))
    for c in range(DUSTBIN):
        heat[c // CELL :: CELL, c % CELL :: CELL] = p[:, :, c]
    return heat


@pytest.mark.parametrize("seed", range(8))
def test_specularity_loss_matches_masked_mean_oracle(seed):
    r = rng((22, seed))
    hc, wc = 2, 2
    detect = r.normal(size=(hc, wc, 65))
    image = r.uniform(0.0, 1.0, size=(hc * CELL, wc * CELL))
    got = specularity_loss(Tensor(detect), image).item()

    heat = _heat_oracle(detect)
    mask = image > 0.7
    want = (heat * mask).sum() / (1e-10 + mask.sum())
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_specularity_loss_no_highlights_is_zero():
    detect = rng(23).normal(size=(2, 2, 65))
    image = np.full((16, 16), 0.5)
    assert specularity_loss(Tensor(detect), image).item() == 0.0


def test_specularity_loss_shape_check():
    with pytest.raises(ValueError, match="image shape"):
        specularity_loss(Tensor(np.zeros((2, 2, 65))), np.zeros((8, 8)))


# --- compositions ----------------------------------------------------------


def _toy_pair(seed=31):
    r = rng(seed)
    params = init_params(toy_architecture(), seed=7)
    img_a = r.uniform(0, 1, (16, 16))
    img_b = r.uniform(0, 1, (16, 16))
    heads_a = forward(params, img_a)
    heads_b = forward(params, img_b)
    label = PseudoLabel(np.array([[3, 4]]), np.array([0.9]))
    corr = correspondence_tensor(np.eye(3), 16, 16)
    return img_a, heads_a, img_b, heads_b, label, corr


def test_specular_weight_zero_collapses_to_pair_loss():
    img_a, heads_a, img_b, heads_b, label, corr = _toy_pair()
    cfg = LossConfig(specularity_weight=0.0)
    plain, plain_terms = pair_loss(heads_a, label, heads_b, label, corr, cfg)
    combined, terms = specular_pair_loss(img_a, heads_a, label, img_b, heads_b, label, corr, cfg)
    assert combined.item() == plain.item()  # bit for bit
    assert terms == (*plain_terms, 0.0)


def test_specular_pair_loss_reports_terms():
    img_a, heads_a, img_b, heads_b, label, corr = _toy_pair()
    img_a = img_a.copy()
    img_a[0:2, 0:2] = 0.95  # guarantee some highlight pixels
    cfg = LossConfig()
    total, (det, desc, spec) = specular_pair_loss(
        img_a, heads_a, label, img_b, heads_b, label, corr, cfg
    )
    assert spec > 0
    recombined = det + cfg.descriptor_weight * desc + cfg.specularity_weight * spec
    assert abs(total.item() - recombined) < 1e-12


def test_loss_config_validation():
    with pytest.raises(ValueError):
        LossConfig(specularity_weight=-1.0)
