"""Detection, descriptor, and specularity losses against brute-force oracles."""

import tracemalloc

import numpy as np
import pytest

from endofeat import tensor as T
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
from endofeat.tensor import GradTape, Tensor, backward, hinge_gram

from helpers import chain_specularity_loss, dense_descriptor_loss, rng, toy_architecture


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


def _descriptor_oracle(da, db, targets):
    # SuperPoint's hinge: m_p = 1, m_n = 0.2, lambda_d = 250
    hc, wc, d = da.shape
    n = hc * wc
    a = da.reshape(n, d)
    b = db.reshape(n, d)
    total = 0.0
    for i in range(n):
        for j in range(n):
            g = float(a[i] @ b[j])
            if targets[i] == j:
                total += 250.0 * max(0.0, 1.0 - g)
            else:
                total += max(0.0, g - 0.2)
    return total / (n * n)


@pytest.mark.parametrize("seed", range(8))
def test_descriptor_loss_matches_pair_oracle(seed):
    r = rng((20, seed))
    hc, wc, d = 2, 3, 4
    da = r.normal(size=(hc, wc, d))
    db = r.normal(size=(hc, wc, d))
    n = hc * wc
    targets = r.integers(-1, n, size=n)
    got = descriptor_loss(Tensor(da), Tensor(db), targets).item()
    want = _descriptor_oracle(da, db, targets)
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def _loss_and_grads(loss_fn, da, db, targets, upstream=1.0):
    a, b = Tensor(da), Tensor(db)
    with GradTape() as tape:
        loss = loss_fn(a, b, targets)
    ga, gb = backward(tape, loss, [a, b], upstream)
    return loss.data.tobytes(), ga.tobytes(), gb.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("height, width", [(16, 16), (64, 64), (120, 160), (240, 320)])
def test_descriptor_loss_equals_dense_oracle_bit_for_bit(dtype, height, width):
    # The targets against the dense 0/1 tensor they scatter into: the loss
    # and both gradients keep every byte, at SuperPoint's weight and, through
    # hinge_gram directly, at a correspondence weight float32 does not hold
    # exactly.
    for seed in range(4):
        r = rng((24, seed))
        h_px = to_pixel_frame(sample_homography(r), height, width)
        targets = correspondence_tensor(h_px, height, width)
        shape = (height // CELL, width // CELL, 32)
        da = (r.normal(size=shape) * 0.3).astype(dtype)
        db = (r.normal(size=shape) * 0.3).astype(dtype)
        assert _loss_and_grads(descriptor_loss, da, db, targets) == _loss_and_grads(
            dense_descriptor_loss, da, db, targets
        )
        n = len(targets)

        def weight_01(a, b, t):
            return hinge_gram(a, b, t, 1.0, 0.2, 0.1, 1.0 / (float(n) * float(n)))

        assert _loss_and_grads(weight_01, da, db, targets) == _loss_and_grads(
            lambda a, b, t: dense_descriptor_loss(a, b, t, w=0.1), da, db, targets
        )


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_descriptor_loss_equals_dense_oracle_under_negative_upstream_gradient(dtype):
    # A negative gradient into the loss flips the sign of hinge_gram's
    # coefficients: the loss and both gradients still keep every byte.
    r = rng(26)
    targets = correspondence_tensor(to_pixel_frame(sample_homography(r), 64, 64), 64, 64)
    da = (r.normal(size=(8, 8, 32)) * 0.3).astype(dtype)
    db = (r.normal(size=(8, 8, 32)) * 0.3).astype(dtype)

    assert _loss_and_grads(descriptor_loss, da, db, targets, -3.0) == _loss_and_grads(
        dense_descriptor_loss, da, db, targets, -3.0
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


def test_descriptor_loss_records_one_op():
    grid = Tensor(np.zeros((2, 3, 4)))
    with GradTape() as tape:
        descriptor_loss(grid, grid, np.full(6, -1))
    assert len(tape._records) == 1  # hinge_gram, the mean its scale


@pytest.mark.parametrize("wrt", ["ab", "a", "b"])
def test_hinge_gram_builds_its_coefficients_once_per_backward(monkeypatch, wrt):
    # The two gradient functions share one coefficient grid: the b function
    # reuses the a function's, and builds its own only when a is not differentiated.
    r = rng(27)
    targets = correspondence_tensor(to_pixel_frame(sample_homography(r), 32, 32), 32, 32)
    a, b = Tensor(r.normal(size=(4, 4, 8)) * 0.3), Tensor(r.normal(size=(4, 4, 8)) * 0.3)
    build = T._hinge_coefficients
    calls = []

    def spy(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(T, "_hinge_coefficients", spy)
    with GradTape() as tape:
        loss = descriptor_loss(a, b, targets)
    grads = backward(tape, loss, [{"a": a, "b": b}[t] for t in wrt])
    assert len(calls) == 1
    assert all(g.any() for g in grads)


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


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_specularity_loss_equals_four_op_chain_bit_for_bit(dtype):
    # masked_mean against the mul -> reduce_sum -> affine chain it replaced:
    # the loss and the gradient keep every byte, under upstream gradients
    # (backward's scale) of training's size and of either sign.
    for seed in range(4):
        r = rng((29, seed))
        detect = (r.normal(size=(3, 4, 65)) * 2.0).astype(dtype)
        image = r.uniform(0.0, 1.0, size=(24, 32))
        for upstream in (1.0, 50.0, -3.0):
            got = []
            for loss_fn in (specularity_loss, chain_specularity_loss):
                x = Tensor(detect)
                with GradTape() as tape:
                    loss = loss_fn(x, image)
                (gx,) = backward(tape, loss, [x], upstream)
                assert loss.dtype == gx.dtype == dtype
                got.append((loss.data.tobytes(), gx.tobytes()))
            assert got[0] == got[1]


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


def test_a_toy_training_slot_records_11_loss_ops():
    # As finetune runs a slot: two forwards, then the specular pair loss; the
    # batch mean is backward's scale. Two detection losses, the descriptor
    # loss's hinge_gram, a softmax and a masked_mean per view, and four adds.
    img_a, _, img_b, _, label, corr = _toy_pair()
    params = init_params(toy_architecture(), seed=7)
    with GradTape() as tape:
        heads_a = forward(params, img_a)
        heads_b = forward(params, img_b)
        before = len(tape._records)
        specular_pair_loss(img_a, heads_a, label, img_b, heads_b, label, corr)
    assert len(tape._records) - before == 11


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
