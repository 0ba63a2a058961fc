"""Shared test fixtures: finite-difference gradient checks, toy nets, byte damage,
and the oracles and scene generators only tests use."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from endofeat import losses, network
from endofeat import tensor as T
from endofeat.data import PseudoLabel, specularity_mask, warp_label
from endofeat import geometry
from endofeat.geometry import Intrinsics, RelativePose, RansacResult, rotation_to_quat
from endofeat.homography import (
    HomographyConfig,
    correspondence_tensor,
    sample_homography,
    to_pixel_frame,
    warp_image,
)
from endofeat.network import Architecture
from endofeat.tensor import CELL, DUSTBIN, Tensor


def load_script(name: str):
    """Import scripts/<name>.py as a module, so a test can call its functions."""
    path = Path(__file__).resolve().parent.parent / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def rng(seed) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed))


def check_gradients(build, arrays, eps: float = 1e-6, tol: float = 1e-4) -> float:
    """Compare tape gradients of build(*tensors) against central differences.

    build must map Tensors (one per array) to a scalar Tensor. Gradients
    are compared per element with the scaled error
    |analytic - fd| / max(1, |analytic|, |fd|); asserts the worst one is
    below tol and returns it.
    """
    arrays = [np.array(a, dtype=np.float64) for a in arrays]
    tensors = [Tensor(a) for a in arrays]
    with T.GradTape() as tape:
        loss = build(*tensors)
    analytic = [np.array(g) for g in T.backward(tape, loss, tensors)]

    worst = 0.0
    for ai, arr in enumerate(arrays):
        flat = arr.ravel()
        an_flat = analytic[ai].ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = build(*[Tensor(a) for a in arrays]).item()
            flat[i] = orig - eps
            lo = build(*[Tensor(a) for a in arrays]).item()
            flat[i] = orig
            fd = (hi - lo) / (2.0 * eps)
            err = abs(an_flat[i] - fd) / max(1.0, abs(an_flat[i]), abs(fd))
            worst = max(worst, err)
    assert worst < tol, f"gradient mismatch: scaled error {worst:.3e} >= {tol}"
    return worst


def op_cases():
    """(name, build, arrays) triples covering every differentiable op."""
    r = rng(7)
    cases = []

    x34 = r.uniform(-1.0, 1.0, (3, 4))
    y34 = r.uniform(-1.0, 1.0, (3, 4))
    w34 = r.uniform(-1.0, 1.0, (3, 4))
    cases.append(("add", lambda a, b: T.masked_mean(T.add(a, b, -0.7), w34, 1.0), [x34, y34]))
    cases.append(("masked_mean", lambda a: T.masked_mean(a, y34, -1.3), [x34]))

    relu_in = r.uniform(0.05, 1.0, (3, 4)) * r.choice([-1.0, 1.0], (3, 4))  # keep off the kink
    cases.append(("relu", lambda a: T.masked_mean(T.relu(a), w34, 1.0), [relu_in]))

    a233 = r.uniform(-1.0, 1.0, (2, 3, 3))
    b233 = r.uniform(-1.0, 1.0, (2, 3, 3))
    target6 = np.array([2, 1, 1, -1, 0, 5])  # four positive hinges active, one not
    m_p, m_n = 0.75, 0.2
    products = a233.reshape(6, 3) @ b233.reshape(6, 3).T
    assert np.abs(products - m_p).min() >= 0.05 and np.abs(products - m_n).min() >= 0.05  # off both kinks
    cases.append(
        ("hinge_gram", lambda a, b: T.hinge_gram(a, b, target6, m_p, m_n, 2.5, 0.4), [a233, b233])
    )

    x562 = r.uniform(-1.0, 1.0, (5, 6, 2))
    k3323 = r.uniform(-1.0, 1.0, (3, 3, 2, 3))
    b3 = r.uniform(-1.0, 1.0, 3)
    w563 = r.uniform(-1.0, 1.0, (5, 6, 3))
    cases.append(
        (
            "conv2d",
            lambda x, k, b: T.masked_mean(T.conv2d(x, k, b), w563, 1.0),
            [x562, k3323, b3],
        )
    )
    x462 = r.uniform(-1.0, 1.0, (4, 6, 2))
    w232 = r.uniform(-1.0, 1.0, (2, 3, 2))
    cases.append(
        ("max_pool2x2", lambda a: T.masked_mean(T.max_pool2x2(a), w232, 1.0), [x462])
    )

    x2265 = r.uniform(-1.0, 1.0, (2, 2, 65))
    w2265 = r.uniform(-1.0, 1.0, (2, 2, 65))
    cases.append(
        (
            "channel_softmax",
            lambda a: T.masked_mean(T.channel_softmax(a), w2265, 1.0),
            [x2265],
        )
    )

    logits = r.uniform(-1.0, 1.0, (5, 7))
    targets = r.integers(0, 7, 5)
    cases.append(
        ("softmax_cross_entropy", lambda a: T.softmax_cross_entropy(a, targets), [logits])
    )
    return cases


def toy_architecture() -> Architecture:
    return Architecture(
        encoder_stages=((2, 2), (2, 2), (2, 2), (2, 2)), head_width=3, descriptor_dim=2
    )


def toy_pair_loss_case(size: int = 16, seed: int = 3):
    """(build, arrays) for the full warped-pair loss on a toy net.

    arrays are every kernel and bias; build reassembles them into params
    and evaluates the combined detection + descriptor + highlight loss on
    a fixed image pair related by a known warp.
    """
    arch = toy_architecture()
    params = network.init_params(arch, seed=seed, dtype=np.float64)
    labels = list(params.tensors)
    r = rng((seed, 1))
    arrays = []
    for label, t in params.tensors.items():
        if label.endswith(".kernel"):
            arrays.append(np.array(t.data))
        else:
            # Random nonzero biases keep every unit clear of the relu kink,
            # where a one-sided subgradient cannot match central differences.
            arrays.append(r.uniform(0.02, 0.2, t.shape) * r.choice([-1.0, 1.0], t.shape))
    img_a = r.uniform(0.05, 0.65, (size, size))
    img_a[3:6, 4:7] = 0.92  # saturated patch keeps the highlight term active
    h_unit = sample_homography(
        rng((seed, 2)),
        HomographyConfig(
            perspective=0.02, scale_min=0.9, scale_max=1.1, rotation_deg=10.0, translation=0.05
        ),
    )
    h_px = to_pixel_frame(h_unit, size, size)
    img_b = warp_image(img_a, h_px)

    flat = r.choice(size * size, size=6, replace=False)
    ys, xs = np.divmod(flat, size)
    label_a = PseudoLabel(np.stack([xs, ys], axis=1), r.uniform(0.4, 1.0, 6))
    label_b = warp_label(label_a, h_px, size, size)
    corr = correspondence_tensor(h_px, size, size)
    loss_config = losses.LossConfig()

    def build(*tensors):
        p = network.NetworkParams(arch, dict(zip(labels, tensors)))
        heads_a = network.forward(p, img_a)
        heads_b = network.forward(p, img_b)
        return losses.specular_pair_loss(
            img_a, heads_a, label_a, img_b, heads_b, label_b, corr, loss_config
        )[0]

    return build, arrays


def _gram(a, b):
    """The Gram op descriptor_loss recorded before hinge_gram: entry (p, q)
    of the (Hc*Wc) x (Hc*Wc) Tensor is a's cell p dotted with b's cell q."""
    av, bv = a.data, b.data
    a2 = av.reshape(-1, av.shape[2])
    bt = np.ascontiguousarray(bv.reshape(-1, bv.shape[2]).T)
    out = Tensor._wrap(a2 @ bt)
    T._record(out, (a, lambda g: (g @ bt.T).reshape(av.shape)),
              (b, lambda g: np.ascontiguousarray((a2.T @ g).T).reshape(bv.shape)))
    return out


def _affine(x, scale, shift):
    """The elementwise scale * x + shift op the losses and training recorded
    for each loss weight and mean before add, hinge_gram and backward took
    them as arguments."""
    out = Tensor._wrap(x.data * scale + shift)
    T._record(out, (x, lambda g: g * scale))
    return out


def _mul(x, c):
    """The elementwise x * c op (c a constant array) the losses recorded
    before hinge_gram and masked_mean."""
    out = Tensor._wrap(x.data * c)
    T._record(out, (x, lambda g: g * c))
    return out


def _reduce_sum(x):
    """The whole-array sum op the losses recorded before hinge_gram and masked_mean."""
    out = Tensor._wrap(np.asarray(x.data.sum()))
    shape = x.data.shape
    T._record(out, (x, lambda g: np.broadcast_to(g, shape).copy()))
    return out


def dense_descriptor_loss(desc_a, desc_b, targets, m_p=1.0, m_n=0.2, w=250.0):
    """descriptor_loss as the ten-op chain it ran before hinge_gram: the Gram
    Tensor, both hinges through affine and relu, the dense (Hc, Wc, Hc, Wc)
    0/1 correspondence tensor the targets scatter into as the weight grids
    w * s and 1.0 - s, their products, sum and mean. hinge_gram does the
    same arithmetic on the same layouts, so the loss and its gradients must
    agree bit for bit. The defaults are SuperPoint's margins and weight."""
    gram = _gram(desc_a, desc_b)
    n = gram.shape[0]
    hc, wc = desc_a.shape[:2]
    dense = np.zeros((hc, wc, hc, wc), dtype=np.uint8)
    src = np.flatnonzero(targets >= 0)
    dense.reshape(n, n)[src, targets[src]] = 1
    s = np.asarray(dense, dtype=desc_a.dtype).reshape(n, n)
    pos = T.relu(_affine(gram, -1.0, m_p))
    neg = T.relu(_affine(gram, 1.0, -m_n))
    total = _reduce_sum(T.add(_mul(pos, w * s), _mul(neg, 1.0 - s)))
    return _affine(total, 1.0 / (float(n) * float(n)), 0.0)


def chain_specularity_loss(detect, image):
    """specularity_loss as the four-op chain it ran before masked_mean: the
    channel softmax, the cell-laid mask multiplied in, the sum and the mean's
    affine. masked_mean does the same arithmetic in the same order, so the
    loss and its gradient must agree bit for bit."""
    image = np.asarray(image).astype(detect.dtype, copy=False)
    mask = specularity_mask(image)
    cells = np.zeros((*detect.shape[:2], DUSTBIN + 1), dtype=detect.dtype)
    cells[..., :DUSTBIN] = space_to_depth(mask)
    masked = _mul(T.channel_softmax(detect), cells)
    return _affine(_reduce_sum(masked), 1.0 / (1e-10 + float(mask.sum())), 0.0)


def damaged(blob: bytes):
    """Hypothesis strategy: blob with up to four bytes overwritten, then cut at any length."""
    edits = st.lists(st.tuples(st.integers(0, len(blob) - 1), st.integers(0, 255)), max_size=4)

    def apply(pairs, cut):
        out = bytearray(blob)
        for pos, value in pairs:
            out[pos] = value
        return bytes(out[:cut])

    return st.builds(apply, edits, st.integers(0, len(blob)))


BYTE_EDITS = st.lists(st.tuples(st.integers(0, 1 << 12), st.integers(0, 255)), max_size=3)


def overwrite(blob: bytes, edits) -> bytes:
    """blob with byte pos % len(blob) set to value for each (pos, value) in edits."""
    out = bytearray(blob)
    for pos, value in edits:
        if out:
            out[pos % len(out)] = value
    return bytes(out)


def text_file_bytes(text):
    """Hypothesis strategy: a drawn text as UTF-8 with up to three bytes
    overwritten (often no longer UTF-8), or arbitrary bytes."""
    return st.one_of(st.builds(overwrite, text.map(str.encode), BYTE_EDITS), st.binary(max_size=64))


def space_to_depth(y: np.ndarray) -> np.ndarray:
    """H x W pixel map to its Hc x Wc x DUSTBIN cells: pixel (CELL*i + c // CELL,
    CELL*j + c % CELL) becomes channel c of cell (i, j). The exact inverse of
    network.heatmap's tiling, and of specularity_loss's mask layout."""
    h, w = y.shape
    if h % CELL or w % CELL:
        raise ValueError(f"space_to_depth needs dims divisible by {CELL}, got {h}x{w}")
    hc, wc = h // CELL, w // CELL
    return y.reshape(hc, CELL, wc, CELL).transpose(0, 2, 1, 3).reshape(hc, wc, DUSTBIN)


def conv2d_tensordot(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray, padding: int) -> np.ndarray:
    """conv2d's forward as one whole-image GEMM: np.tensordot over the full
    (ho, wo, k, k, cin) im2col, plus the bias. The blocked forward must
    give the same bytes."""
    k = kernel.shape[0]
    ho, wo = x.shape[0] + 2 * padding - k + 1, x.shape[1] + 2 * padding - k + 1
    xp = np.pad(x, ((padding, padding), (padding, padding), (0, 0)))
    sy, sx, sc = xp.strides
    patches = np.lib.stride_tricks.as_strided(xp, (ho, wo, k, k, x.shape[2]), (sy, sx, sy, sx, sc))
    return np.tensordot(patches, kernel, axes=([2, 3, 4], [0, 1, 2])) + bias


def conv2d_grads_whole(x: np.ndarray, kernel: np.ndarray, g: np.ndarray, padding: int):
    """(gx, gk, gb) of conv2d for upstream gradient g, from whole-image arrays:
    np.pad, one tensordot over the whole (ho, wo, k, k, cin) column gradient
    scattered in k*k slices into a padded buffer, and one row-major im2col
    GEMM for gk. conv2d must give gb's bytes and, for a layer whose forward
    is one GEMM block, gk's; gx and blocked gk agree up to rounding."""
    k = kernel.shape[0]
    h, w, cin = x.shape
    ho, wo = g.shape[:2]
    xp = np.pad(x, ((padding, padding), (padding, padding), (0, 0)))
    sy, sx, sc = xp.strides
    patches = np.lib.stride_tricks.as_strided(xp, (ho, wo, k, k, cin), (sy, sx, sy, sx, sc))
    gk = (patches.reshape(ho * wo, -1).T @ g.reshape(ho * wo, -1)).reshape(kernel.shape)
    gb = g.sum(axis=(0, 1))
    gcols = np.tensordot(g, kernel, axes=([2], [3]))  # (ho, wo, k, k, cin)
    gxp = np.zeros_like(xp)
    for di in range(k):
        for dj in range(k):
            gxp[di : di + ho, dj : dj + wo] += gcols[:, :, di, dj, :]
    return np.ascontiguousarray(gxp[padding : padding + h, padding : padding + w]), gk, gb


def conv2d_layers(arch: Architecture, h: int, w: int):
    """(name, h, w, k, cin, cout, padding) of every conv of arch on an h x w image."""
    out = []
    for name, k, cin, cout in arch.layer_plan():
        stage = int(name[3]) if name.startswith("enc") else 3  # the heads run at 1/8
        out.append((name, h >> stage, w >> stage, k, cin, cout, k // 2))
    return out


def dense_densify(describe: np.ndarray, ys, xs) -> np.ndarray:
    """The whole H x W x D unit-norm descriptor map, read at (ys, xs).

    The dense decode network.densify replaced: the same bicubic einsum, then
    the norm summed over the einsum output's strided channel axis for every
    pixel, the 1e-12 floor, and the division, before the gather.

    Not a byte oracle on a 1 x 1 cell grid (an 8 x 8 frame) with D >= 16:
    there einsum multiplies instead of running a GEMM, its output is
    channel-contiguous, and this norm is numpy's pairwise sum, while densify
    sums the channels sequentially; the two can differ in the last bit.
    """
    wh = network._upsample_matrix(describe.shape[0], describe.dtype)
    ww = network._upsample_matrix(describe.shape[1], describe.dtype)
    up = np.einsum("oi,pj,ijc->opc", wh, ww, describe, optimize=True)
    norm = np.sqrt((up * up).sum(axis=-1, keepdims=True))
    dense = up / np.where(norm > 1e-12, norm, 1e-12)
    return np.ascontiguousarray(dense[ys, xs])


def nms_oracle(scores, threshold, window, max_points):
    """Greedy NMS one candidate at a time: candidates visited in rank order
    (score descending, then row, then column), each kept unless a kept point
    within r blocked it; a kept point blocks its (2r+1)^2 window."""
    radius = (window - 1) // 2
    h, w = scores.shape
    cands = [(y, x) for y in range(h) for x in range(w) if scores[y, x] >= threshold]
    cands.sort(key=lambda c: (-scores[c], c[0], c[1]))
    blocked = np.zeros((h, w), bool)
    kept = []
    for y, x in cands:
        if blocked[y, x]:
            continue
        kept.append((y, x))
        if len(kept) >= max_points:
            break
        blocked[max(y - radius, 0) : y + radius + 1, max(x - radius, 0) : x + radius + 1] = True
    ys = np.asarray([k[0] for k in kept], np.int64)
    xs = np.asarray([k[1] for k in kept], np.int64)
    return ys, xs, scores[ys, xs].astype(np.float64)


def random_rotation(rng: np.random.Generator, max_angle_deg: float) -> np.ndarray:
    axis = rng.standard_normal(3)
    axis = axis / np.linalg.norm(axis)
    angle = np.deg2rad(rng.uniform(0, max_angle_deg))
    k = np.array(
        [[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]]
    )
    return np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)


def random_two_view_scene(
    n_points: int = 100,
    seed: int = 0,
    noise_px: float = 0.0,
    rotation_deg: float = 10.0,
    baseline: float = 0.3,
    intrinsics: Intrinsics | None = None,
    translation: np.ndarray | None = None,
):
    """Random 3-D points seen by two cameras with a known relative pose.

    Returns (pts_a, pts_b, pose, intrinsics): pixel correspondences, the
    ground-truth RelativePose (camera A frame to camera B frame), and the
    shared intrinsics. Points are drawn in front of both cameras.
    """
    if intrinsics is None:
        intrinsics = Intrinsics(400.0, 400.0, 320.0, 240.0)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 5)))
    r = random_rotation(rng, rotation_deg)
    if translation is None:
        t = rng.standard_normal(3)
        t = baseline * t / np.linalg.norm(t)
    else:
        t = np.asarray(translation, dtype=np.float64)
    k = intrinsics.matrix
    pts_a = np.zeros((n_points, 2))
    pts_b = np.zeros((n_points, 2))
    kept = 0
    while kept < n_points:
        x = np.array([rng.uniform(-2, 2), rng.uniform(-1.5, 1.5), rng.uniform(4, 9)])
        x2 = r @ x + t
        if x[2] <= 0.1 or x2[2] <= 0.1:
            continue
        pa = k @ (x / x[2])
        pb = k @ (x2 / x2[2])
        pts_a[kept] = pa[:2]
        pts_b[kept] = pb[:2]
        kept += 1
    if noise_px > 0:
        pts_a = pts_a + rng.normal(0, noise_px, pts_a.shape)
        pts_b = pts_b + rng.normal(0, noise_px, pts_b.shape)
    pose = RelativePose(rotation_to_quat(r), t)
    return pts_a, pts_b, pose, intrinsics


# ---------------------------------------------------------------------------
# serial RANSAC oracle: one hypothesis at a time, single-model fits and
# residuals, exactly as geometry ran them before hypotheses were stacked
# ---------------------------------------------------------------------------

_EPS = 1e-12


def oracle_hartley_normalization(points):
    points = np.asarray(points, dtype=np.float64)
    centroid = points.mean(axis=0)
    d = np.sqrt(((points - centroid) ** 2).sum(axis=1)).mean()
    if not np.isfinite(d) or d < _EPS:
        return None, None
    s = np.sqrt(2.0) / d
    t = np.array([[s, 0, -s * centroid[0]], [0, s, -s * centroid[1]], [0, 0, 1.0]])
    return t, (points - centroid) * s


def oracle_fit_homography(pts_a, pts_b):
    pts_a = np.asarray(pts_a, dtype=np.float64)
    pts_b = np.asarray(pts_b, dtype=np.float64)
    n = pts_a.shape[0]
    if n < 4:
        return None
    t1, na = oracle_hartley_normalization(pts_a)
    t2, nb = oracle_hartley_normalization(pts_b)
    if t1 is None or t2 is None:
        return None
    a = np.zeros((2 * n, 9))
    x, y = na[:, 0], na[:, 1]
    u, v = nb[:, 0], nb[:, 1]
    a[0::2, 0] = -x
    a[0::2, 1] = -y
    a[0::2, 2] = -1
    a[0::2, 6] = x * u
    a[0::2, 7] = y * u
    a[0::2, 8] = u
    a[1::2, 3] = -x
    a[1::2, 4] = -y
    a[1::2, 5] = -1
    a[1::2, 6] = x * v
    a[1::2, 7] = y * v
    a[1::2, 8] = v
    try:
        _, sv, vt = np.linalg.svd(a)
    except np.linalg.LinAlgError:
        return None
    h = vt[-1].reshape(3, 3)
    if n == 4 and sv[-2] < 1e-9 * max(sv[0], _EPS):
        return None
    h = np.linalg.inv(t2) @ h @ t1
    if not np.all(np.isfinite(h)) or abs(np.linalg.det(h)) < _EPS:
        return None
    if abs(h[2, 2]) > _EPS:
        h = h / h[2, 2]
    return h


def oracle_homography_distances(h, pts_a, pts_b):
    def transfer(m, src, dst):
        ones = np.ones((src.shape[0], 1))
        mapped = np.hstack([src, ones]) @ m.T
        w = mapped[:, 2]
        bad = np.abs(w) < _EPS
        w = np.where(bad, 1.0, w)
        d = np.sqrt(((mapped[:, :2] / w[:, None] - dst) ** 2).sum(axis=1))
        return np.where(bad, np.inf, d)

    hinv = np.linalg.inv(h)
    return np.maximum(transfer(h, pts_a, pts_b), transfer(hinv, pts_b, pts_a))


def oracle_fit_fundamental(pts_a, pts_b, essential=False):
    pts_a = np.asarray(pts_a, dtype=np.float64)
    pts_b = np.asarray(pts_b, dtype=np.float64)
    n = pts_a.shape[0]
    if n < 8:
        return None
    t1, na = oracle_hartley_normalization(pts_a)
    t2, nb = oracle_hartley_normalization(pts_b)
    if t1 is None or t2 is None:
        return None
    x, y = na[:, 0], na[:, 1]
    u, v = nb[:, 0], nb[:, 1]
    a = np.stack([u * x, u * y, u, v * x, v * y, v, x, y, np.ones(n)], axis=1)
    try:
        _, sv, vt = np.linalg.svd(a)
    except np.linalg.LinAlgError:
        return None
    f = vt[-1].reshape(3, 3)
    if n == 8 and sv[-2] < 1e-9 * max(sv[0], _EPS):
        return None
    if not essential:
        try:
            u2, s2, vt2 = np.linalg.svd(f)
        except np.linalg.LinAlgError:
            return None
        f = u2 @ np.diag([s2[0], s2[1], 0.0]) @ vt2
    f = t2.T @ f @ t1
    norm = np.linalg.norm(f)
    if not np.all(np.isfinite(f)) or norm < _EPS:
        return None
    f = f / norm
    if essential:
        try:
            u3, s3, vt3 = np.linalg.svd(f)
        except np.linalg.LinAlgError:
            return None
        sigma = (s3[0] + s3[1]) / 2.0
        if sigma < _EPS:
            return None
        f = u3 @ np.diag([1.0, 1.0, 0.0]) @ vt3
    return f


def oracle_epipolar_distances(f, pts_a, pts_b):
    pts_a = np.asarray(pts_a, dtype=np.float64)
    pts_b = np.asarray(pts_b, dtype=np.float64)
    ones = np.ones((pts_a.shape[0], 1))
    x1 = np.hstack([pts_a, ones])
    x2 = np.hstack([pts_b, ones])
    lines_b = x1 @ f.T
    lines_a = x2 @ f
    val = np.abs((x2 * lines_b).sum(axis=1))

    def dist(val, lines):
        n = np.sqrt(lines[:, 0] ** 2 + lines[:, 1] ** 2)
        bad = n < _EPS
        return np.where(bad, np.inf, val / np.where(bad, 1.0, n))

    return np.maximum(dist(val, lines_b), dist(val, lines_a))


# The strided block residuals geometry scored with before its scorers:
# (N, 3) @ (B, 3, 3)^T products read as x, y and w columns. Byte oracles
# for geometry._homography_scorer and geometry._epipolar_scorer.


def oracle_transfer_stack(m, src, dst):
    mapped = np.hstack([src, np.ones((src.shape[0], 1))]) @ m.transpose(0, 2, 1)
    w = mapped[..., 2]
    bad = np.abs(w) < _EPS
    w = np.where(bad, 1.0, w)
    dx = mapped[..., 0] / w - dst[:, 0]
    dy = mapped[..., 1] / w - dst[:, 1]
    return np.where(bad, np.inf, np.sqrt(dx * dx + dy * dy))


def oracle_homography_distances_stack(h, pts_a, pts_b):
    return np.maximum(
        oracle_transfer_stack(h, pts_a, pts_b), oracle_transfer_stack(np.linalg.inv(h), pts_b, pts_a)
    )


def oracle_epipolar_distances_stack(f, pts_a, pts_b):
    ones = np.ones((pts_a.shape[0], 1))
    x1 = np.hstack([pts_a, ones])
    x2 = np.hstack([pts_b, ones])
    lines_b = x1 @ f.transpose(0, 2, 1)
    lines_a = x2 @ f
    val = np.abs(x2[:, 0] * lines_b[..., 0] + x2[:, 1] * lines_b[..., 1] + lines_b[..., 2])

    def dist(lines):
        n = np.sqrt(lines[..., 0] ** 2 + lines[..., 1] ** 2)
        bad = n < _EPS
        return np.where(bad, np.inf, val / np.where(bad, 1.0, n))

    return np.maximum(dist(lines_b), dist(lines_a))


def oracle_front_counts(norm_a, norm_b, candidates):
    """Per (R, t) candidate, the points geometry.triangulate_points puts at
    positive depth in both cameras: recover_pose's count before its closed form."""
    counts = []
    for r, t in candidates:
        pts3 = geometry.triangulate_points(norm_a, norm_b, r, t)
        z1 = pts3[:, 2]
        z2 = (pts3 @ r.T + t)[:, 2]
        counts.append(int(((z1 > 0) & (z2 > 0)).sum()))
    return counts


def hypothesis_rng(seed: int, iteration: int) -> np.random.Generator:
    """numpy's own generator for RANSAC hypothesis `iteration` under `seed`."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, iteration))))


def numpy_samples(seed, first, count, n, s):
    """numpy's choice(n, s, replace=False) for iterations first .. first+count-1:
    the samples geometry._draw_samples must give, bit for bit."""
    return [hypothesis_rng(seed, it).choice(n, size=s, replace=False)
            for it in range(first, first + count)]


def oracle_ransac(matches, kp_a, kp_b, sample_size, fit, residuals, threshold, confidence, seed):
    n = len(matches)

    def failed(iterations, reason):
        return RansacResult(False, None, np.zeros(n, bool), iterations, reason)

    if n < sample_size:
        return failed(0, f"need at least {sample_size} matches")
    pairs = matches.pairs
    pts_a, pts_b = kp_a.points[pairs[:, 0]], kp_b.points[pairs[:, 1]]
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    ca, cb = pts_a[order], pts_b[order]

    best_count = -1
    best_model = None
    bound = geometry.RANSAC_MAX_ITERATIONS
    it = 0
    while it < bound:
        pick = hypothesis_rng(seed, it).choice(n, size=sample_size, replace=False)
        model = fit(ca[pick], cb[pick])
        it += 1
        if model is None:
            continue
        count = int((residuals(model, pts_a, pts_b) <= threshold).sum())
        if count > best_count:
            best_count = count
            best_model = model
            bound = min(bound, geometry._adaptive_bound(count / n, sample_size, confidence))
    if best_model is None:
        return failed(it, "all hypotheses degenerate")
    flags = residuals(best_model, pts_a, pts_b) <= threshold
    if flags.sum() < sample_size:
        return failed(it, "insufficient inlier support")
    refit = fit(pts_a[flags], pts_b[flags])
    if refit is None:
        return failed(it, "degenerate final support")
    new_flags = residuals(refit, pts_a, pts_b) <= threshold
    if 2 * int(new_flags.sum()) < int(flags.sum()):
        return RansacResult(True, best_model, flags, it)
    return RansacResult(True, refit, new_flags, it)


def oracle_estimate(tag, matches, kp_a, kp_b, intrinsics=None, threshold_px=3.0,
                    confidence=geometry.RANSAC_CONFIDENCE, seed=0):
    """The serial H ('H'), F ('F') or E ('E') estimator."""
    if tag == "H":
        fit, residuals, size = oracle_fit_homography, oracle_homography_distances, 4
    elif tag == "F":
        fit, residuals, size = oracle_fit_fundamental, oracle_epipolar_distances, 8
    else:
        kinv = np.linalg.inv(intrinsics.matrix)

        def fit(sa, sb):
            return oracle_fit_fundamental(
                intrinsics.normalize(sa), intrinsics.normalize(sb), essential=True
            )

        def residuals(e, pts_a, pts_b):
            return oracle_epipolar_distances(kinv.T @ e @ kinv, pts_a, pts_b)

        size = 8
    return oracle_ransac(matches, kp_a, kp_b, size, fit, residuals, threshold_px, confidence, seed)
