"""Autodiff core: gradient checks against central differences, plus the
layout/semantics contracts the network relies on."""

import gc
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from endofeat import losses, network
from endofeat import tensor as T
from endofeat.data import PseudoLabel
from endofeat.network import Architecture, heatmap
from endofeat.tensor import GradTape, Tensor, backward

from helpers import (
    check_gradients,
    conv2d_grads_whole,
    conv2d_layers,
    conv2d_tensordot,
    op_cases,
    rng,
    space_to_depth,
    toy_architecture,
)

_CASES = op_cases()


@pytest.mark.parametrize("case", _CASES, ids=[c[0] for c in _CASES])
def test_gradients_match_finite_differences(case):
    _, build, arrays = case
    check_gradients(build, arrays)


def test_every_exported_op_has_a_gradient_case():
    # No op is exported without a finite-difference check, and no check is
    # left for an op the module no longer exports.
    ops = set(T.__all__) - {"Tensor", "GradTape", "backward"}
    assert ops == {name for name, _, _ in _CASES}


# ---------------------------------------------------------------------------
# semantics
# ---------------------------------------------------------------------------


def test_tensor_copies_and_is_read_only():
    src = np.ones((2, 2))
    t = Tensor(src)
    src[0, 0] = 5.0
    assert t.data[0, 0] == 1.0
    with pytest.raises(ValueError):
        t.data[0, 0] = 2.0


def test_elementwise_shape_mismatch_raises():
    with pytest.raises(ValueError):
        T.add(Tensor(np.ones((2, 2))), Tensor(np.ones((2, 3))))
    with pytest.raises(ValueError):
        T.masked_mean(Tensor(np.ones((2, 2))), np.ones((2, 3)), 1.0)


def test_backward_requires_scalar_loss():
    x = Tensor(np.ones(3))
    with GradTape() as tape:
        y = T.relu(x)
    with pytest.raises(ValueError):
        backward(tape, y, [x])


def test_unused_tensor_gets_zero_gradient():
    a = Tensor(np.ones((2, 2)))
    b = Tensor(np.ones((2, 2)))
    with GradTape() as tape:
        loss = T.masked_mean(a, np.ones((2, 2)), 1.0)
    ga, gb = backward(tape, loss, [a, b])
    assert np.array_equal(gb, np.zeros((2, 2)))
    assert np.array_equal(ga, np.ones((2, 2)))


def test_an_intermediate_in_wrt_keeps_its_gradient():
    # h is a record's output: the replay passes its gradient on to a and
    # still returns it for h.
    a = Tensor(np.ones((2, 2)))
    with GradTape() as tape:
        h = T.add(a, a)
        loss = T.masked_mean(T.relu(h), np.ones((2, 2)), 1.0)
    gh, ga = backward(tape, loss, [h, a])
    assert np.array_equal(gh, np.ones((2, 2)))
    assert np.array_equal(ga, np.full((2, 2), 2.0))


def test_ops_outside_tape_do_not_record():
    a = Tensor(np.ones(()))
    _ = T.add(a, a, 2.0)  # no active tape: must not blow up later
    with GradTape() as tape:
        loss = T.add(a, a, 2.0)
    (ga,) = backward(tape, loss, [a], -0.5)
    assert ga == -1.5


def test_a_tape_replays_once():
    a = Tensor(np.ones((2, 2)))
    with GradTape() as tape:
        loss = T.masked_mean(T.relu(a), np.ones((2, 2)), 1.0)
    assert np.array_equal(backward(tape, loss, [a])[0], np.ones((2, 2)))
    assert tape._records == []
    with pytest.raises(RuntimeError, match="replays once"):
        backward(tape, loss, [a])


def _tensors_in(obj, seen):
    """Tensors reachable from obj through containers and closure cells."""
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, Tensor):
        return [obj]
    if isinstance(obj, (tuple, list)):
        items = obj
    elif callable(obj) and getattr(obj, "__closure__", None):
        items = [cell.cell_contents for cell in obj.__closure__]
    else:
        return []
    return [t for item in items for t in _tensors_in(item, seen)]


def test_records_hold_keys_and_closures_without_tensors():
    # Every op's gradient case (which together cover tensor.__all__) and a
    # conv2d with a plain-array input, recorded on one tape: each record is
    # (output key, ((input key, grad_fn), ...)), and no grad_fn reaches a Tensor.
    x = rng(25).uniform(-1.0, 1.0, (4, 6, 2))
    with GradTape() as tape:
        for _, build, arrays in _CASES:
            build(*[Tensor(a) for a in arrays])
        T.conv2d(x, Tensor(np.ones((3, 3, 2, 1))), Tensor(np.zeros(1)))
    assert len(tape._records) >= len(_CASES)
    for out_key, inputs in tape._records:
        assert isinstance(out_key, int)
        for key, grad_fn in inputs:
            assert isinstance(key, int) and callable(grad_fn)
            assert _tensors_in(grad_fn, set()) == []


def test_gradients_never_answer_for_a_later_tensor():
    # The leaf below dies once the graph is built; its record stays. A
    # Tensor made afterwards, which may reuse its memory and id(), reads zeros.
    w = rng(26).uniform(-1.0, 1.0, (3, 4))
    with GradTape() as tape:
        loss = T.masked_mean(Tensor(np.ones((3, 4))), w, 1.0)
    gc.collect()
    later = [Tensor(np.ones((3, 4))) for _ in range(100)]
    for g in backward(tape, loss, later):
        assert np.array_equal(g, np.zeros((3, 4)))


def test_a_replayed_slot_retains_only_its_gradients():
    # One training slot of the default net at 32x32 in f32: two forwards and
    # the specular pair loss. After backward, with the tape and the gradient
    # list alive, what is left is the params' gradients only: the frames'
    # are never computed. A tape holding its graph retains about 1.9x the
    # param bytes.
    params = network.init_params(Architecture(), seed=5, dtype=np.float32)
    param_bytes = sum(t.data.nbytes for t in params.tensors.values())
    r = rng(27)
    img_a = r.uniform(0.0, 1.0, (32, 32))
    img_b = img_a[::-1].copy()
    label = PseudoLabel(np.array([[3, 4], [27, 30]]), np.array([0.9, 0.8]))
    corr = np.full(16, -1)

    def slot():
        with GradTape() as tape:
            heads_a = network.forward(params, img_a)
            heads_b = network.forward(params, img_b)
            loss, _ = losses.specular_pair_loss(img_a, heads_a, label, img_b, heads_b, label, corr)
        return tape, backward(tape, loss, params.tensors.values())

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tape, grads = slot()
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert tape._records == []
    assert grads[list(params.tensors).index("enc0_c0.kernel")].any()
    assert retained <= 1.1 * param_bytes, f"{retained / param_bytes:.2f}x the param bytes"


def test_conv2d_matches_naive_oracle():
    r = rng(11)
    x = r.uniform(-1, 1, (5, 6, 2))
    k = r.uniform(-1, 1, (3, 3, 2, 4))
    b = r.uniform(-1, 1, 4)
    out = T.conv2d(Tensor(x), Tensor(k), Tensor(b)).data

    xp = np.pad(x, ((1, 1), (1, 1), (0, 0)))
    want = np.zeros((5, 6, 4))
    for i in range(5):
        for j in range(6):
            for co in range(4):
                acc = b[co]
                for di in range(3):
                    for dj in range(3):
                        for ci in range(2):
                            acc += xp[i + di, j + dj, ci] * k[di, dj, ci, co]
                want[i, j, co] = acc
    np.testing.assert_allclose(out, want, atol=1e-12)


# Every layer shape of the default net at 120x160 and 240x320 and of the toy
# net at 64x64 (each shape once), plus one whose rows split into uneven blocks.
_FORWARD_SHAPES = sorted(
    {
        (h, w, k, cin, cout, padding)
        for arch, h, w in ((Architecture(), 120, 160), (Architecture(), 240, 320),
                           (toy_architecture(), 64, 64))
        for _, h, w, k, cin, cout, padding in conv2d_layers(arch, h, w)
    }
) + [(101, 160, 3, 64, 64, 1)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("h, w, k, cin, cout, padding", _FORWARD_SHAPES)
def test_conv2d_forward_equals_tensordot(h, w, k, cin, cout, padding, dtype):
    # The forward runs one GEMM per block of output rows; each output must be
    # the bytes of one whole-image tensordot. Small blocks would break this
    # (OpenBLAS uses another kernel for small matrices), so this also guards
    # the block budget.
    r = rng(23)
    x = np.maximum(r.standard_normal((h, w, cin)), 0.0).astype(dtype)  # relu zeros, as between layers
    kernel = (r.standard_normal((k, k, cin, cout)) * 0.1).astype(dtype)
    bias = r.standard_normal(cout).astype(dtype)
    got = T.conv2d(Tensor(x), Tensor(kernel), Tensor(bias)).data
    want = conv2d_tensordot(x, kernel, bias, padding)
    assert got.dtype == want.dtype == dtype
    np.testing.assert_array_equal(got.view(f"u{got.itemsize}"), want.view(f"u{want.itemsize}"))


def test_conv2d_forward_shapes_cover_uneven_blocks():
    # The last forward shape must really be split, into blocks of unequal rows.
    h, w, k, cin, cout, padding = _FORWARD_SHAPES[-1]
    blocks = -(-h * w * k * k * cin // T._IM2COL_ELEMENTS)
    assert 1 < blocks < h and h % blocks != 0


def _conv2d_grads(x, k, b, g):
    tx, tk, tb = Tensor(x), Tensor(k), Tensor(b)
    with GradTape() as tape:
        loss = T.masked_mean(T.conv2d(tx, tk, tb), g, 1.0)
    return tuple(backward(tape, loss, [tx, tk, tb]))


# The forward shapes and the benchmark's toy net at 64x64 and 80x80; three
# shapes whose rows split into uneven blocks of the forward and of gk (two
# blocks; blocks of one and two rows; a 5x5 kernel in one-row blocks); and a
# frame smaller than its kernel.
_BENCH_TOY = Architecture(((8,), (8,), (16,), (16,)), head_width=32, descriptor_dim=32)
_BACKWARD_SHAPES = sorted(
    set(_FORWARD_SHAPES)
    | {
        (h, w, k, cin, cout, padding)
        for size in (64, 80)
        for _, h, w, k, cin, cout, padding in conv2d_layers(_BENCH_TOY, size, size)
    }
) + [(23, 160, 3, 64, 64, 1), (5, 96, 3, 1024, 32, 1), (3, 64, 5, 1024, 4, 2),
      (1, 1, 5, 2, 3, 2)]


def test_conv2d_backward_shapes_cover_uneven_blocks():
    edges = [T._row_edges(h, w * k * k * cin) for h, w, k, cin, _, _ in _BACKWARD_SHAPES[-4:-1]]
    assert edges == [[0, 11, 23], [0, 1, 3, 5], [0, 1, 2, 3]]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("h, w, k, cin, cout, padding", _BACKWARD_SHAPES)
def test_conv2d_backward_equals_whole_image_oracle(h, w, k, cin, cout, padding, dtype):
    # gx is the forward correlation of g with the flipped kernel, and gk is
    # summed over the forward's row blocks, so both round differently from
    # the oracle's scatter and whole-image GEMM. gb, and the gk of a layer in
    # one block, must be the oracle's bytes.
    r = rng(21)
    x = np.maximum(r.standard_normal((h, w, cin)), 0.0).astype(dtype)  # relu zeros, as between layers
    kernel = (r.standard_normal((k, k, cin, cout)) * 0.1).astype(dtype)
    bias = r.standard_normal(cout).astype(dtype)
    g = r.standard_normal((h, w, cout)).astype(dtype)
    g[r.random(g.shape) < 0.2] = -0.0  # what a relu backward leaves where g < 0
    got = _conv2d_grads(x, kernel, bias, g)
    want = conv2d_grads_whole(x, kernel, g, padding)
    mags = conv2d_grads_whole(*(np.abs(a).astype(np.float64) for a in (x, kernel, g)), padding)
    # Each element of gx and gk sums n products: k*k*cout for gx, h*w for gk.
    # Evaluated in any order, blocked or FMA-fused, such a sum is within
    # gamma(n) * S of the exact one, where S sums the products' magnitudes,
    # gamma(n) = n*u / (1 - n*u) and u = eps / 2 (Higham, Accuracy and
    # Stability of Numerical Algorithms, 2nd ed., 3.1). conv2d and the oracle
    # then differ by at most 2 * gamma(n) * S <= 2 * n * eps * S while
    # n*u <= 1/2, so c = 2. The +2 in n + 2 is headroom for the rounding of
    # S, which the oracle takes in float64 on |x|, |k| and |g|.
    one_block = len(T._row_edges(h, w * k * k * cin)) == 2
    terms = {"gx": k * k * cout, "gk": None if one_block else h * w, "gb": None}  # None: same bytes
    for (name, n), a, b, mag in zip(terms.items(), got, want, mags):
        assert a.dtype == b.dtype == dtype and a.shape == b.shape, name
        if n is None:
            np.testing.assert_array_equal(a.view(f"u{a.itemsize}"), b.view(f"u{b.itemsize}"), err_msg=name)
        else:
            excess = np.abs(a.astype(np.float64) - b) - 2 * (n + 2) * np.finfo(dtype).eps * mag
            assert excess.max() <= 0, f"{name}: {np.count_nonzero(excess > 0)} elements past the bound"


def test_conv2d_gradients_match_naive_loops():
    r = rng(22)
    h, w, cin, cout, k = 5, 7, 3, 2, 3
    x = r.uniform(-1, 1, (h, w, cin))
    kernel = r.uniform(-1, 1, (k, k, cin, cout))
    bias = r.uniform(-1, 1, cout)
    g = r.uniform(-1, 1, (h, w, cout))
    gx, gk, gb = _conv2d_grads(x, kernel, bias, g)

    xp = np.pad(x, ((1, 1), (1, 1), (0, 0)))
    want_gxp = np.zeros_like(xp)
    want_gk = np.zeros_like(kernel)
    want_gb = np.zeros_like(bias)
    for i in range(h):
        for j in range(w):
            for co in range(cout):
                want_gb[co] += g[i, j, co]
                for di in range(k):
                    for dj in range(k):
                        for ci in range(cin):
                            want_gk[di, dj, ci, co] += xp[i + di, j + dj, ci] * g[i, j, co]
                            want_gxp[i + di, j + dj, ci] += kernel[di, dj, ci, co] * g[i, j, co]
    np.testing.assert_allclose(gk, want_gk, atol=1e-12)
    np.testing.assert_allclose(gb, want_gb, atol=1e-12)
    np.testing.assert_allclose(gx, want_gxp[1 : 1 + h, 1 : 1 + w], atol=1e-12)


def test_conv2d_plain_array_input_has_no_gradient(monkeypatch):
    # A plain-array input is a constant, and a Tensor input outside wrt is
    # off every path to the loss: for neither does the backward run a
    # _correlate for its gradient, and gk and gb keep the bytes of the case
    # whose Tensor input is in wrt.
    r = rng(24)
    x = r.uniform(0.0, 1.0, (16, 24, 1)).astype(np.float32)
    kernel = (r.standard_normal((3, 3, 1, 8)) * 0.1).astype(np.float32)
    bias = r.standard_normal(8).astype(np.float32)
    g = r.standard_normal((16, 24, 8)).astype(np.float32)
    correlate = T._correlate
    calls = []

    def spy(*args):
        calls.append(args)
        return correlate(*args)

    got = {}
    for kind, xin in (("tensor", Tensor(x)), ("tensor outside wrt", Tensor(x)), ("array", x)):
        tk, tb = Tensor(kernel), Tensor(bias)
        with GradTape() as tape:
            loss = T.masked_mean(T.conv2d(xin, tk, tb), g, 1.0)
        wrt = [xin, tk, tb] if kind == "tensor" else [tk, tb]
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(T, "_correlate", spy)
            grads = backward(tape, loss, wrt)
        got[kind] = (len(calls), *grads[-2:])
    assert got["tensor"][0] == 1
    assert got["tensor outside wrt"][0] == got["array"][0] == 0
    for kind in ("tensor outside wrt", "array"):
        for want, have in zip(got["tensor"][1:], got[kind][1:]):
            assert have.dtype == want.dtype and have.tobytes() == want.tobytes(), kind


def test_a_training_slot_never_differentiates_the_frames(monkeypatch):
    # One toy-net training slot, two views, differentiated toward the params:
    # every conv but the first correlates for its input gradient, once per
    # view; the first conv reads the frame, which nothing differentiates.
    arch = toy_architecture()
    params = network.init_params(arch, seed=3)
    r = rng(28)
    img_a = r.uniform(0.0, 1.0, (32, 32))
    img_b = img_a[:, ::-1].copy()
    label = PseudoLabel(np.array([[3, 4], [27, 30]]), np.array([0.9, 0.8]))
    corr = np.full(16, -1)
    with GradTape() as tape:
        heads_a = network.forward(params, img_a)
        heads_b = network.forward(params, img_b)
        loss, _ = losses.specular_pair_loss(img_a, heads_a, label, img_b, heads_b, label, corr)
    correlate = T._correlate
    calls = []

    def spy(*args):
        calls.append(args)
        return correlate(*args)

    monkeypatch.setattr(T, "_correlate", spy)
    backward(tape, loss, params.tensors.values())
    conv_layers = len(params.tensors) // 2
    assert len(calls) == (conv_layers - 1) * 2


def _pool_grad(x, g):
    tx = Tensor(x)
    with GradTape() as tape:
        y = T.max_pool2x2(tx)
        loss = T.masked_mean(y, g, 1.0)
    return y.data, backward(tape, loss, [tx])[0]


def test_max_pool_tie_prefers_first_window_position():
    # each window in row-major order (top-left, top-right, bottom-left, bottom-right)
    windows = [
        ([5, 5, 1, 0], 0),
        ([0, 5, 5, 1], 1),
        ([1, 0, 5, 5], 2),
        ([0, 1, 2, 5], 3),
        ([0, 0, 0, 0], 0),
        ([3, 3, 3, 3], 0),
        ([-2, -1, -1, -3], 1),
        ([-4, -3, -2, -2], 2),
    ]
    for dtype in (np.float32, np.float64):
        x = np.zeros((2, 2 * len(windows), 1), dtype=dtype)
        for n, (vals, _) in enumerate(windows):
            x[:, 2 * n : 2 * n + 2, 0] = np.reshape(vals, (2, 2))
        g = np.arange(1, len(windows) + 1, dtype=dtype).reshape(1, -1, 1)
        y, gx = _pool_grad(x, g)
        assert y.dtype == dtype and gx.dtype == dtype
        for n, (vals, first) in enumerate(windows):
            assert y[0, n, 0] == max(vals)
            want = np.zeros(4, dtype=dtype)
            want[first] = g[0, n, 0]
            np.testing.assert_array_equal(gx[:, 2 * n : 2 * n + 2, 0].ravel(), want)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_max_pool_equals_window_argmax_formula(dtype):
    r = rng(23)
    x = np.maximum(r.standard_normal((120, 160, 64)), 0.0).astype(dtype)  # relu zeros tie
    g = r.standard_normal((60, 80, 64)).astype(dtype)
    y, gx = _pool_grad(x, g)

    # The reshape/argmax formula max_pool2x2 used before its four strided views.
    win = x.reshape(60, 2, 80, 2, 64).transpose(0, 2, 4, 1, 3).reshape(60, 80, 64, 4)
    amax = win.argmax(axis=3)
    want_y = np.take_along_axis(win, amax[..., None], axis=3)[..., 0]
    gwin = np.zeros((60, 80, 64, 4), dtype=dtype)
    np.put_along_axis(gwin, amax[..., None], g[..., None], axis=3)
    want_gx = gwin.reshape(60, 80, 64, 2, 2).transpose(0, 3, 1, 4, 2).reshape(120, 160, 64)
    np.testing.assert_array_equal(y, want_y)
    np.testing.assert_array_equal(gx, want_gx)
    assert gx.tobytes() == np.ascontiguousarray(want_gx).tobytes()  # +0.0 off the max, never -0.0


def test_channel_softmax_rows_sum_to_one_and_shift_invariant():
    r = rng(12)
    x = r.uniform(-5, 5, (3, 4, 65))
    y = T.channel_softmax(Tensor(x)).data
    np.testing.assert_allclose(y.sum(axis=2), 1.0, atol=1e-12)
    y2 = T.channel_softmax(Tensor(x + 123.0)).data
    np.testing.assert_allclose(y, y2, atol=1e-12)
    with pytest.raises(ValueError):
        T.channel_softmax(Tensor(np.zeros((2, 2, 64))))


def test_depth_to_space_layout():
    # network.heatmap puts channel c of cell (i, j) on pixel (8i + c // 8, 8j + c % 8)
    logits = rng(13).uniform(-3.0, 3.0, (2, 3, 65))
    prob = T.channel_softmax(Tensor(logits)).data
    heat = heatmap(Tensor(logits))
    assert isinstance(heat, np.ndarray) and heat.shape == (16, 24)
    for i, j, c in np.ndindex(2, 3, 64):
        assert heat[8 * i + c // 8, 8 * j + c % 8] == prob[i, j, c]


@given(st.integers(0, 1_000_000))
@settings(max_examples=25, deadline=None)
def test_depth_to_space_round_trip_and_mass(seed):
    logits = rng(seed).uniform(-3.0, 3.0, (2, 3, 65))
    cells = T.channel_softmax(Tensor(logits)).data[..., :64]
    heat = heatmap(Tensor(logits))
    assert heat.shape == (16, 24)
    np.testing.assert_array_equal(space_to_depth(heat), cells)
    assert math.isclose(heat.sum(), cells.sum(), rel_tol=1e-12)


def test_softmax_cross_entropy_uniform_is_log_n():
    logits = np.zeros((10, 65))
    targets = np.arange(10) % 65
    loss = T.softmax_cross_entropy(Tensor(logits), targets)
    assert abs(loss.item() - math.log(65)) < 1e-12


def test_hinge_gram_matches_numpy():
    r = rng(15)
    a = r.uniform(-1, 1, (2, 3, 5))
    b = r.uniform(-1, 1, (2, 3, 5))
    target = np.array([4, -1, 0, 0, 5, -1])
    got = T.hinge_gram(Tensor(a), Tensor(b), target, 0.9, 0.1, 3.0, 0.25).item()
    g = a.reshape(6, 5) @ b.reshape(6, 5).T
    hit = np.zeros((6, 6), bool)
    hit[[0, 2, 3, 4], [4, 0, 0, 5]] = True
    want = np.where(hit, 3.0 * np.maximum(0.9 - g, 0), np.maximum(g - 0.1, 0)).sum() * 0.25
    assert abs(got - want) <= 1e-12
    with pytest.raises(ValueError, match="shape"):
        T.hinge_gram(Tensor(a), Tensor(b[:1]), target, 0.9, 0.1, 3.0, 1.0)


@given(st.integers(0, 1_000_000))
@settings(max_examples=25, deadline=None)
def test_add_and_masked_mean_agree_with_numpy(seed):
    r = rng(seed)
    a = r.uniform(-10, 10, (3, 4))
    b = r.uniform(-10, 10, (3, 4))
    np.testing.assert_array_equal(T.add(Tensor(a), Tensor(b)).data, a + b)
    np.testing.assert_array_equal(T.add(Tensor(a), Tensor(b), -0.7).data, a + b * -0.7)
    np.testing.assert_array_equal(T.masked_mean(Tensor(a), b, 0.3).data, (a * b).sum() * 0.3)
