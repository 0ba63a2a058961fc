"""Autodiff core: gradient checks against central differences, plus the
layout/semantics contracts the network relies on."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from endofeat import tensor as T
from endofeat.network import Architecture
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
    ops = set(T.__all__) - {"Tensor", "GradTape", "Gradients", "backward"}
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


def test_backward_requires_scalar_loss():
    with GradTape() as tape:
        y = T.relu(Tensor(np.ones(3)))
    with pytest.raises(ValueError):
        backward(tape, y)


def test_unused_tensor_gets_zero_gradient():
    a = Tensor(np.ones((2, 2)))
    b = Tensor(np.ones((2, 2)))
    with GradTape() as tape:
        loss = T.reduce_sum(a)
    grads = backward(tape, loss)
    assert np.array_equal(grads.get(b), np.zeros((2, 2)))
    assert np.array_equal(grads.get(a), np.ones((2, 2)))


def test_ops_outside_tape_do_not_record():
    a = Tensor(np.ones(()))
    _ = T.affine(a, 2.0, 0.0)  # no active tape: must not blow up later
    with GradTape() as tape:
        loss = T.affine(a, 3.0, 0.0)
    grads = backward(tape, loss)
    assert grads.get(a) == 3.0


def test_conv2d_matches_naive_oracle():
    r = rng(11)
    x = r.uniform(-1, 1, (5, 6, 2))
    k = r.uniform(-1, 1, (3, 3, 2, 4))
    b = r.uniform(-1, 1, 4)
    out = T.conv2d(Tensor(x), Tensor(k), Tensor(b), padding=1).data

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
    got = T.conv2d(Tensor(x), Tensor(kernel), Tensor(bias), padding=padding).data
    want = conv2d_tensordot(x, kernel, bias, padding)
    assert got.dtype == want.dtype == dtype
    np.testing.assert_array_equal(got.view(f"u{got.itemsize}"), want.view(f"u{want.itemsize}"))


def test_conv2d_forward_shapes_cover_uneven_blocks():
    # The last forward shape must really be split, into blocks of unequal rows.
    h, w, k, cin, cout, padding = _FORWARD_SHAPES[-1]
    blocks = -(-h * w * k * k * cin // T._IM2COL_ELEMENTS)
    assert 1 < blocks < h and h % blocks != 0


def _conv2d_grads(x, k, b, g, padding):
    tx, tk, tb = Tensor(x), Tensor(k), Tensor(b)
    with GradTape() as tape:
        loss = T.reduce_sum(T.mul(T.conv2d(tx, tk, tb, padding=padding), Tensor(g)))
    grads = backward(tape, loss)
    return grads.get(tx), grads.get(tk), grads.get(tb)


# The forward shapes and the benchmark's toy net at 64x64 and 80x80; two
# shapes whose input rows split into uneven backward blocks (two blocks with a
# halo between them; blocks of one and two rows); a 5x5 kernel in one-row
# blocks, where a block's first row takes no term from the last kernel rows;
# and frames smaller than the kernel or its padding.
_BENCH_TOY = Architecture(((8,), (8,), (16,), (16,)), head_width=32, descriptor_dim=32)
_BACKWARD_SHAPES = sorted(
    set(_FORWARD_SHAPES)
    | {
        (h, w, k, cin, cout, padding)
        for size in (64, 80)
        for _, h, w, k, cin, cout, padding in conv2d_layers(_BENCH_TOY, size, size)
    }
) + [(23, 160, 3, 64, 64, 1), (5, 96, 3, 1024, 32, 1), (3, 64, 5, 1024, 4, 2),
      (1, 1, 5, 2, 3, 2), (3, 1, 3, 2, 2, 3)]


def test_conv2d_backward_shapes_cover_uneven_blocks():
    edges = [T._row_edges(h, w * k * k * cin) for h, w, k, cin, _, _ in _BACKWARD_SHAPES[-5:-2]]
    assert edges == [[0, 11, 23], [0, 1, 3, 5], [0, 1, 2, 3]]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("h, w, k, cin, cout, padding", _BACKWARD_SHAPES)
def test_conv2d_backward_equals_whole_image_oracle(h, w, k, cin, cout, padding, dtype):
    # The input gradient runs one GEMM per block of input rows and adds its
    # k*k slices in place; gx, gk and gb must be the oracle's bytes.
    r = rng(21)
    x = np.maximum(r.standard_normal((h, w, cin)), 0.0).astype(dtype)  # relu zeros, as between layers
    kernel = (r.standard_normal((k, k, cin, cout)) * 0.1).astype(dtype)
    bias = r.standard_normal(cout).astype(dtype)
    g = r.standard_normal((h + 2 * padding - k + 1, w + 2 * padding - k + 1, cout)).astype(dtype)
    g[r.random(g.shape) < 0.2] = -0.0  # what a relu backward leaves where g < 0
    got = _conv2d_grads(x, kernel, bias, g, padding)
    want = conv2d_grads_whole(x, kernel, g, padding)
    for name, a, b in zip(("gx", "gk", "gb"), got, want):
        assert a.dtype == b.dtype == dtype and a.shape == b.shape, name
        np.testing.assert_array_equal(a.view(f"u{a.itemsize}"), b.view(f"u{b.itemsize}"), err_msg=name)


@pytest.mark.parametrize("padding", [0, 1])
def test_conv2d_gradients_match_naive_loops(padding):
    r = rng(22)
    h, w, cin, cout, k = 5, 7, 3, 2, 3
    x = r.uniform(-1, 1, (h, w, cin))
    kernel = r.uniform(-1, 1, (k, k, cin, cout))
    bias = r.uniform(-1, 1, cout)
    ho, wo = h + 2 * padding - k + 1, w + 2 * padding - k + 1
    g = r.uniform(-1, 1, (ho, wo, cout))
    gx, gk, gb = _conv2d_grads(x, kernel, bias, g, padding)

    xp = np.pad(x, ((padding, padding), (padding, padding), (0, 0)))
    want_gxp = np.zeros_like(xp)
    want_gk = np.zeros_like(kernel)
    want_gb = np.zeros_like(bias)
    for i in range(ho):
        for j in range(wo):
            for co in range(cout):
                want_gb[co] += g[i, j, co]
                for di in range(k):
                    for dj in range(k):
                        for ci in range(cin):
                            want_gk[di, dj, ci, co] += xp[i + di, j + dj, ci] * g[i, j, co]
                            want_gxp[i + di, j + dj, ci] += kernel[di, dj, ci, co] * g[i, j, co]
    np.testing.assert_allclose(gk, want_gk, atol=1e-12)
    np.testing.assert_allclose(gb, want_gb, atol=1e-12)
    np.testing.assert_allclose(gx, want_gxp[padding : padding + h, padding : padding + w], atol=1e-12)


def _pool_grad(x, g):
    tx = Tensor(x)
    with GradTape() as tape:
        y = T.max_pool2x2(tx)
        loss = T.reduce_sum(T.mul(y, Tensor(g)))
    return y.data, backward(tape, loss).get(tx)


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
    # channel c of cell (i, j) lands on pixel (8i + c // 8, 8j + c % 8)
    for (ci, cj, ch) in [(0, 0, 0), (0, 1, 9), (1, 2, 63), (1, 0, 8)]:
        x = np.zeros((2, 3, 64))
        x[ci, cj, ch] = 1.0
        y = T.depth_to_space(Tensor(x)).data
        assert y[8 * ci + ch // 8, 8 * cj + ch % 8] == 1.0
        assert y.sum() == 1.0


@given(st.integers(0, 1_000_000))
@settings(max_examples=25, deadline=None)
def test_depth_to_space_round_trip_and_mass(seed):
    x = rng(seed).uniform(0, 1, (2, 3, 64))
    y = T.depth_to_space(Tensor(x)).data
    assert y.shape == (16, 24)
    np.testing.assert_array_equal(space_to_depth(y), x)
    assert math.isclose(y.sum(), x.sum(), rel_tol=1e-12)


def test_softmax_cross_entropy_uniform_is_log_n():
    logits = np.zeros((10, 65))
    targets = np.arange(10) % 65
    loss = T.softmax_cross_entropy(Tensor(logits), targets)
    assert abs(loss.item() - math.log(65)) < 1e-12


def test_matmul_matches_numpy():
    r = rng(15)
    a = r.uniform(-1, 1, (3, 5))
    b = r.uniform(-1, 1, (5, 2))
    np.testing.assert_allclose(T.matmul(Tensor(a), Tensor(b)).data, a @ b, atol=1e-12)


@given(st.integers(0, 1_000_000))
@settings(max_examples=25, deadline=None)
def test_add_mul_agree_with_numpy(seed):
    r = rng(seed)
    a = r.uniform(-10, 10, (3, 4))
    b = r.uniform(-10, 10, (3, 4))
    np.testing.assert_array_equal(T.add(Tensor(a), Tensor(b)).data, a + b)
    np.testing.assert_array_equal(T.mul(Tensor(a), Tensor(b)).data, a * b)
