"""Dense-tensor numerics with reverse-mode gradients.

Implements exactly the operations the keypoint network and its training
losses differentiate: stride-1 2-D convolution, 2x2 max pooling, the
per-cell channel softmax, depth-to-space reshaping of cell probabilities,
and a handful of elementwise / reduction primitives. Inference-only
decoding, the descriptors at the detected keypoints, is plain numpy in the
network module. The convolution's forward copies its im2col matrix one
block of output rows at a time (at most _IM2COL_ELEMENTS), one GEMM per
block. Its backward takes the kernel gradient from one GEMM over the whole
im2col, and the input gradient one block of input rows at a time, each
from one GEMM over the output rows that touch the block.
Max pooling sends each output's gradient to the first window position
(row-major) that holds the maximum, so ties, such as the zeros a relu
leaves, route to one input.

Forward functions are pure. While a GradTape is active on the calling
thread, every op appends a backward closure to it; ``backward(tape,
loss)`` replays the tape in reverse and accumulates gradients for every
tensor that participated.

The module owns the detector's cell layout, which the other modules
import: CELL x CELL pixel cells, each with CELL * CELL pixel channels and
a "no interest point" dustbin channel at index DUSTBIN (65 in all).

Tensors wrap read-only numpy arrays and are treated as immutable values.
Use float64 for gradient checking; float32 is fine for inference.
"""

from __future__ import annotations

import threading

import numpy as np

__all__ = [
    "Tensor",
    "GradTape",
    "Gradients",
    "backward",
    "add",
    "mul",
    "affine",
    "reduce_sum",
    "relu",
    "conv2d",
    "max_pool2x2",
    "channel_softmax",
    "depth_to_space",
    "matmul",
    "transpose2d",
    "reshape",
    "slice_channels",
    "softmax_cross_entropy",
]

CELL = 8  # side of a detector cell, in pixels
DUSTBIN = CELL * CELL  # channel index of the "no interest point" bin

_FLOAT_DTYPES = (np.float32, np.float64)

# im2col elements per conv2d GEMM block, forward and input gradient: 2^21 is
# 8 MB in f32. Blocks of a few rows can change output bits, because OpenBLAS
# uses another kernel for small matrices (the 1x1 detector head differs at
# 2^14); tests/test_tensor.py checks every network layer against one whole GEMM.
_IM2COL_ELEMENTS = 1 << 21


class Tensor:
    """Immutable dense array of finite reals (row-major semantics)."""

    __slots__ = ("data",)

    def __init__(self, data, dtype=None):
        arr = np.array(data, dtype=dtype, copy=True)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float64)
        arr.flags.writeable = False
        self.data = arr

    @classmethod
    def _wrap(cls, arr) -> "Tensor":
        # Internal: take ownership of a freshly computed array, no copy.
        t = cls.__new__(cls)
        arr = np.asarray(arr)  # 0-d results arrive as numpy scalars
        arr.flags.writeable = False
        t.data = arr
        return t

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype})"


_tls = threading.local()


def _tape_stack() -> list:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = []
        _tls.stack = stack
    return stack


class GradTape:
    """Wengert list of executed ops, confined to one thread."""

    def __init__(self):
        self._records = []

    def __enter__(self):
        _tape_stack().append(self)
        return self

    def __exit__(self, *exc):
        _tape_stack().pop()
        return False


def _record(out: Tensor, inputs: tuple, backward_fn) -> None:
    stack = _tape_stack()
    if stack:
        stack[-1]._records.append((out, inputs, backward_fn))


class Gradients:
    """Gradient lookup per tensor; zeros for tensors the loss never used."""

    def __init__(self, by_id: dict, keepalive):
        self._by_id = by_id
        self._keepalive = keepalive  # pins tensor ids for the lookup lifetime

    def get(self, t: Tensor) -> np.ndarray:
        g = self._by_id.get(id(t))
        if g is None:
            return np.zeros_like(t.data)
        return g


def backward(tape: GradTape, loss: Tensor) -> Gradients:
    """Reverse-replay the tape from a scalar loss.

    Each recorded op is visited exactly once, in reverse execution order
    (which is a reverse topological order of the recorded graph).
    """
    if loss.data.shape != ():
        raise ValueError(f"loss must be a scalar tensor, got shape {loss.data.shape}")
    grads: dict[int, np.ndarray] = {id(loss): np.ones((), dtype=loss.data.dtype)}
    for out, inputs, backward_fn in reversed(tape._records):
        g = grads.pop(id(out), None)
        if g is None:
            continue  # not on any path to the loss
        for t, gi in zip(inputs, backward_fn(g)):
            if gi is None:
                continue
            acc = grads.get(id(t))
            grads[id(t)] = gi if acc is None else acc + gi
    return Gradients(grads, tape)


# ---------------------------------------------------------------------------
# elementwise / reduction primitives
# ---------------------------------------------------------------------------


def _check_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.data.shape != b.data.shape:
        raise ValueError(f"{op}: shape mismatch {a.data.shape} vs {b.data.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "add")
    out = Tensor._wrap(a.data + b.data)
    _record(out, (a, b), lambda g: (g, g))
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "mul")
    out = Tensor._wrap(a.data * b.data)
    _record(out, (a, b), lambda g: (g * b.data, g * a.data))
    return out


def affine(x: Tensor, scale: float, shift: float) -> Tensor:
    """Elementwise scale * x + shift with python-float coefficients."""
    out = Tensor._wrap(x.data * scale + shift)
    _record(out, (x,), lambda g: (g * scale,))
    return out


def reduce_sum(x: Tensor) -> Tensor:
    out = Tensor._wrap(np.asarray(x.data.sum()))
    _record(out, (x,), lambda g: (np.broadcast_to(g, x.data.shape).copy(),))
    return out


def relu(x: Tensor) -> Tensor:
    out = Tensor._wrap(np.maximum(x.data, 0))
    # subgradient at 0 is 0
    _record(out, (x,), lambda g: (g * (x.data > 0),))
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError("matmul expects 2-D operands")
    if a.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"matmul: inner dims {a.data.shape} @ {b.data.shape}")
    out = Tensor._wrap(a.data @ b.data)
    _record(out, (a, b), lambda g: (g @ b.data.T, a.data.T @ g))
    return out


def transpose2d(x: Tensor) -> Tensor:
    if x.data.ndim != 2:
        raise ValueError("transpose2d expects a 2-D tensor")
    out = Tensor._wrap(np.ascontiguousarray(x.data.T))
    _record(out, (x,), lambda g: (np.ascontiguousarray(g.T),))
    return out


def reshape(x: Tensor, shape) -> Tensor:
    out = Tensor._wrap(x.data.reshape(shape).copy())
    _record(out, (x,), lambda g: (g.reshape(x.data.shape),))
    return out


def slice_channels(x: Tensor, start: int, stop: int) -> Tensor:
    """Slice along the last axis; backward zero-pads the removed channels."""
    out = Tensor._wrap(np.ascontiguousarray(x.data[..., start:stop]))

    def back(g):
        gx = np.zeros_like(x.data)
        gx[..., start:stop] = g
        return (gx,)

    _record(out, (x,), back)
    return out


# ---------------------------------------------------------------------------
# network building blocks
# ---------------------------------------------------------------------------


def _row_edges(rows: int, row_elements: int) -> list[int]:
    """Split rows evenly into the fewest blocks of about _IM2COL_ELEMENTS
    elements (row_elements per row), at least one row per block."""
    blocks = min(rows, max(1, -(-rows * row_elements // _IM2COL_ELEMENTS)))
    return [rows * i // blocks for i in range(blocks + 1)]


def conv2d(x: Tensor, kernel: Tensor, bias: Tensor, padding: int = 0) -> Tensor:
    """Stride-1 cross-correlation of an H x W x Cin input with a k x k x Cin x Cout kernel.

    Zero padding; output spatial size (H + 2p - k + 1) x (W + 2p - k + 1).
    """
    xv, kv, bv = x.data, kernel.data, bias.data
    if xv.ndim != 3:
        raise ValueError(f"conv2d input must be H x W x Cin, got shape {xv.shape}")
    if kv.ndim != 4 or kv.shape[0] != kv.shape[1]:
        raise ValueError(f"conv2d kernel must be k x k x Cin x Cout, got shape {kv.shape}")
    k = kv.shape[0]
    if k % 2 != 1:
        raise ValueError(f"conv2d kernel size must be odd, got {k}")
    if kv.shape[2] != xv.shape[2]:
        raise ValueError(f"conv2d: input has {xv.shape[2]} channels, kernel expects {kv.shape[2]}")
    if bv.shape != (kv.shape[3],):
        raise ValueError(f"conv2d: bias shape {bv.shape} does not match Cout {kv.shape[3]}")
    h, w, _ = xv.shape
    ho = h + 2 * padding - k + 1
    wo = w + 2 * padding - k + 1
    if ho < 1 or wo < 1:
        raise ValueError(f"conv2d: kernel {k} does not fit input {h}x{w} with padding {padding}")

    cin, cout = kv.shape[2], kv.shape[3]
    # The zero-padded input: one interior copy and four zeroed border strips,
    # cheaper than np.pad and than a zeroed buffer.
    p = padding
    xp = np.empty((h + 2 * p, w + 2 * p, cin), dtype=xv.dtype)
    xp[p : p + h, p : p + w] = xv
    xp[:p] = 0
    xp[p + h :] = 0
    xp[p : p + h, :p] = 0
    xp[p : p + h, p + w :] = 0
    sy, sx, sc = xp.strides
    patches = np.lib.stride_tricks.as_strided(xp, (ho, wo, k, k, cin), (sy, sx, sy, sx, sc))
    # One GEMM per block of output rows, so only that block's im2col is copied.
    # Each output element is the same dot product as in one whole-image GEMM.
    y = np.empty((ho, wo, cout), dtype=np.result_type(xv, kv))
    kmat = kv.reshape(-1, cout)
    edges = _row_edges(ho, wo * k * k * cin)
    for r0, r1 in zip(edges, edges[1:]):
        np.matmul(patches[r0:r1].reshape(-1, k * k * cin), kmat, out=y[r0:r1].reshape(-1, cout))
    y += bv
    out = Tensor._wrap(y)

    def back(g):
        # The row-major (ho*wo, k*k*cin) im2col, transposed as a BLAS flag; its
        # copy is freed before the input gradient starts.
        gk = (patches.reshape(ho * wo, -1).T @ g.reshape(ho * wo, -1)).reshape(kv.shape)
        gb = g.sum(axis=(0, 1))
        # The input gradient one block of input rows at a time: one GEMM over
        # the output rows that touch the block (its rows plus a k-1 halo), then
        # its k*k slices added in place, clipped to the frame. Every element
        # sums the same terms in the same (di, dj) order, from +0.0, as a
        # scatter of the whole-image column gradient into a padded buffer.
        gx = np.zeros(xv.shape, dtype=xv.dtype)
        edges = _row_edges(h, wo * k * k * cin)
        for r0, r1 in zip(edges, edges[1:]):
            o0, o1 = max(0, r0 + p - k + 1), min(ho, r1 + p)
            gcols = (g[o0:o1].reshape(-1, cout) @ kmat.T).reshape(o1 - o0, wo, k, k, cin)
            # gx[r, c] takes gcols's output row r + p - di and column c + p - dj
            for di in range(k):
                a0, a1 = max(r0, o0 + di - p), min(r1, o1 + di - p)
                for dj in range(k):
                    c0, c1 = max(0, dj - p), min(w, wo + dj - p)
                    if a0 < a1 and c0 < c1:
                        src = gcols[a0 + p - di - o0 : a1 + p - di - o0, c0 + p - dj : c1 + p - dj]
                        gx[a0:a1, c0:c1] += src[:, :, di, dj]
        return (gx, gk, gb)

    _record(out, (x, kernel, bias), back)
    return out


def max_pool2x2(x: Tensor) -> Tensor:
    """Per-channel 2x2 window maximum with stride 2.

    The backward routes each output gradient to one input: the first window
    position, in row-major window order, that holds the maximum.
    """
    xv = x.data
    if xv.ndim != 3:
        raise ValueError(f"max_pool2x2 input must be H x W x C, got shape {xv.shape}")
    h, w, c = xv.shape
    if h % 2 or w % 2:
        raise ValueError(f"max_pool2x2 needs even spatial dims, got {h}x{w}")
    views = (xv[0::2, 0::2], xv[0::2, 1::2], xv[1::2, 0::2], xv[1::2, 1::2])  # window order
    y = np.maximum(np.maximum(views[0], views[1]), np.maximum(views[2], views[3]))
    out = Tensor._wrap(y)

    def back(g):
        gx = np.empty(xv.shape, dtype=g.dtype)  # the four strided writes cover it
        # Multiplying g's bit patterns by a 0/1 mask gives g where the mask is
        # set and +0.0 elsewhere, bit for bit; a float multiply would give -0.0
        # for negative g. It is several times faster than np.where.
        bits = np.dtype(f"u{g.itemsize}")
        g_bits, gx_bits = g.view(bits), gx.view(bits)
        free = np.ones(y.shape, dtype=bool)  # no earlier window position holds the max
        for (di, dj), view in zip(((0, 0), (0, 1), (1, 0)), views[:3]):
            hit = view == y
            hit &= free
            np.multiply(g_bits, hit, out=gx_bits[di::2, dj::2])
            free ^= hit
        np.multiply(g_bits, free, out=gx_bits[1::2, 1::2])  # finite inputs: the last holds the max
        return (gx,)

    _record(out, (x,), back)
    return out


def channel_softmax(x: Tensor) -> Tensor:
    """Softmax over the DUSTBIN + 1 channel axis, independently per cell."""
    xv = x.data
    if xv.ndim != 3 or xv.shape[2] != DUSTBIN + 1:
        raise ValueError(f"channel_softmax expects Hc x Wc x {DUSTBIN + 1}, got shape {xv.shape}")
    z = xv - xv.max(axis=2, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=2, keepdims=True)
    out = Tensor._wrap(y)
    _record(out, (x,), lambda g: (y * (g - (g * y).sum(axis=2, keepdims=True)),))
    return out


def depth_to_space(x: Tensor) -> Tensor:
    """Hc x Wc x DUSTBIN cell tensor to the CELL*Hc x CELL*Wc pixel map.

    Channel c of cell (i, j) lands on pixel (8i + c // 8, 8j + c % 8), so the
    64 channels tile each cell row-major. Total mass is preserved exactly.
    """
    xv = x.data
    if xv.ndim != 3 or xv.shape[2] != DUSTBIN:
        raise ValueError(f"depth_to_space expects Hc x Wc x {DUSTBIN}, got shape {xv.shape}")
    hc, wc, _ = xv.shape
    y = xv.reshape(hc, wc, CELL, CELL).transpose(0, 2, 1, 3).reshape(hc * CELL, wc * CELL)
    out = Tensor._wrap(np.ascontiguousarray(y))

    def back(g):
        gx = g.reshape(hc, CELL, wc, CELL).transpose(0, 2, 1, 3).reshape(hc, wc, DUSTBIN)
        return (np.ascontiguousarray(gx),)

    _record(out, (x,), back)
    return out


def softmax_cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean softmax cross-entropy over the last axis against integer targets."""
    lv = logits.data
    targets = np.asarray(targets)
    if targets.shape != lv.shape[:-1]:
        raise ValueError(f"targets shape {targets.shape} does not match logits {lv.shape}")
    nc = lv.shape[-1]
    if targets.min() < 0 or targets.max() >= nc:
        raise ValueError("target channel out of range")
    m = lv.max(axis=-1, keepdims=True)
    z = lv - m
    e = np.exp(z)
    se = e.sum(axis=-1)
    lse = np.log(se)
    picked = np.take_along_axis(z, targets[..., None], axis=-1)[..., 0]
    n = targets.size
    out = Tensor._wrap(np.asarray((lse - picked).sum() / n))

    def back(g):
        p = e / se[..., None]
        onehot = np.zeros_like(p)
        np.put_along_axis(onehot, targets[..., None], 1.0, axis=-1)
        return ((p - onehot) * (g / n),)

    _record(out, (logits,), back)
    return out
