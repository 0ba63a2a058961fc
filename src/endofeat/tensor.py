"""Dense-tensor numerics with reverse-mode gradients.

Implements exactly the operations the keypoint network and its training
losses differentiate: stride-1 2-D convolution, 2x2 max pooling, the
per-cell channel softmax, the descriptor loss's hinge summed over the cell
Gram matrix, the specularity loss's masked mean, the detection loss's
softmax cross-entropy, relu, and add, which weights its second term.
Decoding (the heatmap, the descriptors at the detected keypoints) is plain
numpy in the network module.

A Tensor is a value the training graph differentiates; a plain numpy array
is a constant, and no gradient is computed for it. masked_mean's mask is
always a plain array; conv2d's input may be one. The convolution is a
same-size correlation that copies its im2col one block of output rows at a
time (at most _IM2COL_ELEMENTS), one GEMM per block. Its input gradient is
that correlation of the output gradient with the flipped kernel; its kernel
gradient sums the blocks. Max pooling sends each output's gradient to the
first window position (row-major) that holds the maximum, so ties, such as
the zeros a relu leaves, route to one input.

Forward functions are pure. While a GradTape is active on the calling
thread, every op appends a record to it: its output's key and one
(input key, grad_fn) pair per Tensor input, where grad_fn maps the
output's gradient to that input's (conv2d has three: gx, gk and gb). Every
Tensor gets a serial key, never reused, so no record holds a Tensor, and
each closure holds only what its gradient reads (relu a bool mask, max
pooling a uint8 window code, masked_mean its mask, hinge_gram the cells,
its active positive pairs and an n x n bool mask); the masks are built only
while a tape records, so inference pays nothing for them. hinge_gram's b
gradient reuses the coefficient grid its a gradient built.
``backward(tape, loss, wrt, scale)`` returns scale times the loss's gradient
with respect to each Tensor of wrt. It first marks the keys that depend on
wrt, then replays the tape once, in reverse, popping each record as it goes, and
calls a grad_fn only for a marked input: no gradient is computed off the
paths from wrt to the loss. Training passes the parameters, so the frame
the network's first conv reads is never differentiated. A replayed tape
is empty and holds nothing; replaying it again raises.

The module owns the detector's cell layout, which the other modules
import: CELL x CELL pixel cells, each with CELL * CELL pixel channels and
a "no interest point" dustbin channel at index DUSTBIN (65 in all).

Tensors wrap read-only numpy arrays and are treated as immutable values.
Use float64 for gradient checking; float32 is fine for inference.
"""

from __future__ import annotations

import itertools
import threading

import numpy as np

__all__ = [
    "Tensor",
    "GradTape",
    "backward",
    "add",
    "relu",
    "conv2d",
    "max_pool2x2",
    "channel_softmax",
    "masked_mean",
    "hinge_gram",
    "softmax_cross_entropy",
]

CELL = 8  # side of a detector cell, in pixels
DUSTBIN = CELL * CELL  # channel index of the "no interest point" bin

_FLOAT_DTYPES = (np.float32, np.float64)

# im2col elements per GEMM block of conv2d and both its gradients: 2^21 is
# 8 MB in f32. Blocks of a few rows can change output bits, because OpenBLAS
# uses another kernel for small matrices (the 1x1 detector head differs at
# 2^14); tests/test_tensor.py checks every network layer against one whole GEMM.
_IM2COL_ELEMENTS = 1 << 21


# Tensor.key: serial, so a key is never reused (an id() can be, once its
# Tensor dies). next() on a count is one C call, atomic under the GIL.
_keys = itertools.count()


class Tensor:
    """Immutable dense array of finite reals (row-major semantics)."""

    __slots__ = ("data", "key")

    def __init__(self, data, dtype=None):
        arr = np.array(data, dtype=dtype, copy=True)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float64)
        arr.flags.writeable = False
        self.data = arr
        self.key = next(_keys)

    @classmethod
    def _wrap(cls, arr) -> "Tensor":
        # Internal: take ownership of a freshly computed array, no copy.
        t = cls.__new__(cls)
        arr = np.asarray(arr)  # 0-d results arrive as numpy scalars
        arr.flags.writeable = False
        t.data = arr
        t.key = next(_keys)
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


class _TapeStack(threading.local):
    def __init__(self):
        self.stack = []  # this thread's active GradTapes, innermost last


_tls = _TapeStack()


class GradTape:
    """Wengert list of executed ops, confined to one thread; replays once."""

    def __init__(self):
        self._records = []  # (output key, ((input key, grad_fn), ...))
        self._replayed = False

    def __enter__(self):
        _tls.stack.append(self)
        return self

    def __exit__(self, *exc):
        _tls.stack.pop()
        return False


def _recording() -> bool:
    """Whether a GradTape is active on this thread. An op whose backward
    closure needs work of its own (a mask) checks this before doing it."""
    return bool(_tls.stack)


def _record(out: Tensor, *inputs) -> None:
    # inputs are (input, grad_fn) pairs; a plain-array input (a constant) gets no entry.
    stack = _tls.stack
    if stack:
        pairs = tuple((t.key, fn) for t, fn in inputs if isinstance(t, Tensor))
        stack[-1]._records.append((out.key, pairs))


def backward(tape: GradTape, loss: Tensor, wrt, scale: float = 1.0) -> list:
    """Reverse-replay the tape from a scalar loss, seeded with scale in its
    dtype, emptying it; returns the gradient of scale * loss with respect to
    each Tensor of wrt, in order, with zeros for a Tensor the loss does not use.

    A forward sweep over the records first finds the live keys: wrt's, and
    the output of every record with a live input. The replay then visits
    each record once, in reverse execution order (a reverse topological
    order of the recorded graph), drops it, and calls a grad_fn only for a
    live input, so nothing is differentiated off the paths from wrt to the
    loss, and an intermediate gradient and what its closure held die with
    their last use. Inputs are visited in op order, so each gradient is
    summed in one fixed order.
    """
    if loss.data.shape != ():
        raise ValueError(f"loss must be a scalar tensor, got shape {loss.data.shape}")
    if tape._replayed:
        raise RuntimeError("this GradTape was already replayed; a tape replays once")
    tape._replayed = True
    wrt = tuple(wrt)
    wanted = {t.key for t in wrt}
    live = set(wanted)
    records = tape._records
    for out_key, inputs in records:
        if any(key in live for key, _ in inputs):
            live.add(out_key)
    grads: dict[int, np.ndarray] = {loss.key: np.asarray(scale, dtype=loss.data.dtype)}
    while records:
        out_key, inputs = records.pop()
        g = grads.get(out_key) if out_key in wanted else grads.pop(out_key, None)
        if g is None:
            continue  # not on any path to the loss
        for key, grad_fn in inputs:
            if key in live:
                gi = grad_fn(g)
                acc = grads.get(key)
                grads[key] = gi if acc is None else acc + gi
    return [grads[t.key] if t.key in grads else np.zeros_like(t.data) for t in wrt]


# ---------------------------------------------------------------------------
# elementwise / reduction primitives
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor, w: float = 1.0) -> Tensor:
    """Elementwise a + w * b with a python-float weight w."""
    if a.data.shape != b.data.shape:
        raise ValueError(f"add: shape mismatch {a.data.shape} vs {b.data.shape}")
    out = Tensor._wrap(a.data + b.data * w)
    _record(out, (a, lambda g: g), (b, lambda g: g * w))
    return out


def relu(x: Tensor) -> Tensor:
    out = Tensor._wrap(np.maximum(x.data, 0))
    if _recording():
        mask = x.data > 0  # subgradient at 0 is 0
        _record(out, (x, lambda g: g * mask))
    return out


# ---------------------------------------------------------------------------
# network building blocks
# ---------------------------------------------------------------------------


def _row_edges(rows: int, row_elements: int) -> list[int]:
    """Split rows evenly into the fewest blocks of about _IM2COL_ELEMENTS
    elements (row_elements per row), at least one row per block."""
    blocks = min(rows, max(1, -(-rows * row_elements // _IM2COL_ELEMENTS)))
    return [rows * i // blocks for i in range(blocks + 1)]


def _correlate(xv: np.ndarray, kmat: np.ndarray, k: int):
    """Same-size correlation of H x W x Cin xv with kmat, a k x k x Cin x Cout
    kernel reshaped to (k*k*Cin, Cout): the H x W x Cout output, the padded
    input's (H, W, k, k, Cin) patch view and the GEMM blocks' row edges."""
    h, w, cin = xv.shape
    cout = kmat.shape[1]
    # The zero-padded input: one interior copy and four zeroed border strips,
    # cheaper than np.pad and than a zeroed buffer.
    p = k // 2
    xp = np.empty((h + 2 * p, w + 2 * p, cin), dtype=xv.dtype)
    xp[p : p + h, p : p + w] = xv
    xp[:p] = 0
    xp[p + h :] = 0
    xp[p : p + h, :p] = 0
    xp[p : p + h, p + w :] = 0
    sy, sx, sc = xp.strides
    patches = np.lib.stride_tricks.as_strided(xp, (h, w, k, k, cin), (sy, sx, sy, sx, sc))
    # One GEMM per block of output rows, so only that block's im2col is copied.
    # Each output element is the same dot product as in one whole-image GEMM.
    y = np.empty((h, w, cout), dtype=np.result_type(xv, kmat))
    edges = _row_edges(h, w * k * k * cin)
    for r0, r1 in zip(edges, edges[1:]):
        np.matmul(patches[r0:r1].reshape(-1, k * k * cin), kmat, out=y[r0:r1].reshape(-1, cout))
    return y, patches, edges


def conv2d(x, kernel: Tensor, bias: Tensor) -> Tensor:
    """Stride-1 cross-correlation of an H x W x Cin input with a k x k x Cin x Cout kernel.

    Zero padding of k // 2; the output is H x W x Cout. x is a Tensor, or a
    plain array (a constant) whose gradient is not computed.
    """
    xv = x.data if isinstance(x, Tensor) else np.asarray(x)
    kv, bv = kernel.data, bias.data
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
    if xv.shape[0] < 1 or xv.shape[1] < 1:
        raise ValueError(f"conv2d: input is empty, got shape {xv.shape}")

    cin, cout = kv.shape[2], kv.shape[3]
    y, patches, edges = _correlate(xv, kv.reshape(-1, cout), k)
    y += bv
    out = Tensor._wrap(y)

    def gx(g):
        # The correlation of g with the kernel flipped in both spatial axes and
        # cin, cout swapped, zero-padded by k - 1 - k // 2, which is k // 2 again.
        return _correlate(g, kv[::-1, ::-1].transpose(0, 1, 3, 2).reshape(-1, cin), k)[0]

    def gk(g):
        # Over the forward's row blocks, each block's im2col copied once and
        # transposed as a BLAS flag. The sum starts from the first block's
        # product, so a one-block layer gives one whole-image GEMM's bytes.
        parts = (patches[r0:r1].reshape(-1, k * k * cin).T @ g[r0:r1].reshape(-1, cout)
                 for r0, r1 in zip(edges, edges[1:]))
        total = next(parts)
        for part in parts:
            total += part
        return total.reshape(kv.shape)

    _record(out, (x, gx), (kernel, gk), (bias, lambda g: g.sum(axis=(0, 1))))
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
    if not _recording():
        return out

    # Per output, the window position (0-3) of the first maximum: the count of
    # leading positions that do not hold it. With finite inputs the last
    # position holds the max wherever no earlier one does.
    free = views[0] != y
    code = free.astype(np.uint8)
    for view in views[1:3]:
        free &= view != y
        code += free

    def back(g):
        gx = np.empty((h, w, c), dtype=g.dtype)  # the four strided writes cover it
        # Multiplying g's bit patterns by a 0/1 mask gives g where the mask is
        # set and +0.0 elsewhere, bit for bit; a float multiply would give -0.0
        # for negative g. It is several times faster than np.where.
        bits = np.dtype(f"u{g.itemsize}")
        g_bits, gx_bits = g.view(bits), gx.view(bits)
        for i, (di, dj) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
            np.multiply(g_bits, code == i, out=gx_bits[di::2, dj::2])
        return gx

    _record(out, (x, back))
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
    _record(out, (x, lambda g: y * (g - (g * y).sum(axis=2, keepdims=True))))
    return out


def masked_mean(x: Tensor, c: np.ndarray, scale: float) -> Tensor:
    """The scalar scale * sum(x * c), c a constant array of x's shape: with a
    0/1 mask c and scale 1 / (its count), the mean of x over the mask."""
    if x.data.shape != c.shape:
        raise ValueError(f"masked_mean: shape mismatch {x.data.shape} vs {c.shape}")
    out = Tensor._wrap(np.asarray((x.data * c).sum()) * scale)
    _record(out, (x, lambda g: (g * scale) * c))
    return out


def hinge_gram(a: Tensor, b: Tensor, target: np.ndarray, m_p: float, m_n: float, w: float,
               scale: float) -> Tensor:
    """scale times the sum over every cell pair (p, q) of two Hc x Wc x D grids of
    w * relu(m_p - g) where q == target[p] and relu(g - m_n) elsewhere, g the dot
    product of a's cell p and b's cell q (row-major); target holds a cell of b per
    cell of a, or -1.
    """
    av, bv = a.data, b.data
    if av.ndim != 3 or av.shape != bv.shape:
        raise ValueError(f"hinge_gram needs two Hc x Wc x D grids of one shape, got {av.shape} vs {bv.shape}")
    a2 = av.reshape(-1, av.shape[2])
    bt = np.ascontiguousarray(bv.reshape(-1, bv.shape[2]).T)
    hits = (np.flatnonzero(target >= 0), target[target >= 0])
    hinge = a2 @ bt  # the n x n Gram, then its hinges in place
    pos = np.maximum(m_p - hinge[hits], 0)
    hinge -= m_n
    np.maximum(hinge, 0, out=hinge)
    hinge[hits] = pos * w
    out = Tensor._wrap(np.asarray(hinge.sum()) * scale)
    if _recording():
        neg = hinge > 0  # the active negative hinges; subgradient at 0 is 0, as in relu
        neg[hits] = False
        active = tuple(i[pos > 0] for i in hits)

        built = []  # grad_a's coefficient grid, which grad_b reuses

        def grad_a(g):
            built.append(_hinge_coefficients(neg, active, g * scale, w))
            return (built[0] @ bt.T).reshape(av.shape)

        def grad_b(g):
            c = built.pop() if built else _hinge_coefficients(neg, active, g * scale, w)
            return np.ascontiguousarray((a2.T @ c).T).reshape(bv.shape)

        _record(out, (a, grad_a), (b, grad_b))
    return out


def _hinge_coefficients(neg, active, g, w):
    # d hinge_gram / d Gram; g's bits times neg: +0.0, not neg * g's -0.0 for g < 0
    bits = np.dtype(f"u{g.itemsize}")
    c = np.multiply(neg, g.view(bits), dtype=bits).view(g.dtype)
    c[active] = -(g * w)
    return c


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
        return (p - onehot) * (g / n)

    _record(out, (logits, back))
    return out
