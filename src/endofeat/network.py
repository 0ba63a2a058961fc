"""Detector/descriptor network: shared encoder, two decoder heads, weights IO.

The encoder is a VGG-style stack of 3x3 conv + relu blocks in four stages
separated by three 2x2 max poolings, so the spatial size drops by exactly
tensor.CELL (8x). The detection head ends in tensor.DUSTBIN + 1 channels
(one per pixel of a cell plus the "no interest point" dustbin), which
heatmap() decodes; the description head ends in the descriptor dimension
(256 by default), which densify() decodes to unit-norm descriptors at
given pixels: the bicubic upsample of the cells, read and normalised only
at those pixels. forward() takes the frame as a plain array and returns the
heads as Tensors; both decoders return plain arrays, off the gradient tape:
the losses are applied to the coarse cells, not to the decoded maps.

densify never holds the whole H x W x D upsample. It runs the two GEMMs of
np.einsum("oi,pj,ijc->opc", wh, ww, cells, optimize=True), the second one
block of channels at a time (at most _UPSAMPLE_ELEMENTS values), and reads
each block at the pixels before computing the next. The contraction order
(the longer cell axis first, the height on a tie: einsum's choice) and the
operands are pinned because they fix the bytes: a block is a row range of
einsum's second GEMM, so every dot product is the same, while the other
axis first, or einsum without optimize, sums in another order and changes
the last bits. tests/test_network.py checks the bytes against the einsum.

forward never holds the whole maps of an encoder stage (its convs, their
relus and, on every stage but the last, its max pool) while no GradTape
records: _stage runs each stage in bands of output rows. A band reads a
halo of one input row per 3x3 conv on each side, clipped at the input's
edges, and writes its output rows into one map that the next stage (or the
heads, after the last) reads whole. Every band but a stage's last has an
even number of rows, so no pool window straddles two bands; only the
unpooled last stage can have an odd height, and then its last band is odd.
The heads are bit-equal to the whole-frame forward's: a conv output element
is the same dot product in any row block (the rule conv2d's row blocks rely
on), the zero padding at the input's edge is unchanged and the pool is per
window. A band is at least _BAND_ROWS rows and _BAND_MACS multiply-adds of
its stage's cheapest conv, or the stage is one band: OpenBLAS runs a GEMM of
at most 100^3 multiply-adds with its small-matrix kernel, which sums in
another order. Under a tape every stage is one band, so training's records
and bytes are the whole-frame ops'. tests/test_network.py checks the bytes.

NetworkParams.tensors is keyed by the weights file's own labels,
"<layer>.kernel" and "<layer>.bias" in layer_plan() order. A weights file
is an np.savez archive (ioutil.write_archive) of those tensors as float32
arrays, checked in three places: load_weights owns the entry names, the
float32 dtype and the kernel rank, and reads the architecture from the
layer names; Architecture owns the stage count and positive widths;
NetworkParams owns each tensor's presence and shape, and rejects extras.
load_weights reports every rejection as a WeightsError naming the file or
the layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .ioutil import read_archive, write_archive
from .tensor import CELL, DUSTBIN, Tensor

_NORM_GUARD = 1e-12  # densify's norm floor, so a zero descriptor stays zero
# Upsampled values densify computes per block of channels: 2^21 is 8 MB in
# f32, 27 channels at 240x320, against 79 MB for the whole 256-channel map.
_UPSAMPLE_ELEMENTS = 1 << 21
# Floors of a band of an untaped encoder stage (see the module docstring): rows,
# an even number, and multiply-adds of the stage's cheapest conv. 32 rows keep a
# two-conv stage's second halo at 2 rows in 34; 2^21 keeps every band's GEMM
# above OpenBLAS's small-matrix bound of 100^3 wherever the whole stage's is.
_BAND_ROWS = 32
_BAND_MACS = 1 << 21


class WeightsError(Exception):
    """A weights file is unreadable, or a tensor is inconsistent with the
    architecture; names the file or the layer."""


@dataclass(frozen=True)
class Architecture:
    """Channel widths per encoder stage plus head widths.

    encoder_stages must have exactly four stages (three poolings between
    them). The default mirrors the widely used detector layout; toy-scale
    nets pass something like ((8,), (8,), (16,), (16,)).
    """

    encoder_stages: tuple = ((64, 64), (64, 64), (128, 128), (128, 128))
    head_width: int = 256
    descriptor_dim: int = 256

    def __post_init__(self):
        stages = tuple(tuple(int(w) for w in s) for s in self.encoder_stages)
        object.__setattr__(self, "encoder_stages", stages)
        if len(stages) != 4 or any(len(s) == 0 for s in stages):
            raise ValueError("encoder needs exactly 4 non-empty stages (3 poolings, 8x downsampling)")
        if any(w < 1 for s in stages for w in s) or self.head_width < 1 or self.descriptor_dim < 1:
            raise ValueError("channel widths must be positive")

    def layer_plan(self):
        """Ordered (name, k, cin, cout) conv specs; heads branch off the encoder."""
        plan = []
        cin = 1
        for si, stage in enumerate(self.encoder_stages):
            for ci, cout in enumerate(stage):
                plan.append((f"enc{si}_c{ci}", 3, cin, cout))
                cin = cout
        trunk = cin
        plan.append(("det_a", 3, trunk, self.head_width))
        plan.append(("det_b", 1, self.head_width, DUSTBIN + 1))
        plan.append(("desc_a", 3, trunk, self.head_width))
        plan.append(("desc_b", 1, self.head_width, self.descriptor_dim))
        return plan


@dataclass(frozen=True)
class NetworkParams:
    """The architecture and its conv tensors, label -> Tensor, labelled
    "<layer>.kernel" (k x k x Cin x Cout) and "<layer>.bias" (Cout) and
    kept in layer_plan() order. A missing, misshapen or extra tensor raises
    WeightsError naming it."""

    architecture: Architecture
    tensors: dict

    def __post_init__(self):
        tensors = {}
        for name, k, cin, cout in self.architecture.layer_plan():
            for kind, shape in (("kernel", (k, k, cin, cout)), ("bias", (cout,))):
                t = self.tensors.get(f"{name}.{kind}")
                if t is None:
                    raise WeightsError(f"layer {name}: missing {kind}")
                if t.shape != shape:
                    raise WeightsError(f"layer {name}: {kind} shape {t.shape}, expected {shape}")
                tensors[f"{name}.{kind}"] = t
        extra = sorted(self.tensors.keys() - tensors.keys())
        if extra:
            raise WeightsError(f"tensors {extra} are not in the architecture")
        object.__setattr__(self, "tensors", tensors)

    def dtype(self):
        return next(iter(self.tensors.values())).dtype


@dataclass(frozen=True)
class RawHeads:
    detect: Tensor  # H/CELL x W/CELL x DUSTBIN + 1, raw logits; channel DUSTBIN is the dustbin
    describe: Tensor  # H/CELL x W/CELL x D, raw descriptors


def init_params(arch: Architecture, seed: int = 0, dtype=np.float64) -> NetworkParams:
    """He-uniform kernels, zero biases."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    tensors = {}
    for name, k, cin, cout in arch.layer_plan():
        limit = np.sqrt(6.0 / (k * k * cin))
        kernel = rng.uniform(-limit, limit, size=(k, k, cin, cout)).astype(dtype)
        tensors[f"{name}.kernel"] = Tensor(kernel)
        tensors[f"{name}.bias"] = Tensor(np.zeros(cout, dtype=dtype))
    return NetworkParams(arch, tensors)


def forward(params: NetworkParams, image: np.ndarray) -> RawHeads:
    """Run the network on an H x W grayscale array with values in [0, 1],
    cast to the params' dtype; a NaN is out of range.

    While no GradTape records, every encoder stage runs in row bands (see
    the module docstring), so the peak is set by stage 0's pooled map plus
    one band; the heads are bit-equal to the taped whole-frame forward's.
    """
    iv = np.asarray(image)
    if iv.ndim != 2:
        raise ValueError(f"forward expects an H x W grayscale array, got shape {iv.shape}")
    h, w = iv.shape
    if h % CELL or w % CELL:
        raise ValueError(f"image dims must be divisible by {CELL}, got {h}x{w}")
    # The frame, and each band of it, enters as a Tensor because the conv2d counter
    # in benchmark/tracer.py reads x.data.size, which an ndarray lacks. Its gradient
    # is never computed: training differentiates toward the params, and no path
    # leads from them to it.
    x = Tensor(iv[:, :, None], dtype=params.dtype())
    if x.size and not (x.data.min() >= 0.0 and x.data.max() <= 1.0):  # False on a NaN
        raise ValueError("image values must lie in [0, 1]")

    def conv(x, name):
        return T.conv2d(x, params.tensors[f"{name}.kernel"], params.tensors[f"{name}.bias"])

    for si in range(len(params.architecture.encoder_stages)):
        x = _stage(params, si, x, conv)
    detect = conv(T.relu(conv(x, "det_a")), "det_b")
    describe = conv(T.relu(conv(x, "desc_a")), "desc_b")
    return RawHeads(detect=detect, describe=describe)


def _stage(params: NetworkParams, si: int, x: Tensor, conv) -> Tensor:
    """Encoder stage si of its H x W x C input x: its relu'd 3x3 convs
    enc<si>_c0, enc<si>_c1, ..., then a max_pool2x2 on every stage but the last.

    Untaped, it runs in the bands of _band_edges. Before conv ci a band is
    cropped to the rows that the stage's remaining convs read, one per conv
    beyond each side, clipped at the input's edges; a row that the crop's
    zero padding made wrong is never read. Under a tape the input is one
    band, so the records are those of the whole-input ops.
    """
    stages = params.architecture.encoder_stages
    names = [f"enc{si}_c{ci}" for ci in range(len(stages[si]))]
    pool = 2 if si < len(stages) - 1 else 1  # input rows per output row
    h, w = x.shape[:2]
    if T._recording():
        edges = [0, h]
    else:
        edges = _band_edges(h, w * min(params.tensors[f"{name}.kernel"].size for name in names))
    out = None
    for r0, r1 in zip(edges, edges[1:]):
        y, top = x, 0  # y holds input rows top : top + len(y)
        for ci, name in enumerate(names):
            lo, hi = max(0, r0 - len(names) + ci), min(h, r1 + len(names) - ci)
            y = T.relu(conv(_rows(y, lo - top, hi - top), name))
            top = lo
        p = _rows(y, r0 - top, r1 - top)
        p = T.max_pool2x2(p) if pool == 2 else p
        if len(edges) == 2:
            return p
        if out is None:
            out = np.empty((h // pool,) + p.shape[1:], dtype=p.dtype)
        out[r0 // pool : r1 // pool] = p.data
    return Tensor._wrap(out)


def _band_edges(h: int, row_macs: int) -> list[int]:
    """Row edges of a stage's bands in its H-row input whose cheapest conv does
    row_macs multiply-adds per output row: the fewest bands of at least
    _BAND_ROWS rows and _BAND_MACS multiply-adds each, or the whole input.
    Every band but the last has an even number of rows; the last ends at h,
    so it is odd when h is (only the unpooled last stage's can be)."""
    pairs = max(_BAND_ROWS // 2, -(-_BAND_MACS // (2 * row_macs)))
    bands = max(1, h // 2 // pairs)
    return [2 * (h // 2 * i // bands) for i in range(bands)] + [h]


def _rows(t: Tensor, r0: int, r1: int) -> Tensor:
    # Rows r0:r1 of t as a Tensor view, or t itself when they are all of it.
    return t if (r0, r1) == (0, t.shape[0]) else Tensor._wrap(t.data[r0:r1])


def heatmap(detect: Tensor) -> np.ndarray:
    """Detection logits to the H x W keypoint probability map, a plain array.

    Softmax over each cell's channels, drop the dustbin, and tile the
    remaining per-pixel probabilities back into the cell: channel c of cell
    (i, j) lands on pixel (CELL*i + c // CELL, CELL*j + c % CELL).
    """
    prob = T.channel_softmax(detect).data[..., :DUSTBIN]
    hc, wc, _ = prob.shape
    return prob.reshape(hc, wc, CELL, CELL).transpose(0, 2, 1, 3).reshape(hc * CELL, wc * CELL)


def densify(describe: np.ndarray, ys, xs) -> np.ndarray:
    """Unit-norm descriptors of Hc x Wc x D cells at pixels (ys, xs), as K x D rows.

    The cells are upsampled by CELL with separable Catmull-Rom bicubic
    interpolation (pixel centres, edge-clamped taps); row i is the upsampled
    vector at pixel (ys[i], xs[i]) divided by its L2 norm, or by 1e-12 when
    the norm is at most 1e-12, so a zero vector stays zero. Only the K
    gathered vectors are normalised. Plain arrays: inference only, nothing
    differentiates it.

    The upsample is computed one block of channels at a time and never held
    whole; the bytes are those of the dense einsum upsample (see the module
    docstring for why the contraction order and layouts are pinned).
    """
    if describe.ndim != 3:
        raise ValueError(f"densify expects Hc x Wc x D, got shape {describe.shape}")
    h, w = describe.shape[0] * CELL, describe.shape[1] * CELL
    ys, xs = np.asarray(ys, dtype=np.int64), np.asarray(xs, dtype=np.int64)
    if ys.shape != xs.shape or ys.ndim != 1:
        raise ValueError(f"densify needs equal-length 1-D ys and xs, got {ys.shape} and {xs.shape}")
    if ys.size and (ys.min() < 0 or ys.max() >= h or xs.min() < 0 or xs.max() >= w):
        raise ValueError(f"densify: a pixel lies outside the {h}x{w} map")
    # Grid axis 1 (size m) is contracted first: the width, or the height
    # when it is at least as long, by the same code on the transposed grid.
    grid = describe
    if h >= w:
        grid, ys, xs = describe.transpose(1, 0, 2), xs, ys
    n, m, d = grid.shape
    up_n = _upsample_matrix(n, describe.dtype)
    up_m = _upsample_matrix(m, describe.dtype)
    span = m * CELL
    # the first GEMM's (n, d, span) product, viewed without a copy as the
    # (d * span, n) operand of the second, as einsum passes it (on a square
    # grid einsum copies it, rows in (span, d) order: the same dot products)
    rows = (grid.transpose(0, 2, 1).reshape(n * d, m) @ up_m.T).reshape(n, -1).T
    # A block is the upsample of its channels, (channel, x, y) on the grid;
    # gather its K pixels into a D x K array. The norm is then an axis-0 sum,
    # sequential over channels like the strided-channel sum over the dense
    # map, so the feature bytes are the same as those of the dense map read
    # at the keypoints.
    cols = np.empty((d, ys.size), describe.dtype)
    flat = xs * (n * CELL) + ys
    step = max(1, _UPSAMPLE_ELEMENTS // (h * w))
    for c0 in range(0, d, step):
        c1 = min(d, c0 + step)
        block = rows[c0 * span : c1 * span] @ up_n.T
        np.take(block.reshape(c1 - c0, -1), flat, axis=1, out=cols[c0:c1])
    norm = np.sqrt((cols * cols).sum(axis=0))
    cols /= np.where(norm > _NORM_GUARD, norm, _NORM_GUARD)
    return np.ascontiguousarray(cols.T)


def _cubic_kernel(d: np.ndarray) -> np.ndarray:
    # Catmull-Rom (a = -0.5) cubic convolution kernel.
    d = np.abs(d)
    near = ((1.5 * d - 2.5) * d) * d + 1.0
    far = (((-0.5 * d + 2.5) * d) - 4.0) * d + 2.0
    return np.where(d <= 1.0, near, np.where(d < 2.0, far, 0.0))


def _upsample_matrix(n_in: int, dtype) -> np.ndarray:
    n_out = n_in * CELL
    out_idx = np.arange(n_out)
    src = (out_idx + 0.5) / CELL - 0.5  # align-corners = false
    base = np.floor(src).astype(np.int64)
    t = src - base
    w = np.zeros((n_out, n_in), dtype=dtype)
    for tap in (-1, 0, 1, 2):
        idx = np.clip(base + tap, 0, n_in - 1)  # edge clamp
        np.add.at(w, (out_idx, idx), _cubic_kernel(t - tap).astype(dtype))
    return w


# ---------------------------------------------------------------------------
# weights file: an np.savez archive of float32 arrays keyed by the
# NetworkParams.tensors labels, "<layer>.kernel" (k x k x Cin x Cout) and
# "<layer>.bias" (Cout)
# ---------------------------------------------------------------------------


def save_weights(params: NetworkParams, path) -> None:
    """Write the params as float32 (f64 params are quantised)."""
    write_archive(path, {label: t.data.astype(np.float32) for label, t in params.tensors.items()})


def load_weights(path) -> NetworkParams:
    """Load float32 params, reading the architecture from the layer names.

    Checks only what no type can: each entry is a float32 "<layer>.kernel"
    or "<layer>.bias", and each kernel has rank 4, its last axis being the
    layer's width. Encoder stage s is enc<s>_c0, enc<s>_c1, ... up to the
    first missing name; the head width is det_a's, the descriptor dim
    desc_b's. Architecture and NetworkParams check the rest; every
    rejection is a WeightsError naming the file or the layer.
    """
    arrays = read_archive(path, WeightsError)
    widths = {}  # layer -> kernel Cout
    for key, arr in arrays.items():
        name, _, kind = key.rpartition(".")
        if kind not in ("kernel", "bias") or not name:
            raise WeightsError(f"{path}: unknown entry {key!r}")
        if arr.dtype != np.float32:
            raise WeightsError(f"layer {name}: {kind} dtype {arr.dtype}, expected float32")
        if kind == "kernel":
            if arr.ndim != 4:
                raise WeightsError(f"layer {name}: kernel rank {arr.ndim}, expected 4")
            widths[name] = arr.shape[3]
    for need in ("det_a", "desc_b"):
        if need not in widths:
            raise WeightsError(f"missing layer {need}")
    stages = []
    for si in range(4):
        stage = []
        while f"enc{si}_c{len(stage)}" in widths:
            stage.append(widths[f"enc{si}_c{len(stage)}"])
        stages.append(stage)
    try:
        architecture = Architecture(stages, widths["det_a"], widths["desc_b"])
    except ValueError as e:
        raise WeightsError(f"{path}: {e}") from e
    return NetworkParams(architecture, {label: Tensor(arr) for label, arr in arrays.items()})
