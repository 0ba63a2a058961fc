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

A weights file is an np.savez archive (ioutil.write_archive) of float32
arrays named by the param_tensors() labels; load_weights raises
WeightsError, naming the file or the layer, for anything else.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .ioutil import read_archive, write_archive
from .tensor import CELL, DUSTBIN, Tensor

_NORM_GUARD = 1e-12  # densify's norm floor, so a zero descriptor stays zero


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


@dataclass
class NetworkParams:
    """Named conv weights (kernel, bias) in layer order, plus the architecture."""

    architecture: Architecture
    weights: dict  # name -> (kernel Tensor, bias Tensor), insertion ordered

    def validate(self) -> None:
        for name, k, cin, cout in self.architecture.layer_plan():
            if name not in self.weights:
                raise WeightsError(f"missing layer {name}")
            kernel, bias = self.weights[name]
            if kernel.shape != (k, k, cin, cout):
                raise WeightsError(
                    f"layer {name}: kernel shape {kernel.shape}, expected {(k, k, cin, cout)}"
                )
            if bias.shape != (cout,):
                raise WeightsError(f"layer {name}: bias shape {bias.shape}, expected {(cout,)}")

    def dtype(self):
        kernel, _ = next(iter(self.weights.values()))
        return kernel.dtype

    def param_tensors(self):
        """Flat (label, Tensor) list over kernels and biases, in layer order."""
        out = []
        for name, (kernel, bias) in self.weights.items():
            out.append((f"{name}.kernel", kernel))
            out.append((f"{name}.bias", bias))
        return out


@dataclass(frozen=True)
class RawHeads:
    detect: Tensor  # H/CELL x W/CELL x DUSTBIN + 1, raw logits; channel DUSTBIN is the dustbin
    describe: Tensor  # H/CELL x W/CELL x D, raw descriptors


def init_params(arch: Architecture, seed: int = 0, dtype=np.float64) -> NetworkParams:
    """He-uniform kernels, zero biases."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    weights = {}
    for name, k, cin, cout in arch.layer_plan():
        limit = np.sqrt(6.0 / (k * k * cin))
        kernel = rng.uniform(-limit, limit, size=(k, k, cin, cout)).astype(dtype)
        weights[name] = (Tensor(kernel), Tensor(np.zeros(cout, dtype=dtype)))
    return NetworkParams(arch, weights)


def forward(params: NetworkParams, image: np.ndarray) -> RawHeads:
    """Run the network on an H x W grayscale array with values in [0, 1],
    cast to the params' dtype."""
    iv = np.asarray(image)
    if iv.ndim != 2:
        raise ValueError(f"forward expects an H x W grayscale array, got shape {iv.shape}")
    h, w = iv.shape
    if h % CELL or w % CELL:
        raise ValueError(f"image dims must be divisible by {CELL}, got {h}x{w}")
    params.validate()
    # conv2d would take the frame as a plain array, a constant, and skip its
    # gradient, which nothing reads; it enters as a Tensor because the conv2d
    # counter in benchmark/tracer.py reads x.data.size, which an ndarray lacks.
    x = Tensor(iv[:, :, None], dtype=params.dtype())
    if x.size and (x.data.min() < 0.0 or x.data.max() > 1.0):
        raise ValueError("image values must lie in [0, 1]")

    n_stages = len(params.architecture.encoder_stages)
    for si, stage in enumerate(params.architecture.encoder_stages):
        for ci in range(len(stage)):
            kernel, bias = params.weights[f"enc{si}_c{ci}"]
            x = T.relu(T.conv2d(x, kernel, bias))
        if si < n_stages - 1:
            x = T.max_pool2x2(x)

    ka, ba = params.weights["det_a"]
    kb, bb = params.weights["det_b"]
    detect = T.conv2d(T.relu(T.conv2d(x, ka, ba)), kb, bb)

    ka, ba = params.weights["desc_a"]
    kb, bb = params.weights["desc_b"]
    describe = T.conv2d(T.relu(T.conv2d(x, ka, ba)), kb, bb)
    return RawHeads(detect=detect, describe=describe)


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
    """
    if describe.ndim != 3:
        raise ValueError(f"densify expects Hc x Wc x D, got shape {describe.shape}")
    h, w = describe.shape[0] * CELL, describe.shape[1] * CELL
    ys, xs = np.asarray(ys, dtype=np.int64), np.asarray(xs, dtype=np.int64)
    if ys.shape != xs.shape or ys.ndim != 1:
        raise ValueError(f"densify needs equal-length 1-D ys and xs, got {ys.shape} and {xs.shape}")
    if ys.size and (ys.min() < 0 or ys.max() >= h or xs.min() < 0 or xs.max() >= w):
        raise ValueError(f"densify: a pixel lies outside the {h}x{w} map")
    wh = _upsample_matrix(describe.shape[0], describe.dtype)
    ww = _upsample_matrix(describe.shape[1], describe.dtype)
    up = np.einsum("oi,pj,ijc->opc", wh, ww, describe, optimize=True)
    # Gather the K pixels from each channel plane into a D x K array. The norm
    # is then an axis-0 sum, sequential over channels like the strided-channel
    # sum over the dense map, so the feature bytes are the same as those of
    # the dense map read at the keypoints.
    cols = np.take(up.transpose(2, 1, 0).reshape(describe.shape[2], -1), xs * h + ys, axis=1)
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
# param_tensors() labels, "<layer>.kernel" (k x k x Cin x Cout) and
# "<layer>.bias" (Cout)
# ---------------------------------------------------------------------------


def save_weights(params: NetworkParams, path) -> None:
    """Write the params as float32 (f64 params are quantised)."""
    write_archive(path, {label: t.data.astype(np.float32) for label, t in params.param_tensors()})


def load_weights(path) -> NetworkParams:
    """Load float32 params; validates layer chaining against the format.

    The architecture is inferred from the layer names and kernel shapes,
    then the parameter set is structurally validated and ordered as its
    layer_plan(). Raises WeightsError naming the file or the layer for any
    other archive.
    """
    kernels: dict[str, np.ndarray] = {}
    biases: dict[str, np.ndarray] = {}
    for key, arr in read_archive(path, WeightsError).items():
        name, _, kind = key.rpartition(".")
        if kind not in ("kernel", "bias") or not name:
            raise WeightsError(f"{path}: unknown entry {key!r}")
        if arr.dtype != np.float32:
            raise WeightsError(f"layer {name}: {kind} dtype {arr.dtype}, expected float32")
        rank = 4 if kind == "kernel" else 1
        if arr.ndim != rank:
            raise WeightsError(f"layer {name}: {kind} rank {arr.ndim}, expected {rank}")
        (kernels if kind == "kernel" else biases)[name] = arr
    for name in kernels:
        if kernels[name].shape[3] == 0:
            raise WeightsError(f"layer {name}: kernel has no output channels")
        if name not in biases:
            raise WeightsError(f"layer {name}: kernel without bias")
        if biases[name].shape[0] != kernels[name].shape[3]:
            raise WeightsError(
                f"layer {name}: bias length {biases[name].shape[0]} vs kernel Cout {kernels[name].shape[3]}"
            )

    architecture = _infer_architecture(kernels)
    plan = [name for name, *_ in architecture.layer_plan()]
    unknown = sorted((kernels.keys() | biases.keys()) - set(plan))
    if unknown:
        raise WeightsError(f"{path}: layers {unknown} are not in the architecture")
    params = NetworkParams(
        architecture,
        {n: (Tensor(kernels[n]), Tensor(biases[n])) for n in plan if n in kernels},
    )
    params.validate()
    return params


def _infer_architecture(kernels) -> Architecture:
    stages: list[dict[int, int]] = [{}, {}, {}, {}]  # conv index -> width, per stage
    for name, kernel in kernels.items():
        if name.startswith("enc"):
            stage, _, conv = name[3:].partition("_c")
            try:
                si, ci = int(stage), int(conv)
            except ValueError as e:
                raise WeightsError(f"layer {name}: unrecognized encoder layer name") from e
            if not 0 <= si < 4:
                raise WeightsError(f"layer {name}: encoder stage index out of range")
            stages[si][ci] = kernel.shape[3]
    for need in ("det_a", "det_b", "desc_a", "desc_b"):
        if need not in kernels:
            raise WeightsError(f"missing layer {need}")
    if any(not s for s in stages):
        raise WeightsError("missing encoder stage layers")
    return Architecture(
        encoder_stages=tuple(tuple(s[ci] for ci in sorted(s)) for s in stages),
        head_width=kernels["det_a"].shape[3],
        descriptor_dim=kernels["desc_b"].shape[3],
    )
