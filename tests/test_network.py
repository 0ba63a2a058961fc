"""Network layout, forward contract, decoding, and the weights file format."""

import io
import math
import tracemalloc
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from endofeat import network
from endofeat.network import (
    Architecture,
    NetworkParams,
    WeightsError,
    densify,
    forward,
    heatmap,
    init_params,
    load_weights,
    save_weights,
)
from endofeat.ioutil import write_archive
from endofeat.tensor import GradTape, Tensor

from helpers import damaged, dense_densify, rng, toy_architecture


def _all_pixels(describe):
    # (ys, xs) of every pixel of the upsampled map, row-major
    ys, xs = np.indices((describe.shape[0] * 8, describe.shape[1] * 8))
    return ys.ravel(), xs.ravel()


def test_architecture_requires_four_stages():
    with pytest.raises(ValueError):
        Architecture(encoder_stages=((8,), (8,), (8,)))
    with pytest.raises(ValueError):
        Architecture(encoder_stages=((8,), (), (8,), (8,)))
    with pytest.raises(ValueError):
        Architecture(encoder_stages=((8,), (0,), (8,), (8,)))


def test_layer_plan_chains_channels():
    arch = Architecture(encoder_stages=((4, 5), (6,), (7,), (8,)), head_width=9, descriptor_dim=3)
    plan = arch.layer_plan()
    names = [p[0] for p in plan]
    assert names == [
        "enc0_c0", "enc0_c1", "enc1_c0", "enc2_c0", "enc3_c0",
        "det_a", "det_b", "desc_a", "desc_b",
    ]
    cins = [p[2] for p in plan]
    couts = [p[3] for p in plan]
    assert cins == [1, 4, 5, 6, 7, 8, 9, 8, 9]
    assert couts == [4, 5, 6, 7, 8, 9, 65, 9, 3]
    assert [p[1] for p in plan] == [3, 3, 3, 3, 3, 3, 1, 3, 1]


def test_default_architecture_matches_standard_layout():
    arch = Architecture()
    assert arch.encoder_stages == ((64, 64), (64, 64), (128, 128), (128, 128))
    assert arch.head_width == 256 and arch.descriptor_dim == 256
    plan = dict((p[0], p) for p in arch.layer_plan())
    assert plan["det_b"][2:] == (256, 65)
    assert plan["desc_b"][2:] == (256, 256)


def test_init_params_deterministic_and_bounded():
    arch = toy_architecture()
    a = init_params(arch, seed=5)
    b = init_params(arch, seed=5)
    c = init_params(arch, seed=6)
    for (la, ta), (lb, tb) in zip(a.tensors.items(), b.tensors.items()):
        assert la == lb
        np.testing.assert_array_equal(ta.data, tb.data)
    assert any(
        not np.array_equal(ta.data, tc.data)
        for ta, tc in zip(a.tensors.values(), c.tensors.values())
    )
    for name, k, cin, cout in arch.layer_plan():
        kernel, bias = a.tensors[f"{name}.kernel"], a.tensors[f"{name}.bias"]
        limit = np.sqrt(6.0 / (k * k * cin))
        assert np.abs(kernel.data).max() <= limit
        assert np.all(bias.data == 0.0)


def test_forward_shapes_and_validation():
    arch = toy_architecture()
    params = init_params(arch, seed=0)
    img = rng(0).uniform(0, 1, (16, 24))
    heads = forward(params, img)
    assert heads.detect.shape == (2, 3, 65)
    assert heads.describe.shape == (2, 3, arch.descriptor_dim)

    with pytest.raises(ValueError):
        forward(params, img[:15])  # not divisible by 8
    with pytest.raises(ValueError):
        forward(params, img[None])  # not 2-D
    with pytest.raises(ValueError):
        forward(params, img + 1.0)  # out of [0, 1]
    with pytest.raises(ValueError, match=r"image values must lie in \[0, 1\]"):
        forward(params, np.full((16, 16), np.nan))  # min and max are NaN, and compare False


_THREE_CONV_STAGE = Architecture(encoder_stages=((8, 8, 8), (8,), (16,), (16,)), head_width=16,
                                 descriptor_dim=8)


_BENCH_TOY = Architecture(((8,), (8,), (16,), (16,)), head_width=32, descriptor_dim=32)


def _stage_bands(params, h, w):
    # each encoder stage's band count on an untaped forward of an h x w frame
    counts = []
    for si, stage in enumerate(params.architecture.encoder_stages):
        cheapest = min(params.tensors[f"enc{si}_c{ci}.kernel"].size for ci in range(len(stage)))
        counts.append(len(network._band_edges(h >> si, (w >> si) * cheapest)) - 1)
    return tuple(counts)


@pytest.mark.parametrize("arch, dtype, h, w, bands", [
    (Architecture(), np.float32, 240, 320, (7, 3, 1, 1)),  # stage 0: bands of 34 rows, the last 36
    (Architecture(), np.float32, 248, 320, (7, 3, 1, 1)),  # 34 and 36 rows mixed; a whole, odd stage 3
    (Architecture(), np.float32, 264, 48, (3, 4, 2, 1)),  # stage 0: the multiply-add floor sets the height
    (Architecture(), np.float32, 16, 16, (1, 1, 1, 1)),  # shorter than one band
    (toy_architecture(), np.float64, 480, 640, (2, 1, 1, 1)),
    (_THREE_CONV_STAGE, np.float32, 240, 320, (2, 3, 1, 1)),  # a halo of three rows
    (_BENCH_TOY, np.float32, 520, 512, (8, 8, 4, 2)),  # stage 3: 65 rows in bands of 32 and 33
], ids=["default-240x320", "default-248x320", "default-264x48", "default-16x16", "toy-f64",
        "three-conv-stage", "bench-toy-520x512"])
def test_banded_heads_equal_the_taped_whole_frame(monkeypatch, arch, dtype, h, w, bands):
    # Untaped, every encoder stage runs in row bands; under a tape the frame is one band.
    params = init_params(arch, seed=4, dtype=dtype)
    img = rng(4).uniform(0, 1, (h, w))
    assert _stage_bands(params, h, w) == bands
    calls = []
    conv2d = network.T.conv2d
    monkeypatch.setattr(network.T, "conv2d", lambda *args: calls.append(1) or conv2d(*args))
    banded = forward(params, img)
    stages = arch.encoder_stages
    assert len(calls) == sum(b * len(s) for b, s in zip(bands, stages)) + 4  # 4 head convs
    calls.clear()
    with GradTape():
        whole = forward(params, img)
    assert len(calls) == sum(len(s) for s in stages) + 4
    for got, want in ((banded.detect, whole.detect), (banded.describe, whole.describe)):
        assert got.dtype == want.dtype == dtype
        bits = f"u{got.data.itemsize}"
        np.testing.assert_array_equal(got.data.view(bits), want.data.view(bits))


@pytest.mark.parametrize("h", [8, 16, 31, 62, 64, 65, 66, 240, 1000, 1001])
@pytest.mark.parametrize("row_macs", [9, 576 * 48, 576 * 320, 576 * 1280])
def test_band_edges_are_even_and_above_both_floors(h, row_macs):
    edges = network._band_edges(h, row_macs)
    assert edges[0] == 0 and edges[-1] == h
    sizes = np.diff(edges)
    assert np.all(sizes[:-1] % 2 == 0)  # only the last band can be odd, and only when h is
    assert sizes[-1] % 2 == h % 2
    if len(sizes) > 1:
        assert sizes.min() >= network._BAND_ROWS
        assert sizes.min() * row_macs >= network._BAND_MACS
        assert sizes.max() - sizes.min() <= 2 + h % 2


def test_untaped_forward_holds_one_band_of_each_stage():
    # the whole-frame forward peaks at 245 MB here, the banded one at about 48 MB
    params = init_params(Architecture(), seed=0, dtype=np.float32)
    img = rng(5).uniform(0, 1, (480, 640))
    tracemalloc.start()
    try:
        heads = forward(params, img)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert heads.describe.shape == (60, 80, 256)
    assert peak < 64e6, f"peak {peak / 1e6:.1f} MB"


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_heatmap_is_cellwise_probability(dtype):
    params = init_params(toy_architecture(), seed=1, dtype=dtype)
    img = rng(1).uniform(0, 1, (16, 24)).astype(dtype)
    heat = heatmap(forward(params, img).detect)
    assert heat.dtype == dtype and heat.shape == (16, 24)
    assert heat.min() >= 0.0
    cell_sums = heat.astype(np.float64).reshape(2, 8, 3, 8).sum(axis=(1, 3))
    tol = 1e-12 if dtype == np.float64 else 1e-6
    assert np.all(cell_sums <= 1.0 + tol)  # dustbin holds the remainder
    with pytest.raises(ValueError, match="65"):
        heatmap(Tensor(np.zeros((2, 2, 64))))


def test_densify_heatmap_is_cellwise_probability():
    # both decoders on one forward pass: the detect head to the heatmap, the
    # describe head (as a plain array) to the dense unit-norm descriptors
    params = init_params(toy_architecture(), seed=1)
    heads = forward(params, rng(1).uniform(0, 1, (16, 16)))
    heat = heatmap(heads.detect)
    assert heat.shape == (16, 16)
    assert heat.min() >= 0.0
    cell_sums = heat.reshape(2, 8, 2, 8).sum(axis=(1, 3))
    assert np.all(cell_sums <= 1.0 + 1e-12)  # dustbin holds the remainder
    desc = densify(heads.describe.data, *_all_pixels(heads.describe.data))
    assert desc.shape == (256, 2)
    np.testing.assert_allclose(np.linalg.norm(desc, axis=1), 1.0, atol=1e-9)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_heatmap_equals_densify_heatmap(dtype):
    # heatmap against a per-pixel oracle of the dense decoding: pixel
    # (8i + r, 8j + c) holds the softmax mass of channel 8r + c of cell (i, j)
    params = init_params(toy_architecture(), seed=4, dtype=dtype)
    heads = forward(params, rng(4).uniform(0, 1, (16, 24)).astype(dtype))
    heat = heatmap(heads.detect)
    assert heat.dtype == dtype and heat.shape == (16, 24)
    logits = heads.detect.data.astype(np.float64)
    want = np.zeros((16, 24))
    for y in range(16):
        for x in range(24):
            cell = logits[y // 8, x // 8]
            p = np.exp(cell - cell.max())
            want[y, x] = p[(y % 8) * 8 + x % 8] / p.sum()
    tol = 1e-12 if dtype == np.float64 else 1e-6
    np.testing.assert_allclose(heat, want, rtol=tol, atol=tol)


def _cubic(d):
    d = abs(d)
    if d <= 1.0:
        return ((1.5 * d - 2.5) * d) * d + 1.0
    if d < 2.0:
        return (((-0.5 * d + 2.5) * d) - 4.0) * d + 2.0
    return 0.0


def test_densify_matches_per_pixel_bicubic_oracle():
    x = rng(13).uniform(-1, 1, (3, 4, 2))
    got = densify(x, *_all_pixels(x)).reshape(24, 32, 2)
    h, w, c = x.shape
    want = np.zeros((h * 8, w * 8, c))
    for oy in range(h * 8):
        sy = (oy + 0.5) / 8 - 0.5
        by = math.floor(sy)
        for ox in range(w * 8):
            sx = (ox + 0.5) / 8 - 0.5
            bx = math.floor(sx)
            for ch in range(c):
                acc = 0.0
                for dy in (-1, 0, 1, 2):
                    iy = min(max(by + dy, 0), h - 1)
                    wy = _cubic(sy - by - dy)
                    for dx in (-1, 0, 1, 2):
                        ix = min(max(bx + dx, 0), w - 1)
                        acc += wy * _cubic(sx - bx - dx) * x[iy, ix, ch]
                want[oy, ox, ch] = acc
    want /= np.linalg.norm(want, axis=2, keepdims=True)
    assert got.shape == want.shape and got.dtype == np.float64
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_densify_preserves_constants():
    v = np.array([0.37, -0.2, 0.5])
    x = np.broadcast_to(v, (2, 3, 3)).copy()
    got = densify(x, *_all_pixels(x))
    assert got.shape == (16 * 24, 3)
    np.testing.assert_allclose(got, np.broadcast_to(v / np.linalg.norm(v), got.shape), atol=1e-12)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_densify_unit_norms_and_zero_stays_zero(dtype):
    x = rng(14).uniform(0.2, 1.0, (2, 3, 5)).astype(dtype)
    got = densify(x, *_all_pixels(x))
    assert got.dtype == dtype and got.shape == (16 * 24, 5) and got.flags.c_contiguous
    tol = 1e-12 if dtype == np.float64 else 1e-6
    np.testing.assert_allclose(np.linalg.norm(got.astype(np.float64), axis=1), 1.0, atol=tol)
    zero = np.zeros((2, 3, 4), dtype=dtype)
    assert np.all(densify(zero, *_all_pixels(zero)) == 0.0)
    # below the norm floor a vector is divided by the floor, not by its norm
    tiny = np.full((1, 1, 3), 1e-14)
    np.testing.assert_allclose(densify(tiny, *_all_pixels(tiny)), 1e-2, rtol=1e-9)
    assert densify(x, [], []).shape == (0, 5)
    with pytest.raises(ValueError, match="Hc x Wc x D"):
        densify(np.zeros((2, 3)), [0], [0])
    for ys, xs in (([16], [0]), ([0], [24]), ([-1], [0]), ([0], [-1])):
        with pytest.raises(ValueError, match="outside the 16x24 map"):
            densify(x, ys, xs)
    with pytest.raises(ValueError, match="equal-length"):
        densify(x, [0, 1], [0])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
# (1, 1): an 8 x 8 frame, where einsum's upsample is channel-contiguous
@pytest.mark.parametrize("hc, wc, d", [(10, 12, 33), (15, 20, 256), (1, 1, 16), (1, 1, 256)])
def test_densify_equals_dense_map_oracle(hc, wc, d, dtype):
    # densify normalises only the gathered vectors; every byte must equal the
    # whole normalised map read at the same pixels.
    r = rng(15)
    x = r.standard_normal((hc, wc, d)).astype(dtype)
    h, w = hc * 8, wc * 8
    corners = hc >= 8 and wc >= 8
    if corners:
        x[:4, :4] = 0.0  # a corner of zero cells: upsampled vectors there are exactly zero
        x[-4:, -4:] = 1e-14  # norms below the 1e-12 floor
    picks = r.choice(h * w, min(600, h * w), replace=False)
    border = np.concatenate([np.arange(w), np.arange(w) + (h - 1) * w,
                             np.arange(h) * w, np.arange(h) * w + w - 1])  # edge-clamped taps
    special = np.array([4 * w + 4, (h - 5) * w + w - 5] if corners else [], int)  # inside the corners
    idx = np.concatenate([picks, border, special])
    ys, xs = idx // w, idx % w
    got = densify(x, ys, xs)
    want = dense_densify(x, ys, xs)
    if corners:
        assert np.all(want[-2] == 0.0)
        assert 0.0 < np.linalg.norm(want[-1].astype(np.float64)) < 1.0  # divided by the floor
    assert got.dtype == want.dtype == dtype and got.shape == (idx.size, d)
    np.testing.assert_array_equal(got.view(f"u{got.itemsize}"), want.view(f"u{want.itemsize}"))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("channels", [1, 4])  # one channel per block; 4 leaves a 1-channel block of 33
# the width pass first; the height pass first; a square grid, where einsum copies the second operand
@pytest.mark.parametrize("hc, wc", [(10, 12), (12, 10), (11, 11)])
def test_densify_channel_block_seams_keep_the_bytes(monkeypatch, hc, wc, channels, dtype):
    r = rng(16)
    x = r.standard_normal((hc, wc, 33)).astype(dtype)
    h, w = hc * 8, wc * 8
    monkeypatch.setattr(network, "_UPSAMPLE_ELEMENTS", channels * h * w)
    idx = r.choice(h * w, 2000, replace=False)
    ys, xs = idx // w, idx % w
    got = densify(x, ys, xs)
    want = dense_densify(x, ys, xs)
    assert got.dtype == want.dtype == dtype
    np.testing.assert_array_equal(got.view(f"u{got.itemsize}"), want.view(f"u{want.itemsize}"))


def test_densify_never_holds_the_dense_map():
    # the whole 240 x 320 x 256 f32 upsample is 79 MB (the dense path peaks at 99 MB)
    r = rng(17)
    x = r.standard_normal((30, 40, 256)).astype(np.float32)
    idx = r.choice(240 * 320, 10000, replace=False)
    tracemalloc.start()
    try:
        got = densify(x, idx // 320, idx % 320)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.shape == (10000, 256)
    assert peak < 60e6, f"peak {peak / 1e6:.1f} MB"


_BAD_TENSORS = {
    "kernel shape": (lambda t: {**t, "enc1_c0.kernel": Tensor(np.zeros((3, 3, 2, 9)))},
                     r"layer enc1_c0: kernel shape \(3, 3, 2, 9\), expected \(3, 3, 2, 2\)"),
    "bias shape": (lambda t: {**t, "det_b.bias": Tensor(np.zeros(3))},
                   r"layer det_b: bias shape \(3,\), expected \(65,\)"),
    "missing bias": (lambda t: {k: v for k, v in t.items() if k != "desc_a.bias"},
                     "layer desc_a: missing bias"),
    "missing layer": (lambda t: {k: v for k, v in t.items() if not k.startswith("enc3_c1.")},
                      "layer enc3_c1: missing kernel"),
    "extra tensor": (lambda t: {**t, "enc3_c2.kernel": t["enc3_c1.kernel"]}, r"\['enc3_c2.kernel'\]"),
}


@pytest.mark.parametrize("case", list(_BAD_TENSORS))
def test_params_are_checked_when_built(case):
    params = init_params(toy_architecture(), seed=0)
    edit, message = _BAD_TENSORS[case]
    with pytest.raises(WeightsError, match=message):
        NetworkParams(params.architecture, edit(params.tensors))


def test_params_keep_layer_plan_order():
    params = init_params(toy_architecture(), seed=0)
    labels = [f"{name}.{kind}" for name, *_ in toy_architecture().layer_plan() for kind in ("kernel", "bias")]
    assert list(params.tensors) == labels
    shuffled = NetworkParams(params.architecture, dict(reversed(list(params.tensors.items()))))
    assert list(shuffled.tensors) == labels
    assert all(shuffled.tensors[label] is params.tensors[label] for label in labels)


def test_init_params_float32_is_cast_of_float64():
    params = init_params(toy_architecture(), seed=0, dtype=np.float64)
    assert params.dtype() == np.float64
    p32 = init_params(toy_architecture(), seed=0, dtype=np.float32)
    assert p32.dtype() == np.float32
    for t64, t32 in zip(params.tensors.values(), p32.tensors.values()):
        np.testing.assert_array_equal(t32.data, t64.data.astype(np.float32))


# ---------------------------------------------------------------------------
# weights files
# ---------------------------------------------------------------------------


def test_weights_round_trip_bit_exact(tmp_path):
    params = init_params(toy_architecture(), seed=7, dtype=np.float32)
    path = tmp_path / "net.weights"
    save_weights(params, path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["net.weights"]  # no temp file left
    with np.load(path) as archive:  # the documented layout: one f32 array per param label
        assert archive.files == list(params.tensors)
        assert all(archive[k].dtype == np.float32 for k in archive.files)
    loaded = load_weights(path)
    assert loaded.architecture == params.architecture
    for (la, ta), (lb, tb) in zip(params.tensors.items(), loaded.tensors.items()):
        assert la == lb
        assert tb.dtype == np.float32
        np.testing.assert_array_equal(ta.data, tb.data)


def test_weights_round_trip_quantizes_doubles(tmp_path):
    params = init_params(toy_architecture(), seed=7, dtype=np.float64)
    path = tmp_path / "net.weights"
    save_weights(params, path)
    loaded = load_weights(path)
    for t64, t32 in zip(params.tensors.values(), loaded.tensors.values()):
        np.testing.assert_array_equal(t32.data, t64.data.astype(np.float32))


def _toy_entries(seed=0):
    params = init_params(toy_architecture(), seed=seed)
    return {label: t.data.astype(np.float32) for label, t in params.tensors.items()}


def _write(path, entries):
    write_archive(path, {k: v for k, v in entries.items() if v is not None})


def test_entries_load_in_layer_plan_order(tmp_path):
    entries = _toy_entries(seed=3)
    path = tmp_path / "net.weights"
    _write(path, dict(reversed(list(entries.items()))))
    loaded = load_weights(path)
    assert list(loaded.tensors) == list(entries)
    for label, t in loaded.tensors.items():
        np.testing.assert_array_equal(t.data, entries[label])


def test_truncated_file(tmp_path):
    path = tmp_path / "net.weights"
    save_weights(init_params(toy_architecture(), seed=0), path)
    blob = path.read_bytes()
    for cut in (0, 2, 10, len(blob) // 2, len(blob) - 3):
        path.write_bytes(blob[:cut])
        with pytest.raises(WeightsError, match="net.weights"):
            load_weights(path)


def _npy_bytes(array) -> bytes:
    buffer = io.BytesIO()
    np.save(buffer, array)
    return buffer.getvalue()


_KERNEL = "enc1_c0.kernel"


def _oversize_kernel(e) -> bytes:
    # a valid .npy header declaring 8 TiB of float32 over the real 24 bytes
    npy = io.BytesIO()
    header = {"descr": "<f4", "fortran_order": False, "shape": (1 << 20, 1 << 20, 1, 2)}
    np.lib.format.write_array_header_1_0(npy, header)
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w") as archive:
        archive.writestr(f"{_KERNEL}.npy", npy.getvalue() + e[_KERNEL].tobytes())
    return buffer.getvalue()


def _savez_bytes(entries, savez=np.savez) -> bytes:
    buffer = io.BytesIO()
    savez(buffer, **entries)
    return buffer.getvalue()


def _encrypted_flag(e) -> bytes:
    blob = bytearray(_savez_bytes(e))
    blob[blob.index(b"PK\x01\x02") + 8] |= 0x01  # first central-directory entry
    return bytes(blob)


# each case: (entries -> file bytes, or entries -> edited entries), expected message
_BAD_WEIGHTS = {
    "empty": (lambda e: b"", "net.weights"),
    "not a zip": (lambda e: b"SPWT" + bytes(64), "net.weights"),
    "bare npy": (lambda e: _npy_bytes(e[_KERNEL]), "not an np.savez archive"),
    "oversize shape": (_oversize_kernel, "net.weights"),
    "encrypted flag": (_encrypted_flag, "is compressed or encrypted"),
    "compressed": (lambda e: _savez_bytes(e, np.savez_compressed), "is compressed or encrypted"),
    "object entry": (lambda e: {**e, _KERNEL: e[_KERNEL].astype(object)}, "net.weights"),
    "unknown entry": (lambda e: {**e, "notes": np.zeros(1, np.float32)}, "unknown entry 'notes'"),
    "extra layer": (
        lambda e: {**e, "enc0_c9.kernel": e["enc0_c1.kernel"], "enc0_c9.bias": e["enc0_c1.bias"]},
        "enc0_c9",
    ),
    "bias without kernel": (lambda e: {**e, "enc2_c5.bias": e["enc2_c0.bias"]}, "enc2_c5"),
    "kernel rank": (lambda e: {**e, _KERNEL: e[_KERNEL][0]}, "enc1_c0: kernel rank 3"),
    "float64 entry": (lambda e: {**e, _KERNEL: e[_KERNEL].astype(np.float64)}, "enc1_c0: kernel dtype float64"),
    "int entry": (lambda e: {**e, "enc1_c0.bias": e["enc1_c0.bias"].astype(np.int32)}, "enc1_c0: bias dtype int32"),
    "missing head": (lambda e: {**e, "desc_b.kernel": None, "desc_b.bias": None}, "missing layer desc_b"),
    "missing det_b": (lambda e: {**e, "det_b.kernel": None, "det_b.bias": None}, "layer det_b: missing kernel"),
    "kernel without bias": (lambda e: {**e, "enc0_c0.bias": None}, "layer enc0_c0: missing bias"),
    "bias length": (lambda e: {**e, "enc0_c0.bias": np.zeros(5, np.float32)},
                    r"layer enc0_c0: bias shape \(5,\), expected \(2,\)"),
    "rank-2 bias": (lambda e: {**e, "enc1_c0.bias": e["enc1_c0.bias"][None]},
                    r"layer enc1_c0: bias shape \(1, 2\), expected \(2,\)"),
    # Architecture's ValueError, re-raised naming the file
    "zero width": (lambda e: {**e, "enc0_c0.kernel": np.zeros((3, 3, 1, 0), np.float32),
                              "enc0_c0.bias": np.zeros(0, np.float32)}, "net.weights: channel widths must be positive"),
    "empty stage": (lambda e: {**e, "enc2_c0.kernel": None, "enc2_c0.bias": None, "enc2_c1.kernel": None,
                               "enc2_c1.bias": None}, "net.weights: encoder needs exactly 4 non-empty stages"),
    # a stage is read up to its first missing index, so the rest is extra
    "encoder gap": (lambda e: {**e, "enc0_c1.kernel": None, "enc0_c1.bias": None,
                               "enc0_c2.kernel": e["enc0_c1.kernel"], "enc0_c2.bias": e["enc0_c1.bias"]},
                    r"\['enc0_c2.bias', 'enc0_c2.kernel'\] are not in the architecture"),
    "stage index 4": (lambda e: {**e, "enc4_c0.kernel": e["enc3_c0.kernel"], "enc4_c0.bias": e["enc3_c0.bias"]},
                      r"\['enc4_c0.bias', 'enc4_c0.kernel'\] are not in the architecture"),
    "non-numeric encoder": (lambda e: {**e, "enc0_cx.kernel": e["enc0_c1.kernel"], "enc0_cx.bias": e["enc0_c1.bias"]},
                            r"\['enc0_cx.bias', 'enc0_cx.kernel'\] are not in the architecture"),
}


@pytest.mark.parametrize("case", list(_BAD_WEIGHTS))
def test_malformed_weights_are_typed(tmp_path, case):
    build, message = _BAD_WEIGHTS[case]
    path = tmp_path / "net.weights"
    bad = build(_toy_entries())
    if isinstance(bad, bytes):
        path.write_bytes(bad)
    else:
        _write(path, bad)
    with pytest.raises(WeightsError, match=message):
        load_weights(path)


@pytest.fixture(scope="module")
def toy_weights_blob(tmp_path_factory):
    path = tmp_path_factory.mktemp("weights") / "toy.weights"
    save_weights(init_params(toy_architecture(), seed=0), path)
    return path.read_bytes()


@settings(deadline=None, max_examples=150)
@given(data=st.data())
def test_load_weights_fuzz_raises_only_typed_errors(toy_weights_blob, tmp_path_factory, data):
    # a damaged archive either fails with WeightsError or loads exactly the saved params
    blob = data.draw(st.one_of(st.binary(max_size=256), damaged(toy_weights_blob)))
    path = tmp_path_factory.getbasetemp() / "fuzz.weights"
    path.write_bytes(blob)
    try:
        loaded = load_weights(path)
    except WeightsError:
        return
    want = _toy_entries()
    assert list(loaded.tensors) == list(want)
    for label, t in loaded.tensors.items():
        assert t.dtype == np.float32
        np.testing.assert_array_equal(t.data, want[label])


def test_inferred_architecture_runs_forward(tmp_path):
    arch = Architecture(encoder_stages=((2,), (3,), (4,), (5,)), head_width=6, descriptor_dim=4)
    path = tmp_path / "net.weights"
    save_weights(init_params(arch, seed=2), path)
    loaded = load_weights(path)
    assert loaded.architecture == arch
    heads = forward(loaded, rng(2).uniform(0, 1, (16, 16)).astype(np.float32))
    assert heads.detect.shape == (2, 2, 65)
    assert heads.describe.shape == (2, 2, 4)
