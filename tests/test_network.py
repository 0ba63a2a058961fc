"""Network layout, forward contract, and the weights file format."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from endofeat import network
from endofeat.network import (
    Architecture,
    NetworkParams,
    WeightsShapeError,
    WeightsTruncatedError,
    WeightsVersionError,
    densify,
    forward,
    heatmap,
    init_params,
    load_weights,
    save_weights,
)
from endofeat.tensor import Tensor

from helpers import damaged, rng, toy_architecture


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
    for (la, ta), (lb, tb) in zip(a.param_tensors(), b.param_tensors()):
        assert la == lb
        np.testing.assert_array_equal(ta.data, tb.data)
    assert any(
        not np.array_equal(ta.data, tc.data)
        for (_, ta), (_, tc) in zip(a.param_tensors(), c.param_tensors())
    )
    for name, k, cin, cout in arch.layer_plan():
        kernel, bias = a.weights[name]
        limit = np.sqrt(6.0 / (k * k * cin))
        assert np.abs(kernel.data).max() <= limit
        assert np.all(bias.data == 0.0)


def test_forward_shapes_and_validation():
    arch = toy_architecture()
    params = init_params(arch, seed=0)
    img = rng(0).uniform(0, 1, (16, 24))
    heads = forward(params, Tensor(img))
    assert heads.detect.shape == (2, 3, 65)
    assert heads.describe.shape == (2, 3, arch.descriptor_dim)

    with pytest.raises(ValueError):
        forward(params, Tensor(img[:15]))  # not divisible by 8
    with pytest.raises(ValueError):
        forward(params, Tensor(img[None]))  # not 2-D
    with pytest.raises(ValueError):
        forward(params, Tensor(img + 1.0))  # out of [0, 1]


def test_densify_heatmap_is_cellwise_probability():
    params = init_params(toy_architecture(), seed=1)
    img = rng(1).uniform(0, 1, (16, 16))
    dense = densify(forward(params, Tensor(img)))
    heat = np.asarray(dense.heatmap.data)
    assert heat.shape == (16, 16)
    assert heat.min() >= 0.0
    cell_sums = heat.reshape(2, 8, 2, 8).sum(axis=(1, 3))
    assert np.all(cell_sums <= 1.0 + 1e-12)  # dustbin holds the remainder
    desc = np.asarray(dense.descriptors.data)
    assert desc.shape == (16, 16, 2)
    np.testing.assert_allclose(np.linalg.norm(desc, axis=2), 1.0, atol=1e-9)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_heatmap_equals_densify_heatmap(dtype):
    params = init_params(toy_architecture(), seed=4, dtype=dtype)
    heads = forward(params, Tensor(rng(4).uniform(0, 1, (16, 24)).astype(dtype)))
    heat = heatmap(heads.detect)
    assert heat.dtype == dtype and heat.shape == (16, 24)
    np.testing.assert_array_equal(heat.data, densify(heads).heatmap.data)
    with pytest.raises(ValueError, match="65"):
        heatmap(Tensor(np.zeros((2, 2, 64))))


def test_validate_names_bad_layer():
    params = init_params(toy_architecture(), seed=0)
    kernel, bias = params.weights["enc1_c0"]
    params.weights["enc1_c0"] = (Tensor(np.zeros((3, 3, 2, 9))), bias)
    with pytest.raises(WeightsShapeError, match="enc1_c0"):
        params.validate()


def test_dtype_round_trip():
    params = init_params(toy_architecture(), seed=0, dtype=np.float64)
    assert params.dtype() == np.float64
    p32 = params.as_dtype(np.float32)
    assert p32.dtype() == np.float32
    for (_, t64), (_, t32) in zip(params.param_tensors(), p32.param_tensors()):
        np.testing.assert_array_equal(t32.data, t64.data.astype(np.float32))


# ---------------------------------------------------------------------------
# weights files
# ---------------------------------------------------------------------------


def test_weights_round_trip_bit_exact(tmp_path):
    params = init_params(toy_architecture(), seed=7, dtype=np.float32)
    path = tmp_path / "net.weights"
    save_weights(params, path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["net.weights"]  # no temp file left
    loaded = load_weights(path)
    assert loaded.architecture == params.architecture
    for (la, ta), (lb, tb) in zip(params.param_tensors(), loaded.param_tensors()):
        assert la == lb
        assert tb.dtype == np.float32
        np.testing.assert_array_equal(ta.data, tb.data)


def test_weights_round_trip_quantizes_doubles(tmp_path):
    params = init_params(toy_architecture(), seed=7, dtype=np.float64)
    path = tmp_path / "net.weights"
    save_weights(params, path)
    loaded = load_weights(path)
    for (_, t64), (_, t32) in zip(params.param_tensors(), loaded.param_tensors()):
        np.testing.assert_array_equal(t32.data, t64.data.astype(np.float32))


def test_load_with_matching_and_mismatching_architecture(tmp_path):
    arch = toy_architecture()
    path = tmp_path / "net.weights"
    save_weights(init_params(arch, seed=0), path)
    assert load_weights(path, arch).architecture == arch
    other = Architecture(encoder_stages=((3, 3), (3, 3), (3, 3), (3, 3)), head_width=3, descriptor_dim=2)
    with pytest.raises(WeightsShapeError):
        load_weights(path, other)


def test_bad_magic_and_version(tmp_path):
    path = tmp_path / "net.weights"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(WeightsVersionError, match="magic"):
        load_weights(path)
    path.write_bytes(b"SPWT" + struct.pack("<II", 9, 0))
    with pytest.raises(WeightsVersionError, match="version 9"):
        load_weights(path)


def test_truncated_file(tmp_path):
    params = init_params(toy_architecture(), seed=0)
    path = tmp_path / "net.weights"
    save_weights(params, path)
    blob = path.read_bytes()
    for cut in (2, 10, len(blob) // 2, len(blob) - 3):
        path.write_bytes(blob[:cut])
        with pytest.raises((WeightsTruncatedError, WeightsVersionError)):
            load_weights(path)


def _record(name: str, kind: int, arr: np.ndarray) -> bytes:
    nb = name.encode()
    head = struct.pack("<I", len(nb)) + nb + struct.pack("<BB", kind, arr.ndim)
    head += struct.pack(f"<{arr.ndim}I", *arr.shape)
    return head + arr.astype("<f4").tobytes()


def test_undecodable_record_name_is_typed(tmp_path):
    name = b"\xff\xfe"  # not UTF-8
    blob = b"SPWT" + struct.pack("<II", 1, 1) + struct.pack("<I", len(name)) + name
    blob += struct.pack("<BB", 1, 1) + struct.pack("<I", 1) + b"\x00" * 4
    path = tmp_path / "net.weights"
    path.write_bytes(blob)
    with pytest.raises(WeightsVersionError, match="not UTF-8"):
        load_weights(path)


def test_oversize_dims_are_truncation_not_wraparound(tmp_path):
    # 65536**4 elements overflow a 64-bit product to 0; the declared size
    # must still be read as far larger than the file.
    blob = b"SPWT" + struct.pack("<II", 1, 1) + struct.pack("<I", 7) + b"enc0_c0"
    blob += struct.pack("<BB", 0, 4) + struct.pack("<4I", *(65536,) * 4)
    path = tmp_path / "net.weights"
    path.write_bytes(blob)
    with pytest.raises(WeightsTruncatedError):
        load_weights(path)


def test_zero_element_dims_past_size_limit_are_typed(tmp_path):
    # no data to read, but numpy cannot represent the declared shape
    blob = b"SPWT" + struct.pack("<II", 1, 1) + struct.pack("<I", 7) + b"enc0_c0"
    blob += struct.pack("<BB", 0, 4) + struct.pack("<4I", 0, *(2**32 - 1,) * 3)
    path = tmp_path / "net.weights"
    path.write_bytes(blob)
    with pytest.raises(WeightsShapeError, match="enc0_c0"):
        load_weights(path)


def test_kernel_without_bias_rejected(tmp_path):
    blob = b"SPWT" + struct.pack("<II", 1, 1)
    blob += _record("enc0_c0", 0, np.zeros((3, 3, 1, 2), dtype=np.float32))
    path = tmp_path / "net.weights"
    path.write_bytes(blob)
    with pytest.raises(WeightsShapeError, match="kernel without bias"):
        load_weights(path)


def test_bias_length_mismatch_rejected(tmp_path):
    blob = b"SPWT" + struct.pack("<II", 1, 2)
    blob += _record("enc0_c0", 0, np.zeros((3, 3, 1, 2), dtype=np.float32))
    blob += _record("enc0_c0", 1, np.zeros(5, dtype=np.float32))
    path = tmp_path / "net.weights"
    path.write_bytes(blob)
    with pytest.raises(WeightsShapeError, match="bias length"):
        load_weights(path)


def test_zero_width_layer_is_typed(tmp_path):
    # Architecture rejects a zero channel width with a bare ValueError; the
    # loader must report the layer with its own error before that.
    params = init_params(toy_architecture(), seed=0)
    blob = b"SPWT" + struct.pack("<II", 1, 2 * len(params.weights))
    for name, (kernel, bias) in params.weights.items():
        if name == "enc0_c0":
            kernel, bias = Tensor(np.zeros((3, 3, 1, 0))), Tensor(np.zeros(0))
        blob += _record(name, 0, kernel.data) + _record(name, 1, bias.data)
    path = tmp_path / "net.weights"
    path.write_bytes(blob)
    with pytest.raises(WeightsShapeError, match="enc0_c0"):
        load_weights(path)


_WEIGHTS_ERRORS = (WeightsVersionError, WeightsTruncatedError, WeightsShapeError)
_SPWT_HEADER = b"SPWT" + struct.pack("<I", 1)


@pytest.fixture(scope="module")
def toy_weights_blob(tmp_path_factory):
    path = tmp_path_factory.mktemp("weights") / "toy.weights"
    save_weights(init_params(toy_architecture(), seed=0), path)
    return path.read_bytes()


@settings(deadline=None, max_examples=150)
@given(data=st.data())
def test_load_weights_fuzz_raises_only_typed_errors(toy_weights_blob, tmp_path_factory, data):
    blob = data.draw(
        st.one_of(
            st.binary(max_size=256).map(lambda tail: _SPWT_HEADER + tail),
            damaged(toy_weights_blob),
        )
    )
    path = tmp_path_factory.getbasetemp() / "fuzz.weights"
    path.write_bytes(blob)
    try:
        load_weights(path)
    except _WEIGHTS_ERRORS:
        pass


def test_inferred_architecture_runs_forward(tmp_path):
    arch = Architecture(encoder_stages=((2,), (3,), (4,), (5,)), head_width=6, descriptor_dim=4)
    path = tmp_path / "net.weights"
    save_weights(init_params(arch, seed=2), path)
    loaded = load_weights(path)
    assert loaded.architecture == arch
    heads = forward(loaded, Tensor(rng(2).uniform(0, 1, (16, 16)).astype(np.float32)))
    assert heads.detect.shape == (2, 2, 65)
    assert heads.describe.shape == (2, 2, 4)
