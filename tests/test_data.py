"""Frame IO, specular masks, pseudo-label generation and caching."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from endofeat import data, network
from endofeat.data import (
    FrameError,
    PseudoLabel,
    frame_name,
    generate_pseudolabels,
    label_path,
    list_frames,
    load_label,
    read_frame,
    read_pgm,
    save_label,
    specularity_mask,
    warp_label,
    write_pgm,
)
from endofeat.matching import extract_keypoints
from endofeat.network import init_params

from helpers import rng, text_file_bytes, toy_architecture


def test_pgm_round_trip_8bit(tmp_path):
    img = rng(1).uniform(0, 1, (7, 9))
    path = tmp_path / "a.pgm"
    write_pgm(path, img, maxval=255)
    back = read_pgm(path)
    assert back.shape == (7, 9)
    np.testing.assert_allclose(back, np.rint(img * 255) / 255, atol=1e-12)


def test_pgm_round_trip_16bit(tmp_path):
    img = rng(2).uniform(0, 1, (5, 4))
    path = tmp_path / "a.pgm"
    write_pgm(path, img, maxval=65535)
    back = read_pgm(path)
    np.testing.assert_allclose(back, np.rint(img * 65535) / 65535, atol=1e-12)


def test_pgm_header_comments(tmp_path):
    payload = bytes(range(6))
    blob = b"P5\n# a comment\n3 # inline\n2\n255\n" + payload
    path = tmp_path / "c.pgm"
    path.write_bytes(blob)
    img = read_pgm(path)
    np.testing.assert_allclose(img, np.arange(6).reshape(2, 3) / 255)


def test_pgm_rejects_bad_files(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P6\n2 2\n255\n" + b"\x00" * 12)
    with pytest.raises(FrameError, match="P5"):
        read_pgm(path)
    path.write_bytes(b"P5\n2 2\n255\n\x00\x00")
    with pytest.raises(FrameError, match="truncated"):
        read_pgm(path)
    path.write_bytes(b"P5\n1 1\n7\n\x08")
    with pytest.raises(FrameError, match="above maxval 7"):
        read_pgm(path)


_PGM_HEADER = st.builds(
    lambda magic, w, h, maxval, sep: magic + sep + f"{w} {h}{sep.decode()}{maxval}".encode() + b"\n",
    st.sampled_from([b"P5", b"P5", b"P5", b"P6", b""]),
    st.one_of(st.integers(0, 4), st.sampled_from([-1, "x", "1e3"])),
    st.integers(0, 4),
    st.sampled_from([1, 7, 255, 256, 1000, 65535, 0, 65536]),
    st.sampled_from([b" ", b"\n", b"\n# comment\n", b"\t"]),
)


@settings(deadline=None, max_examples=400)
@given(blob=st.one_of(st.binary(max_size=64), st.tuples(_PGM_HEADER, st.binary(max_size=64)).map(b"".join)))
@example(blob=b"P5 1 1 1\n\x05")  # a pixel above maxval
def test_read_pgm_fuzz_unit_image_or_frame_error(tmp_path_factory, blob):
    path = tmp_path_factory.getbasetemp() / "fuzz.pgm"
    path.write_bytes(blob)
    try:
        img = read_pgm(path)
    except FrameError:
        return
    assert img.ndim == 2 and img.dtype == np.float64 and img.size > 0
    assert img.min() >= 0.0 and img.max() <= 1.0


def test_list_and_ingest_frames(tmp_path):
    img = rng(3).uniform(0, 1, (8, 8))
    for fid in (2, 0, 5):
        write_pgm(tmp_path / frame_name(fid), img)
    (tmp_path / "notes.txt").write_text("ignored")
    frames = list_frames(tmp_path)
    assert [f[0] for f in frames] == [0, 2, 5]

    # train and eval ingest a directory as read_frame over this list
    for _, path in frames:
        np.testing.assert_array_equal(read_frame(path), read_pgm(tmp_path / frame_name(0)))


def test_read_frame_errors_name_the_file(tmp_path):
    path = tmp_path / frame_name(3)
    with pytest.raises(FrameError, match=re.escape(f"{path}: unreadable")):
        read_frame(path)  # the OSError of a missing file becomes a FrameError
    write_pgm(path, np.zeros((8, 8)))
    with pytest.raises(FrameError, match=re.escape(f"{path}: mask size (4, 8)")):
        read_frame(path, np.ones((4, 8), dtype=bool))
    np.testing.assert_array_equal(read_frame(path, np.ones((8, 8), dtype=bool)), 0.0)


def test_specularity_mask_is_strict():
    img = np.array([[0.699, 0.7], [0.7000001, 1.0]])
    np.testing.assert_array_equal(specularity_mask(img), [[False, False], [True, True]])


def test_pseudolabel_shape_validation():
    with pytest.raises(ValueError):
        PseudoLabel(np.zeros((3, 2)), np.zeros(2))
    label = PseudoLabel(np.array([[1, 2], [3, 4]]), np.array([0.5, 0.25]))
    assert len(label) == 2 and label.points.dtype == np.int64


def test_generate_pseudolabels_properties():
    params = init_params(toy_architecture(), seed=9)
    img = rng(9).uniform(0, 0.6, (32, 32))
    label = generate_pseudolabels(params, img, threshold=1e-4, nms_window=9, max_points=10)
    assert 0 < len(label) <= 10
    assert np.all(np.diff(label.scores) <= 0)  # descending
    assert np.all(label.scores >= 1e-4)
    # pairwise Chebyshev distance at least 5 with a 9x9 window
    pts = label.points
    for i in range(len(label)):
        for j in range(i + 1, len(label)):
            assert np.abs(pts[i] - pts[j]).max() >= 5

    again = generate_pseudolabels(params, img, threshold=1e-4, nms_window=9, max_points=10)
    np.testing.assert_array_equal(label.points, again.points)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_generate_pseudolabels_equals_densify_path(dtype):
    # The labels only need the detection head; the detect command decodes
    # the descriptor head too (densify) and must find the same points.
    params = init_params(toy_architecture(), seed=12, dtype=dtype)
    img = rng(12).uniform(0, 0.8, (32, 40))
    mask = np.ones((32, 40), dtype=bool)
    mask[:4] = False
    label = generate_pseudolabels(params, img, mask, threshold=1e-4, nms_window=5, max_points=30)

    heads = network.forward(params, img)
    kp, _ = extract_keypoints(
        network.heatmap(heads.detect), heads.describe.data, mask, 1e-4, 5, 30
    )
    assert len(label) > 0
    np.testing.assert_array_equal(label.points, kp.points)
    np.testing.assert_array_equal(label.scores, kp.scores)


def test_generate_pseudolabels_respects_mask():
    params = init_params(toy_architecture(), seed=9)
    img = rng(10).uniform(0, 0.6, (32, 32))
    mask = np.zeros((32, 32), dtype=bool)
    mask[:, 16:] = True
    label = generate_pseudolabels(params, img, mask, threshold=1e-4)
    assert len(label) > 0
    assert np.all(label.points[:, 0] >= 16)


def test_warp_label_identity_and_bounds():
    label = PseudoLabel(np.array([[2, 3], [9, 9]]), np.array([0.9, 0.8]))
    same = warp_label(label, np.eye(3), 10, 10)
    np.testing.assert_array_equal(same.points, label.points)

    shift = np.array([[1.0, 0, 3], [0, 1, 0], [0, 0, 1]])
    out = warp_label(label, shift, 10, 10)  # second point exits the frame
    np.testing.assert_array_equal(out.points, [[5, 3]])


def test_warp_label_collision_keeps_higher_score():
    label = PseudoLabel(np.array([[0, 0], [1, 0], [5, 5]]), np.array([0.3, 0.9, 0.5]))
    squash = np.array([[0.2, 0, 0], [0, 1.0, 0], [0, 0, 1.0]])  # x collapses to 0
    out = warp_label(label, squash, 8, 8)
    np.testing.assert_array_equal(out.points, [[0, 0], [1, 5]])
    np.testing.assert_array_equal(out.scores, [0.9, 0.5])


def test_label_cache_round_trip(tmp_path):
    label = PseudoLabel(
        np.array([[3, 4], [1, 2]]), np.array([0.123456789012345678, 3.5e-7])
    )
    path = label_path(tmp_path, 12)
    assert path.endswith("frame_000012.txt")
    save_label(path, label)
    back = load_label(path)
    np.testing.assert_array_equal(back.points, label.points)
    np.testing.assert_array_equal(back.scores, label.scores)  # exact text round-trip

    empty = PseudoLabel(np.empty((0, 2)), np.empty(0))
    save_label(path, empty)
    assert len(load_label(path)) == 0


@pytest.mark.parametrize(
    "line",
    ["1 2 nan", "1 2 inf", "1 2 -1e999", "1 2", "1.5 2 0.3", "1 2 x", f"1 {2**63} 0.3"],
)
def test_load_label_names_line_of_bad_value(tmp_path, line):
    path = tmp_path / "frame_000001.txt"
    path.write_text(f"3 4 0.5\n\n{line}\n")
    with pytest.raises(ValueError, match=r"frame_000001\.txt:3: "):
        load_label(path)


_COORD = st.one_of(
    st.integers(-3, 70).map(str),
    st.sampled_from([str(2**63), str(-(2**63) - 1), "1.5", "nan", "1e3"]),
)
_NUMBER = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["nan", "-inf", "1e999", "-0", "1e-320", "1e160"]),
    st.integers(-3, 3).map(str),
)


@settings(deadline=None, max_examples=200)
@given(
    blob=text_file_bytes(
        st.lists(
            st.one_of(st.tuples(_COORD, _COORD, _NUMBER).map(" ".join), st.text(max_size=30)),
            min_size=1,
            max_size=4,
        ).map("\n".join)
    )
)
@example(blob=b"1 2 0.5\n\xff\n")
def test_load_label_fuzz_finite_or_value_error(tmp_path_factory, blob):
    path = tmp_path_factory.getbasetemp() / "fuzz_label.txt"
    path.write_bytes(blob)
    try:
        label = load_label(path)
    except ValueError as exc:
        assert str(path) in str(exc)
        return
    assert label.points.dtype == np.int64 and np.isfinite(label.scores).all()
