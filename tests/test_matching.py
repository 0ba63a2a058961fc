"""NMS, keypoint extraction, mutual matching, feature files."""

import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from endofeat import matching
from endofeat.matching import (
    METRIC_HAMMING,
    METRIC_L2,
    DescriptorSet,
    KeypointSet,
    MatchSet,
    detect_points,
    extract_keypoints,
    feature_path,
    greedy_nms,
    load_features,
    match_mutual,
    save_features,
)
from helpers import BYTE_EDITS, dense_densify, nms_oracle, overwrite, rng


# --- greedy NMS ------------------------------------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_greedy_nms_matches_oracle(seed):
    r = rng((50, seed))
    scores = r.uniform(0, 1, (17, 23))
    scores[scores < 0.2] = 0.0
    for window, cap in ((3, scores.size), (9, 10), (5, 3)):
        got = greedy_nms(scores, 0.3, window, cap)
        want = nms_oracle(scores, 0.3, window, cap)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)


def test_greedy_nms_ties_row_major():
    scores = np.zeros((9, 9))
    scores[2, 7] = 0.5
    scores[2, 1] = 0.5
    scores[6, 0] = 0.5
    ys, xs, _ = greedy_nms(scores, 0.1, 3, 10)
    np.testing.assert_array_equal(np.stack([ys, xs], 1), [[2, 1], [2, 7], [6, 0]])


def test_greedy_nms_validation_and_empty():
    with pytest.raises(ValueError, match="odd"):
        greedy_nms(np.zeros((4, 4)), 0.1, 4, 1)
    for cap in (0, -3):
        with pytest.raises(ValueError, match="max_points"):
            greedy_nms(np.ones((4, 4)), 0.5, 3, max_points=cap)
    for threshold in (-np.inf, np.inf, np.nan):
        with pytest.raises(ValueError, match="threshold must be finite"):
            greedy_nms(np.ones((4, 4)), threshold, 3, 1)
    ys, xs, vs = greedy_nms(np.zeros((4, 4)), 0.1, 3, 1)
    assert ys.size == xs.size == vs.size == 0


def _assert_nms_equal(got, want):
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)
        assert g.dtype == w.dtype


@settings(deadline=None, max_examples=200)
@given(
    # the map is built from a seed, not drawn pixel by pixel, so a failure
    # shrinks over a handful of choices instead of up to 576 pixels
    seed=st.integers(0, 2**32 - 1),
    height=st.integers(1, 24),
    width=st.integers(1, 24),
    levels=st.integers(1, 9),
    threshold=st.sampled_from([-1.0, 0.0, 0.125, 0.5, 0.875, 1.0, 1.5]),
    window=st.sampled_from([1, 3, 5, 7, 9]),
    cap=st.one_of(st.integers(1, 50), st.just(24 * 24 + 1)),
)
def test_greedy_nms_quantised_maps_match_oracle(seed, height, width, levels, threshold, window, cap):
    # `levels` of the nine 1/8 levels: many tied scores, so the row-major tie order decides
    r = rng(seed)
    scores = r.choice(9, levels, replace=False)[r.integers(0, levels, (height, width))] / 8
    _assert_nms_equal(greedy_nms(scores, threshold, window, cap),
                      nms_oracle(scores, threshold, window, cap))


def _record_paths(monkeypatch):
    """Whether the rounds ran, and how many candidates the serial loop got."""
    seen = {"rounds": False, "serial": 0}
    rounds, serial = matching._rounds, matching._greedy_serial

    def counted_rounds(*args):
        seen["rounds"] = True
        return rounds(*args)

    def counted_serial(flat, *args):
        seen["serial"] = len(flat)
        return serial(flat, *args)

    monkeypatch.setattr(matching, "_rounds", counted_rounds)
    monkeypatch.setattr(matching, "_greedy_serial", counted_serial)
    return seen


def _fixed_nms_maps():
    yy, xx = np.mgrid[0:30, 0:40]
    sparse = np.zeros((30, 40))
    r = rng(54)
    sparse[r.integers(0, 30, 12), r.integers(0, 40, 12)] = r.uniform(0.1, 1.0, 12)
    return {
        "ramp": (yy * 40 + xx) / 1200.0,
        "blob": np.exp(-((yy - 14.5) ** 2 + (xx - 21) ** 2) / (2 * 8.0**2)),
        # like the seeded net's heatmap: every pixel near 1/65, most above the 0.015 threshold
        "flat": rng(53).uniform(0.0148, 0.0160, (30, 40)),
        "sparse": sparse,
    }


# "rounds": the rounds settle every candidate; "both": the serial loop
# finishes after a round keeps too few points (a smooth map's first round
# keeps about one); "serial": a small cap or a sparse map skips the rounds
@pytest.mark.parametrize("name, window, cap, path", [
    ("ramp", 3, 2000, "both"), ("ramp", 3, 40, "both"), ("ramp", 9, 2000, "both"),
    ("ramp", 9, 10, "serial"),
    ("blob", 3, 2000, "both"), ("blob", 3, 40, "both"), ("blob", 9, 2000, "both"),
    ("blob", 9, 10, "serial"),
    ("flat", 3, 2000, "both"), ("flat", 3, 40, "rounds"), ("flat", 1, 2000, "rounds"),
    ("flat", 9, 2000, "both"), ("flat", 9, 10, "serial"),
    ("sparse", 3, 2000, "serial"), ("sparse", 9, 10, "serial"),
])
def test_greedy_nms_round_and_serial_paths_match_oracle(monkeypatch, name, window, cap, path):
    scores = _fixed_nms_maps()[name]
    seen = _record_paths(monkeypatch)
    _assert_nms_equal(greedy_nms(scores, 0.015, window, cap), nms_oracle(scores, 0.015, window, cap))
    candidates = np.count_nonzero(scores >= 0.015)
    if path == "rounds":
        assert seen == {"rounds": True, "serial": 0}
    elif path == "serial":
        assert seen == {"rounds": False, "serial": candidates}
    else:
        assert seen["rounds"] and 0 < seen["serial"] < candidates


def test_greedy_nms_cap_waits_for_better_undecided_ranks():
    # Round 1 keeps ranks 0 and 3 (columns 0 and 5): two points, the cap.
    # Column 2 (rank 2, just below the cap-th kept rank) is undecided until
    # column 1 falls to column 0, then kept in round 2, so the capped list
    # is columns 0 and 2, not 0 and 5.
    scores = np.array([[1.0, 0.9, 0.8, 0, 0, 0.7, 0]])
    ys, xs, vs = greedy_nms(scores, 0.1, 3, 2)
    np.testing.assert_array_equal(xs, [0, 2])
    np.testing.assert_array_equal(vs, [1.0, 0.8])
    _assert_nms_equal((ys, xs, vs), nms_oracle(scores, 0.1, 3, 2))


def test_greedy_nms_serial_finish_counts_only_better_kept_ranks(monkeypatch):
    # Round 1 keeps the ramp's top corner and the isolated, last-ranked
    # island at (0, 0), then hands the ramp to the serial loop. The island
    # ranks below the cap, so the serial loop must keep cap - 1 ramp points.
    yy, xx = np.mgrid[0:30, 0:40]
    scores = (yy * 40 + xx) / 1200.0
    scores[:4, :4] = 0.0
    scores[0, 0] = 0.02
    seen = _record_paths(monkeypatch)
    got = greedy_nms(scores, 0.015, 3, 20)
    assert seen["rounds"] and seen["serial"] > 0
    assert (0, 0) not in zip(got[0].tolist(), got[1].tolist())
    _assert_nms_equal(got, nms_oracle(scores, 0.015, 3, 20))


def test_greedy_nms_rejects_non_2d_scores():
    for shape in ((), (16,), (2, 4, 4)):
        with pytest.raises(ValueError, match=re.escape(f"2-D array, got shape {shape}")):
            greedy_nms(np.ones(shape), 0.5, 3, 4)


# --- extraction ------------------------------------------------------------


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_detect_points_masks_then_suppresses(dtype):
    heat = rng(50).uniform(0, 1, (16, 16)).astype(dtype)
    mask = np.ones((16, 16), dtype=np.uint8)  # any nonzero value keeps a pixel
    mask[5:, :3] = 0
    ys, xs, vals = detect_points(heat, mask, 0.2, 3, 25)
    want = greedy_nms(heat.astype(np.float64) * (mask != 0), 0.2, 3, 25)
    for g, w in zip((ys, xs, vals), want):
        np.testing.assert_array_equal(g, w)
    assert vals.dtype == np.float64 and len(ys) == 25
    assert not np.any((ys >= 5) & (xs < 3))
    unmasked = detect_points(heat, None, 0.2, 3, 25)
    for g, w in zip(unmasked, greedy_nms(heat.astype(np.float64), 0.2, 3, 25)):
        np.testing.assert_array_equal(g, w)


def test_detect_points_mask_holds_at_zero_and_negative_thresholds():
    heat = rng(69).uniform(0, 1, (16, 16))
    heat[::3] = 0.0
    mask = np.zeros((16, 16), bool)
    mask[4:12, 4:12] = True
    for threshold in (0.0, -0.1):
        ys, xs, _ = detect_points(heat, mask, threshold, 3, 256)
        assert len(ys) and mask[ys, xs].all()
        ys, xs, _ = detect_points(heat, mask, threshold, 1, 256)
        assert len(ys) == 64 and mask[ys, xs].all()
    # a positive threshold keeps what the zeroed map gave
    got = detect_points(heat, mask, 0.015, 3, 256)
    for g, w in zip(got, greedy_nms(heat * mask, 0.015, 3, 256)):
        np.testing.assert_array_equal(g, w)


def test_detect_points_rejects_mask_of_another_shape():
    heat = rng(50).uniform(0, 1, (16, 16))
    for shape in ((1, 16), (16, 1), (16, 17), (256,)):
        msg = f"mask shape {shape} differs from heatmap shape (16, 16)"
        with pytest.raises(ValueError, match=re.escape(msg)):
            detect_points(heat, np.ones(shape, bool), 0.2, 3, 25)


def test_extract_keypoints_reads_descriptors_and_mask():
    r = rng(51)
    heat = r.uniform(0, 1, (16, 16))
    cells = r.normal(size=(2, 2, 4))
    mask = np.ones((16, 16), dtype=bool)
    mask[:, 8:] = False
    kp, ds = extract_keypoints(heat, cells, mask, threshold=0.2, nms_window=3)
    assert len(kp) == len(ds) > 0
    assert np.all(kp.points[:, 0] < 8)  # x stays inside the ROI
    for (x, y), row in zip(kp.points, ds.vectors):
        np.testing.assert_array_equal(row, dense_densify(cells, int(y), int(x)))
    assert np.all(np.diff(kp.scores) <= 0)


def test_extract_keypoints_cap():
    heat = rng(52).uniform(0.5, 1.0, (16, 16))
    kp, ds = extract_keypoints(heat, np.zeros((2, 2, 2)), threshold=0.1, nms_window=3,
                               max_features=5)
    assert len(kp) == 5 and len(ds) == 5


# --- mutual matching -------------------------------------------------------


def _direct_sq(a, b):
    """Every direct squared L2 distance, in float64."""
    a = a.astype(np.float64)
    b = b.astype(np.float64)
    dist = np.empty((len(a), len(b)))
    with np.errstate(over="ignore"):  # rows far enough apart have an inf distance
        for lo in range(0, len(a), 16):  # row blocks bound the (rows, nb, D) temporary
            dist[lo : lo + 16] = ((a[lo : lo + 16, None, :] - b[None, :, :]) ** 2).sum(axis=2)
    return dist


def _mutual_oracle(da, db):
    na, nb = len(da), len(db)
    if da.metric == METRIC_HAMMING:
        # only the first `bits` bits of a row count, not the last byte's padding
        a = np.unpackbits(da.vectors, axis=1, count=da.bits)
        b = np.unpackbits(db.vectors, axis=1, count=db.bits)
        dist = np.array([np.count_nonzero(a[i] != b, axis=1) for i in range(na)], np.float64)
        dist = dist.reshape(na, nb)
    else:
        dist = _direct_sq(da.vectors, db.vectors)
    best_b = dist.argmin(axis=1)
    best_a = dist.argmin(axis=0)
    pairs, dists = [], []
    for i in range(na):
        j = best_b[i]
        if best_a[j] == i:
            pairs.append((i, j))
            d = dist[i, j]
            dists.append(np.sqrt(d) if da.metric == METRIC_L2 else d)
    return np.asarray(pairs, np.int64).reshape(-1, 2), np.asarray(dists, np.float64)


@pytest.mark.parametrize("seed", range(6))
def test_match_mutual_l2_matches_oracle(seed):
    r = rng((53, seed))
    # integer-valued descriptors force exact ties
    da = DescriptorSet(r.integers(0, 3, size=(20, 4)).astype(np.float32))
    db = DescriptorSet(r.integers(0, 3, size=(17, 4)).astype(np.float32))
    got = match_mutual(da, db)
    pairs, dists = _mutual_oracle(da, db)
    np.testing.assert_array_equal(got.pairs, pairs)
    np.testing.assert_allclose(got.distances, dists, rtol=0, atol=0)
    assert np.all(np.diff(got.pairs[:, 0]) > 0)  # ascending i


@pytest.mark.parametrize("seed", range(4))
def test_match_mutual_hamming_matches_oracle(seed):
    r = rng((54, seed))
    da = DescriptorSet(r.integers(0, 256, size=(15, 4), dtype=np.uint8), METRIC_HAMMING, bits=32)
    db = DescriptorSet(r.integers(0, 256, size=(12, 4), dtype=np.uint8), METRIC_HAMMING, bits=32)
    got = match_mutual(da, db)
    pairs, dists = _mutual_oracle(da, db)
    np.testing.assert_array_equal(got.pairs, pairs)
    np.testing.assert_array_equal(got.distances, dists)


def test_match_mutual_hamming_ignores_padding_bits():
    # 4-bit descriptors fill the high nibble of their byte; the low nibble is padding
    query = DescriptorSet(np.array([[0b1010_0000]], np.uint8), METRIC_HAMMING, bits=4)
    rows = np.array([[0b1011_0000], [0b1010_1111]], np.uint8)  # 1 bit away; equal, padding set
    got = match_mutual(query, DescriptorSet(rows, METRIC_HAMMING, bits=4))
    np.testing.assert_array_equal(got.pairs, [[0, 1]])
    np.testing.assert_array_equal(got.distances, [0.0])


def _assert_matches_oracle(da, db):
    for x, y in ((da, db), (db, da)):
        got = match_mutual(x, y)
        pairs, dists = _mutual_oracle(x, y)
        np.testing.assert_array_equal(got.pairs, pairs)
        np.testing.assert_array_equal(got.distances, dists)


def _unit_rows(v):
    v = np.asarray(v, np.float32)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _near_tie_sets(r, n_groups=40, copies=4, noise=40, dim=256):
    """A holds quantized unit centres; B holds, per centre, a noisy copy and
    copies of it permuted among the positions where the centre is constant.

    The permuted copies are at exactly the same true distance from their
    centre, so their direct distances differ only by summation-order
    rounding (an ulp or two, or an exact tie), below the Gram error.
    """
    centres = _unit_rows(r.integers(-3, 4, (n_groups, dim)))
    near = []
    for c in centres:
        bj = _unit_rows(c + r.normal(0, 0.05, dim))
        near.append(bj)
        for _ in range(copies - 1):
            perm = np.arange(dim)
            for level in np.unique(c):
                idx = np.flatnonzero(c == level)
                perm[idx] = r.permutation(idx)
            near.append(bj[perm])
    a = np.concatenate([centres, _unit_rows(r.normal(size=(noise, dim)))])
    b = np.concatenate([np.stack(near), _unit_rows(r.normal(size=(noise, dim)))])
    return DescriptorSet(a[r.permutation(len(a))]), DescriptorSet(b[r.permutation(len(b))])


@pytest.mark.parametrize("seed", range(3))
def test_match_mutual_l2_near_ties_match_oracle(seed):
    da, db = _near_tie_sets(rng((57, seed)))
    a = da.vectors.astype(np.float64)
    b = db.vectors.astype(np.float64)
    direct = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
    gram = (a * a).sum(1)[:, None] + (b * b).sum(1)[None, :] - 2.0 * a @ b.T
    # the planted near-duplicates defeat a Gram-only argmin
    assert (gram.argmin(axis=1) != direct.argmin(axis=1)).any()
    _assert_matches_oracle(da, db)


def test_match_mutual_l2_duplicate_rows_tie_to_lowest_index():
    r = rng(58)
    base = _unit_rows(r.normal(size=(30, 64)))
    # exact, non-integer ties: every row appears two or three times on each side
    da = DescriptorSet(base[r.permutation(np.repeat(np.arange(30), 2))])
    db = DescriptorSet(_unit_rows(base + np.float32(0.01))[r.permutation(np.repeat(np.arange(30), 3))])
    _assert_matches_oracle(da, db)
    got = match_mutual(da, db)
    assert len(got) == 30
    for i, j in got.pairs:  # each pair joins the first copy on both sides
        assert i == np.flatnonzero((da.vectors == da.vectors[i]).all(axis=1))[0]
        assert j == np.flatnonzero((db.vectors == db.vectors[j]).all(axis=1))[0]


# the tile the multi-tile cases below are sized for, a quarter of the default
_SMALL_TILE = 1 << 16


@pytest.mark.parametrize("na, nb, dim", [
    (300, 450, 256),  # three tiles in each direction
    (3, _SMALL_TILE + 3, 8),  # one query row per tile
])
def test_match_mutual_l2_spans_tiles(monkeypatch, na, nb, dim):
    monkeypatch.setattr(matching, "_TILE_ELEMENTS", _SMALL_TILE)
    r = rng((59, na))
    assert na * nb > 2 * matching._TILE_ELEMENTS
    db = DescriptorSet(_unit_rows(r.normal(size=(nb, dim))))
    # half of A sits near rows of B, so both sides hold mutual pairs
    near = db.vectors[r.choice(nb, na // 2 + 1, replace=False)] + r.normal(0, 0.05, (na // 2 + 1, dim))
    a = np.concatenate([_unit_rows(near), _unit_rows(r.normal(size=(na - na // 2 - 1, dim)))])
    _assert_matches_oracle(DescriptorSet(a), db)


@pytest.mark.parametrize("na, nb, width, bits", [(9, 700, 32, 256), (70, 600, 8, 60)])
def test_match_mutual_hamming_spans_tiles(monkeypatch, na, nb, width, bits):
    monkeypatch.setattr(matching, "_TILE_ELEMENTS", _SMALL_TILE)
    r = rng((60, na))
    # few distinct bytes give many exact distance ties
    pool = r.integers(0, 256, 4, dtype=np.uint8)
    da = DescriptorSet(pool[r.integers(0, 4, (na, width))], METRIC_HAMMING, bits=bits)
    db = DescriptorSet(pool[r.integers(0, 4, (nb, width))], METRIC_HAMMING, bits=bits)
    assert na * nb * width > 2 * matching._TILE_ELEMENTS
    _assert_matches_oracle(da, db)


def _assert_kernel_matches_direct(a, b):
    """The one-pass kernel returns (best_b, best_a), the direct argmins both ways."""
    dist = _direct_sq(a, b)
    best_b, best_a = matching._mutual_l2(a, b)
    np.testing.assert_array_equal(best_b, dist.argmin(axis=1))
    np.testing.assert_array_equal(best_a, dist.argmin(axis=0))


def _gram_dtypes(monkeypatch):
    """Record the dtype each match_mutual call hands the one-pass kernel."""
    seen = []
    kernel = matching._mutual_l2

    def spy(a, b):
        seen.append((a.dtype, b.dtype))
        return kernel(a, b)

    monkeypatch.setattr(matching, "_mutual_l2", spy)
    return seen


def _ulp_copies(r, rows, copies):
    """copies of each float32 row, each with three entries one ulp off."""
    out = np.repeat(rows, copies, axis=0)
    for row in out:
        idx = r.choice(row.size, 3, replace=False)
        row[idx] = np.nextafter(row[idx], r.choice(np.float32([-np.inf, np.inf]), 3))
    return out


@pytest.mark.parametrize("seed", range(3))
def test_mutual_kernel_f32_ulp_neighbours_match_direct(seed):
    r = rng((65, seed))
    dim = 256
    centres = _unit_rows(r.normal(size=(30, dim)))
    near = _unit_rows(centres + r.normal(0, 0.05, centres.shape))
    # the copies' direct distances differ far below the float32 Gram error
    a = np.concatenate([_ulp_copies(r, centres, 4), _unit_rows(r.normal(size=(150, dim)))])
    b = np.concatenate([_ulp_copies(r, near, 4), _unit_rows(r.normal(size=(250, dim)))])
    a, b = a[r.permutation(len(a))], b[r.permutation(len(b))]
    direct = _direct_sq(a, b)
    gram = (a * a).sum(1)[:, None] + (b * b).sum(1)[None, :] - 2 * a @ b.T
    assert gram.dtype == np.float32
    # a float32 Gram argmin misses the exact one, in both directions
    assert (gram.argmin(axis=1) != direct.argmin(axis=1)).any()
    assert (gram.argmin(axis=0) != direct.argmin(axis=0)).any()
    _assert_kernel_matches_direct(a, b)
    _assert_kernel_matches_direct(b, a)
    _assert_matches_oracle(DescriptorSet(a), DescriptorSet(b))


def test_mutual_kernel_column_ties_across_tiles_go_to_lowest_row(monkeypatch):
    r = rng(61)
    nb, dim = 1100, 64
    step = matching._TILE_ELEMENTS // nb  # 238 query rows per tile
    centres = _unit_rows(r.normal(size=(40, dim)))
    b = np.concatenate([centres, _unit_rows(r.normal(size=(nb - 40, dim)))])
    # four near copies of each centre, one per tile of A: the noisy centre,
    # its exact duplicate two tiles on, and copies with the noise permuted
    # or negated (the same true distance, so direct values tie or differ
    # by rounding)
    noise = r.normal(0, 0.05, (40, dim)).astype(np.float32)
    a = np.empty((4 * step, dim), np.float32)
    for g in range(40):
        perm = r.permutation(dim)
        a[g] = a[g + 2 * step] = centres[g] + noise[g]
        a[g + step] = centres[g] + noise[g][perm]
        a[g + 3 * step] = centres[g] - noise[g]
    a[40:step] = a[step + 40 : 2 * step] = _unit_rows(r.normal(size=(step - 40, dim)))
    a[2 * step + 40 :] = _unit_rows(r.normal(size=(2 * step - 40, dim)))
    da, db = DescriptorSet(a), DescriptorSet(b)
    seen = _gram_dtypes(monkeypatch)
    _assert_matches_oracle(da, db)
    assert seen == [(np.float32, np.float32)] * 2
    _assert_kernel_matches_direct(a, b)
    # the exact duplicate two tiles on never beats its first copy
    got = match_mutual(da, db)
    assert not np.isin(got.pairs[:, 0], np.arange(2 * step, 2 * step + 40)).any()


def _column_folds(monkeypatch, nb):
    """Record the keys of each column-direction fold, the folds into an (nb,) best array."""
    folds = []
    fold = matching._fold

    def spy(key, other, direct, best, dist):
        if best.size == nb:
            folds.append(set(key.tolist()))
        return fold(key, other, direct, best, dist)

    monkeypatch.setattr(matching, "_fold", spy)
    return folds


@pytest.mark.parametrize("tile_rows", [1, 9])
@pytest.mark.parametrize("chunk", [2, 5, 64])
def test_mutual_kernel_candidates_straddle_chunks_and_tiles(monkeypatch, tile_rows, chunk):
    r = rng((66, tile_rows, chunk))
    dim = 16
    centres = _unit_rows(r.normal(size=(8, dim)))
    near = _unit_rows(centres + r.normal(0, 0.05, centres.shape))
    # ulp-neighbour copies and exact duplicate rows on both sides: each row
    # and column has several candidates, which a chunk of a few entries and
    # tiles of one or a few rows split apart
    a = np.concatenate([_ulp_copies(r, centres, 3), np.repeat(centres, 2, axis=0),
                        _unit_rows(r.normal(size=(10, dim)))])
    b = np.concatenate([_ulp_copies(r, near, 3), np.repeat(near, 2, axis=0),
                        _unit_rows(r.normal(size=(14, dim)))])
    a, b = a[r.permutation(len(a))], b[r.permutation(len(b))]
    monkeypatch.setattr(matching, "_TILE_ELEMENTS", tile_rows * max(len(a), len(b)))
    monkeypatch.setattr(matching, "_CHUNK_ELEMENTS", chunk)
    for x, y in ((a, b), (b, a), (a.astype(np.float64), b.astype(np.float64))):
        folds = _column_folds(monkeypatch, len(y))
        _assert_kernel_matches_direct(x, y)
        if chunk == 64:
            # the candidate list passes this cap and is flushed: some column's
            # candidates are folded there and again in the final stage
            assert folds[-1] & set().union(*folds[:-1])


def test_floor_to_float32_keeps_every_comparison():
    f32 = np.finfo(np.float32)
    x = np.array([0.1, -0.1, 1.0, 1e-50, -1e-50, 1e-40, 3.5e38, 1e300, -1e300,
                  float(f32.max), np.inf, -np.inf, np.nan, 0.0, -0.0])
    x = np.concatenate([x, np.nextafter(x, np.inf), np.nextafter(x, -np.inf)])
    with np.errstate(over="ignore"):  # as in the kernel: 1e300 and f32.max's successor are inf
        y = matching._floor_to(x, np.float32)
        g = np.concatenate([y, np.nextafter(y, np.float32(np.inf)), np.nextafter(y, np.float32(-np.inf)),
                            np.float32([np.inf, -np.inf, np.nan, 0.0, -0.0])])
    assert y.dtype == np.float32
    np.testing.assert_array_equal(g[:, None] > y[None, :], g[:, None] > x[None, :])


@pytest.mark.parametrize("seed", range(2))
def test_match_mutual_f64_takes_f64_gram(monkeypatch, seed):
    da, db = _near_tie_sets(rng((62, seed)))
    a64 = DescriptorSet(da.vectors.astype(np.float64) + 1e-9)  # off the float32 grid
    b64 = DescriptorSet(db.vectors.astype(np.float64))
    seen = _gram_dtypes(monkeypatch)
    _assert_matches_oracle(a64, b64)
    _assert_matches_oracle(da, b64)  # a float32 side meets a float64 one
    assert seen == [(np.float64, np.float64)] * 4


@pytest.mark.parametrize("dtype, scale", [
    (np.float32, 1e20),  # squared norms of unit rows overflow float32
    (np.float32, 1e19),  # they fit, but the Gram values may not
    (np.float32, 1e-25),  # squares underflow to zero
    (np.float32, 1e-20),  # squares are subnormal
    (np.float64, 1e150),
    (np.float64, 1e-150),
])
def test_match_mutual_extreme_scales_match_oracle(monkeypatch, dtype, scale):
    r = rng((63, 400 + round(np.log10(scale))))
    da, db = _near_tie_sets(r, n_groups=12, copies=3, noise=12, dim=16)
    a, b = da.vectors.astype(dtype), db.vectors.astype(dtype)
    seen = _gram_dtypes(monkeypatch)
    _assert_matches_oracle(DescriptorSet(a * dtype(scale)), DescriptorSet(b * dtype(scale)))
    # half the rows at the extreme scale, the rest near unit norm
    a[::2] *= dtype(scale)
    b[1::2] *= dtype(scale)
    _assert_matches_oracle(DescriptorSet(a), DescriptorSet(b))
    assert seen == [(dtype, dtype)] * 4


@pytest.mark.parametrize("bits", [8, 61, 256, 1024])
def test_match_mutual_hamming_takes_f32_gram(monkeypatch, bits):
    r = rng((64, bits))
    width = (bits + 7) // 8
    pool = r.integers(0, 256, 3, dtype=np.uint8)
    da = DescriptorSet(pool[r.integers(0, 3, (120, width))], METRIC_HAMMING, bits=bits)
    db = DescriptorSet(pool[r.integers(0, 3, (700, width))], METRIC_HAMMING, bits=bits)
    seen = _gram_dtypes(monkeypatch)
    _assert_matches_oracle(da, db)
    assert seen == [(np.float32, np.float32)] * 2


def test_match_mutual_memory_stays_per_tile_when_every_entry_is_a_candidate():
    n = 2000
    rows = DescriptorSet(np.ones((n, 8), np.float32))
    # a list of all n * n candidates (two int64 indices and a float64
    # distance each) would take 96 MB
    tracemalloc.start()
    try:
        got = match_mutual(rows, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(got.pairs, [[0, 0]])
    np.testing.assert_array_equal(got.distances, [0.0])
    assert peak < 12e6, f"peak {peak / 1e6:.1f} MB"


def test_mutual_kernel_f64_overflow_column_is_refolded(monkeypatch):
    r = rng(68)
    nb = 4
    a = r.normal(size=(6, 8))
    b = r.normal(size=(nb, 8))
    b[0] *= 1e200  # every direct distance to b_0 overflows to inf: an inf tie, won by row 0
    # one-row tiles, each with all nb entries as candidates (the bounds are inf), and a
    # cap that flushes every tile but the last: column 0's earlier fold holds row 0 at
    # inf, and its one later candidate, the last row, must not replace it
    monkeypatch.setattr(matching, "_TILE_ELEMENTS", nb)
    monkeypatch.setattr(matching, "_CHUNK_ELEMENTS", nb + 2)
    folds = _column_folds(monkeypatch, nb)
    _assert_kernel_matches_direct(a, b)
    assert 0 in folds[-1]
    _assert_matches_oracle(DescriptorSet(a), DescriptorSet(b))


def _eval_sized_pair():
    r = rng(67)
    db = DescriptorSet(_unit_rows(r.normal(size=(1000, 256))))
    near = db.vectors[:600] + r.normal(0, 0.04, (600, 256))
    return DescriptorSet(np.concatenate([_unit_rows(near), _unit_rows(r.normal(size=(400, 256)))])), db


def test_match_mutual_rescores_the_matches_and_few_more(monkeypatch):
    da, db = _eval_sized_pair()
    counted = []
    rescore = matching._rescore

    def spy(a, b, rows, cols):
        counted.append(rows.size)
        return rescore(a, b, rows, cols)

    monkeypatch.setattr(matching, "_rescore", spy)
    got = match_mutual(da, db)
    # only ambiguous winners are re-scored besides each match's distance
    assert len(got) >= 590
    assert sum(counted) <= len(got) + 64, f"{sum(counted)} re-scored for {len(got)} matches"


def test_match_mutual_memory_of_an_eval_sized_pair():
    da, db = _eval_sized_pair()
    # B's augmented rows (1 MB), one tile's Gram values (1 MB), A's augmented
    # rows and masks, and one re-score chunk (0.5 MB)
    tracemalloc.start()
    try:
        got = match_mutual(da, db)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(got) >= 590
    assert peak < 4e6, f"peak {peak / 1e6:.1f} MB"


def test_match_mutual_validation_and_empty():
    l2 = DescriptorSet(np.zeros((2, 4), np.float32))
    ham = DescriptorSet(np.zeros((2, 1), np.uint8), METRIC_HAMMING, bits=8)
    with pytest.raises(ValueError, match="metric"):
        match_mutual(l2, ham)
    with pytest.raises(ValueError, match="dims differ: 4 vs 3"):
        match_mutual(l2, DescriptorSet(np.zeros((2, 3), np.float32)))
    with pytest.raises(ValueError, match="dims differ: 8 vs 5"):
        match_mutual(ham, DescriptorSet(np.zeros((2, 1), np.uint8), METRIC_HAMMING, bits=5))
    with pytest.raises(ValueError, match="dims differ: 128 vs 256"):
        match_mutual(DescriptorSet(np.empty((0, 128), np.float32)), DescriptorSet(np.zeros((5, 256), np.float32)))
    out = match_mutual(l2, DescriptorSet(np.empty((0, 4), np.float32)))
    assert len(out) == 0


def test_descriptor_set_validation():
    with pytest.raises(ValueError, match="metric"):
        DescriptorSet(np.zeros((1, 2)), "COSINE")
    with pytest.raises(ValueError, match="uint8"):
        DescriptorSet(np.zeros((1, 2)), METRIC_HAMMING, bits=16)
    for width, bits in ((2, 17), (5, 1), (2, 8), (1, 0)):
        with pytest.raises(ValueError, match="bits must match the packed row width"):
            DescriptorSet(np.zeros((1, width), np.uint8), METRIC_HAMMING, bits=bits)
    with pytest.raises(ValueError, match="equal length"):
        KeypointSet(np.zeros((2, 2)), np.zeros(3))
    with pytest.raises(ValueError, match="row 1 holds NaN or inf"):
        DescriptorSet(np.array([[0.0, 1.0], [np.inf, 0.0]]))


# --- files -----------------------------------------------------------------


def test_feature_file_round_trip_l2(tmp_path):
    r = rng(55)
    kp = KeypointSet(r.uniform(0, 64, (9, 2)), r.uniform(0, 1, 9), frame_id=4)
    ds = DescriptorSet(r.normal(size=(9, 6)).astype(np.float32))
    path = feature_path(tmp_path, 4)
    save_features(path, kp, ds)
    kp2, ds2 = load_features(path, 4)
    np.testing.assert_array_equal(kp2.points, kp.points)
    np.testing.assert_array_equal(kp2.scores, kp.scores)
    np.testing.assert_array_equal(ds2.vectors, ds.vectors)
    assert ds2.metric == METRIC_L2 and ds2.dim == 6


def test_feature_file_round_trip_hamming(tmp_path):
    r = rng(56)
    kp = KeypointSet(r.uniform(0, 64, (5, 2)), r.uniform(0, 1, 5))
    ds = DescriptorSet(r.integers(0, 256, size=(5, 8), dtype=np.uint8), METRIC_HAMMING, bits=64)
    path = feature_path(tmp_path, 0)
    save_features(path, kp, ds)
    _, ds2 = load_features(path)
    assert ds2.metric == METRIC_HAMMING and ds2.bits == 64
    np.testing.assert_array_equal(ds2.vectors, ds.vectors)


def test_feature_file_empty_and_errors(tmp_path):
    path = feature_path(tmp_path, 1)
    save_features(path, KeypointSet(np.empty((0, 2)), np.empty(0)),
                  DescriptorSet(np.empty((0, 3), np.float32)))
    kp, ds = load_features(path)
    assert len(kp) == 0 and len(ds) == 0 and ds.dim == 3

    bad = tmp_path / "frame_000002.feat"
    bad.write_text("header nonsense\n")
    with pytest.raises(ValueError, match="header"):
        load_features(bad)

    path3 = feature_path(tmp_path, 3)
    save_features(path3, KeypointSet([[1.0, 2.0]], [0.5]),
                  DescriptorSet(np.zeros((1, 3), np.float32)))
    (tmp_path / "frame_000003.feat.desc").write_bytes(b"\x00" * 5)
    with pytest.raises(ValueError, match="bytes"):
        load_features(path3)


def test_feature_file_skips_comment_and_blank_lines(tmp_path):
    path = tmp_path / "frame_000008.feat"
    save_features(path, KeypointSet([[1.5, 2.0], [3.0, 4.25]], [0.5, 0.75]),
                  DescriptorSet(np.eye(2, dtype=np.float32)))
    kp, ds = load_features(path)
    text = path.read_text(encoding="utf-8").split("\n")
    # a leading blank line and '#' lines before the header and between points
    path.write_text("\n".join(["", "# produced elsewhere", text[0], "  # x y score", *text[1:]]))
    kp2, ds2 = load_features(path)
    np.testing.assert_array_equal(kp2.points, kp.points)
    np.testing.assert_array_equal(kp2.scores, kp.scores)
    np.testing.assert_array_equal(ds2.vectors, ds.vectors)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_load_features_rejects_non_finite_l2(tmp_path, bad):
    path = feature_path(tmp_path, 5)
    vec = np.zeros((3, 4), np.float32)
    save_features(path, KeypointSet(np.zeros((3, 2)), np.zeros(3)), DescriptorSet(vec))
    vec[2, 1] = bad
    (tmp_path / "frame_000005.feat.desc").write_bytes(vec.astype("<f4").tobytes())
    with pytest.raises(ValueError, match=r"frame_000005\.feat\.desc: L2 descriptor row 2"):
        load_features(path)


@pytest.mark.parametrize("line", ["nan 1 0.5", "1 2 -inf", "1e999 1 0.5", "1 2", "1 x 0.5"])
def test_load_features_names_line_of_bad_keypoint(tmp_path, line):
    path = feature_path(tmp_path, 6)
    with open(path, "w", encoding="ascii") as f:
        f.write(f"metric L2 dim 2\n1 2 0.5\n\n{line}\n")
    (tmp_path / "frame_000006.feat.desc").write_bytes(b"\x00" * 16)
    with pytest.raises(ValueError, match=r"frame_000006\.feat:4: "):
        load_features(path)


@pytest.mark.parametrize("dim", ["0", "-2"])
def test_load_features_rejects_dim_below_one(tmp_path, dim):
    path = feature_path(tmp_path, 7)
    with open(path, "w", encoding="ascii") as f:
        f.write(f"metric L2 dim {dim}\n")
    (tmp_path / "frame_000007.feat.desc").write_bytes(b"")
    with pytest.raises(ValueError, match=r"frame_000007\.feat: descriptor dim"):
        load_features(path)


@pytest.mark.parametrize(
    "metric, dim",
    [
        (METRIC_L2, "99999999999999999999"),  # numpy: "Maximum allowed dimension exceeded"
        (METRIC_L2, "4611686018427387904"),  # 2^62 floats; numpy: "array is too big"
        (METRIC_HAMMING, "99999999999999999999"),  # a byte width past numpy's largest dimension
    ],
)
def test_load_features_names_the_file_of_a_dim_too_large_for_numpy(tmp_path, metric, dim):
    # No keypoints, so the sidecar's expected size is 0 and numpy's own
    # error on the (0, dim) shape must still name the file.
    path = feature_path(tmp_path, 8)
    with open(path, "w", encoding="ascii") as f:
        f.write(f"metric {metric} dim {dim}\n")
    (tmp_path / "frame_000008.feat.desc").write_bytes(b"")
    with pytest.raises(ValueError, match=re.escape(f"{path}: descriptor dim {dim} is too large")):
        load_features(path)


_NUMBER = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["nan", "-inf", "1e999", "-0", "1e-320", "1e160"]),
    st.integers(-3, 3).map(str),
)


@settings(deadline=None, max_examples=200)
@given(
    metric=st.sampled_from([METRIC_L2, METRIC_HAMMING, "l2"]),
    dim=st.integers(-3, 9),
    garbled_head=st.one_of(st.none(), st.text(max_size=30)),
    body=st.lists(
        st.one_of(
            st.tuples(_NUMBER, _NUMBER, _NUMBER).map(" ".join),
            st.text(st.characters(exclude_categories=["Cs"], exclude_characters="\r\n"), max_size=30),
        ),
        max_size=4,
    ),
    extra_bytes=st.sampled_from([0, 0, 0, 5]),
    edits=BYTE_EDITS,
)
@example(metric=METRIC_L2, dim=1, garbled_head=None, body=["1 2 0.5"], extra_bytes=0, edits=[(17, 0xFF)])
def test_load_features_fuzz_finite_or_value_error(
    tmp_path_factory, metric, dim, garbled_head, body, extra_bytes, edits
):
    path = tmp_path_factory.getbasetemp() / "fuzz.feat"
    head = f"metric {metric} dim {dim}" if garbled_head is None else garbled_head
    lines = [head, *body]
    path.write_bytes(overwrite(("\n".join(lines) + "\n").encode("utf-8"), edits))
    # a sidecar sized for every record after the header (blank and '#' lines
    # are not records), unless extra_bytes or edits damage it
    points = max(sum(1 for line in lines if line.split() and not line.split()[0].startswith("#")) - 1, 0)
    row = 4 * dim if metric == METRIC_L2 else (dim + 7) // 8
    path.with_name("fuzz.feat.desc").write_bytes(b"\x00" * (points * max(row, 0) + extra_bytes))
    try:
        kp, desc = load_features(path)
    except ValueError as exc:
        assert str(path) in str(exc)
        return
    assert np.isfinite(kp.points).all() and np.isfinite(kp.scores).all()
    assert len(kp) == len(desc) and desc.dim >= 1


def _load_or_error(path):
    try:
        kp, desc = load_features(path)
    except ValueError as exc:
        return str(exc)
    return kp.points, kp.scores, desc.vectors, desc.metric, desc.dim


_FINITE = st.floats(allow_nan=False, allow_infinity=False).map(repr)
_TOKEN = st.one_of(
    _FINITE,
    st.integers(-3, 3).map(str),
    st.sampled_from(["nan", "-inf", "1e999", "1e-320", "-0", "+.5", "1_0", "\u0663", "x", "0x1", "1e"]),
)
_LINE = st.one_of(
    st.tuples(_FINITE, _FINITE, _FINITE).map(" ".join),  # well formed, drawn twice as often
    st.tuples(_FINITE, _FINITE, _FINITE).map(" ".join),
    st.lists(_TOKEN, min_size=3, max_size=3).map(" ".join),  # bad tokens
    st.lists(_TOKEN, min_size=1, max_size=5).map(" ".join),  # wrong counts
    st.tuples(st.sampled_from([" ", "\t", "\x0b", "\x0c", "  "]), _TOKEN, _TOKEN, _TOKEN).map(
        lambda t: t[0] + t[0].join(t[1:]) + t[0]),  # other whitespace
    st.sampled_from(["", "  ", "# a comment", "  # x y score", "1 2 #"]),
)


def _lines(*lines, end="\n"):
    return [(line, end) for line in lines]


@settings(deadline=None, max_examples=300)
@given(
    header=st.sampled_from(["metric L2 dim 2", "metric HAMMING dim 9", "metric L2  dim\t3", "metric L2"]),
    body=st.lists(st.tuples(_LINE, st.sampled_from(["\n", "\n", "\n", "\r\n", "\r"])), max_size=6),
    last_newline=st.booleans(),
)
@example(header="metric L2 dim 2", body=_lines("1 2 0.5", "1_0 2 0.5"), last_newline=True)
@example(header="metric L2 dim 2", body=_lines("1 2 0.5", "nan 2 0.5"), last_newline=True)
@example(header="metric L2 dim 2", body=_lines("1 2 1e999"), last_newline=True)
@example(header="metric L2 dim 2", body=_lines("1 2", "3 4 5 6"), last_newline=True)
@example(header="metric L2 dim 2", body=_lines("1 2 0.5 3 4 0.5"), last_newline=True)
@example(header="metric L2 dim 2", body=_lines("1\x0b2 0.5 3"), last_newline=True)
@example(header="metric L2 dim 2", body=_lines("1 2 0.5", "", "3 4 0.5"), last_newline=True)
@example(header="metric L2 dim 2", body=_lines("1 2 0.5", "3 4 0.5", end="\r\n"), last_newline=True)
@example(header="metric L2 dim 2", body=_lines("1\x0b2\x0c0.5"), last_newline=True)
@example(header="metric L2 dim 2", body=_lines("1 2 0.5"), last_newline=False)
def test_one_pass_parse_equals_per_line_path(tmp_path_factory, header, body, last_newline):
    path = tmp_path_factory.getbasetemp() / "one_pass.feat"
    text = header + "\n" + "".join(line + end for line, end in body)
    if not last_newline:
        text = text.rstrip("\r\n")
    path.write_bytes(text.encode("utf-8"))
    # a sidecar sized for the lines that look like records, right or not
    n = sum(1 for line, _ in body if line.split() and not line.split()[0].startswith("#"))
    path.with_name("one_pass.feat.desc").write_bytes(b"\x00" * 8 * n)
    got = _load_or_error(path)
    with mock.patch.object(matching, "read_float_records", return_value=None):
        want = _load_or_error(path)
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


def test_saved_feature_files_never_take_the_per_line_path(tmp_path, monkeypatch):
    def per_line(*args, **kwargs):
        raise AssertionError("a saved feature file fell back to the per-line parse")

    monkeypatch.setattr(matching, "read_records", per_line)
    r = rng(68)
    points = r.uniform(0, 640, (40, 2))
    points[:4] = [[0.0, -0.0], [1e-320, 5e-324], [1e300, 0.1], [2.0**-1074, 3.0]]
    scores = r.uniform(0, 1, 40)
    cases = [
        (KeypointSet(points, scores), DescriptorSet(r.normal(size=(40, 5)).astype(np.float32))),
        (KeypointSet(points[:7], scores[:7]),
         DescriptorSet(r.integers(0, 256, (7, 2), dtype=np.uint8), METRIC_HAMMING, bits=13)),
        (KeypointSet(np.empty((0, 2)), np.empty(0)), DescriptorSet(np.empty((0, 3), np.float32))),
    ]
    for fid, (kp, ds) in enumerate(cases):
        path = feature_path(tmp_path, fid)
        save_features(path, kp, ds)
        kp2, ds2 = load_features(path)
        np.testing.assert_array_equal(kp2.points, kp.points)
        np.testing.assert_array_equal(kp2.scores, kp.scores)
        np.testing.assert_array_equal(ds2.vectors, ds.vectors)
        assert (ds2.metric, ds2.dim) == (ds.metric, ds.dim)


def test_load_features_checks_the_sidecar_size_before_allocating(tmp_path):
    path = feature_path(tmp_path, 9)
    with open(path, "w", encoding="ascii") as f:
        f.write("metric L2 dim 1000000000000\n1 2 0.5\n")
    (tmp_path / "frame_000009.feat.desc").write_bytes(b"\x00" * 7)
    with pytest.raises(ValueError, match=re.escape(f"{path}.desc: expected 4000000000000 bytes, got 7")):
        load_features(path)
