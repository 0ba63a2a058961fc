"""Acceptance checks: one test per release criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines alongside the pytest output. Every test is deterministic;
the slow ones (fine-tuning, the planted-sequence pipeline) state their
runtime budget in their verdict line. Criteria 5 and 6 run the experiments
in scripts/run_specularity_ablation.py and scripts/run_pipeline_demo.py
with pinned arguments, so the scripts are what they check.
"""

import math
import time

import numpy as np

from endofeat import cli, losses, metrics
from endofeat.geometry import (
    PoseRecoveryError,
    RelativePose,
    estimate_essential_ransac,
    estimate_homography_ransac,
    recover_pose,
)
from endofeat.homography import (
    HomographyConfig,
    correspondence_tensor,
    sample_homography,
    to_pixel_frame,
    warp_image,
    warp_points,
)
from endofeat.data import PseudoLabel, warp_label
from endofeat.losses import LossConfig
from endofeat.matching import (
    METRIC_HAMMING,
    DescriptorSet,
    KeypointSet,
    MatchSet,
    match_mutual,
)
from endofeat.network import forward, init_params
from endofeat.tensor import Tensor
from endofeat import tensor as T

from helpers import (
    check_gradients,
    load_script,
    op_cases,
    random_two_view_scene,
    rng,
    toy_architecture,
    toy_pair_loss_case,
)


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"acceptance {num} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. every differentiable op and the full pair loss match finite differences
# ---------------------------------------------------------------------------


def test_criterion_1_gradients_match_finite_differences():
    start = time.monotonic()
    worst = 0.0
    for _, build, arrays in op_cases():
        worst = max(worst, check_gradients(build, arrays))
    build, arrays = toy_pair_loss_case(size=16, seed=3)
    # wider step for the deep composite: truncation vs roundoff balance
    worst = max(worst, check_gradients(build, arrays, eps=1e-5))
    elapsed = time.monotonic() - start
    _verdict(
        1,
        "autodiff vs central differences",
        worst < 1e-4 and elapsed < 60.0,
        f"worst scaled error {worst:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 2. highlight-suppression loss semantics
# ---------------------------------------------------------------------------


def _dense_heat(logits: np.ndarray) -> np.ndarray:
    """Independent softmax + depth-to-space reconstruction of the heatmap."""
    shifted = logits - logits.max(axis=2, keepdims=True)
    p = np.exp(shifted)
    p /= p.sum(axis=2, keepdims=True)
    hc, wc, _ = logits.shape
    heat = np.zeros((hc * 8, wc * 8))
    for c in range(64):
        heat[c // 8 :: 8, c % 8 :: 8] = p[:, :, c]
    return heat


def test_criterion_2_specularity_loss_oracle():
    r = rng(202)
    worst = 0.0
    for trial in range(1000):
        hc = int(r.integers(1, 5))
        wc = int(r.integers(1, 5))
        logits = r.normal(0.0, 2.0, (hc, wc, 65))
        image = r.uniform(0.0, 0.69, (hc * 8, wc * 8))
        if trial % 10 != 0:  # every tenth image stays highlight-free
            n_hot = int(r.integers(1, image.size // 4))
            flat = r.choice(image.size, size=n_hot, replace=False)
            image.ravel()[flat] = r.uniform(0.71, 1.0, n_hot)
        mask = image > 0.7
        want = _dense_heat(logits)[mask].sum() / (1e-10 + mask.sum())
        got = losses.specularity_loss(Tensor(logits), image).item()
        worst = max(worst, abs(got - want))

    # the combined loss with zero highlight weight is exactly the plain one
    bitwise = True
    arch = toy_architecture()
    cfg0 = LossConfig(specularity_weight=0.0)
    for seed in range(5):
        r2 = rng((203, seed))
        params = init_params(arch, seed=seed, dtype=np.float64)
        img_a = r2.uniform(0.0, 1.0, (16, 16))
        h_px = to_pixel_frame(
            sample_homography(r2, HomographyConfig(perspective=0.02, scale_min=0.9,
                                                   scale_max=1.1, rotation_deg=10.0,
                                                   translation=0.05)),
            16, 16,
        )
        img_b = warp_image(img_a, h_px)
        pts = np.stack([r2.integers(0, 16, 5), r2.integers(0, 16, 5)], axis=1)
        label_a = PseudoLabel(pts, r2.uniform(0.4, 1.0, 5))
        label_b = warp_label(label_a, h_px, 16, 16)
        corr = correspondence_tensor(h_px, 16, 16)

        with T.GradTape() as tape_a:
            ha = forward(params, img_a)
            hb = forward(params, img_b)
            full = losses.specular_pair_loss(img_a, ha, label_a, img_b, hb, label_b, corr, cfg0)
        grads_a = T.backward(tape_a, full, params.tensors.values())
        ga = {label: np.array(g) for label, g in zip(params.tensors, grads_a)}

        with T.GradTape() as tape_b:
            ha = forward(params, img_a)
            hb = forward(params, img_b)
            plain = losses.pair_loss(ha, label_a, hb, label_b, corr, cfg0)
        grads_b = T.backward(tape_b, plain, params.tensors.values())
        if full.item() != plain.item():
            bitwise = False
        for label, g in zip(params.tensors, grads_b):
            if not np.array_equal(ga[label], np.array(g)):
                bitwise = False

    empty = PseudoLabel(np.empty((0, 2), np.int64), np.empty(0))
    uniform = abs(losses.detection_loss(Tensor(np.zeros((3, 4, 65))), empty).item() - math.log(65))

    _verdict(
        2,
        "specularity loss semantics",
        worst <= 1e-12 and bitwise and uniform <= 1e-9,
        f"masked-mean dev {worst:.1e}, zero-weight bitwise {bitwise}, "
        f"uniform-logit dev {uniform:.1e}",
    )


# ---------------------------------------------------------------------------
# 3. mutual matching equals the quadratic oracle
# ---------------------------------------------------------------------------

_POP = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(axis=1).astype(np.int64)


def _mutual_oracle(da: DescriptorSet, db: DescriptorSet):
    """Full distance matrix + double argmin, built in row blocks."""
    na, nb = len(da), len(db)
    if na == 0 or nb == 0:
        return np.empty((0, 2), np.int64), np.empty(0)
    dist = np.empty((na, nb))
    for lo in range(0, na, 256):
        hi = min(lo + 256, na)
        if da.metric == METRIC_HAMMING:
            x = np.bitwise_xor(da.vectors[lo:hi, None, :], db.vectors[None, :, :])
            dist[lo:hi] = _POP[x].sum(axis=2)
        else:
            a = da.vectors[lo:hi].astype(np.float64)
            b = db.vectors.astype(np.float64)
            dist[lo:hi] = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
    best_b = dist.argmin(axis=1)
    best_a = dist.argmin(axis=0)
    pairs, dists = [], []
    for i in range(na):
        j = best_b[i]
        if best_a[j] == i:
            pairs.append((i, j))
            dists.append(math.sqrt(dist[i, j]) if da.metric != METRIC_HAMMING else dist[i, j])
    return np.asarray(pairs, np.int64).reshape(-1, 2), np.asarray(dists)


def _random_instance(r: np.random.Generator, na: int, nb: int, metric: str):
    if metric == METRIC_HAMMING:
        da = DescriptorSet(r.integers(0, 256, (na, 8), dtype=np.uint8), METRIC_HAMMING, bits=64)
        db = DescriptorSet(r.integers(0, 256, (nb, 8), dtype=np.uint8), METRIC_HAMMING, bits=64)
    else:
        # integer-valued floats make every distance (and tie) exact
        da = DescriptorSet(r.integers(0, 8, (na, 16)).astype(np.float32))
        db = DescriptorSet(r.integers(0, 8, (nb, 16)).astype(np.float32))
    return da, db


def test_criterion_3_mutual_matching_equals_oracle():
    r = rng(303)
    sizes = [(int(r.integers(0, 401)), int(r.integers(0, 401))) for _ in range(93)]
    sizes += [(int(r.integers(500, 1500)), int(r.integers(500, 1500))) for _ in range(2)]
    sizes += [(2000, 2000)] * 4 + [(2000, 177)]
    assert len(sizes) == 100
    exact = True
    for k, (na, nb) in enumerate(sizes):
        metric = METRIC_HAMMING if k % 2 else "L2"
        if (na, nb) == (2000, 2000):
            metric = METRIC_HAMMING if k % 2 else "L2"  # both metrics hit N=2000
        da, db = _random_instance(r, na, nb, metric)
        got = match_mutual(da, db)
        pairs, dists = _mutual_oracle(da, db)
        if not (np.array_equal(got.pairs, pairs) and np.array_equal(got.distances, dists)):
            exact = False
            break
    _verdict(3, "mutual matching vs quadratic oracle", exact,
             f"100 instances, max size 2000, both metrics")


# ---------------------------------------------------------------------------
# 4. robust geometry: homography transfer, essential matrix, pose noise
# ---------------------------------------------------------------------------


def _identity_matches(n: int) -> MatchSet:
    idx = np.arange(n)
    return MatchSet(np.stack([idx, idx], axis=1), np.zeros(n))


def test_criterion_4_robust_geometry():
    start = time.monotonic()
    size = 200.0
    corners = np.array([[0.0, 0.0], [size - 1, 0.0], [0.0, size - 1], [size - 1, size - 1]])
    warp_cfg = HomographyConfig(perspective=0.03, scale_min=0.85, scale_max=1.15,
                                rotation_deg=15.0, translation=0.08)
    hits = 0
    for trial in range(100):
        r = rng((404, trial))
        h_true = to_pixel_frame(sample_homography(r, warp_cfg), int(size), int(size))
        pts_a = r.uniform(10.0, size - 10.0, (480, 2))
        pts_b = warp_points(pts_a, h_true) + r.normal(0.0, 0.5, (480, 2))
        out_a = r.uniform(0.0, size, (320, 2))
        out_b = r.uniform(0.0, size, (320, 2))
        pa = np.vstack([pts_a, out_a])
        pb = np.vstack([pts_b, out_b])
        ka = KeypointSet(pa, np.zeros(len(pa)))
        kb = KeypointSet(pb, np.zeros(len(pb)))
        res = estimate_homography_ransac(_identity_matches(len(pa)), ka, kb,
                                         confidence=0.9999, threshold_px=3.0, seed=trial)
        if not res.success:
            continue
        err = np.linalg.norm(warp_points(corners, res.model) - warp_points(corners, h_true),
                             axis=1).max()
        hits += err < 0.5

    clean_worst = 0.0
    for trial in range(20):
        pts_a, pts_b, pose, intr = random_two_view_scene(60, seed=trial, noise_px=0.0)
        ka = KeypointSet(pts_a, np.zeros(60))
        kb = KeypointSet(pts_b, np.zeros(60))
        ms = _identity_matches(60)
        res = estimate_essential_ransac(ms, ka, kb, intr, confidence=0.9999,
                                        threshold_px=3.0, seed=trial)
        assert res.success, res.reason
        est = recover_pose(res.model, ms, ka, kb, intr, res.inliers)
        clean_worst = max(clean_worst, metrics.rotation_error(est, pose))

    noisy = []
    for trial in range(100):
        pts_a, pts_b, pose, intr = random_two_view_scene(100, seed=1000 + trial, noise_px=1.0)
        ka = KeypointSet(pts_a, np.zeros(100))
        kb = KeypointSet(pts_b, np.zeros(100))
        ms = _identity_matches(100)
        res = estimate_essential_ransac(ms, ka, kb, intr, confidence=0.9999,
                                        threshold_px=3.0, seed=trial)
        assert res.success, res.reason
        try:
            est = recover_pose(res.model, ms, ka, kb, intr, res.inliers)
            noisy.append(metrics.rotation_error(est, pose))
        except PoseRecoveryError:
            # a cheirality tie is a declared failure mode; count the trial
            # as failed rather than aborting the study
            noisy.append(float("inf"))
    median_noisy = float(np.median(noisy))
    elapsed = time.monotonic() - start

    _verdict(
        4,
        "robust homography and pose",
        hits >= 95 and clean_worst < 1e-4 and median_noisy < 2.0 and elapsed < 300.0,
        f"corner<0.5px in {hits}/100, clean rotation worst {clean_worst:.2e} deg, "
        f"1px-noise median {median_noisy:.3f} deg, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 5. highlight suppression preserves off-highlight features
# ---------------------------------------------------------------------------


def test_criterion_5_specular_suppression_ablation():
    ablation = load_script("run_specularity_ablation")
    start = time.monotonic()
    suppressed, control = ablation.run(ablation.parse_args(["--iterations", "800"]))
    elapsed = time.monotonic() - start
    _verdict(
        5,
        "highlight-retention ablation",
        suppressed.off_highlight_pct >= 95.0 and control.off_highlight_pct < 90.0
        and elapsed < 900.0,
        f"suppressed {suppressed.off_highlight_pct:.1f}% vs control "
        f"{control.off_highlight_pct:.1f}%, 800 iterations (<=2000), {elapsed:.0f}s (<900s)",
    )


# ---------------------------------------------------------------------------
# 6. pipeline end-to-end on a planted warped sequence
# ---------------------------------------------------------------------------


def test_criterion_6_pipeline_reproduces_planted_truth(tmp_path):
    demo = load_script("run_pipeline_demo")
    out1 = tmp_path / "out1"
    rows = demo.run(demo.parse_args(["--output", str(out1), "--frames", "20", "--size", "80",
                                     "--iterations", "2500", "--seed", "0"]))
    assert len(rows) == 19
    assert {row.planted for row in rows} == {9}

    # detect and eval again into a second directory: the reports must not change
    override = f"output_dir={tmp_path / 'out2'}"
    for command in ("detect", "eval"):
        assert cli.main([command, "--config", str(out1 / "run.cfg"), "--set", override]) == 0
    identical = all(
        (out1 / n).read_bytes() == (tmp_path / "out2" / n).read_bytes()
        for n in ("report.json", "report.csv")
    )

    # planted truth: every marker is visible in every frame, so each pair
    # should recover one inlier per marker; coverage counts marker cells
    mean_inliers = float(np.mean([row.inliers for row in rows]))
    mean_pct = float(np.mean([row.grid_pct for row in rows]))
    oracle_inliers = 9.0
    oracle_pct = float(np.mean([row.truth_pct for row in rows]))

    inlier_ok = abs(mean_inliers - oracle_inliers) <= 0.05 * oracle_inliers
    pct_ok = abs(mean_pct - oracle_pct) <= 2 * 100.0 / 256
    _verdict(
        6,
        "pipeline vs planted truth",
        inlier_ok and pct_ok and identical,
        f"mean inliers {mean_inliers:.2f} vs {oracle_inliers:.0f} planted, "
        f"coverage {mean_pct:.2f}% vs {oracle_pct:.2f}%, byte-identical {identical}",
    )


# ---------------------------------------------------------------------------
# 7. matching-quality metrics against closed-form oracles
# ---------------------------------------------------------------------------


def _random_unit_quat(r: np.random.Generator) -> np.ndarray:
    q = r.standard_normal(4)
    return q / np.linalg.norm(q)


def test_criterion_7_metric_oracles():
    r = rng(707)
    worst = 0.0
    for _ in range(10_000):
        qa, qb = _random_unit_quat(r), _random_unit_quat(r)
        ta, tb = r.standard_normal(3), r.standard_normal(3)
        got = metrics.rotation_error(RelativePose(qa, ta), RelativePose(qb, tb))
        want = 2.0 * math.degrees(math.acos(min(1.0, abs(float(np.dot(qa, qb))))))
        worst = max(worst, abs(got - want))

    grid_exact = True
    for trial in range(200):
        n = int(r.integers(0, 50))
        h = int(r.integers(16, 200))
        w = int(r.integers(16, 200))
        pts = np.stack([r.uniform(0, w, n), r.uniform(0, h, n)], axis=1)
        got = metrics.grid_coverage(pts, h, w)
        ch, cw = max(1, h // 16), max(1, w // 16)
        cells = {(min(int(x // cw), 15), min(int(y // ch), 15)) for x, y in pts}
        if got != 100.0 * len(cells) / 256:
            grid_exact = False
            break

    hist_ok = metrics.rotation_histogram(
        [0.0, 4.999, 5.0, 9.999, 10.0, 29.9, 30.0, 30.001, 90.0]
    ) == [2, 2, 3, 2]
    # failures are strictly beyond thirty degrees
    one = metrics.AblationCounts(1, 1)
    no_highlights = metrics.AblationResult(one, one, one)
    evs = [
        metrics.PairEvaluation(frame_a=0, frame_b=1, step=1, features_a=1, features_b=1,
                               matches=1, inliers={}, grid_pct={}, rotation_error_deg=e,
                               pose_failure="", ablation=no_highlights)
        for e in (29.9, 30.0, 30.001)
    ]
    failure_ok = abs(metrics.aggregate(evs).failure_rate - 1.0 / 3.0) < 1e-12

    _verdict(
        7,
        "metric oracles",
        worst <= 1e-9 and grid_exact and hist_ok and failure_ok,
        f"rotation dev {worst:.1e} deg, grid exact {grid_exact}, "
        f"histogram {hist_ok}, failure-strictness {failure_ok}",
    )
