"""Two-view geometry: robust model estimation and relative pose recovery.

Conventions, used consistently throughout:

* Image A points are x1, image B points are x2; every epipolar model
  satisfies x2^T M x1 = 0, i.e. M maps A-points to lines in B.
* The relative pose maps A-frame coordinates to B-frame: X2 = R X1 + t,
  so E = [t]x R up to scale.
* Inlier tests are symmetric: a match is an inlier when the larger of the
  forward and backward residuals is within the pixel threshold.

RANSAC hypothesis sampling uses a counter-based generator keyed by
(seed, iteration), so estimates are deterministic for a fixed seed and
invariant to the order of the input matches (samples are drawn from the
match list sorted by index pair). Among hypotheses tied on inlier count
the earliest iteration wins. The winning model is refit by least squares
on its inliers and the returned flags correspond to the refit model,
unless the refit sheds more than half of that support — then the sampled
hypothesis and its flags are returned instead.

Hypotheses are fit and scored in blocks: each fit kernel takes a
leading hypothesis axis, and each estimate builds one scorer whose
score(models) fills a block's (B, N) residuals in work buffers reused
across the estimate; the refit and pgt_inliers are B=1 calls of the same
kernels. A stacked numpy.linalg or matmul call runs the same LAPACK or
BLAS routine on each member that a single call would, so a block walked
in iteration order gives the serial loop's result bit for bit.

Pose recovery reads each point's two depths under the four
decompositions of E (Hartley & Zisserman) from the closed-form 2x2
least-squares solve; only their signs count, so no point is triangulated.

Samples are drawn in chunks of up to _CHUNK hypotheses by _draw_samples,
one array lane per hypothesis. The (seed, iteration) -> sample mapping is
this module's own arithmetic: numpy 2.4's
Generator(Philox(SeedSequence((seed, it)))).choice(n, s, replace=False)
spelled out, Lemire rejections included, so it calls no numpy generator
and a numpy release that changes that stream moves no sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ioutil import atomic_write_text, fmt, read_records

RANSAC_CONFIDENCE = 0.9999
RANSAC_THRESHOLD_PX = 3.0
RANSAC_MAX_ITERATIONS = 10000
_BLOCK = 32  # RANSAC hypotheses fit and scored together
_CHUNK = 256  # RANSAC hypotheses drawn together, a multiple of _BLOCK

_EPS = 1e-12


class PoseRecoveryError(Exception):
    """Pose decomposition failed; the message says why."""


# ---------------------------------------------------------------------------
# quaternions and poses
# ---------------------------------------------------------------------------


def quat_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ]
    )


def quat_conjugate(q: np.ndarray) -> np.ndarray:
    return np.array([q[0], -q[1], -q[2], -q[3]])


def quat_to_rotation(q: np.ndarray) -> np.ndarray:
    w, x, y, z = q / np.linalg.norm(q)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def rotation_to_quat(r: np.ndarray) -> np.ndarray:
    """Rotation matrix to unit quaternion (w, x, y, z) with w >= 0."""
    m00, m01, m02 = r[0]
    m10, m11, m12 = r[1]
    m20, m21, m22 = r[2]
    tr = m00 + m11 + m22
    if tr > 0:
        s = np.sqrt(tr + 1.0) * 2
        q = np.array([0.25 * s, (m21 - m12) / s, (m02 - m20) / s, (m10 - m01) / s])
    elif m00 >= m11 and m00 >= m22:
        s = np.sqrt(1.0 + m00 - m11 - m22) * 2
        q = np.array([(m21 - m12) / s, 0.25 * s, (m01 + m10) / s, (m02 + m20) / s])
    elif m11 >= m22:
        s = np.sqrt(1.0 + m11 - m00 - m22) * 2
        q = np.array([(m02 - m20) / s, (m01 + m10) / s, 0.25 * s, (m12 + m21) / s])
    else:
        s = np.sqrt(1.0 + m22 - m00 - m11) * 2
        q = np.array([(m10 - m01) / s, (m02 + m20) / s, (m12 + m21) / s, 0.25 * s])
    q = q / np.linalg.norm(q)
    if q[0] < 0:
        q = -q
    return q


def quat_rotation_angle_deg(q: np.ndarray) -> float:
    """Rotation angle of a unit quaternion, in degrees (always >= 0)."""
    vec = np.linalg.norm(q[1:])
    return float(np.degrees(2.0 * np.arctan2(vec, abs(q[0]))))


def _norm_scaled(v: np.ndarray):
    """(v, |v|) for a finite vector, or (v / max|v_i|, its norm) when |v| overflows."""
    with np.errstate(over="ignore"):
        n = np.linalg.norm(v)
    if np.isfinite(n):
        return v, n
    v = v / np.abs(v).max()
    return v, np.linalg.norm(v)


@dataclass(frozen=True)
class RelativePose:
    """Rotation (unit quaternion, w >= 0) and unit translation direction.

    Maps image-A camera coordinates into image-B camera coordinates:
    X_b = R X_a + t. Translation scale is unobservable from two views, so
    t is stored unit length.
    """

    quaternion: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.quaternion, dtype=np.float64).reshape(4)
        t = np.asarray(self.translation, dtype=np.float64).reshape(3)
        if not (np.isfinite(q).all() and np.isfinite(t).all()):
            raise ValueError("quaternion and translation must be finite")
        (q, qn), (t, tn) = _norm_scaled(q), _norm_scaled(t)
        if qn < _EPS or tn < _EPS:
            raise ValueError("quaternion and translation must be nonzero")
        q = q / qn
        if q[0] < 0:
            q = -q
        object.__setattr__(self, "quaternion", q)
        object.__setattr__(self, "translation", t / tn)

    @property
    def rotation(self) -> np.ndarray:
        return quat_to_rotation(self.quaternion)


@dataclass(frozen=True)
class Intrinsics:
    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self):
        if not np.isfinite([self.fx, self.fy, self.cx, self.cy]).all():
            raise ValueError("intrinsics must be finite")
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.fx, 0, self.cx], [0, self.fy, self.cy], [0, 0, 1.0]])

    def normalize(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=np.float64).reshape(-1, 2)
        return np.stack(
            [(points[:, 0] - self.cx) / self.fx, (points[:, 1] - self.cy) / self.fy], axis=1
        )


def skew(v: np.ndarray) -> np.ndarray:
    x, y, z = v
    return np.array([[0, -z, y], [z, 0, -x], [-y, x, 0.0]])


def essential_from_pose(pose: RelativePose) -> np.ndarray:
    e = skew(pose.translation) @ pose.rotation
    return e / np.linalg.norm(e) * np.sqrt(2.0)


# ---------------------------------------------------------------------------
# model fitting
# ---------------------------------------------------------------------------


def _hartley_stack(points: np.ndarray):
    """Hartley conditioning of a (B, n, 2) stack of point sets.

    Returns (T (B, 3, 3), normalized points (B, n, 2), ok (B,)). A
    degenerate member (ok False) gets the identity and zero points, so
    no NaN or inf reaches the SVD downstream.
    """
    centroid = points.mean(axis=1)
    d = np.sqrt(((points - centroid[:, None]) ** 2).sum(axis=2)).mean(axis=1)
    ok = np.isfinite(d) & ~(d < _EPS)
    s = np.sqrt(2.0) / np.where(ok, d, np.sqrt(2.0))
    centroid = np.where(ok[:, None], centroid, 0.0)
    t = np.zeros((points.shape[0], 3, 3))
    t[:, 0, 0] = s
    t[:, 1, 1] = s
    t[:, 0, 2] = -s * centroid[:, 0]
    t[:, 1, 2] = -s * centroid[:, 1]
    t[:, 2, 2] = 1.0
    norm = np.where(ok[:, None, None], (points - centroid[:, None]) * s[:, None, None], 0.0)
    return t, norm, ok


def _dlt_svd(a: np.ndarray):
    """Singular values and V^T of a (B, m, 9) stack of DLT systems.

    A tall system (a refit) skips the m x m U, which nothing reads:
    LAPACK returns the same singular values and V^T bit for bit.
    """
    _, sv, vt = np.linalg.svd(a, full_matrices=a.shape[1] < a.shape[2])
    return sv, vt


def _fit_one(fit, pts_a: np.ndarray, pts_b: np.ndarray):
    """One model from a stacked fit kernel as a B=1 call; None when it fails.

    Callers pass at least the kernel's sample size (4 for H, 8 for F and E).
    """
    models, ok = _fit_block(fit, pts_a[None], pts_b[None])
    return models[0] if ok[0] else None


def _fit_block(fit, sample_a: np.ndarray, sample_b: np.ndarray):
    """fit on a (B, s, 2) block; if its stacked SVD fails, fit each sample alone.

    Every LAPACK call works on one matrix of the stack, so the fallback
    gives the same models and only the sample whose own SVD fails comes
    back invalid, as when each sample was fit on its own.
    """
    try:
        return fit(sample_a, sample_b)
    except np.linalg.LinAlgError:
        pass
    models = np.tile(np.eye(3), (sample_a.shape[0], 1, 1))
    ok = np.zeros(sample_a.shape[0], bool)
    for j in range(sample_a.shape[0]):
        try:
            m, good = fit(sample_a[j : j + 1], sample_b[j : j + 1])
        except np.linalg.LinAlgError:
            continue
        models[j], ok[j] = m[0], good[0]
    return models, ok


def _fit_homography_stack(pts_a: np.ndarray, pts_b: np.ndarray):
    """Normalized DLT of B samples (B, n, 2) -> (models (B, 3, 3), ok (B,)).

    Members that fail (ok False) carry the identity, so every returned
    model has an inverse. Raises LinAlgError when the stacked SVD does not
    converge.
    """
    b, n = pts_a.shape[:2]
    t1, na, ok1 = _hartley_stack(pts_a)
    t2, nb, ok2 = _hartley_stack(pts_b)
    a = np.zeros((b, 2 * n, 9))
    x, y = na[..., 0], na[..., 1]
    u, v = nb[..., 0], nb[..., 1]
    a[:, 0::2, 0] = -x
    a[:, 0::2, 1] = -y
    a[:, 0::2, 2] = -1
    a[:, 0::2, 6] = x * u
    a[:, 0::2, 7] = y * u
    a[:, 0::2, 8] = u
    a[:, 1::2, 3] = -x
    a[:, 1::2, 4] = -y
    a[:, 1::2, 5] = -1
    a[:, 1::2, 6] = x * v
    a[:, 1::2, 7] = y * v
    a[:, 1::2, 8] = v
    sv, vt = _dlt_svd(a)
    h = np.linalg.inv(t2) @ vt[:, -1].reshape(b, 3, 3) @ t1
    ok = ok1 & ok2 & np.isfinite(h).all(axis=(1, 2))
    if n == 4:  # null space not unique: degenerate (collinear) sample
        ok &= ~(sv[:, -2] < 1e-9 * np.maximum(sv[:, 0], _EPS))
    h = np.where(ok[:, None, None], h, np.eye(3))
    ok &= ~(np.abs(np.linalg.det(h)) < _EPS)
    scale = np.where(ok & (np.abs(h[:, 2, 2]) > _EPS), h[:, 2, 2], 1.0)
    h = h / scale[:, None, None]
    # The scaled model can still be exactly singular: a cloud whose spread
    # is only rounding error gets a Hartley scale near 1e12. det and inv
    # factor a matrix the same way (LU), so det == 0 flags every model
    # that inv would reject.
    ok &= np.linalg.det(h) != 0
    return np.where(ok[:, None, None], h, np.eye(3)), ok


def _homogeneous(points: np.ndarray) -> np.ndarray:
    """The (3, N) rows x, y, 1 of (N, 2) points."""
    return np.vstack([points.T, np.ones(points.shape[0])])


def _homography_scorer(pts_a: np.ndarray, pts_b: np.ndarray):
    """score(h) -> (B, N) symmetric transfer residuals of B <= _BLOCK homographies.

    The larger of the A->B and B->A transfer distances, inf where a mapped
    w is below _EPS. Each side is one `h @ points` product written as
    contiguous (B, N) x, y and w planes, which are divided, subtracted,
    squared, summed and rooted in place: the per-element operations of
    the strided formula, in its order. The points and the work buffers
    are built once, so a returned array is overwritten by the next call.
    """
    ha, hb = _homogeneous(pts_a), _homogeneous(pts_b)
    planes = np.empty((3, _BLOCK, ha.shape[1]))
    fwd, bwd = np.empty((2, _BLOCK, ha.shape[1]))
    bad = np.empty((_BLOCK, ha.shape[1]), bool)

    def transfer(m, src, dst, out):
        b = len(m)
        x, y, w = mapped = planes[:, :b]
        np.matmul(m, src, out=mapped.transpose(1, 0, 2))
        far = np.less(np.abs(w, out=out[:b]), _EPS, out=bad[:b])
        np.copyto(w, 1.0, where=far)
        np.subtract(np.divide(x, w, out=x), dst[0], out=x)
        np.subtract(np.divide(y, w, out=y), dst[1], out=y)
        dist = np.add(np.multiply(x, x, out=x), np.multiply(y, y, out=y), out=out[:b])
        np.copyto(np.sqrt(dist, out=dist), np.inf, where=far)
        return dist

    def score(h):
        dist = transfer(h, ha, hb, fwd)
        return np.maximum(dist, transfer(np.linalg.inv(h), hb, ha, bwd), out=dist)

    return score


def _fit_fundamental_stack(pts_a: np.ndarray, pts_b: np.ndarray, essential: bool = False):
    """Normalized 8-point fit of x2^T F x1 = 0 for B samples (B, n, 2).

    Returns (models (B, 3, 3), ok (B,)); members that fail (ok False)
    carry the identity. Raises LinAlgError when a stacked SVD does not
    converge.

    With essential=True each model is projected onto the essential
    manifold (two equal singular values, one zero) and scaled to
    Frobenius norm sqrt(2). That projection happens only after undoing
    the conditioning maps: the conditioned frame is a different
    similarity of each image plane, where an essential matrix loses its
    equal-singular-value structure, so projecting there would bias even
    a noise-free fit.
    """
    b, n = pts_a.shape[:2]
    t1, na, ok1 = _hartley_stack(pts_a)
    t2, nb, ok2 = _hartley_stack(pts_b)
    x, y = na[..., 0], na[..., 1]
    u, v = nb[..., 0], nb[..., 1]
    a = np.stack([u * x, u * y, u, v * x, v * y, v, x, y, np.ones((b, n))], axis=2)
    sv, vt = _dlt_svd(a)
    f = vt[:, -1].reshape(b, 3, 3)
    ok = ok1 & ok2
    if n == 8:
        ok &= ~(sv[:, -2] < 1e-9 * np.maximum(sv[:, 0], _EPS))
    if not essential:
        u2, s2, vt2 = np.linalg.svd(f)
        rank2 = np.zeros((b, 3, 3))
        rank2[:, 0, 0] = s2[:, 0]
        rank2[:, 1, 1] = s2[:, 1]
        f = u2 @ rank2 @ vt2
    f = np.where(ok[:, None, None], t2.transpose(0, 2, 1) @ f @ t1, np.eye(3))
    norm = _frobenius_norms(f)
    ok &= np.isfinite(f).all(axis=(1, 2)) & ~(norm < _EPS)
    f = np.where(ok[:, None, None], f / np.where(ok, norm, 1.0)[:, None, None], np.eye(3))
    if essential:
        # single manifold projection, in the original (unconditioned) frame
        u3, s3, vt3 = np.linalg.svd(f)
        ok &= ~((s3[:, 0] + s3[:, 1]) / 2.0 < _EPS)
        f = u3 @ np.diag([1.0, 1.0, 0.0]) @ vt3
    return np.where(ok[:, None, None], f, np.eye(3)), ok


def _frobenius_norms(m: np.ndarray) -> np.ndarray:
    """Frobenius norms of a (B, 3, 3) stack, each with np.linalg.norm's bytes.

    np.linalg.norm of one matrix is the square root of a BLAS dot of its
    entries; a stacked (1, 9) @ (9, 1) matmul calls that same dot on each
    model, where an axis=(1, 2) norm would sum in another order.
    """
    flat = m.reshape(len(m), 9)
    return np.sqrt((flat[:, None, :] @ flat[:, :, None])[:, 0, 0])


def _epipolar_scorer(pts_a: np.ndarray, pts_b: np.ndarray):
    """score(f) -> (B, N) symmetric epipolar residuals of B <= _BLOCK models.

    |x2^T F x1| over the (a, b) norm of the epipolar line in image B and
    of the one in image A, the larger of the two; inf where that norm is
    below _EPS. Lines are `F @ x1` and `F^T @ x2` products written as
    contiguous (B, N) planes, and the per-element operations are the
    strided formula's, in its order, in work buffers built once: a
    returned array is overwritten by the next call.
    """
    x1, x2 = _homogeneous(pts_a), _homogeneous(pts_b)
    lines_b, lines_a = np.empty((2, 3, _BLOCK, x1.shape[1]))  # lines in image B, in image A
    val, fwd, bwd = np.empty((3, _BLOCK, x1.shape[1]))
    bad = np.empty((_BLOCK, x1.shape[1]), bool)

    def dist(lines, out):
        l0, l1 = lines[0], lines[1]
        norm = np.add(np.multiply(l0, l0, out=l0), np.multiply(l1, l1, out=l1), out=out)
        near = np.less(np.sqrt(norm, out=norm), _EPS, out=bad[: len(out)])
        np.copyto(norm, 1.0, where=near)
        np.copyto(np.divide(val[: len(out)], norm, out=norm), np.inf, where=near)
        return norm

    def score(f):
        b = len(f)
        lb, la = lines_b[:, :b], lines_a[:, :b]
        np.matmul(f, x1, out=lb.transpose(1, 0, 2))
        np.matmul(f.transpose(0, 2, 1), x2, out=la.transpose(1, 0, 2))
        v = np.multiply(x2[0], lb[0], out=val[:b])
        np.add(v, np.multiply(x2[1], lb[1], out=bwd[:b]), out=v)  # bwd is free until dist(la)
        np.abs(np.add(v, lb[2], out=v), out=v)
        d = dist(lb, fwd[:b])
        return np.maximum(d, dist(la, bwd[:b]), out=d)

    return score


# ---------------------------------------------------------------------------
# RANSAC
# ---------------------------------------------------------------------------


@dataclass
class RansacResult:
    success: bool
    model: np.ndarray | None
    inliers: np.ndarray  # bool flags aligned with the input matches
    iterations: int = 0
    reason: str = ""


def _match_points(matches, kp_a, kp_b):
    pairs = matches.pairs
    return kp_a.points[pairs[:, 0]], kp_b.points[pairs[:, 1]]


def _canonical_order(matches) -> np.ndarray:
    pairs = matches.pairs
    return np.lexsort((pairs[:, 1], pairs[:, 0]))


# numpy's Generator(Philox(SeedSequence((seed, it)))).choice(n, s, replace=False),
# one lane per iteration: the SeedSequence pool hash, Philox4x64-10 (Salmon et al.,
# SC'11) from counter 1, and Floyd's sampling plus a Fisher-Yates shuffle, both
# on Lemire's bounded integers (arXiv:1805.10941) over the next_uint32 stream.
_M32 = 0xFFFFFFFF


# SeedSequence's running hash constants, one per hashmix call: A for the 4
# pool words and then the 12 mixes, B for the 4 uint32 words of generate_state
_HASH_A = np.array([0x43B0D7E5 * 0x931E8875**k & _M32 for k in range(17)], np.uint32)[:, None]
_HASH_B = np.array([0x8B51F9DD * 0x58F38DED**k & _M32 for k in range(5)], np.uint32)[:, None]
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], np.uint64)
_PHILOX_M_LO, _PHILOX_M_HI = _PHILOX_M & _M32, _PHILOX_M >> 32
_PHILOX_W = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], np.uint64)


def _hashmix(value: np.ndarray, consts: np.ndarray, k: int, count: int) -> np.ndarray:
    """SeedSequence's hashmix, calls k .. k+count-1 of one hash-constant chain."""
    value = value ^ consts[k : k + count]
    value *= consts[k + 1 : k + count + 1]
    return value ^ (value >> 16)


def _philox_keys(seed: int, its: np.ndarray) -> np.ndarray:
    """SeedSequence((seed, it)).generate_state(2, np.uint64) per lane, (2, L)."""
    pool = np.zeros((4, len(its)), np.uint32)
    pool[0], pool[1] = seed, its
    pool = _hashmix(pool, _HASH_A, 0, 4)
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        mixed = _hashmix(pool[src], _HASH_A, 4 + 3 * src, 3)
        mixed = 0xCA01F9DD * pool[dst] - 0x4973F715 * mixed  # mix(dst, hashmix(src))
        pool[dst] = mixed ^ (mixed >> 16)
    words = _hashmix(pool, _HASH_B, 0, 4).astype(np.uint64)
    return words[0::2] | (words[1::2] << 32)


def _philox_blocks(keys: np.ndarray, blocks: int) -> np.ndarray:
    """Philox4x64-10 outputs at counters 1 .. blocks per lane, (4 * blocks, L)."""
    lanes = keys.shape[1]
    keys = np.tile(keys, blocks)
    even = np.zeros((2, blocks * lanes), np.uint64)  # counter words 0 and 2
    odd = np.zeros_like(even)  # words 1 and 3
    even[0] = np.repeat(np.arange(1, blocks + 1, dtype=np.uint64), lanes)
    for r in range(10):
        if r:
            keys += _PHILOX_W
        x0, x1 = even & _M32, even >> 32  # mulhi64 from 32-bit limbs
        low = _PHILOX_M_LO * x0
        mid = _PHILOX_M_HI * x0 + (low >> 32)
        cross = _PHILOX_M_LO * x1 + (mid & _M32)
        high = _PHILOX_M_HI * x1 + (mid >> 32) + (cross >> 32)
        even, odd = high[::-1] ^ odd ^ keys, (_PHILOX_M * even)[::-1]
    out = np.stack([even[0], odd[0], even[1], odd[1]]).reshape(4, blocks, lanes)
    return out.transpose(1, 0, 2).reshape(4 * blocks, lanes)


def _lane_draws(seed: int, first: int, count: int, n: int, s: int) -> np.ndarray:
    """The (count, s) samples of iterations first .. first+count-1, one lane each.

    Draw k of a lane has range r_k: n-s+1 .. n for Floyd, then s .. 2 for
    the shuffle. Lemire's method maps the lane's next uint32 word w to
    (w * r_k) >> 32, and rejects w when the low word of w * r_k is below
    (2^32 - r_k) % r_k; the draw then takes the following word, and so does
    every later draw of that lane. A range of 1 (Floyd's j = 0 when n == s)
    takes no word."""
    keys = _philox_keys(seed, np.arange(first, first + count).astype(np.uint32))
    ranges = np.array([*range(n - s + 1, n + 1), *range(s, 1, -1)], np.uint64)[:, None]
    limits = (2**32 - ranges) % ranges
    # each draw's word index, shared by every lane until one rejects
    rows = np.maximum(np.cumsum(ranges > 1) - 1, 0)[:, None]
    lanes = np.arange(count)
    blocks = 0
    while True:  # until no draw is rejected, shift each lane past its first rejection
        if rows[-1].max() >= 8 * blocks:  # a lane past its words: one more Philox block
            blocks = int(rows[-1].max()) // 8 + 1
            words = _philox_blocks(keys, blocks)
            halves = np.stack([words & _M32, words >> 32], axis=1).reshape(-1, count)
        m = halves[rows, lanes] * ranges
        rejected = (m & _M32) < limits
        if not rejected.any():
            break
        rows = rows + np.logical_or.accumulate(rejected, axis=0)
    draws = (m >> 32).astype(np.int64)
    picks = np.empty((s, count), np.int64)
    for k in range(s):  # Floyd: a value already taken gives way to j
        taken = (picks[:k] == draws[k]).any(axis=0)
        picks[k] = np.where(taken, n - s + k, draws[k])
    for k, i in enumerate(range(s - 1, 0, -1)):
        j = draws[s + k]
        swap = picks[j, lanes]
        picks[j, lanes] = picks[i]
        picks[i] = swap
    return picks.T


def _draw_samples(seed: int, first: int, count: int, n: int, s: int) -> np.ndarray:
    """The (count, s) int64 samples of iterations first .. first+count-1.

    Iteration it draws numpy 2.4's
    Generator(Philox(SeedSequence((seed, it)))).choice(n, s, replace=False),
    bit for bit, computed by _lane_draws. That holds for iterations below
    2^32 and 1 <= s <= n <= 2^32 where numpy samples by Floyd's method (any
    s at n <= 10000, s <= n // 50 above; RANSAC draws 4 or 8). Only the
    seed is checked: evaluate_pairs derives it as one uint32 word."""
    if not isinstance(seed, (int, np.integer)) or not 0 <= seed <= _M32:
        raise ValueError(f"RANSAC seed must be an integer in [0, 2**32), got {seed!r}")
    return _lane_draws(seed, first, count, n, s)


def _adaptive_bound(inlier_ratio: float, sample_size: int, confidence: float) -> int:
    if inlier_ratio <= 0:
        return RANSAC_MAX_ITERATIONS
    p_good = inlier_ratio**sample_size
    if p_good >= 1.0:
        return 0
    denom = np.log1p(-p_good)
    if denom >= 0:
        return RANSAC_MAX_ITERATIONS
    need = np.log1p(-confidence) / denom
    return int(min(RANSAC_MAX_ITERATIONS, np.ceil(need)))


def _ransac(
    matches,
    kp_a,
    kp_b,
    sample_size: int,
    fit,
    scorer,
    threshold: float,
    confidence: float,
    seed: int,
) -> RansacResult:
    """Generic RANSAC core shared by the H, F and E estimators.

    fit(sample_a, sample_b) takes a (B, s, 2) stack of pixel samples and
    returns (models (B, 3, 3), ok (B,)). scorer(pts_a, pts_b) is called
    once and returns score(models), the (B, N) residuals of every match
    under each of up to _BLOCK models; score must accept every model fit
    returns (a homography fit returns only invertible models and identity
    placeholders). Samples are drawn from the matches sorted by index pair,
    so the seed-to-sample mapping ignores the caller's match ordering.

    Samples are drawn in chunks of up to _CHUNK hypotheses. Hypotheses are
    fit and scored in blocks of up to _BLOCK taken from the chunk, then
    walked in iteration order with the serial best/bound update; those
    past the bound are discarded and not counted. The result equals the
    one-hypothesis-at-a-time loop bit for bit: iteration it still gets the
    sample _draw_samples gives it, each LAPACK and BLAS call of a
    stacked fit or score works on one model exactly as a single fit
    does, the winner's flags are its row of the block's score, and the
    refit is a B=1 call of the same kernels.
    """
    n = len(matches)

    def failed(iterations: int, reason: str) -> RansacResult:
        return RansacResult(False, None, np.zeros(n, bool), iterations, reason)

    if n < sample_size:
        return failed(0, f"need at least {sample_size} matches")
    pts_a, pts_b = _match_points(matches, kp_a, kp_b)
    order = _canonical_order(matches)
    ca, cb = pts_a[order], pts_b[order]
    score = scorer(pts_a, pts_b)

    best_count = -1
    best_model = flags = None
    bound = RANSAC_MAX_ITERATIONS
    it = first = 0
    chunk = np.empty((0, sample_size), np.int64)
    while it < bound:
        if it == first + len(chunk):
            first, chunk = it, _draw_samples(seed, it, min(_CHUNK, bound - it), n, sample_size)
        picks = chunk[it - first : it - first + min(_BLOCK, bound - it)]
        models, ok = _fit_block(fit, ca[picks], cb[picks])
        inside = score(models) <= threshold
        counts = np.count_nonzero(inside, axis=1)
        for j in range(len(picks)):
            it += 1
            if ok[j]:
                count = int(counts[j])
                if count > best_count:
                    best_count, best_model, flags = count, models[j], inside[j]
                    bound = min(bound, _adaptive_bound(count / n, sample_size, confidence))
            if it >= bound:
                break
    if best_model is None:
        return failed(it, "all hypotheses degenerate")
    if flags.sum() < sample_size:
        return failed(it, "insufficient inlier support")
    refit = _fit_one(fit, pts_a[flags], pts_b[flags])
    if refit is None:
        return failed(it, "degenerate final support")
    new_flags = score(refit[None])[0] <= threshold
    if 2 * int(new_flags.sum()) < int(flags.sum()):
        # An algebraic least-squares refit can drift far from the geometric
        # inlier criterion (plane-dominant or low-parallax supports) and shed
        # most of the consensus that selected the hypothesis.  Keep the
        # sampled hypothesis on such a collapse; marginal one-off flips near
        # the threshold are normal and the refit stays preferable there.
        return RansacResult(True, best_model, flags, it)
    return RansacResult(True, refit, new_flags, it)


def estimate_homography_ransac(
    matches,
    kp_a,
    kp_b,
    confidence: float = RANSAC_CONFIDENCE,
    threshold_px: float = RANSAC_THRESHOLD_PX,
    seed: int = 0,
) -> RansacResult:
    """Robust plane-projective fit; inlier = symmetric transfer <= threshold."""
    return _ransac(
        matches, kp_a, kp_b, 4,
        _fit_homography_stack, _homography_scorer, threshold_px, confidence, seed,
    )


def estimate_fundamental_ransac(
    matches,
    kp_a,
    kp_b,
    confidence: float = RANSAC_CONFIDENCE,
    threshold_px: float = RANSAC_THRESHOLD_PX,
    seed: int = 0,
) -> RansacResult:
    """Robust uncalibrated epipolar fit, rank-2 enforced."""
    return _ransac(
        matches, kp_a, kp_b, 8,
        _fit_fundamental_stack, _epipolar_scorer, threshold_px, confidence, seed,
    )


def _pixel_frame(e: np.ndarray, kinv: np.ndarray) -> np.ndarray:
    """Pixel-frame fundamental matrices K^-T E K^-1 of (B, 3, 3) essentials."""
    return kinv.T @ e @ kinv


def estimate_essential_ransac(
    matches,
    kp_a,
    kp_b,
    intrinsics: Intrinsics,
    confidence: float = RANSAC_CONFIDENCE,
    threshold_px: float = RANSAC_THRESHOLD_PX,
    seed: int = 0,
) -> RansacResult:
    """Robust calibrated epipolar fit on the essential manifold.

    Hypotheses are fit on K-normalized coordinates; the inlier threshold
    stays in pixels by scoring the pixel-frame equivalent of each
    candidate.
    """
    kinv = np.linalg.inv(intrinsics.matrix)

    def fit(sa, sb):
        na = intrinsics.normalize(sa).reshape(sa.shape)
        nb = intrinsics.normalize(sb).reshape(sb.shape)
        return _fit_fundamental_stack(na, nb, essential=True)

    def scorer(pts_a, pts_b):
        score = _epipolar_scorer(pts_a, pts_b)
        return lambda e: score(_pixel_frame(e, kinv))

    return _ransac(matches, kp_a, kp_b, 8, fit, scorer, threshold_px, confidence, seed)


# ---------------------------------------------------------------------------
# pose recovery
# ---------------------------------------------------------------------------


def triangulate_points(norm_a: np.ndarray, norm_b: np.ndarray, r: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Linear triangulation in camera-A coordinates from normalized points.

    Each point's 4x4 DLT system is solved by SVD; all systems go to one
    stacked ``np.linalg.svd`` call. It has no pipeline caller: it is a
    tracer target until ROADMAP item 2, and the test oracle of
    recover_pose's closed-form depths.
    """
    p1 = np.hstack([np.eye(3), np.zeros((3, 1))])
    p2 = np.hstack([r, t.reshape(3, 1)])
    a = np.stack(
        [
            norm_a[:, 0:1] * p1[2] - p1[0],
            norm_a[:, 1:2] * p1[2] - p1[1],
            norm_b[:, 0:1] * p2[2] - p2[0],
            norm_b[:, 1:2] * p2[2] - p2[1],
        ],
        axis=1,
    )
    _, _, vt = np.linalg.svd(a)
    xh = vt[:, -1]
    w = np.where(np.abs(xh[:, 3]) > _EPS, xh[:, 3], _EPS)
    return xh[:, :3] / w[:, None]


def decompose_essential(e: np.ndarray):
    """The four (R, t) candidates of an essential matrix."""
    u, _, vt = np.linalg.svd(e)
    if np.linalg.det(u) < 0:
        u = -u
    if np.linalg.det(vt) < 0:
        vt = -vt
    w = np.array([[0, -1, 0], [1, 0, 0], [0, 0, 1.0]])
    r1 = u @ w @ vt
    r2 = u @ w.T @ vt
    t = u[:, 2]
    return [(r1, t), (r1, -t), (r2, t), (r2, -t)]


def _front_counts(norm_a: np.ndarray, norm_b: np.ndarray, candidates) -> list[int]:
    """Per (R, t) candidate, the points at positive depth in both cameras.

    With a = R x_a and b = x_b the homogeneous rays, a point's depths are
    the least-squares solution of z1 a - z2 b = -t. Its 2x2 normal
    equations give z1 = (a.b b.t - a.t b.b) / det and
    z2 = (a.a b.t - a.b a.t) / det, det = a.a b.b - (a.b)^2 >= 0, so the
    signs of the numerators decide. For parallel rays both numerators are
    0 in exact arithmetic, and rounding decides such a point, whose depth
    is undetermined.
    """
    xa, b = _homogeneous(norm_a), _homogeneous(norm_b)
    bb = (b * b).sum(axis=0)
    counts = []
    for r, t in candidates:
        a = r @ xa
        aa, ab = (a * a).sum(axis=0), (a * b).sum(axis=0)
        at, bt = t @ a, t @ b
        front = (ab * bt - at * bb > 0) & (aa * bt - ab * at > 0)
        counts.append(int(np.count_nonzero(front)))
    return counts


def recover_pose(e: np.ndarray, matches, kp_a, kp_b, intrinsics: Intrinsics,
                 inlier_flags: np.ndarray) -> RelativePose:
    """Pick the essential decomposition placing the most points in front.

    Counts the inlier correspondences at positive depth in both cameras
    under each of the four candidates, from closed-form depths
    (_front_counts), and keeps the candidate with the most; a tie is a
    failure whose message lists the per-candidate counts.
    """
    pts_a, pts_b = _match_points(matches, kp_a, kp_b)
    pts_a, pts_b = pts_a[inlier_flags], pts_b[inlier_flags]
    if pts_a.shape[0] < 1:
        raise PoseRecoveryError("pose recovery needs at least one inlier")
    candidates = decompose_essential(e)
    counts = _front_counts(intrinsics.normalize(pts_a), intrinsics.normalize(pts_b), candidates)
    best = int(np.argmax(counts))
    if counts.count(counts[best]) > 1:
        raise PoseRecoveryError(f"ambiguous pose: front-point counts {counts}")
    r, t = candidates[best]
    return RelativePose(rotation_to_quat(r), t)


def pgt_inliers(
    matches,
    kp_a,
    kp_b,
    pose: RelativePose,
    intrinsics: Intrinsics,
    threshold_px: float = RANSAC_THRESHOLD_PX,
) -> np.ndarray:
    """Matches consistent with a reference pose's epipolar geometry."""
    if len(matches) == 0:
        return np.zeros(0, dtype=bool)
    f_px = _pixel_frame(essential_from_pose(pose)[None], np.linalg.inv(intrinsics.matrix))
    pts_a, pts_b = _match_points(matches, kp_a, kp_b)
    return _epipolar_scorer(pts_a, pts_b)(f_px)[0] <= threshold_px


# ---------------------------------------------------------------------------
# pose and intrinsics files
# ---------------------------------------------------------------------------


def save_pose_file(path, entries) -> None:
    """entries: iterable of (frame_a, frame_b, RelativePose)."""
    lines = []
    for fa, fb, pose in entries:
        q = pose.quaternion
        t = pose.translation
        lines.append(
            f"{int(fa)} {int(fb)} " + " ".join(fmt(v) for v in (*q, *t))
        )
    atomic_write_text(path, "".join(l + "\n" for l in lines))


def _pose_record(fields):
    key = int(fields[0]), int(fields[1])
    vals = [float(v) for v in fields[2:]]
    return key, RelativePose(np.array(vals[:4]), np.array(vals[4:]))


def load_pose_file(path) -> dict:
    """Text pose file to {(frame_a, frame_b): RelativePose}; a repeated pair keeps its last line."""
    return dict(read_records(path, "frameA frameB qw qx qy qz tx ty tz", _pose_record))


def save_intrinsics(path, k: Intrinsics) -> None:
    atomic_write_text(path, f"{fmt(k.fx)} {fmt(k.fy)} {fmt(k.cx)} {fmt(k.cy)}\n")


def load_intrinsics(path) -> Intrinsics:
    """The one 'fx fy cx cy' record of a text intrinsics file."""
    found = 0

    def parse(fields):
        nonlocal found
        found += 1
        if found > 1:
            raise ValueError("a second intrinsics record; the file holds exactly one")
        return Intrinsics(*(float(v) for v in fields))

    records = list(read_records(path, "fx fy cx cy", parse))
    if not records:
        raise ValueError(f"{path}: no intrinsics line found")
    return records[0]
