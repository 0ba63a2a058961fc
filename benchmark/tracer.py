"""Per-layer tracing from outside the package.

The tracer wraps public functions of endofeat at every module attribute
that holds them, so a call made through ``endofeat.metrics.match_mutual``
or ``endofeat.tensor.conv2d`` is seen wherever its caller looks it up.
While installed, each wrapped call records a span (name, start, end,
parent span, run id) in memory, adds to its function's total time, self
time (total minus direct child spans) and call count, and may feed
counters computed from its arguments and result. Nothing in ``src/``
changes; uninstalling restores the original attributes.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

import numpy as np

from endofeat import tensor, train

NOT_TENSOR_OPS = {"Tensor", "GradTape", "Gradients", "backward"}
RANSAC = ("estimate_homography_ransac", "estimate_fundamental_ransac", "estimate_essential_ransac")
TIMED = "ms", "self_ms", "calls"

# Reported per-layer metrics (name, unit); BENCHMARK.json lists the same.
PER_LAYER = (
    [(f"tensor.conv2d.{m}", u) for m, u in (("ms", "ms"), ("self_ms", "ms"), ("calls", "count"),
                                           ("gflop", "GFLOP"), ("mb_moved", "MB"))]
    + [(f"tensor.backward.{m}", "count" if m == "calls" else "ms") for m in TIMED]
    + [("tensor.ops.calls", "count")]
    + [(f"tensor.{op}.ms", "ms") for op in
       ("max_pool2x2", "channel_softmax", "depth_to_space", "bicubic_upsample", "l2_normalize")]
    + [(f"{fn}.{m}", "count" if m == "calls" else "ms") for fn in (
        "network.forward", "network.densify", "network.load_weights", "network.save_weights",
        "losses.specular_pair_loss", "losses.detection_loss", "losses.descriptor_loss",
        "losses.specularity_loss",
        "homography.sample_homography", "homography.warp_image", "homography.correspondence_tensor",
        "data.warp_label", "data.read_pgm", "data.load_label", "data.specularity_mask",
        "train.adam_step", "train.save_checkpoint",
        "matching.greedy_nms", "matching.extract_keypoints", "matching.match_mutual",
        "matching.save_features", "matching.load_features",
        "geometry.recover_pose", "geometry.triangulate_points", "geometry.pgt_inliers",
        "metrics.grid_coverage", "metrics.specularity_ablation", "metrics.write_report_json",
    ) for m in TIMED]
    + [("train.checkpoint_mb", "MB"),
       ("matching.greedy_nms.candidates", "count"), ("matching.greedy_nms.kept", "count"),
       ("matching.match_mutual.distance_evals", "count"),
       ("matching.match_mutual.mutual_ratio", "ratio")]
    + [(f"geometry.{fn}.{m}", u) for fn in RANSAC for m, u in
       (("ms", "ms"), ("iterations", "count"), ("success_ratio", "ratio"), ("inlier_ratio", "ratio"))]
    + [("metrics.evaluate_pairs.self_ms", "ms"), ("trace.overhead_ms", "ms")]
)


# ---------------------------------------------------------------------------
# counters computed at the wrapped boundary
# ---------------------------------------------------------------------------


def _count_conv2d(counts, args, result):
    out, kernel = result.data, args["kernel"].data
    cout = kernel.shape[-1]
    positions, taps = out.size // cout, kernel.size // cout  # output pixels, k*k*cin
    counts["tensor.conv2d.gflop"] += 2.0 * positions * taps * cout / 1e9
    # input, weights and output once, plus the im2col patch matrix written and read
    elements = args["x"].data.size + kernel.size + args["bias"].data.size + out.size
    counts["tensor.conv2d.mb_moved"] += out.itemsize * (elements + 2 * positions * taps) / 1e6


def _count_nms(counts, args, result):
    scores = np.asarray(args["scores"])
    counts["matching.greedy_nms.candidates"] += int(np.count_nonzero(scores >= args["threshold"]))
    counts["matching.greedy_nms.kept"] += len(result[0])


def _count_match(counts, args, result):
    na, nb = len(args["da"]), len(args["db"])
    counts["matching.match_mutual.distance_evals"] += 2 * na * nb
    counts["matching.match_mutual.pairs"] += len(result)
    counts["matching.match_mutual.pair_bound"] += min(na, nb)


def _count_ransac(name):
    def count(counts, args, result):
        counts[f"{name}.iterations"] += result.iterations
        counts[f"{name}.successes"] += int(result.success)
        counts[f"{name}.inliers"] += int(np.count_nonzero(result.inliers))
        counts[f"{name}.matches"] += len(args["matches"])

    return count


def _count_checkpoint(counts, args, result):
    paths = train.checkpoint_paths(args["directory"], args["iteration"])
    counts["train.checkpoint_mb"] += sum(os.path.getsize(p) for p in paths) / 1e6


COUNTERS = {
    "tensor.conv2d": _count_conv2d,
    "train.save_checkpoint": _count_checkpoint,
    "matching.greedy_nms": _count_nms,
    "matching.match_mutual": _count_match,
    **{f"geometry.{fn}": _count_ransac(f"geometry.{fn}") for fn in RANSAC},
}
FUNCTIONS = {
    "tensor": ["backward"],
    "network": ["forward", "densify", "load_weights", "save_weights"],
    "losses": ["specular_pair_loss", "pair_loss", "detection_loss", "descriptor_loss",
               "specularity_loss"],
    "homography": ["sample_homography", "warp_image", "correspondence_tensor"],
    "data": ["warp_label", "read_pgm", "load_label", "specularity_mask"],
    "train": ["finetune", "adam_step", "save_checkpoint"],
    "matching": ["greedy_nms", "extract_keypoints", "match_mutual", "save_features", "load_features"],
    "geometry": [*RANSAC, "recover_pose", "triangulate_points", "pgt_inliers"],
    "metrics": ["evaluate_pairs", "grid_coverage", "specularity_ablation", "write_report_json"],
}


def targets():
    """(qualified name, module name, attribute) of every traced function."""
    ops = [n for n in tensor.__all__
           if n not in NOT_TENSOR_OPS and inspect.isfunction(getattr(tensor, n, None))]
    pairs = [("tensor", n) for n in ops] + [(m, n) for m, names in FUNCTIONS.items() for n in names]
    return [(f"{m}.{n}", m, n) for m, n in pairs]


class Tracer:
    """Spans and counters for the calls made while installed."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, run id)
        self.totals = {}  # name -> [ms, self_ms, calls]
        self.counts = defaultdict(float)
        self.run_id = -1
        self.runs = 0
        self._stack = []
        self._child_s = []  # per span: seconds covered by its direct children
        self._patched = []  # (module, attribute, original)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "endofeat" or n.startswith("endofeat."))]
        for name, module_name, attr in targets():
            original = getattr(sys.modules[f"endofeat.{module_name}"], attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original, COUNTERS.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def _wrap(self, name, fn, counter):
        sig = inspect.signature(fn) if counter else None
        self.totals.setdefault(name, [0.0, 0.0, 0])
        total = self.totals[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._begin()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(name, idx, start, time.perf_counter(), total)
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(self.counts, bound.arguments, result)
            return result

        return wrapper

    # -- spans --------------------------------------------------------------

    def _begin(self) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self._child_s.append(0.0)
        self._stack.append(idx)
        return idx

    def _end(self, name, idx, start, end, total) -> None:
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        dur = end - start
        self.spans[idx] = (name, start, end, parent, self.run_id)
        if parent >= 0:
            self._child_s[parent] += dur
        total[0] += dur * 1e3
        total[1] += (dur - self._child_s[idx]) * 1e3
        total[2] += 1

    def run(self, label: str, fn):
        """Call fn() as one traced run under a root span named label."""
        self.run_id = self.runs
        self.runs += 1
        self.totals.setdefault(label, [0.0, 0.0, 0])
        self.install()
        idx = self._begin()
        start = time.perf_counter()
        try:
            return fn()
        finally:
            self._end(label, idx, start, time.perf_counter(), self.totals[label])
            self.uninstall()

    # -- results --------------------------------------------------------------

    def table(self) -> dict:
        """Every timed function and counter, per traced run (ratios as ratios)."""
        runs = max(1, self.runs)
        out = {}
        for name, (ms, self_ms, calls) in sorted(self.totals.items()):
            out[f"{name}.ms"] = ms / runs
            out[f"{name}.self_ms"] = self_ms / runs
            out[f"{name}.calls"] = calls / runs
        out["tensor.ops.calls"] = sum(
            calls for name, (_, _, calls) in self.totals.items()
            if name.startswith("tensor.") and name != "tensor.backward") / runs
        c = self.counts
        for key in ("tensor.conv2d.gflop", "tensor.conv2d.mb_moved", "train.checkpoint_mb",
                    "matching.greedy_nms.candidates", "matching.greedy_nms.kept",
                    "matching.match_mutual.distance_evals"):
            out[key] = c.get(key, 0) / runs
        out["matching.match_mutual.mutual_ratio"] = _ratio(
            c.get("matching.match_mutual.pairs", 0), c.get("matching.match_mutual.pair_bound", 0))
        for fn in RANSAC:
            name = f"geometry.{fn}"
            calls = self.totals.get(name, [0, 0, 0])[2]
            out[f"{name}.iterations"] = c.get(f"{name}.iterations", 0) / runs
            out[f"{name}.success_ratio"] = _ratio(c.get(f"{name}.successes", 0), calls)
            out[f"{name}.inlier_ratio"] = _ratio(c.get(f"{name}.inliers", 0), c.get(f"{name}.matches", 0))
        return out

    def span_rows(self):
        """Spans as [name, start ms, end ms, parent, run], relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return [[n, round((s - t0) * 1e3, 4), round((e - t0) * 1e3, 4), p, r]
                for n, s, e, p, r in self.spans]


def _ratio(num, den) -> float:
    return num / den if den else 0.0
