"""Command-line harness wiring the pipeline into reproducible batch runs.

Subcommands: pseudolabel | train | detect | eval. Matches are not
written to disk: eval recomputes them from the feature files, and writes
report.json with report.csv and rotation_histogram.csv rendered from the
same evaluations.
Each command reads a `key = value` config file (--config) with optional
--set key=value overrides (flags win), validates its inputs up front, and
writes outputs atomically under the configured output directory. Commands
that produce per-frame files skip existing outputs unless --force is
given, log per-item failures, and keep going.

Exit codes: 0 success, 1 partial per-item failure (or training abort),
2 configuration/input error. All randomness derives from the single
`seed` config key, which the evaluation report records in its metadata.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from concurrent.futures import ThreadPoolExecutor

from . import config as runcfg
from . import data, geometry, homography, matching, metrics, network, train
from .config import ConfigError, RunConfig
from .ioutil import atomic_write_text, fmt

_INPUT_ERRORS = (
    ConfigError,
    ValueError,
    OSError,
    data.FrameError,
    network.WeightsError,
    homography.HomographySamplingError,
)


def _warn(msg: str) -> None:
    print(msg, file=sys.stderr)


def _require_file(path: str, what: str) -> str:
    if not path:
        raise ConfigError(f"{what} is not configured")
    if not os.path.isfile(path):
        raise ConfigError(f"{what} not found: {path}")
    return path


def _frame_list(config: RunConfig):
    if not config.frames_dir:
        raise ConfigError("frames_dir is not configured")
    if not os.path.isdir(config.frames_dir):
        raise ConfigError(f"frames_dir not found: {config.frames_dir}")
    frames = data.list_frames(config.frames_dir)
    if not frames:
        raise ConfigError(f"no frame_XXXXXX.pgm files in {config.frames_dir}")
    return frames


def _load_weights(config: RunConfig):
    return network.load_weights(_require_file(config.weights_path, "weights file"))


def _run_frames(command, config: RunConfig, args, out_dir, out_path, suffixes, step) -> int:
    """Call `step(params, image, mask, frame_id, out)` on each frame, over
    `config.jobs` threads, with out = out_path(out_dir, frame_id).

    A frame whose `out + suffix` files all exist is skipped unless --force;
    a failing frame is logged and the rest go on. Prints one summary line
    and returns 1 when any frame failed, else 0.
    """
    frames = _frame_list(config)
    params = _load_weights(config)
    mask = None
    if config.mask_path:
        mask = data.load_roi_mask(_require_file(config.mask_path, "mask file"))
    os.makedirs(out_dir, exist_ok=True)

    def work(item):
        frame_id, path = item
        out = out_path(out_dir, frame_id)
        if not args.force and all(os.path.exists(out + s) for s in suffixes):
            return "skip", ""
        try:
            step(params, data.read_frame(path, mask), mask, frame_id, out)
        except Exception as exc:  # log per-frame failures, keep going
            return "fail", f"{command}: frame {frame_id} failed: {exc}"
        return "ok", ""

    if config.jobs > 1 and len(frames) > 1:
        with ThreadPoolExecutor(max_workers=config.jobs) as pool:
            results = list(pool.map(work, frames))
    else:
        results = [work(item) for item in frames]
    statuses = [status for status, _ in results]
    for status, message in results:
        if status == "fail":
            _warn(message)
    print(
        f"{command}: wrote {statuses.count('ok')}, skipped {statuses.count('skip')},"
        f" failed {statuses.count('fail')} -> {out_dir}"
    )
    return 1 if "fail" in statuses else 0


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_pseudolabel(config: RunConfig, args) -> int:
    def step(teacher, image, mask, frame_id, out):
        label = data.generate_pseudolabels(
            teacher,
            image,
            mask,
            config.label_threshold,
            config.label_nms_window,
            config.label_max_points,
        )
        data.save_label(out, label)

    out_dir = runcfg.labels_dir(config)
    return _run_frames("pseudolabel", config, args, out_dir, data.label_path, ("",), step)


def cmd_train(config: RunConfig, args) -> int:
    train_config = runcfg.train_config(config)
    loss_config = runcfg.loss_config(config)
    frames = _frame_list(config)
    params = _load_weights(config)
    label_dir = runcfg.labels_dir(config)
    missing = [fid for fid, _ in frames if not os.path.isfile(data.label_path(label_dir, fid))]
    if missing:
        raise ConfigError(
            "missing label files for frames "
            + ", ".join(str(m) for m in missing)
            + " (run the pseudolabel command first)"
        )
    samples = []
    for fid, frame_path in frames:
        image = data.read_frame(frame_path)
        path = data.label_path(label_dir, fid)
        label = data.load_label(path)
        h, w = image.shape
        xs, ys = label.points[:, 0], label.points[:, 1]
        outside = (xs < 0) | (xs >= w) | (ys < 0) | (ys >= h)
        if outside.any():
            x, y = label.points[outside][0]
            raise ValueError(f"{path}: point ({x}, {y}) outside the {h}x{w} frame")
        samples.append(train.TrainingSample(image, label))

    os.makedirs(config.output_dir, exist_ok=True)
    out_weights = os.path.join(config.output_dir, "trained.weights")
    out_history = os.path.join(config.output_dir, "train_history.csv")
    if os.path.exists(out_weights) and os.path.exists(out_history) and not args.force:
        print(f"train: outputs exist, skipping (use --force to retrain) -> {out_weights}")
        return 0

    checkpoint_dir = None
    if train_config.checkpoint_every > 0:
        checkpoint_dir = os.path.join(config.output_dir, "checkpoints")
        os.makedirs(checkpoint_dir, exist_ok=True)

    try:
        tuned, history = train.finetune(params, samples, train_config, loss_config, checkpoint_dir)
    except train.TrainingDivergedError as exc:
        _warn(f"train: aborted, loss became non-finite at iteration {exc.iteration}")
        return 1
    network.save_weights(tuned, out_weights)
    atomic_write_text(out_history, train.history_csv(history))
    last = history[-1]
    print(
        f"train: {len(history)} iterations, final loss {fmt(last.total)}"
        f" -> {out_weights}"
    )
    return 0


def cmd_detect(config: RunConfig, args) -> int:
    def step(params, image, mask, frame_id, out):
        heads = network.forward(params, image)
        keypoints, descriptors = matching.extract_keypoints(
            network.heatmap(heads.detect),
            heads.describe.data,
            mask,
            config.detection_threshold,
            config.detection_nms_window,
            config.max_features,
            frame_id,
        )
        matching.save_features(out, keypoints, descriptors)

    out_dir = runcfg.features_dir(config, config.method)
    return _run_frames("detect", config, args, out_dir, matching.feature_path, ("", ".desc"), step)


def cmd_eval(config: RunConfig, args) -> int:
    tags = runcfg.model_tags(config)
    specular_masks = {
        fid: data.specularity_mask(data.read_frame(path)) for fid, path in _frame_list(config)
    }

    poses = None
    if config.pose_path:
        poses = geometry.load_pose_file(_require_file(config.pose_path, "pose file"))
    intrinsics = None
    if config.intrinsics_path:
        intrinsics = geometry.load_intrinsics(
            _require_file(config.intrinsics_path, "intrinsics file")
        )

    methods = runcfg.method_names(config)

    features_by_method = {}
    missing = []
    for method in methods:
        feat_dir = runcfg.features_dir(config, method)
        features = {}
        for frame_id in specular_masks:
            path = matching.feature_path(feat_dir, frame_id)
            if not (os.path.isfile(path) and os.path.isfile(path + ".desc")):
                missing.append(f"method {method!r}: frame {frame_id}")
            else:
                features[frame_id] = matching.load_features(path, frame_id)
        features_by_method[method] = features
    if missing:
        raise ConfigError(
            "inconsistent frame coverage, missing feature files:\n  " + "\n  ".join(missing)
        )

    method_evaluations = {}
    reports = []
    for method in methods:
        by_step = {}
        for step in config.steps:
            evaluations, _ = metrics.evaluate_pairs(
                features_by_method[method],
                step,
                specular_masks,
                poses,
                intrinsics,
                tags,
                config.ransac_confidence,
                config.ransac_threshold_px,
                config.seed,
            )
            if not evaluations:
                raise ConfigError(f"step {step} leaves no frame pairs to evaluate")
            by_step[step] = evaluations
            reports.append(metrics.aggregate(evaluations, method))
        method_evaluations[method] = by_step

    os.makedirs(config.output_dir, exist_ok=True)
    json_path = os.path.join(config.output_dir, "report.json")
    csv_path = os.path.join(config.output_dir, "report.csv")
    hist_path = os.path.join(config.output_dir, "rotation_histogram.csv")
    metadata = {
        "seed": config.seed,
        "ransac_confidence": config.ransac_confidence,
        "ransac_threshold_px": config.ransac_threshold_px,
        "models": "auto" if tags == "auto" else list(tags),
        "steps": list(config.steps),
        "methods": list(methods),
        "grid_coverage": "computed on the first image of each pair",
    }
    metrics.write_report_json(json_path, method_evaluations, metadata)
    csv_text = metrics.report_csv(reports)
    atomic_write_text(csv_path, csv_text)
    atomic_write_text(hist_path, metrics.histogram_csv(reports))
    print(csv_text, end="")
    print(f"eval: {len(reports)} report rows -> {json_path}")
    return 0


_COMMANDS = {
    "pseudolabel": cmd_pseudolabel,
    "train": cmd_train,
    "detect": cmd_detect,
    "eval": cmd_eval,
}

_HELP = {
    "pseudolabel": "run the teacher network and cache one label file per frame",
    "train": "fine-tune weights on cached labels with warped-pair losses",
    "detect": "extract keypoints + descriptors into per-frame feature files",
    "eval": "match, fit robust models, and write report.json/report.csv",
}


def _parse_args(argv):
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="FILE", help="key = value config file")
    common.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one config key (repeatable; flags win over the file)",
    )
    common.add_argument("--jobs", type=int, metavar="N", help="parallel workers for per-item work")
    common.add_argument("--force", action="store_true", help="recompute outputs that already exist")

    parser = argparse.ArgumentParser(
        prog="endofeat",
        description="Self-supervised keypoint pipeline for endoscopic image matching.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        subparsers.add_parser(name, parents=[common], help=_HELP[name])
    return parser.parse_args(argv)


def _build_config(args) -> RunConfig:
    config = RunConfig()
    if args.config:
        config = runcfg.load_config(args.config, config)
    if args.set:
        config = runcfg.apply_overrides(config, args.set)
    if args.jobs is not None:
        try:
            config = dataclasses.replace(config, jobs=args.jobs)
        except ConfigError as exc:
            raise ConfigError(f"flag '--jobs {args.jobs}': {exc}") from None
    return config


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        config = _build_config(args)
        return _COMMANDS[args.command](config, args)
    except _INPUT_ERRORS as exc:
        _warn(f"error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
