"""Run configuration for the command-line harness.

Config files are line-oriented ``key = value`` text with ``#`` comments.
Keys map one-to-one onto RunConfig fields; unknown or duplicate keys, and
settings the pipeline cannot run with, are rejected so mistakes fail
loudly before any computation starts. Values are converted to the field's
declared type (comma-separated for tuples). Command-line ``--set
key=value`` overrides are applied after the file, so flags win. Field
defaults are read from the module that owns each setting: LossConfig,
TrainConfig, HomographyConfig and the detection, label and RANSAC
constants. Each of those three module configs is built back from the
RunConfig fields named after its own (``homography_`` + field for the warp).
"""

from __future__ import annotations

import dataclasses
import math
import os
import typing
from dataclasses import dataclass

from . import data, geometry, matching, metrics
from .homography import HomographyConfig
from .losses import LossConfig
from .train import TrainConfig


class ConfigError(Exception):
    """Malformed configuration text, unknown key, or invalid value."""


@dataclass(frozen=True)
class RunConfig:
    # --- paths ---
    frames_dir: str = ""
    mask_path: str = ""  # optional circular-FOV mask (PGM, nonzero = inside)
    weights_path: str = ""
    output_dir: str = "out"
    labels_dir: str = ""  # default: <output_dir>/labels
    features_dir: str = ""  # default: <output_dir>/features
    pose_path: str = ""  # optional reference poses
    intrinsics_path: str = ""  # optional pinhole intrinsics
    # --- detection (test-time) ---
    detection_threshold: float = matching.DETECTION_THRESHOLD
    detection_nms_window: int = matching.DETECTION_NMS_WINDOW
    max_features: int = matching.MAX_FEATURES
    # --- pseudo-labels (teacher) ---
    label_threshold: float = data.LABEL_THRESHOLD
    label_nms_window: int = data.LABEL_NMS_WINDOW
    label_max_points: int = data.LABEL_MAX_POINTS
    # --- robust estimation ---
    ransac_confidence: float = geometry.RANSAC_CONFIDENCE
    ransac_threshold_px: float = geometry.RANSAC_THRESHOLD_PX
    # --- evaluation ---
    steps: tuple[int, ...] = (1,)
    models: str = "auto"  # "auto" or comma list of metrics.MODELS tags
    method: str = "learned"  # name used when writing features
    methods: tuple[str, ...] = ()  # evaluated methods; default: (method,)
    # --- loss weights ---
    descriptor_weight: float = LossConfig.descriptor_weight
    correspondence_weight: float = LossConfig.correspondence_weight
    margin_positive: float = LossConfig.margin_positive
    margin_negative: float = LossConfig.margin_negative
    specularity_weight: float = LossConfig.specularity_weight
    # --- training ---
    iterations: int = TrainConfig.iterations
    learning_rate: float = TrainConfig.learning_rate
    batch_size: int = TrainConfig.batch_size
    checkpoint_every: int = TrainConfig.checkpoint_every
    # --- homography sampling amplitudes ---
    homography_perspective: float = HomographyConfig.perspective
    homography_scale_min: float = HomographyConfig.scale_min
    homography_scale_max: float = HomographyConfig.scale_max
    homography_rotation_deg: float = HomographyConfig.rotation_deg
    homography_translation: float = HomographyConfig.translation
    # --- misc ---
    seed: int = 0
    jobs: int = 1

    def __post_init__(self):
        if not self.steps or min(self.steps) < 1 or len(set(self.steps)) < len(self.steps):
            raise ConfigError(
                "key 'steps': must list one or more distinct steps, each at least 1, "
                f"got {self.steps}"
            )
        if len(set(self.methods)) < len(self.methods):
            raise ConfigError(f"key 'methods': must list distinct methods, got {self.methods}")
        for key in ("detection_nms_window", "label_nms_window"):
            window = getattr(self, key)
            if window < 1 or window % 2 == 0:
                raise ConfigError(f"key {key!r}: must be odd and positive, got {window}")
        for key in ("max_features", "label_max_points", "jobs"):
            if getattr(self, key) < 1:
                raise ConfigError(f"key {key!r}: must be at least 1, got {getattr(self, key)}")
        if self.seed < 0:
            raise ConfigError(f"key 'seed': must be at least 0, got {self.seed}")
        if not 0.0 < self.ransac_confidence < 1.0:
            raise ConfigError(
                f"key 'ransac_confidence': must lie in (0, 1), got {self.ransac_confidence}"
            )
        if not (math.isfinite(self.ransac_threshold_px) and self.ransac_threshold_px > 0):
            raise ConfigError(
                f"key 'ransac_threshold_px': must be finite and positive,"
                f" got {self.ransac_threshold_px}"
            )


_HINTS = typing.get_type_hints(RunConfig)


def _convert(kind, key: str, raw: str):
    try:
        if kind is str:
            return raw
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: {exc}") from None
    raise ConfigError(f"key {key!r} has unsupported type {kind!r}")


def parse_value(key: str, raw: str):
    """Convert raw text to the declared type of the RunConfig field."""
    if key not in _HINTS:
        raise ConfigError(f"unknown key {key!r}")
    hint = _HINTS[key]
    if typing.get_origin(hint) is tuple:
        elem = typing.get_args(hint)[0]
        parts = [p.strip() for p in raw.split(",") if p.strip()]
        return tuple(_convert(elem, key, p) for p in parts)
    return _convert(hint, key, raw)


def parse_config_text(text: str, base: RunConfig | None = None) -> RunConfig:
    """Parse `key = value` lines on top of `base` (defaults when omitted).

    Keys apply one line at a time, so a value out of range names its line;
    every RunConfig check looks at one field."""
    config = base if base is not None else RunConfig()
    seen = set()
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        key, sep, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if not sep or not key:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line.rstrip()!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        try:
            config = dataclasses.replace(config, **{key: parse_value(key, raw)})
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
    return config


def load_config(path, base: RunConfig | None = None) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return parse_config_text(text, base)


def apply_overrides(config: RunConfig, overrides) -> RunConfig:
    """Apply `key=value` strings (e.g. from --set flags); later ones win.
    An error names the override it comes from."""
    for item in overrides:
        key, sep, raw = item.partition("=")
        key = key.strip()
        if not sep or not key:
            raise ConfigError(f"override {item!r}: expected key=value")
        try:
            config = dataclasses.replace(config, **{key: parse_value(key, raw.strip())})
        except ConfigError as exc:
            raise ConfigError(f"override {item!r}: {exc}") from None
    return config


# ---------------------------------------------------------------------------
# derived paths and per-module config objects
# ---------------------------------------------------------------------------


def labels_dir(config: RunConfig) -> str:
    return config.labels_dir or os.path.join(config.output_dir, "labels")


def features_dir(config: RunConfig, method: str) -> str:
    base = config.features_dir or os.path.join(config.output_dir, "features")
    return os.path.join(base, method)


def method_names(config: RunConfig) -> tuple:
    return config.methods if config.methods else (config.method,)


def model_tags(config: RunConfig):
    """'auto' or an explicit tuple of metrics.MODELS tags; E needs intrinsics."""
    if config.models.strip() == "auto":
        return "auto"
    known = ", ".join(metrics.MODELS)
    tags = tuple(t.strip() for t in config.models.split(",") if t.strip())
    for t in tags:
        if t not in metrics.MODELS:
            raise ConfigError(f"unknown model tag {t!r} (expected one of {known})")
    if not tags:
        raise ConfigError(f"models must be 'auto' or a comma list of {known}")
    if len(set(tags)) < len(tags):
        raise ConfigError(f"key 'models': must list distinct tags, got {config.models!r}")
    if "E" in tags and not config.intrinsics_path:
        raise ConfigError("model E needs intrinsics_path")
    return tags


def _section(cls, config: RunConfig, prefix: str = "", **given):
    """Build module config `cls`, each field not in `given` read from the
    RunConfig field `prefix + name`; the module's ValueError is a ConfigError."""
    for f in dataclasses.fields(cls):
        if f.name not in given:
            given[f.name] = getattr(config, prefix + f.name)
    try:
        return cls(**given)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def homography_config(config: RunConfig) -> HomographyConfig:
    return _section(HomographyConfig, config, "homography_")


def loss_config(config: RunConfig) -> LossConfig:
    return _section(LossConfig, config)


def train_config(config: RunConfig) -> TrainConfig:
    return _section(TrainConfig, config, homography=homography_config(config))
