"""Config parsing, overrides, derived paths, sub-config conversion."""

import dataclasses
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from endofeat import cli, data, geometry, losses, matching
from endofeat.config import (
    ConfigError,
    RunConfig,
    _convert,
    apply_overrides,
    config_text,
    features_dir,
    homography_config,
    labels_dir,
    load_config,
    loss_config,
    method_names,
    model_tags,
    parse_config_text,
    parse_value,
    train_config,
)
from endofeat.losses import LossConfig
from endofeat.train import TrainConfig

from helpers import load_script


def test_defaults_match_release_settings():
    cfg = RunConfig()
    assert cfg.detection_threshold == 0.015
    assert cfg.detection_nms_window == 3
    assert cfg.max_features == 10000
    assert cfg.label_nms_window == 9
    assert cfg.label_max_points == 600
    assert cfg.ransac_confidence == 0.9999
    assert cfg.ransac_threshold_px == 3.0
    assert cfg.specularity_weight == 100.0
    # SuperPoint's hinge values are constants, not settings
    assert (losses._MARGIN_POSITIVE, losses._MARGIN_NEGATIVE, losses._CORRESPONDENCE_WEIGHT) == (
        1.0, 0.2, 250.0
    )
    assert cfg.learning_rate == 1e-5
    assert cfg.batch_size == 2


def test_parse_config_text_types_and_comments():
    cfg = parse_config_text(
        """
        # run settings
        frames_dir = data/frames   # trailing comment
        iterations = 40
        learning_rate = 2e-4
        steps = 1, 5,10
        methods = learned, orb
        """
    )
    assert cfg.frames_dir == "data/frames"
    assert cfg.iterations == 40
    assert cfg.learning_rate == 2e-4
    assert cfg.steps == (1, 5, 10)
    assert cfg.methods == ("learned", "orb")


def test_parse_config_text_rejects_bad_lines():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("not a setting\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text("nonsense = 3\n")
    with pytest.raises(ConfigError, match="line 2: duplicate"):
        parse_config_text("seed = 1\nseed = 2\n")
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("iterations = soon\n")
    # match files are no longer written, so their directory is no longer a key
    with pytest.raises(ConfigError, match="unknown key 'matches_dir'"):
        parse_config_text("matches_dir = out/matches\n")


@pytest.mark.parametrize("key", ["margin_positive", "margin_negative", "correspondence_weight"])
def test_fixed_hinge_values_are_unknown_keys(tmp_path, capsys, key):
    with pytest.raises(ConfigError, match=f"line 1: unknown key '{key}'"):
        parse_config_text(f"{key} = 1.0\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = 1.0\n")
    assert cli.main(["train", "--config", str(cfg)]) == 2
    assert f"unknown key '{key}'" in capsys.readouterr().err
    assert cli.main(["train", "--set", f"{key}=1.0"]) == 2
    assert f"unknown key '{key}'" in capsys.readouterr().err


def test_hash_starts_a_comment_only_at_line_start_or_after_whitespace(tmp_path):
    path = "/data/run#3/frames"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"frames_dir = {path}\n#seed = 4\n  # seed = 5\nsteps = 1   # strides\n")
    loaded = load_config(cfg)
    assert loaded.frames_dir == apply_overrides(RunConfig(), [f"frames_dir={path}"]).frames_dir == path
    assert loaded.seed == 0 and loaded.steps == (1,)
    assert parse_config_text("steps = 1\t# strides\n").steps == (1,)
    with pytest.raises(ConfigError, match=r"line 1: key 'seed': invalid literal .* '3#x'"):
        parse_config_text("seed = 3#x\n")


def test_config_text_reads_back_or_names_the_key():
    settings = {"frames_dir": "/data/smoke#1/frames", "weights_path": "", "seed": 3, "steps": "1, 2"}
    text = config_text(settings)
    assert text == "frames_dir = /data/smoke#1/frames\nweights_path = \nseed = 3\nsteps = 1, 2\n"
    loaded = parse_config_text(text)
    assert (loaded.frames_dir, loaded.weights_path, loaded.seed, loaded.steps) == (
        "/data/smoke#1/frames", "", 3, (1, 2))
    for value in ("/data/run #2/frames", "/data/run\t#2", " lead", "trail ", "a\nseed = 4",
                  "a\n= b", "a\rb"):
        with pytest.raises(ConfigError, match="key 'frames_dir'"):
            config_text({"seed": 1, "frames_dir": value})
    with pytest.raises(ConfigError, match="unknown key 'margin'"):
        config_text({"margin": 1.0})


@pytest.mark.parametrize("script", ["make_synthetic_dataset", "run_pipeline_demo"])
def test_scripts_exit_2_and_write_nothing_when_run_cfg_cannot_hold_the_output(
    tmp_path, capsys, script
):
    # '#' after a space would start a comment in run.cfg, and every command
    # would then read frames_dir as <tmp>/run
    argv = ["--output", str(tmp_path / "run #2"), "--frames", "2", "--size", "32"]
    if script == "run_pipeline_demo":
        argv += ["--iterations", "1"]  # keeps a regression that trains first short
    try:
        code = load_script(script).main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert "key 'frames_dir'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_synthetic_dataset_run_cfg_reads_back_a_hash_in_a_word(tmp_path):
    out = tmp_path / "smoke#1"
    main = load_script("make_synthetic_dataset").main
    assert main(["--output", str(out), "--frames", "2", "--size", "32", "--markers", "0"]) == 0
    loaded = load_config(out / "run.cfg")
    assert (loaded.frames_dir, loaded.output_dir) == (str(out / "frames"), str(out / "out"))
    assert sorted(os.listdir(loaded.frames_dir)) == [data.frame_name(0), data.frame_name(1)]


def test_load_config_skips_a_utf8_bom(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"\xef\xbb\xbfseed = 5\n")
    assert load_config(cfg).seed == 5


@pytest.mark.parametrize(
    "key, value",
    [("method", ""), ("method", "."), ("method", ".."), ("method", "../labels"),
     ("method", "a/b"), ("methods", "learned, .."),
     ("methods", "orb,x/y")],
)
def test_method_must_be_one_directory_name(key, value):
    message = f"key '{key}': .* is not one directory name"
    with pytest.raises(ConfigError, match="line 1: " + message):
        parse_config_text(f"{key} = {value}\n")
    with pytest.raises(ConfigError, match=message):
        apply_overrides(RunConfig(), [f"{key}={value}"])


def test_range_errors_name_their_line_or_override(tmp_path, capsys):
    with pytest.raises(ConfigError, match=r"^line 3: key 'jobs': must be at least 1, got 0$"):
        parse_config_text("seed = 1\n\njobs = 0\n")
    with pytest.raises(ConfigError, match=r"^override 'steps=0': key 'steps': "):
        apply_overrides(RunConfig(), ["seed=2", "steps=0"])
    # through the CLI: both still exit 2, and stderr names the line or the override
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 1\n\njobs = 0\n")
    assert cli.main(["detect", "--config", str(cfg)]) == 2
    assert "error: line 3: key 'jobs': must be at least 1, got 0" in capsys.readouterr().err
    cfg.write_text("seed = 1\n")
    assert cli.main(["detect", "--config", str(cfg), "--set", "steps=0"]) == 2
    assert "error: override 'steps=0': key 'steps'" in capsys.readouterr().err


def test_negative_seed_fails_before_inputs_are_read(tmp_path, capsys):
    assert cli.main(["eval", "--set", f"frames_dir={tmp_path / 'absent'}", "--set", "seed=-1"]) == 2
    err = capsys.readouterr().err
    assert "error: override 'seed=-1': key 'seed': must be at least 0, got -1" in err
    assert "absent" not in err


def test_convert_rejects_unsupported_type():
    with pytest.raises(ConfigError, match="unsupported type"):
        _convert(bool, "flag", "true")


def test_parse_value_tuple_and_scalar():
    assert parse_value("steps", "3") == (3,)
    assert parse_value("steps", "") == ()
    assert parse_value("seed", "7") == 7
    with pytest.raises(ConfigError):
        parse_value("steps", "1,x")


@pytest.mark.parametrize(
    "key, raw",
    [
        ("seed", "1_0"),  # int() reads it as 10
        ("max_features", "\u0661\u0660"),  # Arabic-Indic digits: 10
        ("steps", "1_0, \u0662"),  # tuple elements: (10, 2)
        ("learning_rate", "1_0.5"),
        ("ransac_threshold_px", "\uff13"),  # fullwidth 3
    ],
)
def test_numbers_are_ascii_without_underscores(key, raw):
    with pytest.raises(ConfigError, match=f"key '{key}': .* is not a number in ASCII without '_'"):
        parse_value(key, raw)
    with pytest.raises(ConfigError, match=f"override '{key}="):
        apply_overrides(RunConfig(), [f"{key}={raw}"])
    assert parse_value("output_dir", raw) == raw  # paths keep any text


def test_load_config_and_missing_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 5\n")
    assert load_config(path).seed == 5
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "absent.cfg")
    path.write_bytes(b"seed = 1\xff\n")  # not UTF-8
    with pytest.raises(ConfigError, match=r"cannot read config file .*run\.cfg: 'utf-8' codec"):
        load_config(path)


def test_apply_overrides_win_and_validate():
    cfg = parse_config_text("seed = 1\niterations = 5\n")
    out = apply_overrides(cfg, ["seed=9", "output_dir=elsewhere"])
    assert out.seed == 9 and out.iterations == 5 and out.output_dir == "elsewhere"
    with pytest.raises(ConfigError, match="key=value"):
        apply_overrides(cfg, ["seed"])
    with pytest.raises(ConfigError, match="unknown key"):
        apply_overrides(cfg, ["sneed=1"])


@pytest.mark.parametrize(
    "key, value",
    [
        ("detection_nms_window", "4"),
        ("detection_nms_window", "0"),
        ("label_nms_window", "-3"),
        ("max_features", "0"),
        ("label_max_points", "-1"),
        ("ransac_confidence", "0"),
        ("ransac_confidence", "1.0"),
        ("ransac_confidence", "nan"),
        ("ransac_threshold_px", "0"),
        ("ransac_threshold_px", "inf"),
        ("ransac_threshold_px", "nan"),
        ("seed", "-1"),
    ],
)
def test_detection_label_and_ransac_settings_validated(key, value):
    with pytest.raises(ConfigError, match=f"key '{key}'"):
        parse_config_text(f"{key} = {value}\n")
    with pytest.raises(ConfigError, match=f"key '{key}'"):
        apply_overrides(RunConfig(), [f"{key}={value}"])


_FLOAT_KEYS = [f.name for f in dataclasses.fields(RunConfig) if f.type == "float"]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", _FLOAT_KEYS)
def test_float_settings_must_be_finite(key, value):
    message = f"key '{key}': must be finite, got {value}"
    with pytest.raises(ConfigError, match=message):
        parse_config_text(f"{key} = {value}\n")
    with pytest.raises(ConfigError, match=message):
        apply_overrides(RunConfig(), [f"{key}={value}"])


def test_derived_paths():
    cfg = RunConfig(output_dir="run")
    assert labels_dir(cfg) == os.path.join("run", "labels")
    assert features_dir(cfg, "learned") == os.path.join("run", "features", "learned")
    custom = RunConfig(labels_dir="L", features_dir="F")
    assert labels_dir(custom) == "L"
    assert features_dir(custom, "m") == os.path.join("F", "m")


def test_method_names_and_model_tags():
    assert method_names(RunConfig()) == ("learned",)
    assert method_names(RunConfig(methods=("a", "b"))) == ("a", "b")
    assert model_tags(RunConfig()) == "auto"
    assert model_tags(RunConfig(models="H, E", intrinsics_path="k.txt")) == ("H", "E")
    with pytest.raises(ConfigError, match="unknown model tag"):
        model_tags(RunConfig(models="H,Q"))
    with pytest.raises(ConfigError, match="auto"):
        model_tags(RunConfig(models=","))
    for models in ("E", "H,E"):
        with pytest.raises(ConfigError, match="model E needs intrinsics_path"):
            model_tags(RunConfig(models=models))


@pytest.mark.parametrize("value", ["", ",", "0", "1,0", "-1", "3,-2", "1,1", "1, 3,1"])
def test_steps_must_be_positive_and_nonempty(value):
    with pytest.raises(ConfigError, match="key 'steps'"):
        parse_config_text(f"steps = {value}\n")
    with pytest.raises(ConfigError, match="key 'steps'"):
        apply_overrides(RunConfig(), [f"steps={value}"])
    with pytest.raises(ConfigError, match="key 'steps'"):
        RunConfig(steps=parse_value("steps", value))
    assert parse_config_text("steps = 1, 25,40\n").steps == (1, 25, 40)


def test_sub_config_conversion_and_errors():
    cfg = RunConfig(homography_rotation_deg=10.0, iterations=3, specularity_weight=0.0)
    hc = homography_config(cfg)
    assert hc.rotation_deg == 10.0 and hc.scale_min == 0.8
    lc = loss_config(cfg)
    assert lc.specularity_weight == 0.0 and lc.descriptor_weight == 1e-4
    tc = train_config(cfg)
    assert tc.iterations == 3 and tc.homography == hc

    with pytest.raises(ConfigError):
        homography_config(RunConfig(homography_scale_min=0.0))
    with pytest.raises(ConfigError):
        loss_config(RunConfig(specularity_weight=-1.0))
    with pytest.raises(ConfigError):
        train_config(RunConfig(batch_size=0))
    with pytest.raises(ConfigError, match="checkpoint_every must be >= 0"):
        train_config(RunConfig(checkpoint_every=-3))


def test_defaults_come_from_their_owners():
    cfg = RunConfig()
    assert loss_config(cfg) == LossConfig()
    assert train_config(cfg) == TrainConfig()
    assert (cfg.detection_threshold, cfg.detection_nms_window, cfg.max_features) == (
        matching.DETECTION_THRESHOLD,
        matching.DETECTION_NMS_WINDOW,
        matching.MAX_FEATURES,
    )
    assert (cfg.label_threshold, cfg.label_nms_window, cfg.label_max_points) == (
        data.LABEL_THRESHOLD,
        data.LABEL_NMS_WINDOW,
        data.LABEL_MAX_POINTS,
    )
    assert (cfg.ransac_confidence, cfg.ransac_threshold_px) == (
        geometry.RANSAC_CONFIDENCE,
        geometry.RANSAC_THRESHOLD_PX,
    )


_KEYS = [f.name for f in dataclasses.fields(RunConfig)]
_VALUE = st.one_of(
    st.text(max_size=12),
    st.integers(-5, 20000).map(str),
    st.floats().map(repr),
    st.sampled_from(["", "nan", "-inf", "1e999", "1,3", ",", "1, x", "9" * 5000, "H,E", "auto"]),
)
_LINE = st.one_of(
    st.text(max_size=30),
    st.tuples(st.sampled_from(_KEYS), st.sampled_from(["=", " = ", "=="]), _VALUE).map("".join),
)


@settings(deadline=None, max_examples=300)
@given(lines=st.lists(_LINE, max_size=6))
def test_parse_config_text_fuzz_config_or_config_error(lines):
    try:
        cfg = parse_config_text("\n".join(lines))
    except ConfigError:
        return
    assert isinstance(cfg, RunConfig)


@settings(deadline=None, max_examples=300)
@given(items=st.lists(_LINE, max_size=4))
def test_apply_overrides_fuzz_config_or_config_error(items):
    try:
        cfg = apply_overrides(RunConfig(), items)
    except ConfigError:
        return
    assert isinstance(cfg, RunConfig)
