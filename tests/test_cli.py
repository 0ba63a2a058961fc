"""End-to-end command-line runs: exit codes, artifacts, idempotence."""

import json
import os

import numpy as np
import pytest

from endofeat import cli, data, matching, network, train
from endofeat.synthetic import band_limited_texture, warped_sequence

from helpers import toy_architecture


def make_workspace(root, n_frames=4, size=64, blank=False):
    """Frames + initial weights + config file under `root`."""
    frames_dir = root / "frames"
    frames_dir.mkdir()
    if blank:
        frames = [np.zeros((size, size)) for _ in range(n_frames)]
    else:
        base = band_limited_texture(size, size, seed=123)
        frames, _ = warped_sequence(base, n_frames, seed=5)
    for fid, img in enumerate(frames):
        data.write_pgm(frames_dir / data.frame_name(fid), img, maxval=65535)

    weights = root / "initial.weights"
    network.save_weights(network.init_params(toy_architecture(), seed=11), weights)

    out_dir = root / "out"
    cfg = root / "run.cfg"
    cfg.write_text(
        f"""
        frames_dir = {frames_dir}
        weights_path = {weights}
        output_dir = {out_dir}
        seed = 3
        iterations = 2
        learning_rate = 1e-4
        batch_size = 2
        label_threshold = 0.001
        label_max_points = 50
        detection_threshold = 0.001
        max_features = 200
        steps = 1
        models = H
        homography_perspective = 0.01
        homography_scale_min = 0.95
        homography_scale_max = 1.05
        homography_rotation_deg = 5.0
        homography_translation = 0.02
        """
    )
    return {"root": root, "frames": frames_dir, "weights": weights, "out": out_dir, "cfg": cfg}


def run(ws, *argv):
    return cli.main([argv[0], "--config", str(ws["cfg"]), *argv[1:]])


def test_pipeline_end_to_end(tmp_path, capsys):
    ws = make_workspace(tmp_path)
    out = ws["out"]

    # pseudolabel: one label file per frame, then skip on rerun
    assert run(ws, "pseudolabel") == 0
    assert "wrote 4, skipped 0, failed 0" in capsys.readouterr().out
    labels = sorted(os.listdir(out / "labels"))
    assert labels == [f"frame_{i:06d}.txt" for i in range(4)]
    assert run(ws, "pseudolabel") == 0
    assert "wrote 0, skipped 4" in capsys.readouterr().out

    # train: weights + history, then skip unless --force
    assert run(ws, "train") == 0
    assert "final loss" in capsys.readouterr().out
    trained = out / "trained.weights"
    assert trained.is_file()
    history = (out / "train_history.csv").read_text().strip().split("\n")
    assert history[0] == "iteration,total,detection,descriptor,specularity"
    assert len(history) == 3  # header + 2 iterations
    assert run(ws, "train") == 0
    assert "skipping" in capsys.readouterr().out

    # detect with the tuned weights
    assert run(ws, "detect", "--set", f"weights_path={trained}") == 0
    capsys.readouterr()
    feat_dir = out / "features" / "learned"
    for fid in range(4):
        assert (feat_dir / f"frame_{fid:06d}.feat").is_file()
        assert (feat_dir / f"frame_{fid:06d}.feat.desc").is_file()
    assert run(ws, "detect") == 0
    assert "skipped 4" in capsys.readouterr().out

    # eval: report triple with recorded metadata
    assert run(ws, "eval") == 0
    printed = capsys.readouterr().out
    assert printed.startswith("method,step,pairs")
    doc = json.loads((out / "report.json").read_text())
    assert doc["metadata"]["seed"] == 3
    assert doc["metadata"]["models"] == ["H"]
    assert doc["metadata"]["methods"] == ["learned"]
    rows = [e for e in doc["methods"]["learned"]["1"]]
    assert len(rows) == 3
    assert (out / "report.csv").read_text() == printed[: printed.index("eval: ")]
    assert (out / "rotation_histogram.csv").is_file()


def test_requires_subcommand():
    with pytest.raises(SystemExit) as err:
        cli.main([])
    assert err.value.code == 2


def test_unknown_override_exits_2(tmp_path, capsys):
    ws = make_workspace(tmp_path, n_frames=2)
    assert run(ws, "detect", "--set", "bogus=1") == 2
    assert "unknown key" in capsys.readouterr().err


def test_bad_jobs_exits_2(tmp_path, capsys):
    ws = make_workspace(tmp_path, n_frames=2)
    assert run(ws, "detect", "--jobs", "0") == 2
    assert "flag '--jobs 0': key 'jobs': must be at least 1" in capsys.readouterr().err


def test_missing_weights_exits_2(tmp_path, capsys):
    ws = make_workspace(tmp_path, n_frames=2)
    os.remove(ws["weights"])
    assert run(ws, "pseudolabel") == 2
    assert "weights file not found" in capsys.readouterr().err


def test_unconfigured_frames_dir_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 1\n")
    assert cli.main(["detect", "--config", str(cfg)]) == 2
    assert "frames_dir is not configured" in capsys.readouterr().err


def test_corrupt_frame_is_partial_failure(tmp_path, capsys):
    ws = make_workspace(tmp_path, n_frames=3)
    (ws["frames"] / "frame_000001.pgm").write_bytes(b"P6 not a pgm")
    assert run(ws, "pseudolabel") == 1
    captured = capsys.readouterr()
    assert "wrote 2, skipped 0, failed 1" in captured.out
    assert "frame 1 failed" in captured.err
    # the healthy frames still produced labels
    assert (ws["out"] / "labels" / "frame_000000.txt").is_file()
    assert (ws["out"] / "labels" / "frame_000002.txt").is_file()
    assert not (ws["out"] / "labels" / "frame_000001.txt").exists()


@pytest.mark.parametrize("command", ["detect", "pseudolabel"])
def test_wrong_size_mask_fails_every_frame(tmp_path, capsys, command):
    ws = make_workspace(tmp_path, n_frames=2)
    mask = tmp_path / "mask.pgm"
    data.write_pgm(mask, np.ones((32, 64)))  # frames are 64 x 64
    assert run(ws, command, "--set", f"mask_path={mask}") == 1
    captured = capsys.readouterr()
    assert "wrote 0, skipped 0, failed 2" in captured.out
    for fid in range(2):
        assert f"frame {fid} failed" in captured.err
        assert f"{data.frame_name(fid)}: mask size (32, 64)" in captured.err


def test_train_without_labels_exits_2(tmp_path, capsys):
    ws = make_workspace(tmp_path, n_frames=2)
    assert run(ws, "train") == 2
    err = capsys.readouterr().err
    assert "missing label files" in err and "pseudolabel" in err


@pytest.mark.parametrize(
    "command, setting",
    [
        ("detect", "max_features=0"),
        ("detect", "detection_nms_window=4"),
        ("pseudolabel", "label_nms_window=4"),
        ("pseudolabel", "label_max_points=0"),
        ("eval", "ransac_confidence=1"),
        ("eval", "ransac_threshold_px=nan"),
        ("detect", "detection_threshold=nan"),
    ],
)
def test_invalid_setting_exits_2_before_any_frame(tmp_path, capsys, command, setting):
    ws = make_workspace(tmp_path, n_frames=2)
    assert run(ws, command, "--set", setting) == 2
    captured = capsys.readouterr()
    assert f"key '{setting.split('=')[0]}'" in captured.err
    assert "failed" not in captured.err and captured.out == ""
    assert not ws["out"].exists()


@pytest.mark.parametrize(
    "setting, message",
    [
        ("iterations=0", "iterations must be >= 1"),
        ("learning_rate=-1", "learning_rate must be >= 0"),
        ("homography_scale_min=5", "need 0 < scale_min <= scale_max"),
        ("specularity_weight=-1", "specularity_weight must be >= 0"),
        ("descriptor_weight=-1", "descriptor_weight must be >= 0"),
        ("checkpoint_every=-3", "checkpoint_every must be >= 0"),
        ("learning_rate=nan", "key 'learning_rate': must be finite, got nan"),
    ],
)
def test_invalid_train_setting_exits_2_even_when_outputs_exist(tmp_path, capsys, setting, message):
    ws = make_workspace(tmp_path, n_frames=2)
    assert run(ws, "pseudolabel") == 0
    for name in ("trained.weights", "train_history.csv"):
        (ws["out"] / name).write_text("earlier run\n")
    capsys.readouterr()
    assert run(ws, "train", "--set", setting) == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""
    assert (ws["out"] / "trained.weights").read_text() == "earlier run\n"


def test_eval_bad_models_exits_2_before_reading_frames(tmp_path, capsys):
    ws = make_workspace(tmp_path, n_frames=2)
    (ws["frames"] / data.frame_name(0)).write_bytes(b"not a pgm")
    assert run(ws, "eval", "--set", "models=H,Q") == 2
    err = capsys.readouterr().err
    assert "unknown model tag 'Q'" in err and "pgm" not in err


@pytest.mark.parametrize("setting", ["models=E", "models=H,E"])
def test_eval_essential_without_intrinsics_exits_2_before_reading_frames(tmp_path, capsys, setting):
    ws = make_workspace(tmp_path, n_frames=2)
    (ws["frames"] / data.frame_name(0)).write_bytes(b"not a pgm")
    assert run(ws, "eval", "--set", setting) == 2
    err = capsys.readouterr().err
    assert "model E needs intrinsics_path" in err and "pgm" not in err
    assert not ws["out"].exists()


@pytest.mark.parametrize(
    "setting",
    ["steps=", "steps=-1", "steps=0,1", "steps=1,1", "methods=learned,learned", "models=H,H"],
)
def test_eval_bad_steps_exits_2_before_reading_frames(tmp_path, capsys, setting):
    ws = make_workspace(tmp_path, n_frames=2)
    (ws["frames"] / data.frame_name(0)).write_bytes(b"not a pgm")
    assert run(ws, "eval", "--set", setting) == 2
    captured = capsys.readouterr()
    assert f"key '{setting.split('=')[0]}'" in captured.err and "pgm" not in captured.err
    assert captured.out == "" and not ws["out"].exists()


@pytest.mark.parametrize(
    "command, setting",
    [("detect", "method="), ("detect", "method=../labels"), ("detect", "method=."),
     ("eval", "methods=learned,.."), ("eval", "method=a/b")],
)
def test_method_not_one_directory_name_exits_2_before_any_frame(tmp_path, capsys, command, setting):
    # a method names a directory under features_dir: '' would write into
    # features_dir itself and '../labels' next to it
    ws = make_workspace(tmp_path, n_frames=2)
    assert run(ws, command, "--set", setting) == 2
    captured = capsys.readouterr()
    assert f"key '{setting.split('=')[0]}'" in captured.err and captured.out == ""
    assert not ws["out"].exists()


def test_train_rerun_skips_before_reading_frames(tmp_path, capsys, monkeypatch):
    ws = make_workspace(tmp_path, n_frames=3)
    assert run(ws, "pseudolabel") == 0
    assert run(ws, "train") == 0
    read_frame = data.read_frame
    reads = []

    def counting(*args, **kwargs):
        reads.append(args[0])
        return read_frame(*args, **kwargs)

    monkeypatch.setattr(data, "read_frame", counting)
    capsys.readouterr()
    assert run(ws, "train") == 0
    assert "train: outputs exist, skipping" in capsys.readouterr().out
    assert reads == []
    assert run(ws, "train", "--force") == 0
    assert len(reads) == 3


@pytest.mark.parametrize(
    "command, skip_line",
    [("train", "train: outputs exist, skipping"), ("detect", "detect: wrote 0, skipped 2, failed 0")],
)
def test_rerun_skips_before_loading_weights(tmp_path, capsys, monkeypatch, command, skip_line):
    ws = make_workspace(tmp_path, n_frames=2)
    assert run(ws, "pseudolabel") == 0
    assert run(ws, command) == 0
    os.remove(ws["weights"])
    loads = []
    monkeypatch.setattr(network, "load_weights", loads.append)
    capsys.readouterr()
    assert run(ws, command) == 0
    assert skip_line in capsys.readouterr().out
    assert loads == []
    assert run(ws, command, "--force") == 2
    assert "weights file not found" in capsys.readouterr().err
    assert loads == []


def test_train_label_outside_frame_names_file(tmp_path, capsys):
    ws = make_workspace(tmp_path, n_frames=2)
    assert run(ws, "pseudolabel") == 0
    label = ws["out"] / "labels" / "frame_000001.txt"
    label.write_text("1000 3 0.5\n")
    capsys.readouterr()
    assert run(ws, "train") == 2
    err = capsys.readouterr().err
    assert f"{label}: point (1000, 3) outside the 64x64 frame" in err
    assert not (ws["out"] / "trained.weights").exists()


def test_train_frame_size_not_multiple_of_cell_exits_2_before_training(tmp_path, capsys, monkeypatch):
    ws = make_workspace(tmp_path, n_frames=3)
    assert run(ws, "pseudolabel") == 0
    frame = ws["frames"] / data.frame_name(2)
    data.write_pgm(frame, np.full((60, 60), 0.5), maxval=65535)
    (ws["out"] / "labels" / "frame_000002.txt").write_text("3 3 0.5\n")  # inside the frame
    calls = []
    monkeypatch.setattr(train, "finetune", lambda *args, **kwargs: calls.append(args))
    capsys.readouterr()
    assert run(ws, "train") == 2
    assert f"{frame}: frame size 60x60 is not a multiple of 8" in capsys.readouterr().err
    assert calls == []


def test_train_label_not_utf8_names_file(tmp_path, capsys):
    ws = make_workspace(tmp_path, n_frames=2)
    assert run(ws, "pseudolabel") == 0
    label = ws["out"] / "labels" / "frame_000001.txt"
    label.write_bytes(b"3 3 0.5\n\xff\n")
    capsys.readouterr()
    assert run(ws, "train") == 2
    assert f"{label}: not UTF-8 text" in capsys.readouterr().err


def test_unsatisfiable_warp_exits_2(tmp_path, capsys):
    # a valid scale range that no sampled homography can keep inside the frame
    ws = make_workspace(tmp_path, n_frames=2)
    assert run(ws, "pseudolabel") == 0
    capsys.readouterr()
    assert run(ws, "train", "--set", "homography_scale_min=3", "--set", "homography_scale_max=3") == 2
    assert "error: no homography" in capsys.readouterr().err
    assert not (ws["out"] / "trained.weights").exists()


def test_match_is_not_a_command(tmp_path, capsys):
    # eval computes matches in memory and writes every report file itself
    ws = make_workspace(tmp_path, n_frames=2)
    for removed in ("match", "report"):
        with pytest.raises(SystemExit) as exc:
            run(ws, removed)
        assert exc.value.code == 2
        assert f"invalid choice: '{removed}'" in capsys.readouterr().err


def test_eval_incomplete_coverage_exits_2(tmp_path, capsys):
    ws = make_workspace(tmp_path, n_frames=2)
    feat_dir = ws["out"] / "features" / "learned"
    feat_dir.mkdir(parents=True)
    empty_kp = matching.KeypointSet(np.empty((0, 2)), np.empty(0))
    empty_desc = matching.DescriptorSet(np.empty((0, 2), np.float32))
    matching.save_features(matching.feature_path(feat_dir, 0), empty_kp, empty_desc)
    assert run(ws, "eval") == 2
    err = capsys.readouterr().err
    assert "inconsistent frame coverage" in err and "frame 1" in err


def test_eval_step_without_pairs_exits_2(tmp_path, capsys):
    ws = make_workspace(tmp_path, n_frames=2)
    assert run(ws, "detect") == 0
    capsys.readouterr()
    assert run(ws, "eval", "--set", "steps=5") == 2
    assert "no frame pairs" in capsys.readouterr().err


@pytest.mark.parametrize("resave, detail", [
    (lambda kp: matching.DescriptorSet(np.zeros((len(kp), 3), np.float32)),
     "L2 descriptors of dim 3, but frame 0 has L2 descriptors of dim 2"),
    (lambda kp: matching.DescriptorSet(np.zeros((len(kp), 1), np.uint8), "HAMMING", bits=2),
     "HAMMING descriptors of dim 2, but frame 0 has L2 descriptors of dim 2"),
], ids=["dim", "metric"])
def test_eval_names_method_and_frame_of_mixed_descriptors(tmp_path, capsys, resave, detail):
    ws = make_workspace(tmp_path)
    assert run(ws, "detect") == 0
    path = matching.feature_path(ws["out"] / "features" / "learned", 3)
    kp, _ = matching.load_features(path, 3)
    matching.save_features(path, kp, resave(kp))
    capsys.readouterr()
    assert run(ws, "eval") == 2
    assert f"error: method 'learned': frame 3: {detail}" in capsys.readouterr().err
    assert not (ws["out"] / "report.json").exists()


@pytest.mark.parametrize("command, subdir, suffixes", [
    ("pseudolabel", "labels", (".txt",)),
    ("detect", "features/learned", (".feat", ".feat.desc")),
], ids=["pseudolabel", "detect"])
def test_jobs_parallel_output_matches_serial(tmp_path, capsys, command, subdir, suffixes):
    ws = make_workspace(tmp_path, n_frames=3)
    assert run(ws, command, "--set", f"output_dir={tmp_path / 'serial'}") == 0
    assert run(ws, command, "--set", f"output_dir={tmp_path / 'par'}", "--jobs", "3") == 0
    capsys.readouterr()
    for fid in range(3):
        for suffix in suffixes:
            name = f"{subdir}/frame_{fid:06d}{suffix}"
            serial = (tmp_path / "serial" / name).read_bytes()
            parallel = (tmp_path / "par" / name).read_bytes()
            assert serial == parallel


def test_blank_frames_detect_cleanly(tmp_path, capsys):
    ws = make_workspace(tmp_path, n_frames=2, blank=True)
    assert run(ws, "detect", "--set", "detection_threshold=0.5") == 0
    capsys.readouterr()
    feat_dir = ws["out"] / "features" / "learned"
    kp, desc = matching.load_features(matching.feature_path(feat_dir, 0), 0)
    assert len(kp) == 0 and len(desc) == 0


@pytest.mark.parametrize("command, subdir, removed", [
    ("pseudolabel", "labels", "frame_000002.txt"),
    ("detect", "features/learned", "frame_000002.feat.desc"),
], ids=["pseudolabel", "detect"])
def test_rerun_recomputes_only_partial_outputs_and_force_rewrites_all(
    tmp_path, capsys, command, subdir, removed
):
    ws = make_workspace(tmp_path)
    out_dir = ws["out"] / subdir
    assert run(ws, command) == 0
    first = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    (out_dir / removed).unlink()
    capsys.readouterr()
    assert run(ws, command) == 0
    assert f"{command}: wrote 1, skipped 3, failed 0" in capsys.readouterr().out
    assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == first
    assert run(ws, command, "--force") == 0
    assert f"{command}: wrote 4, skipped 0, failed 0" in capsys.readouterr().out
    assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == first


def test_eval_accepts_frames_of_different_sizes(tmp_path, capsys):
    ws = make_workspace(tmp_path)
    wide = band_limited_texture(64, 80, seed=7)
    data.write_pgm(ws["frames"] / data.frame_name(2), wide, maxval=65535)
    assert run(ws, "detect") == 0
    assert run(ws, "eval") == 0
    capsys.readouterr()
    kp, _ = matching.load_features(matching.feature_path(ws["out"] / "features" / "learned", 2), 2)
    assert kp.points[:, 0].max() >= 64  # keypoints reach into the wider frame's extra columns
    doc = json.loads((ws["out"] / "report.json").read_text())
    pairs = [(e["frame_a"], e["frame_b"]) for e in doc["methods"]["learned"]["1"]]
    assert pairs == [(0, 1), (1, 2), (2, 3)]
