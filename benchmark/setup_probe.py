"""Time one stage's set-up in a fresh interpreter.

    python3 setup_probe.py WORKLOAD CONFIG

Set-up is what a CLI stage pays before its per-item work: importing
endofeat (and with it numpy), reading the config, and the weights, frame,
label and feature loads that the stage makes up front. Prints the set-up
seconds and then the speed-probe seconds measured right after it.
"""

import os
import sys
import time

start = time.perf_counter()
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from endofeat import cli, config, data, geometry, matching, network  # noqa: E402,F401


def main(workload: str, cfg_path: str) -> None:
    cfg = config.load_config(cfg_path)
    if workload.startswith("train"):
        network.load_weights(cfg.weights_path)
        for fid, path in data.list_frames(cfg.frames_dir):
            data.read_pgm(path)
            data.load_label(data.label_path(config.labels_dir(cfg), fid))
    elif workload.startswith("detect"):
        network.load_weights(cfg.weights_path)
    else:
        frames = data.list_frames(cfg.frames_dir)
        for _, path in frames:
            data.read_pgm(path)
        geometry.load_pose_file(cfg.pose_path)
        geometry.load_intrinsics(cfg.intrinsics_path)
        feat_dir = config.features_dir(cfg, cfg.method)
        for fid, _ in frames:
            matching.load_features(matching.feature_path(feat_dir, fid), fid)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
    setup_s = time.perf_counter() - start
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from speed import probe_median

    print(repr(setup_s), repr(probe_median(3)))
