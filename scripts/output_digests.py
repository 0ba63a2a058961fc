#!/usr/bin/env python3
"""Print the output digests of four benchmark workloads: eval_seq at seeds 0-9,
the others at seeds 0 and 3.

For train_toy, train_full, detect_qvga and eval_seq (benchmark/workloads.py),
each seed generates the workload's inputs in a temporary directory, runs its
command through cli.main and prints one line:

    <workload> seed <seed>: exit <code> <workload digest>

then one indented `<name> <sha256>` line per file under a checkpoints
directory (the weights and Adam-state archives), in name order.

The endofeat package and the workloads module are whatever PYTHONPATH
names, so one copy of this script compares two checkouts:

    PYTHONPATH=<checkout>/src:<checkout>/benchmark python scripts/output_digests.py

A change that keeps training's, detection's and evaluation's bytes prints
the same lines on both trees.
"""

import contextlib
import glob
import hashlib
import io
import os
import tempfile

import workloads
from endofeat import cli

# eval takes about 0.1 s per seed, so it is checked on ten
SEEDS = {"train_toy": (0, 3), "train_full": (0, 3), "detect_qvga": (0, 3), "eval_seq": range(10)}


def main() -> None:
    for name, seeds in SEEDS.items():
        workload = workloads.WORKLOADS[name]
        for seed in seeds:
            with tempfile.TemporaryDirectory() as d:
                prepared = workload.generate(d, seed)
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(prepared.argv)
                print(f"{name} seed {seed}: exit {code} {workload.digest(prepared)}")
                for path in sorted(glob.glob(os.path.join(d, "**", "checkpoints", "*"), recursive=True)):
                    with open(path, "rb") as f:
                        print(f"  {os.path.basename(path)} {hashlib.sha256(f.read()).hexdigest()}")


if __name__ == "__main__":
    main()
