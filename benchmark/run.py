#!/usr/bin/env python3
"""Stage benchmark for the endofeat CLI.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmark/run.py --workload all   # every workload, one summary table

A run generates the workload's inputs from --seed, then calls one CLI
stage (train, detect or eval) in this process through
``endofeat.cli.main`` with --jobs 1 and --force, over and over for
--seconds seconds, checking each call's outputs. Before the timed calls,
one call on the inputs of the pinned reference seed warms the process up
and is compared with ``reference.json``. Set-up time is the median over
fresh interpreters that import endofeat and load what the stage loads.

With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 calls alternate between untraced and traced, and it holds the
per-layer metrics. Results, machine facts and (traced) spans are also
written under .benchwork/results/.
"""

from __future__ import annotations

import os
import sys

NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:  # must precede the first numpy import
    os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

from speed import PROBE_NOMINAL_S, probe_median  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".benchwork")
WORKLOAD_NAMES = ("train_toy", "train_full", "detect_qvga", "eval_seq")
REFERENCE_SEED = 0
SETUP_PROBES = 7  # counted set-up probes, after one that only warms the page cache
MIN_CALLS = 3  # timed calls per run, even when they overrun --seconds
PROBE_SHARE, PROBE_MAX = 0.04, 9  # probing time per call time, probes per gap


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=REFERENCE_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-reference", action="store_true",
                   help="store this run's reference-seed outputs in reference.json")
    return p.parse_args(argv)


def load_program():
    """Import endofeat from the checkout's src/; None when it is not there."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "endofeat", "cli.py")):
        return None
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import endofeat.cli

    return endofeat.cli


# ---------------------------------------------------------------------------
# machine facts and machine speed
# ---------------------------------------------------------------------------


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="ascii") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": NPROC,
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": NPROC,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
    }


def host_speed(call_s: float) -> float:
    """Median probe seconds, probing for about PROBE_SHARE of a call's time."""
    return probe_median(min(PROBE_MAX, max(1, round(PROBE_SHARE * call_s / PROBE_NOMINAL_S))))


# ---------------------------------------------------------------------------
# stage calls and their checks
# ---------------------------------------------------------------------------


def probe_setup(workload: str, prepared):
    """(set-up seconds, speed-probe seconds right after), from a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, prepared.config],
        capture_output=True, text=True, timeout=120, check=True,
    )
    setup_s, probe_s = proc.stdout.split()[-2:]
    return float(setup_s), float(probe_s)


def call_stage(cli, prepared):
    """Run the CLI stage once; returns (exit code, wall seconds, captured stderr)."""
    err = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(prepared.argv)
    except Exception:  # a crash in the stage counts as a failed call
        code = -1
        err.write(traceback.format_exc())
    return code, time.perf_counter() - start, err.getvalue()


class Tally:
    """Items attempted and failed, with the reason for each failed call."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def add(self, items: int, failed: int, note: str) -> None:
        self.attempted += items
        self.failed += failed
        if failed:
            self.notes.append(note)


def checked_call(cli, workload, prepared, tally, compare=None, tracer=None):
    """One stage call plus its output checks; returns (wall, output digest).

    compare(digest) returns why the outputs are wrong as a whole, or "".
    With a tracer, the stage call (not the checks) is one traced run.
    """
    if tracer is None:
        code, wall, err = call_stage(cli, prepared)
    else:
        code, wall, err = tracer.run(f"stage.{prepared.command}", lambda: call_stage(cli, prepared))
    if code != 0:
        tally.add(prepared.items, prepared.items, f"exit code {code}: {err.strip()[-500:]}")
        return wall, None
    try:
        failed = workload.check(prepared)
        digest = workload.digest(prepared)
        mismatch = compare(digest) if compare else ""
    except (OSError, ValueError, KeyError) as exc:
        tally.add(prepared.items, prepared.items, f"unreadable output: {exc!r}")
        return wall, None
    if mismatch:
        tally.add(prepared.items, prepared.items, mismatch)
    else:
        tally.add(prepared.items, failed, f"{failed} {workload.item}(s) failed the output check")
    return wall, digest


def reference_compare(workload, prepared, record: bool):
    """compare() for the reference-seed call: outputs against reference.json."""
    from workloads import TRAIN_LOSS_RTOL

    path = os.path.join(HERE, "reference.json")

    def compare(digest) -> str:
        with open(path, encoding="utf-8") as f:
            references = json.load(f)
        value = workload.reference_value(prepared)
        if record:
            references[workload.name] = {"seed": REFERENCE_SEED, "value": value}
            with open(path, "w", encoding="utf-8") as f:
                json.dump(references, f, indent=2, sort_keys=True)
                f.write("\n")
        expected = references.get(workload.name, {}).get("value")
        if isinstance(expected, float):
            same = abs(value - expected) <= TRAIN_LOSS_RTOL * abs(expected)
        else:
            same = value == expected
        return "" if same else f"reference seed output {value!r} != recorded {expected!r}"

    return compare


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------


def run_workload(cli, args) -> int:
    from tracer import PER_LAYER, Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    work = os.path.join(WORK, workload.name)
    shutil.rmtree(work, ignore_errors=True)
    ref_prep = workload.generate(os.path.join(work, "reference"), REFERENCE_SEED)
    prep = ref_prep if args.seed == REFERENCE_SEED else workload.generate(
        os.path.join(work, f"seed{args.seed}"), args.seed)

    setup = [probe_setup(workload.name, prep) for _ in range(1 + SETUP_PROBES)][1:]
    setup_raw = [s for s, _ in setup]
    setup_scaled = [s * PROBE_NOMINAL_S / p for s, p in setup]
    tally = Tally()
    ref_wall, _ = checked_call(cli, workload, ref_prep, tally,
                               reference_compare(workload, ref_prep, args.record_reference))

    # Untraced calls, each followed by speed probes; with --trace 1 every
    # untraced call is followed by a traced one.
    tracer = Tracer() if args.trace else None
    walls, traced_walls, probes = [], [], [host_speed(ref_wall)]
    first = []  # digest of the first timed call's outputs

    def same_as_first(digest) -> str:
        if not first:
            first.append(digest)
        return "" if digest == first[0] else "outputs differ from the run's first call"

    start = time.perf_counter()
    while (len(walls) < MIN_CALLS or (tracer is not None and not traced_walls)
           or time.perf_counter() - start + walls[-1] <= args.seconds):
        if tracer is not None and len(walls) > len(traced_walls):
            wall, _ = checked_call(cli, workload, prep, tally, same_as_first, tracer)
            traced_walls.append(wall)
        else:
            wall, _ = checked_call(cli, workload, prep, tally, same_as_first)
            walls.append(wall)
            probes.append(host_speed(wall))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # A call's rate is scaled by how much slower than nominal the machine
    # ran around it: the mean of the probes just before and after the call.
    rates = [prep.items / w for w in walls]
    scaled = [r * (probes[i] + probes[i + 1]) / (2 * PROBE_NOMINAL_S) for i, r in enumerate(rates)]
    end_to_end = {
        "norm_items_per_s": (statistics.median(scaled), "1/s"),
        "setup_s": (statistics.median(setup_scaled), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    facts = machine_facts()
    item = workload.item
    print(f"workload {workload.name}: seed {args.seed}, {len(walls)} timed calls of"
          f" {prep.items} {item}s (reference seed {REFERENCE_SEED})")
    print(f"  {workload.rate_name} = {statistics.median(rates):.4f} {item}s/s raw"
          f" (median of {len(rates)}, min {min(rates):.4f}, max {max(rates):.4f})")
    print(f"  norm_items_per_s = {statistics.median(scaled):.4f} {item}s/s at nominal machine speed"
          f" (speed probe median {1e3 * statistics.median(probes):.1f} ms,"
          f" nominal {1e3 * PROBE_NOMINAL_S:.1f} ms)")
    print(f"  setup_s = {statistics.median(setup_scaled):.4f} s at nominal machine speed,"
          f" {statistics.median(setup_raw):.4f} s raw (median of {len(setup)} fresh interpreters)")
    print(f"  peak_rss_mb = {peak_rss_mb:.1f} MB")
    print(f"  fail_ratio = {tally.failed / tally.attempted:.4f}"
          f" ({tally.failed} of {tally.attempted} {item}s)")
    for note in tally.notes[:5]:
        print(f"  failure: {note}")
    print("  machine: " + ", ".join(f"{k}={v}" for k, v in facts.items()))

    result = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds, "machine": facts,
        "walls_s": walls, "probes_s": probes, "setup_samples_s": setup_raw,
        "setup_probes_s": [p for _, p in setup],
        "raw_items_per_s": statistics.median(rates),
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()},
        "fail_ratio": tally.failed / tally.attempted, "attempted": tally.attempted,
        "failed": tally.failed, "failures": tally.notes,
    }
    metrics = result["end_to_end"]
    label = f"{workload.name}_seed{args.seed}"
    results_dir = os.path.join(WORK, "results")
    os.makedirs(results_dir, exist_ok=True)
    if tracer is not None:
        table = tracer.table()
        table["trace.overhead_ms"] = 1e3 * (statistics.median(traced_walls) - statistics.median(walls))
        print_table(table, len(traced_walls))
        metrics = {name: {"value": table.get(name, 0.0), "unit": unit} for name, unit in PER_LAYER}
        result.update(per_layer=metrics, trace_table=table, traced_walls_s=traced_walls)
        label += "_trace"
        with open(os.path.join(results_dir, f"SPANS_{label}.json"), "w", encoding="utf-8") as f:
            json.dump({"columns": ["name", "start_ms", "end_ms", "parent", "run"],
                       "spans": tracer.span_rows()}, f)
    with open(os.path.join(results_dir, f"BENCH_{label}.json"), "w", encoding="utf-8") as f:
        json.dump(result, f, indent=2)
        f.write("\n")
    shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


def print_table(table: dict, runs: int) -> None:
    print(f"  per-layer, per traced call ({runs} traced calls):")
    print(f"    {'function':44s} {'ms':>10s} {'self_ms':>10s} {'calls':>9s}")
    names = sorted({k[: -len(".self_ms")] for k in table if k.endswith(".self_ms")},
                   key=lambda n: -table[f"{n}.ms"])
    for name in names:
        if table[f"{name}.calls"]:
            print(f"    {name:44s} {table[f'{name}.ms']:10.2f} {table[f'{name}.self_ms']:10.2f}"
                  f" {table[f'{name}.calls']:9.1f}")
    timed = {f"{n}.{m}" for n in names for m in ("ms", "self_ms", "calls")}
    for key, value in sorted(table.items()):
        if key not in timed and value:
            print(f"    {key:44s} {value:.6g}")


# ---------------------------------------------------------------------------
# every workload
# ---------------------------------------------------------------------------


def run_all(args) -> int:
    """Each workload in its own process; prints its lines and a summary table."""
    rows = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {name}: exit code {proc.returncode}\n{proc.stderr[-2000:]}")
            rows.append((name, None))
            continue
        rows.append((name, json.loads(lines[-1])))
    print("\nsummary")
    for name, res in rows:
        if res is None:
            print(f"  {name:12s} did not run")
            continue
        fail_ratio = f"fail_ratio={res['failed'] / res['attempted']:.4g}"
        if args.trace:
            print(f"  {name:12s} {len(res['metrics'])} per-layer metrics  {fail_ratio}")
        else:
            cells = [f"{k}={v['value']:.4g} {v['unit']}" for k, v in res["metrics"].items()]
            print(f"  {name:12s} " + "  ".join(cells) + f"  {fail_ratio}")
    return 0 if all(res is not None and res["correct"] for _, res in rows) else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    cli = load_program()
    if cli is None:
        print("error: no endofeat sources under src/; run from a full checkout", file=sys.stderr)
        return 2
    return run_workload(cli, args)


if __name__ == "__main__":
    sys.exit(main())
