"""choralegen benchmark: one workload per process, or all four in turn.

    python3 perfbench/run.py --workload chorale_corpus --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Run from the repository root. The workload's set-up builds its inputs from
--seed (repeatedly; setup_s is the median, normalised by the calibration
kernel as op times are), one untimed round serves as the reference whose
outputs are checked against `reference`, then rounds are timed until
--seconds have passed, each op's output compared with the reference round's. With --trace 1 the same number of rounds runs again with
every traced function wrapped, and the per-layer metrics replace the
end-to-end ones. The last line of stdout is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("chorale_corpus", "long_piece", "free_run", "midi_corpus")
# Set-up repeats until both are reached; setup_s is the median set-up time,
# normalised like op time by a calibration run just before each set-up.
SETUP_MIN_COUNT, SETUP_MIN_SECONDS = 3, 2.0
# The calibration kernel's median time on the reference box (README). Each
# op's time is scaled by CAL_REF_S / (the kernel's time just before it), so
# the normalised throughput reads as frames/s on a machine that runs the
# kernel in CAL_REF_S. The kernel runs again after every CAL_EVERY_S of ops.
CAL_REF_S, CAL_EVERY_S = 0.0012, 0.05
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--blas-threads", type=int, default=1,
                        help="BLAS threads in the workload process (1..nproc)")
    args = parser.parse_args(argv)
    if not 1 <= args.blas_threads <= (os.cpu_count() or 1):
        parser.error(f"--blas-threads must be in 1..{os.cpu_count()}")
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be > 0 and --seed >= 0")
    return args


def run_all(args) -> int:
    """Each workload in its own process; echoes their output and ends with
    one JSON object whose metrics are named <workload>.<metric>."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--blas-threads", str(args.blas_threads)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def reference_round(workload) -> list[tuple]:
    """Run one untimed round and check every op; returns (key, ok) per op."""
    ref = []
    for index, op in enumerate(workload.round()):
        ref.append((workload.key(op), workload.check(index, op)))
        op.output = None
    return ref


def calibration_kernel():
    """A fixed piece of the benchmark's own work: a reference LSTM forward on
    its own weights, a walk over numpy scalars and a byte-at-a-time loop, in
    the styles of the program's network, render and parse code. Returns a
    function that runs it once and gives its time in seconds. The machine
    this benchmark was tuned on changes speed by a fifth or more within
    minutes; the program's speed over this kernel's speed cancels most of
    that drift."""
    import inputs
    import reference

    rng = inputs.rng_for(0, 99)
    shapes = {"wx": (32, 88), "wh": (32, 32), "b": (32,), "w_out": (88, 32), "b_out": (88,)}
    weights = {name: rng.uniform(-0.1, 0.1, shapes.get(name) or shapes[name.split("_")[0]])
               for name in reference.GROUPS}
    frames = inputs.chorale_roll(rng, 24)
    column = frames.T.ravel()
    data = inputs.encode_midi(frames, rng)[0]

    def run() -> float:
        start = time.perf_counter()
        reference.forward(weights, frames)
        runs = []
        for t, v in enumerate(column):  # numpy scalars, as a render walks a roll
            if v:
                runs.append((t, v))
        total = 0
        for byte in data * 8:  # a byte-at-a-time walk, as a parser does
            total = (total << 7 | byte & 0x7F) & 0xFFFFFFF
        return time.perf_counter() - start

    return run


def timed_rounds(workload, ref, calibrate, seconds=None, rounds=None):
    """Run whole rounds until `seconds` have passed or `rounds` are done.
    The calibration kernel runs first and again after every CAL_EVERY_S of
    op time; each op keeps the calibration time measured before it. An op
    fails when the reference op failed or its output differs from it.
    Returns (rounds with outputs dropped, ops attempted, ops failed)."""
    done, attempted, failed = [], 0, 0
    cal, since = calibrate(), 0.0
    start = time.perf_counter()
    while True:
        ops = []
        for op, (key, ok) in zip(workload.round(), ref):
            attempted += op.count
            if not ok or key is None or workload.key(op) != key:
                failed += op.count
            op.output, op.cal = None, cal
            ops.append(op)
            since += op.seconds
            if since >= CAL_EVERY_S:
                cal, since = calibrate(), 0.0
        done.append(ops)
        if (len(done) == rounds if rounds is not None
                else time.perf_counter() - start >= seconds):
            return done, attempted, failed


def normalised_seconds(rounds) -> float:
    """Op time scaled to a machine that runs the calibration kernel in CAL_REF_S."""
    return sum(op.seconds * CAL_REF_S / op.cal for ops in rounds for op in ops)


def blas_version() -> str:
    import numpy as np
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (TypeError, KeyError):
        return "unknown"


def run_workload(args) -> int:
    import numpy as np

    import tracing
    from workloads import WORKLOADS

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        calibrate = calibration_kernel()
        calibrate()  # the first run pays for lazy set-up in numpy
        setup_s, setup_norm_s = [], []
        while len(setup_s) < SETUP_MIN_COUNT or sum(setup_s) < SETUP_MIN_SECONDS:
            cal = calibrate()
            workload = WORKLOADS[args.workload]()
            start = time.perf_counter()
            workload.setup(args.seed, workdir)
            setup_s.append(time.perf_counter() - start)
            setup_norm_s.append(setup_s[-1] * CAL_REF_S / cal)

        ref = reference_round(workload)
        problems = workload.problems()
        rounds, attempted, failed = timed_rounds(workload, ref, calibrate,
                                                 seconds=args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        untraced_s = normalised_seconds(rounds)

        print(f"workload {args.workload} seed {args.seed} rounds {len(rounds)} "
              f"blas_threads {args.blas_threads} numpy {np.__version__} "
              f"openblas {blas_version()} python {sys.version.split()[0]}")
        for problem in problems:
            print(f"problem: {problem}")
        frames_per_s = statistics.median(
            sum(op.frames for op in ops) / sum(op.seconds for op in ops) for ops in rounds)
        figures = {**workload.named_metrics(rounds),
                   "raw_setup_s": (statistics.median(setup_s), "s"),
                   "frames_per_s": (frames_per_s, "frames/s"),
                   "calibration_ms": (statistics.median(
                       op.cal for ops in rounds for op in ops) * 1e3, "ms")}
        for name, (value, unit) in figures.items():
            print(f"metric {args.workload} {name} {value:.6g} {unit}")

        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced, more_attempted, more_failed = timed_rounds(
                    workload, ref, calibrate, rounds=len(rounds))
            finally:
                tracer.uninstall()
            attempted += more_attempted
            failed += more_failed
            traced_s = normalised_seconds(traced)
            trace_path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
            tracer.dump(trace_path, {"workload": args.workload, "seed": args.seed,
                                     "rounds": len(traced)})
            print(f"trace written to {os.path.relpath(trace_path, ROOT)}")
            layer = tracing.layer_metrics(tracer.totals(), workload.shape,
                                          traced_s - untraced_s)
            metrics = {name: {"value": value, "unit": unit}
                       for name, (value, unit) in layer.items()}
        else:
            metrics = {
                "setup_s": {"value": statistics.median(setup_norm_s), "unit": "s"},
                "norm_frames_per_s": {"value": statistics.median(
                    sum(op.frames for op in ops) / normalised_seconds([ops])
                    for ops in rounds), "unit": "frames/s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            }
        for name, m in metrics.items():
            print(f"metric {args.workload} {name} {m['value']:.6g} {m['unit']}")
        print(f"ops {args.workload} attempted {attempted} failed {failed}")
        print(json.dumps({"correct": not problems, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    # Before numpy is imported, so that OpenBLAS starts with this many threads.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(args.blas_threads)
    if not os.path.isfile(os.path.join(ROOT, "src", "choralegen", "__init__.py")):
        print(f"error: no choralegen sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
