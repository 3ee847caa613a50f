"""scenediff benchmark.

    python3 bench/run.py --workload voxel|latent --seed N --seconds S --trace 0|1

Run from anywhere; the library is imported from `src/` beside this
directory, so interpreter start-up and argument parsing stay out of the
numbers.  Inputs come from `--seed`; `--seconds` sizes the work (see
`journeys.plan`).  The last line of standard output is one JSON object with
the keys `correct`, `attempted`, `failed` and `metrics`; the line before it
records the environment and the sample counts behind each timing.

With `--trace 0` the metrics are the end-to-end ones in BENCHMARK.json.  With
`--trace 1` the journey runs twice at half size, first untraced and then
with every layer function wrapped (see tracing.py); the metrics are each
function's calls and self time, the computed counts, and the overhead of
tracing: traced minus untraced time, which on a noisy machine mostly shows
the drift between the two runs, and the measured cost of one span.  The spans go to
`.bench_out/spans-<workload>-<seed>.jsonl`.

Everything runs in this one process.  The run exits non-zero without a
result line if the library sources are missing.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

# One BLAS thread: the workloads' matrix products are small, the library runs
# effectively single-threaded, and a second thread on a shared two-core
# machine adds only synchronisation noise.  Must precede the numpy import.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_REPS = 15


def tail(values) -> tuple[float, float]:
    """(percentile, value) at the highest percentile with at least ten samples
    above it; the median when fewer than twenty samples exist."""
    s = sorted(values)
    n = len(s)
    if n < 20:
        return 50.0, statistics.median(s)
    return 100.0 * (n - 10) / n, s[n - 11]


def _blas() -> dict:
    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"name": info.get("name"), "version": info.get("version"), "threads": threads}


def _commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else ref[5:]
    return ref


def _threads() -> int:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("Threads:"):
            return int(line.split()[1])
    return -1


def environment() -> dict:
    import numpy as np

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "threads": _threads(),
        "commit": _commit(),
        "machine": platform.machine(),
    }


def end_to_end(run, quality: dict, setup_s: float) -> dict:
    """Medians of the per-operation times (per scene, task or Mvox; see
    `Run.op`), the sampling tail, peak memory and the quality figures."""
    t = {k: statistics.median(v) for k, v in run.times.items()}
    _, sample_tail = tail(run.times["sample"])
    return {
        "setup_s": (setup_s, "s"),
        "train_scenes_per_s": (1.0 / t["train"], "scenes/s"),
        "recon_train_scenes_per_s": (1.0 / t["recon_train"], "scenes/s"),
        "sample_s_p50": (t["sample"], "s"),
        "sample_s_tail": (sample_tail, "s"),
        "eval_tasks_per_s": (1.0 / t["eval"], "tasks/s"),
        # one raw and one RLE file per scene
        "scene_save_mvox_per_s": (2.0 / (t["save_raw"] + t["save_rle"]), "Mvox/s"),
        "scene_load_mvox_per_s": (2.0 / (t["load_raw"] + t["load_rle"]), "Mvox/s"),
        "export_s_p50": (t["export"], "s"),
        "ckpt_save_s": (t["ckpt_save"], "s"),
        "ckpt_load_s": (t["ckpt_load"], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "heldout_x0_acc": (quality["heldout_x0_acc"], "ratio"),
        "sample_hist_overlap": (quality["sample_hist_overlap"], "ratio"),
        "eval_miou": (quality["eval_miou"], "ratio"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["voxel", "latent"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = ROOT / "src"
    if not (src / "scenediff" / "__init__.py").is_file():
        print(f"error: library sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import journeys
    import tracing

    seconds = args.seconds / 2 if args.trace else args.seconds
    plan = journeys.plan(args.workload, seconds)
    work = OUT / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    setup_times, inputs = [], None
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        again = journeys.setup(args.workload, plan, args.seed)
        setup_times.append(time.perf_counter() - start)
        inputs = inputs or again

    journey = journeys.JOURNEYS[args.workload]
    run = journeys.Run()
    run.expect(again["train"] == inputs["train"], "setup repeats for one seed")
    start = time.perf_counter()
    quality = journey(run, plan, inputs, args.seed, work)
    untraced_s = time.perf_counter() - start

    details = {"plan": plan.__dict__, "seconds": seconds,
               "sample_count": len(run.times["sample"]),
               "sample_tail_percentile": tail(run.times["sample"])[0],
               "timings": {k: len(v) for k, v in run.times.items()},
               "quality": quality}
    if args.trace:
        tracer = tracing.Tracer()
        traced = journeys.Run(tracer)
        tracer.install()
        try:
            start = time.perf_counter()
            traced_quality = journey(traced, plan, inputs, args.seed, work)
            traced_s = time.perf_counter() - start
        finally:
            tracer.uninstall()
        run.attempted += traced.attempted
        run.failed += traced.failed
        run.problems += traced.problems
        run.expect(traced_quality == quality, "traced run repeats the untraced results")
        tracer.write(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
        metrics = tracer.layer_metrics()
        metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
        metrics["trace.overhead_pct"] = (100.0 * (traced_s - untraced_s) / untraced_s, "%")
        metrics["trace.spans"] = (len(tracer.spans), "count")
        metrics["trace.span_cost_us"] = (1e6 * tracer.span_cost(), "us")
        details["untraced_s"], details["traced_s"] = untraced_s, traced_s
    else:
        metrics = end_to_end(run, quality, statistics.median(setup_times))
        details["measured_s"] = untraced_s
    shutil.rmtree(work)

    details["problems"] = run.problems
    details["environment"] = environment()
    result = {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps({"details": details}, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
