#!/usr/bin/env python3
"""dhb benchmark: one batch workload per invocation, one caller in a closed
loop, entered at `harness.run_experiment` / `harness.run_consensus_experiment`.

    python3 bench/run.py --workload tuned_momentum --seed 0 --seconds 35 --trace 0

`--trace 0` prints the end-to-end metrics, measured with tracing off;
times are reference seconds, wall time rescaled by a calibration kernel
timed throughout the run (bench/refclock.py).
`--trace 1` prints the per-layer metrics: each loop round makes one untraced
and one traced call, and the difference of their wall times is the tracing
overhead. `--workload all` runs every workload, each in its own process so
that peak memory stays per workload. The last line of standard output is a
JSON object with `correct`, `attempted`, `failed` and `metrics`; the run
record and (traced) the spans go to `.bench_results/` at the repository root.
See bench/NOTES.md for the metrics and workloads.
"""

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RESULTS = ROOT / ".bench_results"
# Set-up is timed before every call, at least once and for at least
# SETUP_SECONDS, so that its median, like that of the calls, spans the
# whole run.
SETUP_SECONDS = 0.1
# Call j of a run with seed s gets the workload config of seed
# s * CALLS_PER_SEED + j, so that a run's median is taken over as many
# inputs as calls: the iterations to a threshold depend on the input, and
# one input per run would make the median follow it.
CALLS_PER_SEED = 1000


def import_program():
    """Import dhb from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import dhb
    except ImportError as exc:
        sys.exit(f"bench: cannot import dhb from {src}: {exc}")
    if Path(dhb.__file__).resolve().parent != src / "dhb":
        sys.exit(f"bench: imported dhb from {dhb.__file__}, not from {src}")


def openblas_info():
    """(thread count, runtime config string) of numpy's bundled OpenBLAS,
    or (None, None) when it cannot be queried."""
    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libdir.glob("libscipy_openblas*.so")):
        lib = ctypes.CDLL(str(path))
        get_threads = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        get_config = getattr(lib, "scipy_openblas_get_config64_", None)
        if get_threads is None or get_config is None:
            continue
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        get_config.argtypes, get_config.restype = [], ctypes.c_char_p
        return get_threads(), get_config().decode()
    return None, None


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True, check=False)
    return out.stdout.strip() or None


def time_setup(workload, cfg, clock):
    """Graph, objective, weights (with Perron vectors), then the minimizer,
    through the harness's public builders: a `RefClock` sample."""
    from dhb import harness

    mark = clock.mark()
    g = harness.build_graph(cfg["graph"])
    suite = (harness.build_objective(cfg["objective"], g.n)
             if "objective" in cfg else None)
    harness.build_weights(g, workload.weight_slots(cfg))
    if suite is not None:
        suite.minimizer()
    return clock.since(mark)


def call_once(workload, cfg, seed, probe, entry, out_dir, clock):
    """One workload call under `probe`: (`RefClock` sample, problems)."""
    probe.begin_call()
    with probe.installed():
        mark = clock.mark()
        try:
            result = entry(cfg, str(out_dir))
        except Exception:
            traceback.print_exc()
            result = None
        sample = clock.since(mark)
    if result is None:
        return sample, ["raised"]
    return sample, workload.check(cfg, result, probe.counts, seed)


def measure(workload, seed, seconds, traced, run_dir):
    import tracing
    from dhb import harness
    from refclock import RefClock

    cfg = workload.make_config(seed * CALLS_PER_SEED)
    out_dir = run_dir / "output"
    entry = getattr(harness, workload.entry)
    root_name = f"harness.{workload.entry}"
    counter = tracing.Probe(traced=False)
    tracer = tracing.Probe(traced=True) if traced else None

    # Calibration slices would land inside the spans of a traced run, so
    # its times are plain wall times.
    clock = RefClock(workload.calibration, enabled=not traced)
    setup, calls, call_seeds, traced_walls, layer_rows, agent_iters, problems = (
        [], [], [], [], [], [], [])
    attempted = failed = 0
    with clock:
        start = time.perf_counter()
        longest = 0.0
        while len(calls) < CALLS_PER_SEED:
            round_start = time.perf_counter()
            burst = []
            while not burst or sum(wall for _, _, wall in burst) < SETUP_SECONDS:
                burst.append(time_setup(workload, cfg, clock))
            setup += burst
            call_seed = seed * CALLS_PER_SEED + len(calls)
            call_cfg = workload.make_config(call_seed)
            sample, bad = call_once(workload, call_cfg, call_seed, counter,
                                    entry, out_dir, clock)
            calls.append(sample)
            call_seeds.append(call_seed)
            agent_iters.append(counter.counts["engines.agent_iterations"]
                               + counter.counts["consensus.agent_iterations"])
            attempted, failed = attempted + 1, failed + bool(bad)
            problems += bad
            if traced:
                sample, bad = call_once(workload, call_cfg, call_seed, tracer,
                                        tracer.wrap(root_name, entry), out_dir,
                                        clock)
                traced_walls.append(sample[2])
                attempted, failed = attempted + 1, failed + bool(bad)
                problems += bad
                layer_rows.append(tracer.layer_metrics(root_name))
            now = time.perf_counter()
            longest = max(longest, now - round_start)
            if now - start + longest > seconds:
                break

    ref_walls = [clock.reference(c) for c in calls]
    wall_s = statistics.median(ref_walls)
    if traced:
        metrics = {name: (statistics.median(row[name][0] for row in layer_rows),
                          unit)
                   for name, (_, unit) in layer_rows[0].items()}
        metrics["trace.untraced_wall_s"] = (wall_s, "s")
        metrics["trace.overhead_s"] = (statistics.median(traced_walls) - wall_s, "s")
        tracer.write_spans(run_dir / "spans.csv")
    else:
        metrics = {
            "wall_s": (wall_s, "s"),
            "setup_s": (statistics.median(clock.reference(c) for c in setup), "s"),
            "agent_iters_per_s": (
                statistics.median(n / w for n, w in zip(agent_iters, ref_walls)),
                "1/s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    samples = {
        "setup_wall_s": [wall for _, _, wall in setup],
        "setup_scale": [clock.scale(t0, t1) for t0, t1, _ in setup],
        "call_wall_s": [wall for _, _, wall in calls],
        "call_scale": [clock.scale(t0, t1) for t0, t1, _ in calls],
        "traced_wall_s": traced_walls,
        "calibration_s": [d for _, d in clock.slices],
        "call_seeds": call_seeds,
    }
    return cfg, metrics, attempted, failed, problems, samples


def run_all(args):
    """Every workload in its own process, one after the other."""
    import workloads

    worst = 0
    for name in workloads.WORKLOADS:
        print(f"== {name}", flush=True)
        code = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            check=False,
        ).returncode
        worst = max(worst, code)
    return worst


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    import_program()
    import numpy as np
    import workloads

    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be 'all' or one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    traced = bool(args.trace)
    run_dir = RESULTS / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    run_dir.mkdir(parents=True, exist_ok=True)

    cfg, metrics, attempted, failed, problems, samples = measure(
        workload, args.seed, args.seconds, traced, run_dir)

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.6g} {unit}")
    print(f"{'error_rate':34s} {failed / attempted:14.6g} ratio "
          f"({failed} of {attempted} calls failed)")
    if not traced:
        for name in ("setup_wall_s", "call_wall_s", "calibration_s"):
            print(f"{'median ' + name:34s} "
                  f"{statistics.median(samples[name]):14.6g} s (unscaled)")

    threads, blas_config = openblas_info()
    record = {
        "workload": workload.name, "why": workload.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "config": cfg,
        "python": platform.python_version(), "numpy": np.__version__,
        "openblas": blas_config, "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "calibration_kernel": workload.calibration,
        "samples": samples, "attempted": attempted, "failed": failed,
        "problems": problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (run_dir / "record.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
