#!/usr/bin/env python3
"""Before/after medians of the benchmark for one speed claim, written to a
BENCH_<label>.json at the repository root.

    python3 scripts/bench_pairs.py --before ../parent --after . --label block_run

`--before` and `--after` are two checkouts of the repository. For each
benchmark workload, pair i (0-9) runs `bench/run.py --trace 0 --seed i`,
at the benchmark's own run length, in both, one after the other, the first
of the two alternating from pair to pair so that host drift falls on both
sides alike. The file holds every pair's end-to-end
metrics, their medians, the share of pairs that `after` won, the
commit and a sha256 of the `src/dhb/*.py` files of each checkout, the
per-iteration cost of engine runs (`--micro`) in each checkout, and the
minor page faults of each workload's set-up (`--setup-faults`) in
FAULT_RUNS alternating runs per side. It is rewritten after each workload
and after the micro and fault runs, so a failure keeps what was measured
before it.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("tuned_momentum", "large_ring", "consensus_grid")
PAIRS = 10
FAULT_RUNS, FAULT_SECONDS = 3, 10
METRICS = {"wall_s": "lower", "setup_s": "lower",
           "agent_iters_per_s": "higher", "peak_rss_mb": "lower"}
# label -> (kind, graph (n, ring degree, extra-link fraction, seed,
# directed), iterations): abm and ab on the reference graph (n = 50), abm
# on rings like the large_ring workload's (n = 500) at n = 200, near where
# A and B switch to in-neighbor products, and at n = 1000, ds_tracking on
# undirected graphs; each run has a fixed length.
MICRO_RUNS = {
    "abm n=50": ("abm", (50, 6, 0.1, 17, True), 20000),
    "ab n=50": ("ab", (50, 6, 0.1, 17, True), 20000),
    "abm n=200": ("abm", (200, 3, 3e-4, 1, True), 5000),
    "abm n=500": ("abm", (500, 3, 3e-4, 1, True), 2000),
    "abm n=1000": ("abm", (1000, 3, 3e-4, 1, True), 1000),
    "ds_tracking n=20": ("ds_tracking", (20, 2, 0.05, 7, False), 20000),
    "ds_tracking n=200": ("ds_tracking", (200, 2, 0.05, 7, False), 5000),
}


def commit(checkout):
    out = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                         capture_output=True, text=True, check=False)
    return out.stdout.strip() or None


def sources(checkout):
    """sha256 of the checkout's src/dhb/*.py, each file's name and bytes in
    name order: which code a record measured, also in a copy without .git."""
    h = hashlib.sha256()
    for path in sorted((Path(checkout) / "src" / "dhb").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def bench_once(checkout, workload, seed):
    """The JSON line bench/run.py prints last."""
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return {"correct": result["correct"], "failed": result["failed"],
            "attempted": result["attempted"],
            **{m: result["metrics"][m]["value"] for m in METRICS}}


def micro(repeats=5):
    """Median µs per iteration of each MICRO_RUNS run, through engines.run
    and through a per-step analysis.iterate loop over STEP_FUNCTIONS, in
    the dhb on sys.path; printed as JSON."""
    import numpy as np
    from dhb import analysis, engines, graph, harness

    def per_step(cfg, suite, x0, iters):
        step = engines.STEP_FUNCTIONS[cfg.kind]
        x_star = suite.minimizer()
        analysis.iterate(
            engines.init_state(cfg, suite, x0), lambda s: step(s, cfg, suite),
            lambda s: (analysis.average_residual(s.x, x_star),
                       analysis.tracking_error(s.y, s.grads)),
            iters, 0.0, {})

    us = {}
    for label, (kind, gcfg, iters) in MICRO_RUNS.items():
        n = gcfg[0]
        g = graph.generate_nearest_neighbor(*gcfg)
        slots = set(engines.ENGINE_WEIGHTS[kind])
        cfg = engines.make_config(kind, n, 1e-3, 0.4,
                                  **harness.build_weights(g, slots))
        suite = harness.build_quadratic(n, 2, 100.0, 19)
        x0 = np.random.default_rng(23).standard_normal((n, 2))
        suite.minimizer()
        for path, fn in (("run", engines.run), ("per_step", per_step)):
            times = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                fn(cfg, suite, x0, iters)
                times.append(time.perf_counter() - t0)
            us[f"{label} {path}"] = 1e6 * statistics.median(times) / iters
    print(json.dumps(us))


def micro_in(checkout):
    """micro() of the checkout's own copy of this script, on its own dhb,
    since the two sides' engines need not share an interface."""
    checkout = Path(checkout).resolve()
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    out = subprocess.run(
        [sys.executable, str(checkout / "scripts" / "bench_pairs.py"),
         "--micro"], env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def setup_faults(workload):
    """bench/run.py's measure() of one workload at seed 0, in the checkout
    that is the working directory, counting the minor page faults of each
    set-up: set-up time follows whether its n x n weights land on pages
    the heap already holds. Prints setup_s and the faults as JSON."""
    import resource
    import tempfile
    sys.path[:0] = ["bench", "src"]
    import run
    import workloads

    faults, time_setup = [], run.time_setup

    def counted(*args):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        sample = time_setup(*args)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                      - before)
        return sample

    run.time_setup = counted
    with tempfile.TemporaryDirectory() as out:
        _, metrics, *_ = run.measure(workloads.WORKLOADS[workload], 0,
                                     FAULT_SECONDS, False, Path(out))
    print(json.dumps({"setup_s": metrics["setup_s"][0], "setups": len(faults),
                      "faults_median": statistics.median(faults),
                      "faults_mean": statistics.mean(faults)}))


def setup_faults_in(checkout, workload):
    """setup_faults() of this script, run in the checkout on its own dhb
    and benchmark."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-faults",
         workload], cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--before", help="checkout of the parent commit")
    parser.add_argument("--after", help="checkout of the change")
    parser.add_argument("--label", help="names BENCH_<label>.json")
    parser.add_argument("--micro", action="store_true",
                        help="print the per-iteration costs of the dhb on "
                             "PYTHONPATH and exit")
    parser.add_argument("--setup-faults", metavar="WORKLOAD",
                        help="print the set-up faults of WORKLOAD in the "
                             "checkout that is the working directory and "
                             "exit")
    args = parser.parse_args()
    if args.micro:
        return micro()
    if args.setup_faults:
        return setup_faults(args.setup_faults)
    if not (args.before and args.after and args.label):
        parser.error("--before, --after and --label are required")
    import numpy as np

    sides = {"before": Path(args.before).resolve(),
             "after": Path(args.after).resolve()}
    record = {
        "label": args.label,
        "commits": {side: commit(path) for side, path in sides.items()},
        "sources": {side: sources(path) for side, path in sides.items()},
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "workloads": {},
    }
    out = ROOT / f"BENCH_{args.label}.json"
    for workload in WORKLOADS:
        runs = {"before": [], "after": []}
        for i in range(PAIRS):
            order = ("before", "after") if i % 2 == 0 else ("after", "before")
            for side in order:
                runs[side].append(bench_once(sides[side], workload, i))
            print(workload, i, {s: runs[s][-1]["wall_s"] for s in order},
                  flush=True)
        summary = {"all_correct": all(r["correct"] for rs in runs.values()
                                      for r in rs)}
        for metric, better in METRICS.items():
            before = [r[metric] for r in runs["before"]]
            after = [r[metric] for r in runs["after"]]
            q1, _, q3 = statistics.quantiles(before, n=4)
            wins = sum((a < b) if better == "lower" else (a > b)
                       for a, b in zip(after, before))
            summary[metric] = {
                "before_median": statistics.median(before),
                "after_median": statistics.median(after),
                "change": (statistics.median(after)
                           / statistics.median(before) - 1),
                "before_iqr": q3 - q1, "after_wins": f"{wins}/{len(before)}"}
        record["workloads"][workload] = {"summary": summary, "pairs": runs}
        out.write_text(json.dumps(record, indent=2) + "\n")
    record["us_per_iter"] = {side: micro_in(path)
                             for side, path in sides.items()}
    out.write_text(json.dumps(record, indent=2) + "\n")
    record["setup_faults"] = {}
    for workload in WORKLOADS:
        runs = record["setup_faults"][workload] = {"before": [], "after": []}
        for i in range(FAULT_RUNS):
            order = ("before", "after") if i % 2 == 0 else ("after", "before")
            for side in order:
                runs[side].append(setup_faults_in(sides[side], workload))
        out.write_text(json.dumps(record, indent=2) + "\n")
    print("wrote", out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
