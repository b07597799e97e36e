#!/usr/bin/env python3
"""Snapshot of what the dhb of this checkout prints and writes, for a
byte-identity check between two checkouts.

    python3 scripts/snapshot_outputs.py OUT_DIR
    python3 scripts/snapshot_outputs.py --against REF OUT_DIR

Each command below runs in its own directory OUT_DIR/<name>, from a copy of
its config there and with relative paths, so no checkout path reaches the
outputs. The directory keeps the config, `stdout.txt`, `exit_code.txt` and
the files the command wrote; the `elapsed_s` column is dropped from every
trace CSV, since it is wall time. Two checkouts produce the same outputs
when `diff -r` of their snapshots is empty.

With `--against REF` (a git commit, e.g. HEAD), REF is extracted with
`git archive` into a temporary directory, and its own snapshot script
writes OUT_DIR/ref while this checkout's writes OUT_DIR/this. Every file
that differs or is in one snapshot only is listed, and the exit code is 1
if there is any, else 0.
"""

import argparse
import copy
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"


def generated_configs():
    """Two configs that together run all ten engine kinds: the eight that
    need no doubly-stochastic weights on quickstart's directed quadratic
    problem, and ds_tracking, extra, gd and heavy_ball on an undirected
    logistic one. Each holds one tuned centralized kind and one with its
    default parameters. A third, a short fixed-length abm run on a directed
    n = 500 ring, applies A and B through their in-neighbor products; two
    shorter ones on that ring at p = 1 and p = 9 reach the recording's
    other branches (an agent sum at p = 1, a residual at p >= 8). One more
    tunes ds_tracking, extra and ab_extra on quickstart's problem over an
    undirected graph: extra and ab_extra share one step function, so the
    run cache of each tuning pass holds both kinds' runs. The last runs
    abm and frost on quickstart's problem at alpha = 1e300, so the residual
    of their first step overflows and is recorded as inf (on the fused path
    and on the per-step one), beside a converging ab. Another tunes abm on
    a logistic suite over quickstart's directed graph; at its larger alpha
    the residual stays bounded and above the threshold, so those grid
    points end at max_iter."""
    quickstart = json.loads((CONFIGS / "quickstart.json").read_text())
    directed = copy.deepcopy(quickstart)
    directed["engines"] = [
        {"kind": "abm", "alpha": 0.003, "beta": 0.3},
        {"kind": "ab", "alpha": 0.003},
        {"kind": "ab_extra", "alpha": 0.003},
        {"kind": "addopt", "alpha": 0.003},
        {"kind": "frost", "alpha": 0.003},
        {"kind": "transformed_exact", "alpha": 0.003},
        {"kind": "gd", "tune": {"alpha_grid": [0.001, 0.01, 0.02]}},
        {"kind": "heavy_ball"},
    ]
    directed["run"]["max_iter"] = 20000
    logistic = copy.deepcopy(quickstart)
    logistic["graph"].update(n=10, directed=False)
    logistic["objective"] = {"kind": "logistic", "m_i": 20, "p": 3,
                             "reg": 0.1, "seed": 11}
    logistic["engines"] = [
        {"kind": "ds_tracking", "alpha": 0.05},
        {"kind": "extra", "alpha": 0.05},
        {"kind": "gd"},
        {"kind": "heavy_ball", "tune": {"alpha_grid": [0.05, 0.1],
                                        "beta_grid": [0.0, 0.3]}},
    ]
    logistic["run"]["max_iter"] = 20000
    ring = copy.deepcopy(quickstart)
    ring["graph"] = {"n": 500, "ring_degree": 3, "extra_link_fraction": 3e-4,
                     "directed": True, "seed": 1}
    ring["objective"].update(p=2, seed=19)
    ring["engines"] = [{"kind": "abm", "alpha": 0.002, "beta": 0.4}]
    ring["run"].update(max_iter=2000, stop_residual=0.0)
    undirected = copy.deepcopy(quickstart)
    undirected["graph"]["directed"] = False
    undirected["engines"] = [
        {"kind": kind, "tune": {"alpha_grid": [0.001, 0.002, 0.003, 0.004]}}
        for kind in ("ds_tracking", "extra", "ab_extra")]
    undirected["run"]["max_iter"] = 20000
    overflow = copy.deepcopy(quickstart)
    overflow["engines"] = [
        {"kind": "abm", "alpha": 1e300, "beta": 0.3},
        {"kind": "frost", "alpha": 1e300},
        {"kind": "ab", "alpha": 0.003},
    ]
    overflow["run"]["max_iter"] = 20000
    directed_logistic = copy.deepcopy(quickstart)
    directed_logistic["objective"] = {"kind": "logistic", "m_i": 20, "p": 3,
                                      "reg": 0.1, "seed": 5}
    directed_logistic["engines"] = [
        {"kind": "abm", "tune": {"alpha_grid": [0.025, 0.1, 0.2],
                                 "beta_grid": [0.0, 0.3]}}]
    directed_logistic["run"]["max_iter"] = 2000
    configs = {"directed_quadratic": directed,
               "undirected_quadratic": undirected,
               "undirected_logistic": logistic, "sparse_ring": ring,
               "overflow_quadratic": overflow,
               "directed_logistic": directed_logistic}
    for p in (1, 9):
        width = configs[f"sparse_ring_p{p}"] = copy.deepcopy(ring)
        width["objective"]["p"] = p
        width["run"]["max_iter"] = 500
    return configs


def commands():
    """(name, config or None, dhb arguments) of every snapshot command."""
    shipped = {name: json.loads((CONFIGS / f"{name}.json").read_text())
               for name in ("quickstart", "consensus_directed",
                            "reference_sweep")}
    generated = generated_configs()
    return [
        ("run_quickstart", shipped["quickstart"], ["run"]),
        ("tune_quickstart", shipped["quickstart"], ["tune"]),
        ("consensus_directed", shipped["consensus_directed"], ["consensus"]),
        ("sweep_reference", shipped["reference_sweep"],
         ["sweep", "--condition-numbers", "10,100"]),
        ("tune_reference", shipped["reference_sweep"], ["tune"]),
        ("graph_gen", None, ["graph-gen", "--n", "100", "--ring-degree", "4",
                             "--directed", "--seed", "1", "--out", "g.txt"]),
        ("run_directed_quadratic", generated["directed_quadratic"], ["run"]),
        ("tune_directed_quadratic", generated["directed_quadratic"],
         ["tune"]),
        ("run_undirected_logistic", generated["undirected_logistic"],
         ["run"]),
        ("run_undirected_quadratic", generated["undirected_quadratic"],
         ["run"]),
        ("tune_undirected_quadratic", generated["undirected_quadratic"],
         ["tune"]),
        ("run_sparse_ring", generated["sparse_ring"], ["run"]),
        ("run_sparse_ring_p1", generated["sparse_ring_p1"], ["run"]),
        ("run_sparse_ring_p9", generated["sparse_ring_p9"], ["run"]),
        ("run_overflow_quadratic", generated["overflow_quadratic"], ["run"]),
        ("run_directed_logistic", generated["directed_logistic"], ["run"]),
        ("tune_directed_logistic", generated["directed_logistic"], ["tune"]),
    ]


def drop_elapsed(path):
    """Rewrite a trace CSV without its last column, elapsed_s."""
    with open(path, newline="") as f:
        rows = f.read().split("\r\n")
    assert rows[0].endswith(",elapsed_s"), path
    with open(path, "w", newline="") as f:
        f.write("\r\n".join(r.rsplit(",", 1)[0] for r in rows if r) + "\r\n")


def snapshot(out_dir):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for name, config, args in commands():
        here = out_dir / name
        here.mkdir(parents=True)
        if config is not None:
            (here / "config.json").write_text(json.dumps(config, indent=2))
            args = args + ["--config", "config.json"]
            if args[0] != "tune":  # tune writes nothing
                args += ["--out", "out"]
        done = subprocess.run([sys.executable, "-m", "dhb.cli", *args],
                              cwd=here, env=env, capture_output=True,
                              text=True, check=False)
        (here / "stdout.txt").write_text(done.stdout)
        (here / "exit_code.txt").write_text(f"{done.returncode}\n")
        for trace in sorted(here.glob("out/trace_*.csv")):
            drop_elapsed(trace)
        print(f"{name}: exit {done.returncode}", flush=True)


def snapshot_of(ref, out_dir):
    """Snapshot by the snapshot script of commit `ref` of this repository,
    run in a `git archive` of it."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", ref],
                             capture_output=True, check=True).stdout
    with tempfile.TemporaryDirectory() as checkout:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(checkout, filter="data")
        subprocess.run([sys.executable,
                        str(Path(checkout, "scripts", "snapshot_outputs.py")),
                        str(out_dir)], check=True)


def differences(a, b):
    """Relative paths of the files that differ between directories a and b,
    or that only one of them holds, each with what is wrong."""
    files = {side: {p.relative_to(root) for p in root.rglob("*")
                    if p.is_file()} for side, root in (("a", a), ("b", b))}
    found = [(p, f"only in {a}") for p in files["a"] - files["b"]]
    found += [(p, f"only in {b}") for p in files["b"] - files["a"]]
    found += [(p, "differs") for p in files["a"] & files["b"]
              if (a / p).read_bytes() != (b / p).read_bytes()]
    return sorted(found)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", type=Path, help="snapshot directory; "
                        "must not exist yet")
    parser.add_argument("--against", metavar="REF",
                        help="also snapshot commit REF and compare")
    args = parser.parse_args()
    if args.out_dir.exists():
        parser.error(f"{args.out_dir} already exists")
    if args.against is None:
        snapshot(args.out_dir)
        return 0
    ref, this = args.out_dir / "ref", args.out_dir / "this"
    snapshot_of(args.against, ref)
    snapshot(this)
    found = differences(ref, this)
    for path, what in found:
        print(f"{path}: {what}")
    print(f"{len(found)} differing or missing files between {args.against} "
          "and this checkout")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
