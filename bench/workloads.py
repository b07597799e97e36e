"""The benchmark's workloads: configs generated from the seed, and the
checks on their outputs.

`DEFAULT_SEED` reproduces the configs below exactly, and on it every
output is pinned to the value the program produced when the benchmark was
written. Another seed moves the run seed (engine workloads: the initial
iterate x0) or the consensus seed (the initial values) by the same offset;
the graph and the objective stay fixed, so each workload keeps its size
and its tuning grid. bench/run.py gives each call of a run its own config
seed.
"""

import math
from dataclasses import dataclass, field

from dhb import engines
from dhb.analysis import iterations_to_threshold

DEFAULT_SEED = 0

# The consensus radius comes from a dense nonsymmetric eigen-solve, and the
# tuned point sits where eigenvalues coalesce, so it is only pinned to
# this absolute tolerance.
RADIUS_TOL = 1e-6

# A run with stop_residual 0 has a fixed length; its trace must still pass
# below this residual on the way.
FIXED_RUN_LEVEL = 1e-2


def _tuned_momentum(seed):
    # configs/reference_quadratic.json with condition number 250 and both
    # alpha grids at [1.2e-3, 2.4e-3]: the reference experiment's structure
    # at 1/40 of its iterations, so that one run of the benchmark holds
    # several calls.
    return {
        "graph": {"n": 50, "ring_degree": 6, "extra_link_fraction": 0.1,
                  "directed": True, "seed": 17},
        "objective": {"kind": "quadratic", "p": 2,
                      "condition_number": 250.0, "seed": 19},
        "engines": [
            {"kind": "abm", "tune": {"alpha_grid": [1.2e-3, 2.4e-3],
                                     "beta_grid": [0.0, 0.4]}},
            {"kind": "ab", "tune": {"alpha_grid": [1.2e-3, 2.4e-3]}},
        ],
        "run": {"max_iter": 600000, "stop_residual": 1e-8, "seed": 23 + seed,
                "out_dir": "results/tuned_momentum"},
    }


def _large_ring(seed):
    # A fixed 8000 iterations rather than "stop at 1e-6": the iterations
    # to 1e-6 follow x0's component along the slowest mode and ranged over
    # 15431..20684 for run seeds 23..32, while the work here must not
    # depend on the seed.
    return {
        "graph": {"n": 500, "ring_degree": 3, "extra_link_fraction": 3e-4,
                  "directed": True, "seed": 1},
        "objective": {"kind": "quadratic", "p": 2,
                      "condition_number": 100.0, "seed": 19},
        "engines": [{"kind": "abm", "alpha": 0.002, "beta": 0.4}],
        "run": {"max_iter": 8000, "stop_residual": 0.0, "seed": 23 + seed,
                "out_dir": "results/large_ring"},
    }


def _consensus_grid(seed):
    # configs/consensus_directed.json at n = 100 (`dhb consensus --n 100`).
    return {
        "graph": {"n": 100, "ring_degree": 2, "extra_link_fraction": 0.05,
                  "directed": True, "seed": 29},
        "consensus": {
            "alpha_grid": [0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45,
                           0.5, 0.55, 0.6],
            "beta_grid": [0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4],
            "max_iter": 20000, "tol": 1e-11, "seed": 31 + seed,
        },
        "run": {"max_iter": 0, "stop_residual": 0.0, "seed": 0,
                "out_dir": "results/consensus_grid"},
    }


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_config: object      # seed -> config dict
    entry: str               # harness function the benchmark calls
    # Outputs at DEFAULT_SEED. Engine workloads: kind -> (alpha, beta,
    # first iteration below the threshold). Consensus: form -> (alpha,
    # beta, radius, iterations).
    pinned: dict
    # Probe counters of one call at DEFAULT_SEED.
    pinned_counts: dict = field(default_factory=dict)
    # The refclock kernel that does the same kind of work as the workload.
    calibration: str = "interpreted"

    def weight_slots(self, cfg):
        if self.entry == "run_consensus_experiment":
            return {"A", "B"}
        return {s for e in cfg["engines"] for s in engines.ENGINE_WEIGHTS[e["kind"]]}

    def check(self, cfg, result, counts, seed):
        """Every mismatch between the call's outputs and what must hold."""
        if self.entry == "run_consensus_experiment":
            problems = _check_consensus(self.pinned, result, seed)
        else:
            problems = _check_engines(self.pinned, cfg, result, seed)
        if seed == DEFAULT_SEED:
            for key, want in self.pinned_counts.items():
                if counts[key] != want:
                    problems.append(f"{key} = {counts[key]}, pinned {want}")
        return problems


def _check_engines(pinned, cfg, result, seed):
    traces, summary = result
    stop = cfg["run"]["stop_residual"]
    level = stop or FIXED_RUN_LEVEL
    termination = "threshold" if stop else "max_iter"
    rows = {row["engine"]: row for row in summary}
    problems = []
    for ecfg in cfg["engines"]:
        kind = ecfg["kind"]
        row = rows.get(kind)
        if row is None:
            problems.append(f"{kind}: no summary row")
            continue
        if row["termination"] != termination:
            problems.append(f"{kind}: terminated at {row['termination']}, "
                            f"expected {termination}")
        iters = iterations_to_threshold(traces[kind], level)
        if iters is None:
            problems.append(f"{kind}: residual never below {level:g}")
        if "tune" in ecfg:
            grid_a = ecfg["tune"]["alpha_grid"]
            grid_b = ecfg["tune"].get("beta_grid", [0.0])
        else:
            grid_a, grid_b = [ecfg["alpha"]], [ecfg.get("beta", 0.0)]
        if row["alpha"] not in grid_a or row["beta"] not in grid_b:
            problems.append(f"{kind}: alpha={row['alpha']!r} beta={row['beta']!r} "
                            "not on the grid")
        got = (row["alpha"], row["beta"], iters)
        if seed == DEFAULT_SEED and got != pinned[kind]:
            problems.append(f"{kind}: (alpha, beta, iterations) = {got}, "
                            f"pinned {pinned[kind]}")
    return problems


def _check_consensus(pinned, result, seed):
    problems = []
    for form, (alpha, beta, radius, iters) in pinned.items():
        r = result[form]
        termination = r["trace"].meta["termination"]
        if termination != "threshold":
            problems.append(f"{form}: terminated at {termination}")
        # The graph does not depend on the seed, so neither does the tuning.
        if (r["alpha"], r["beta"]) != (alpha, beta):
            problems.append(f"{form}: alpha={r['alpha']!r} beta={r['beta']!r}, "
                            f"pinned {alpha!r} {beta!r}")
        if not math.isclose(r["radius"], radius, rel_tol=0.0, abs_tol=RADIUS_TOL):
            problems.append(f"{form}: radius {r['radius']!r}, pinned {radius!r} "
                            f"+- {RADIUS_TOL:g}")
        got = r["trace"].records[-1].k
        if seed == DEFAULT_SEED and got != iters:
            problems.append(f"{form}: {got} iterations, pinned {iters}")
    return problems


WORKLOADS = {w.name: w for w in (
    Workload(
        "tuned_momentum",
        "the reference experiment's shape at 1/40 the iterations: tuning, a "
        "re-run of each winner, and ab repeating abm with beta=0",
        _tuned_momentum, "run_experiment",
        pinned={"abm": (2.4e-3, 0.4, 4052), "ab": (1.2e-3, 0.0, 10969)},
        pinned_counts={"engines.runs": 8, "engines.iterations": 49294,
                       "engines.unique_iterations": 23221},
    ),
    Workload(
        "large_ring",
        "one fixed-length untuned n=500 run: the dense step kernel and Perron "
        "set-up dominate, recording and repeated runs do not",
        _large_ring, "run_experiment",
        pinned={"abm": (0.002, 0.4, 3983)},
        pinned_counts={"engines.runs": 1, "engines.iterations": 8000,
                       "engines.unique_iterations": 8000},
        calibration="dense",
    ),
    Workload(
        "consensus_grid",
        "the consensus eigen-solve does almost all the work and the engines "
        "do none",
        _consensus_grid, "run_consensus_experiment",
        pinned={"abmc": (0.2, 0.4, 0.6950940246654721, 63),
                "surplus": (0.2, 0.0, 0.8218053163636934, 116)},
        pinned_counts={"consensus.iterations": 179},
        calibration="dense",
    ),
)}
