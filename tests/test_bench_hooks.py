"""The benchmark's probe wraps dhb functions by name: a rename in src/dhb
that breaks bench/run.py fails here."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from dhb import engines, harness, objectives, weights


def _load(name, filename):
    spec = importlib.util.spec_from_file_location(
        name, Path(__file__).resolve().parents[1] / "bench" / filename)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load("bench_tracing", "tracing.py")
workloads = _load("bench_workloads", "workloads.py")


def _wrapped(probe):
    return [(owner, attr) for owner, attr, _, _ in probe._targets()]


def _current(owner, attr):
    return owner[attr] if isinstance(owner, dict) else owner.__dict__[attr]


def test_probe_counts_runs_and_restores_every_wrapper(tmp_path):
    probe = tracing.Probe(traced=True)
    originals = [_current(o, a) for o, a in _wrapped(probe)]
    g = harness.build_graph({"n": 6, "ring_degree": 2,
                             "extra_link_fraction": 0.1, "directed": True,
                             "seed": 1})
    suite = harness.build_quadratic(6, 2, 10.0, 2)
    x0 = np.random.default_rng(3).standard_normal((6, 2))
    with probe.installed():
        A = weights.uniform_row_stochastic(g)
        B = weights.uniform_column_stochastic(g)
        cfg = engines.make_config("ab", 6, 0.02, A=A, B=B)
        trace = engines.run(cfg, suite, x0, 50, 1e-8)
        harness.run_consensus_experiment({
            "graph": {"n": 6, "ring_degree": 2, "extra_link_fraction": 0.1,
                      "directed": True, "seed": 1},
            "run": {"max_iter": 10, "stop_residual": 1e-8, "seed": 0,
                    "out_dir": str(tmp_path)},
            "consensus": {"alpha_grid": [0.1, 0.2], "beta_grid": [0.0, 0.3],
                          "max_iter": 30, "tol": 1e-10, "seed": 4},
        })
    assert probe.counts["engines.runs"] == 1
    assert probe.counts["engines.iterations"] == trace.records[-1].k
    assert probe.counts["consensus.iterations"] > 0
    names = {probe.names[i] for i in probe.cols[3]}
    assert {"weights.build", "engines.run", "consensus.build",
            "consensus.radius", "consensus.run"} <= names
    assert all(_current(o, a) is f
               for (o, a), f in zip(_wrapped(probe), originals))


def test_probe_times_the_stacked_gradient_and_minimizer_of_a_suite():
    # the probe wraps ObjectiveSuite.stacked_gradient and
    # objectives.global_minimizer by name; a suite that reached either by
    # another name would leave the objectives.* metrics at zero
    features, labels = objectives.synthesize_logistic_data(4, 5, 2, seed=1)
    suite = objectives.logistic_suite(features, labels, reg=0.3)
    probe = tracing.Probe(traced=True)
    with probe.installed():
        suite.stacked_gradient(np.zeros((suite.n, suite.p)))
        suite.minimizer()
    names = [probe.names[i] for i in probe.cols[3]]
    assert names.count("objectives.stacked_gradient") == 1
    assert names.count("objectives.minimizer") == 1


@pytest.mark.parametrize("name", ["tuned_momentum", "large_ring"])
def test_engine_workload_passes_the_benchmark_check_at_seed_0(tmp_path, name):
    # the pinned winners, iterations and run counts the benchmark compares
    # every call against; engines.runs counts cache hits too. large_ring
    # pins the outputs of the benchmark's n = 500 graph and its weights.
    workload = workloads.WORKLOADS[name]
    cfg = workload.make_config(workloads.DEFAULT_SEED)
    probe = tracing.Probe(traced=False)
    with probe.installed():
        result = harness.run_experiment(cfg, str(tmp_path))
    assert workload.check(cfg, result, probe.counts,
                          workloads.DEFAULT_SEED) == []
