"""The fused stepper on the in-neighbor side of WeightMatrix.multiplier:
which matrices take it, and an n = 500 run against the dense per-step
loop."""

import importlib.util
import warnings
from pathlib import Path

import numpy as np
import pytest

from dhb import analysis as an
from dhb import engines as eng
from dhb import harness as hs
from dhb.analysis import average_residual

ROOT = Path(__file__).resolve().parents[1]


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("source, sparse", [
    ("large_ring", True), ("tuned_momentum", False), ("quickstart", False)])
def test_side_selection(source, sparse):
    if source == "quickstart":
        cfg = hs.parse_config(ROOT / "configs" / "quickstart.json")
    else:
        workloads = _workloads()
        cfg = workloads.WORKLOADS[source].make_config(workloads.DEFAULT_SEED)
    mats = hs.build_weights(hs.build_graph(cfg["graph"]), {"A", "B"})
    assert [mats[s].sparse for s in "AB"] == [sparse, sparse]


def large_ring(alpha, beta):
    g = hs.build_graph({"n": 500, "ring_degree": 3,
                        "extra_link_fraction": 3e-4, "directed": True,
                        "seed": 1})
    mats = hs.build_weights(g, {"A", "B"})
    assert mats["A"].sparse and mats["B"].sparse
    # rows of different in-degree, so the layout has padded slots
    assert np.ptp(g.mask.sum(axis=1)) > 0
    suite = hs.build_quadratic(500, 2, 100.0, 19)
    x0 = np.random.default_rng(23).standard_normal((500, 2))
    return eng.make_config("abm", 500, alpha, beta, **mats), suite, x0


def per_step(cfg, suite, x0, max_iter, stop_residual):
    """The dense per-step loop: abm_step, one record at a time."""
    x_star = suite.minimizer()
    return an.iterate(
        eng.init_state(cfg, suite, x0), lambda s: eng.abm_step(s, cfg, suite),
        lambda s: (average_residual(s.x, x_star), None),
        max_iter, stop_residual, {})


def test_n500_run_matches_dense_per_step_loop():
    cfg, suite, x0 = large_ring(0.002, 0.4)
    fused = eng.run(cfg, suite, x0, 5000, 1e-2)
    dense = per_step(cfg, suite, x0, 5000, 1e-2)
    assert fused.meta["termination"] == dense.meta["termination"] \
        == "threshold"
    assert an.iterations_to_threshold(fused, 1e-2) \
        == an.iterations_to_threshold(dense, 1e-2) == 3983
    got, want = fused.residuals(), dense.residuals()
    assert got.shape == want.shape
    assert np.max(np.abs(got - want) / want) <= 1e-10


def test_overflowing_sparse_run_diverges_without_warning():
    # the steps past the overflow multiply padded zero weights by inf
    cfg, suite, x0 = large_ring(1e300, 0.4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = eng.run(cfg, suite, x0, 100, 0.0)
    assert trace.meta["termination"] == "diverged"
    assert trace.meta["termination"] \
        == per_step(cfg, suite, x0, 100, 0.0).meta["termination"]
