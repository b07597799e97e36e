"""A stack of a fused kind's configs, stepped as one, against one engines.run
call per config: point by point the same records and termination, bit for
bit, on both sides of the exchange and on both objective families; tuning
through one stack; and the quadratic gradient on points of any shape."""

import math
from unittest import mock

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from dhb import analysis as an
from dhb import engines as eng
from dhb import graph as gr
from dhb import objectives as obj
from dhb import weights as wt
# the plain per-step loop (abm_step, one record at a time), the oracle
from test_block_run import assert_matches_per_step

LOCKSTEP_SETTINGS = settings(derandomize=True, max_examples=100,
                             deadline=None)
# step-sizes from slow through diverging to overflowing at the first step
ALPHAS = (0.02, 0.1, 0.3, 1.0, 1e300)
BETAS = (0.0, 0.3, 0.6)


def columns(trace):
    """k, residual and tracking-error columns (NaN for none)."""
    tes = [math.nan if r.tracking_error is None else r.tracking_error
           for r in trace.records]
    return trace.iterations(), trace.residuals(), np.array(tes)


def assert_stack_is_solo_runs(cfgs, suite, x0, max_iter, stop_residual):
    stacked = eng._fused_abm(cfgs, suite, x0, max_iter, stop_residual)
    assert len(stacked) == len(cfgs)
    for cfg, trace in zip(cfgs, stacked):
        solo = eng.run(cfg, suite, x0, max_iter, stop_residual)
        assert trace.meta == dict(solo.meta)
        for got, want in zip(columns(trace), columns(solo)):
            assert np.array_equal(got, want, equal_nan=True)
    return stacked


@st.composite
def problems(draw):
    """(kind, suite, weight matrices, x0): abm or ab on a directed graph,
    ds_tracking on an undirected one, with A and B dense (n < 40 d) or
    gathering in-neighbors; a quadratic or a logistic suite."""
    sparse, directed = draw(st.booleans()), draw(st.booleans())
    n = draw(st.integers(200, 260) if sparse else st.integers(2, 12))
    seed = draw(st.integers(0, 2**16))
    g = gr.generate_nearest_neighbor(
        n, 1 if sparse else draw(st.integers(1, min(3, n - 1))),
        0.0 if sparse else draw(st.floats(0.0, 0.3)), seed, directed)
    if directed:
        kind = draw(st.sampled_from(["abm", "ab"]))
        mats = {"A": wt.uniform_row_stochastic(g),
                "B": wt.uniform_column_stochastic(g)}
    else:
        kind, mats = "ds_tracking", {"W": wt.laplacian_doubly_stochastic(g)}
    assume(all(m.sparse == sparse for m in mats.values()))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        p = draw(st.integers(1, 4))
        suite = obj.quadratic_suite(rng.uniform(0.5, 2.0, (n, p)),
                                    rng.standard_normal((n, p)))
    else:
        suite = obj.logistic_suite(
            *obj.synthesize_logistic_data(n, 3, draw(st.integers(1, 3)),
                                          seed), 0.5)
    return kind, suite, mats, rng.standard_normal((n, suite.p))


@LOCKSTEP_SETTINGS
@given(problems(),
       st.lists(st.tuples(st.sampled_from(ALPHAS), st.sampled_from(BETAS)),
                min_size=1, max_size=5),
       st.integers(0, 300), st.sampled_from([0.0, 0.5, 1e-1, 1e-2]),
       st.sampled_from([1, 3, 64]))
def test_stack_is_the_solo_runs_bit_for_bit(problem, points, max_iter,
                                            stop_residual, rows):
    # the lists hold duplicate points too
    kind, suite, mats, x0 = problem
    cfgs = [eng.make_config(kind, suite.n, alpha, beta, **mats)
            for alpha, beta in points]
    with mock.patch.object(an, "BLOCK_ROWS", rows):
        assert_stack_is_solo_runs(cfgs, suite, x0, max_iter, stop_residual)


def test_stack_retires_each_point_where_its_solo_run_stops():
    # n = 6, p = 2, 3 rows per block: a diverging point, points stopping at
    # different records of a block, one at max_iter, and a duplicate
    g = gr.generate_nearest_neighbor(6, 2, 0.1, seed=8, directed=True)
    mats = {"A": wt.uniform_row_stochastic(g),
            "B": wt.uniform_column_stochastic(g)}
    rng = np.random.default_rng(8)
    suite = obj.quadratic_suite(rng.uniform(0.5, 2.0, (6, 2)),
                                rng.standard_normal((6, 2)))
    x0 = rng.standard_normal((6, 2))
    grid = [(0.9, 0.5), (0.05, 0.3), (0.05, 0.0), (0.002, 0.0), (0.05, 0.3)]
    cfgs = [eng.make_config("abm", 6, a, b, **mats) for a, b in grid]
    with mock.patch.object(an, "BLOCK_ROWS", 3):
        traces = assert_stack_is_solo_runs(cfgs, suite, x0, 2000, 1e-6)
    ends = [(t.meta["termination"], t.records[-1].k) for t in traces]
    assert [end for end, _ in ends] == ["diverged", "threshold", "threshold",
                                        "max_iter", "threshold"]
    # blocks of records 0-2, 3-5, ...: each stop leaves records of its block
    assert all(k % 3 != 2 for _, k in ends[:3]) and ends[1][1] != ends[2][1]
    for cfg, trace in zip(cfgs, traces):
        assert_matches_per_step(cfg, suite, x0, 2000, 1e-6, trace)


def test_tuning_stacks_the_points_that_miss_the_cache(monkeypatch):
    g = gr.generate_nearest_neighbor(8, 2, 0.1, seed=9, directed=True)
    mats = {"A": wt.uniform_row_stochastic(g),
            "B": wt.uniform_column_stochastic(g)}
    rng = np.random.default_rng(9)
    suite = obj.quadratic_suite(rng.uniform(0.5, 2.0, (8, 2)),
                                rng.standard_normal((8, 2)))
    x0 = rng.standard_normal((8, 2))
    stacks = []
    run_stack = eng._fused_abm

    def logged(cfgs, *args):
        stacks.append([(cfg.kind, float(cfg.betas[0])) for cfg in cfgs])
        return run_stack(cfgs, *args)

    monkeypatch.setattr(eng, "_fused_abm", logged)
    cache = {}
    best = eng.tune_parameters("abm", suite, x0, [0.02, 0.04, 0.9],
                               [0.0, 0.4, 0.0], 3000, 1e-8, cache, **mats)
    # nine grid points, six distinct: one stack of six
    assert stacks == [[("abm", 0.0), ("abm", 0.4)] * 3]
    # ab's grid is abm's beta = 0 column: all in the cache
    assert eng.tune_parameters("ab", suite, x0, [0.02, 0.04, 0.9], [0.0],
                               3000, 1e-8, cache, **mats)[2] is not None
    assert len(stacks) == 1 and len(cache) == 6
    monkeypatch.undo()
    # the same winner as tuning one solo run at a time
    solo = {}
    for alpha in (0.02, 0.04, 0.9):
        for beta in (0.0, 0.4):
            cfg = eng.make_config("abm", 8, alpha, beta, **mats)
            trace = eng.run(cfg, suite, x0, 3000, 1e-8)
            k = an.iterations_to_threshold(trace, 1e-8)
            solo[(alpha, beta)] = math.inf if k is None else k
    alpha, beta = min(solo, key=solo.get)
    assert best == (alpha, beta, solo[(alpha, beta)])


def test_quadratic_gradient_of_any_point_shape_after_a_stack():
    # 2q and b follow the shape of the last points: a stack, one point per
    # agent, and one point for every agent, in turn
    rng = np.random.default_rng(10)
    q, b = rng.uniform(0.5, 2.0, (5, 3)), rng.standard_normal((5, 3))
    suite = obj.quadratic_suite(q, b)
    stack = rng.standard_normal((4, 5, 3))
    for x in (stack, stack[1], stack[2, 0], stack[:2], stack[3]):
        want = np.add(np.multiply(2.0 * q, x), b)
        assert np.array_equal(suite.stacked_gradient(x), want)
