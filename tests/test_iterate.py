"""analysis.iterate, the block loop of one stepped state: consensus runs
against a plain per-record loop, bit for bit, at several block sizes; and
a step that raises DhbError inside a block."""

import math
from unittest import mock

import numpy as np
import pytest

from dhb import analysis as an
from dhb import consensus as cs
from dhb import graph as gr
from dhb import weights as wt
from dhb.errors import DhbError


def per_record(sys_, values, max_iter, tol):
    """(k, residual) rows and termination of the plain consensus loop."""
    state = cs.initial_stack(sys_, values)
    mean = state[:sys_.n].mean(axis=0)
    rows = []
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(max_iter + 1):
            if k > 0:
                state = sys_.H @ state
            res = an.average_residual(state[:sys_.n], mean)
            rows.append((k, res if math.isfinite(res) else math.inf))
            if k > 0 and rows[-1][1] > 1e12:
                return rows, "diverged"
            if rows[-1][1] < tol:
                return rows, "threshold"
    return rows, "max_iter"


def system(form, alpha, beta=0.0):
    g = gr.generate_nearest_neighbor(6, 2, 0.1, seed=15, directed=True)
    A, B = wt.uniform_row_stochastic(g), wt.uniform_column_stochastic(g)
    return cs.build_system(A, B, alpha, beta, form)


# (form, alpha, beta, max_iter, tol, termination)
RUNS = {
    "abmc-threshold": ("abmc", 0.2, 0.1, 5000, 1e-9, "threshold"),
    "surplus-threshold": ("surplus", 0.2, 0.0, 5000, 1e-7, "threshold"),
    "abmc-max_iter": ("abmc", 0.2, 0.1, 130, 0.0, "max_iter"),
    "surplus-max_iter": ("surplus", 0.2, 0.0, 64, 0.0, "max_iter"),
    "abmc-diverged": ("abmc", 3.0, 0.0, 100000, 1e-10, "diverged"),
    "surplus-overflow": ("surplus", 1e200, 0.0, 100, 0.0, "diverged"),
    "abmc-overflow": ("abmc", 1e200, 0.5, 100, 0.0, "diverged"),
}


@pytest.mark.parametrize("rows", [1, 3, 64])
@pytest.mark.parametrize("p", [1, 3])
@pytest.mark.parametrize("run", RUNS.values(), ids=RUNS.keys())
def test_consensus_run_is_the_per_record_loop_bit_for_bit(run, p, rows):
    form, alpha, beta, max_iter, tol, termination = run
    sys_ = system(form, alpha, beta)
    values = np.random.default_rng(p).standard_normal((6, p))
    want, end = per_record(sys_, values, max_iter, tol)
    with mock.patch.object(an, "BLOCK_ROWS", rows):
        trace = cs.consensus_run(sys_, values, max_iter, tol)
    assert trace.meta["termination"] == end == termination
    assert trace.iterations().tolist() == [k for k, _ in want]
    assert (trace.residuals().tobytes()
            == np.array([r for _, r in want]).tobytes())
    assert all(r.tracking_error is None for r in trace.records)


@pytest.mark.parametrize("rows", [3, 64])
def test_consensus_threshold_stops_inside_a_block(rows):
    # record k sits in the block of records (k // rows) * rows ... + rows - 1
    sys_ = system("abmc", 0.2, 0.1)
    values = np.random.default_rng(3).standard_normal((6, 3))
    with mock.patch.object(an, "BLOCK_ROWS", rows):
        ends = [cs.consensus_run(sys_, values, 5000, tol).records[-1].k
                for tol in (1e-3, 1e-5, 1e-7, 1e-9)]
    assert any(k % rows != rows - 1 for k in ends)


def halving_run(fails_at, stop_residual, rows=4):
    """iterate on x_k = 2^-k, whose step raises on its fails_at-th call."""
    calls = []

    def step(x):
        calls.append(len(calls) + 1)
        if len(calls) == fails_at:
            raise DhbError(f"step {fails_at}")
        return x / 2.0

    with mock.patch.object(an, "BLOCK_ROWS", rows):
        return an.iterate(np.ones((1, 1)), step, lambda x: x, np.zeros(1),
                          100, stop_residual, {})


@pytest.mark.parametrize("fails_at", [1, 4, 6])
def test_a_step_that_raises_inside_a_block_raises(fails_at):
    with pytest.raises(DhbError, match=f"step {fails_at}"):
        halving_run(fails_at, 0.0)


@pytest.mark.parametrize("fails_at", [1, 4, 6])
def test_an_earlier_record_below_the_stop_ends_without_raising(fails_at):
    # record fails_at - 1 is the first below the stop residual
    trace = halving_run(fails_at, 1.5 * 2.0 ** (1 - fails_at))
    assert trace.meta["termination"] == "threshold"
    assert trace.iterations().tolist() == list(range(fails_at))
    assert trace.residuals().tolist() == [2.0 ** -k for k in range(fails_at)]
